import json
from collections import Counter
from itertools import islice

import numpy as np
import pytest

from perfbench import workloads


@pytest.mark.parametrize("seed", [1, 2, 17])
def test_generators_are_deterministic_per_seed(seed):
    assert workloads.cli_block(seed, 3) == workloads.cli_block(seed, 3)
    assert workloads.verify_sweep(seed) == workloads.verify_sweep(seed)
    first = list(islice(workloads.grading_pairs(seed), 200))
    assert first == list(islice(workloads.grading_pairs(seed), 200))


def test_seeds_give_different_inputs():
    assert workloads.cli_block(1, 0) != workloads.cli_block(2, 0)
    assert list(islice(workloads.grading_pairs(1), 50)) != list(islice(workloads.grading_pairs(2), 50))
    assert workloads.verify_sweep(1) != workloads.verify_sweep(2)


@pytest.mark.parametrize("seed", [1, 5])
def test_cli_blocks_keep_fixed_shares(seed):
    kinds = [Counter(q.kind for q in workloads.cli_block(seed, i)) for i in range(5)]
    for i, count in enumerate(kinds):
        assert sum(count.values()) == workloads.BLOCK_SIZE
        assert count["verify"] == 4 and count["levi"] == 3 and count["theorem1"] == 4
    malformed = [k for count in kinds for k in count if k in ("bad-json", "rank7", "infeasible", "nonfinite")]
    assert sorted(malformed) == ["bad-json", "bad-json", "infeasible", "nonfinite", "rank7"]


def test_sweep_certifies_each_system_once_with_every_suite():
    ops = workloads.verify_sweep(4)
    assert len(ops) == 8
    for op in ops:
        assert sorted(q.kind for q in op) == ["chevalley", "fixed-point", "prop33"]
        assert len({q.argv[3:7] for q in op}) == 1
    assert len({op[0].argv[3:7] for op in ops}) == 8
    for q in (q for op in ops for q in op):
        if q.kind == "fixed-point":
            assert len(q.expect["eps"]) == workloads.EPS_PER_RUN


def test_grading_pairs_stay_in_range_and_cover_systems():
    pairs = list(islice(workloads.grading_pairs(9), 2 * len(workloads.SCAN_SYSTEMS)))
    assert Counter((f, r) for f, r, _ in pairs) == Counter(
        {s: 2 for s in workloads.SCAN_SYSTEMS}
    )
    for _, rank, coeffs in pairs:
        assert len(coeffs) == rank and any(coeffs)
        assert all(0 <= c <= workloads.SCAN_MAX_COEFF for c in coeffs)


@pytest.mark.parametrize("seed", range(6))
def test_levi_expectation_matches_the_restricted_form(seed):
    """The generator's negative count equals the inertia of the Hermitian
    form restricted to the kernel of the gradient at z0 = 0."""
    levis = [q for q in workloads.cli_block(seed, 0) if q.kind == "levi"]
    for q in levis:
        data = json.loads(q.argv[2])
        n = data["n"]
        hess = np.zeros((n, n), dtype=complex)
        grad = np.zeros(n, dtype=complex)
        for t in data["terms"]:
            c = complex(*t["c"]) if isinstance(t["c"], list) else complex(t["c"])
            if sum(t["z"]) == 1 and sum(t["zbar"]) == 1:
                hess[t["z"].index(1), t["zbar"].index(1)] += c
            elif sum(t["z"]) == 1:
                grad[t["z"].index(1)] += c
        assert np.allclose(hess, hess.conj().T)
        _, _, vh = np.linalg.svd(grad.reshape(1, -1))
        plane = vh[1:].conj().T
        eig = np.linalg.eigvalsh(plane.conj().T @ hess.T @ plane)
        assert np.min(np.abs(eig)) >= 1.0 - 1e-9
        assert int(np.sum(eig < 0)) == q.expect["negatives"]
