"""Compact versus noncompact roots, read off from grading parity.

For a flag domain whose isotropy group is compact and centralizes a
circle, the Weil element induces the Cartan involution, so a root space
lands in the complexified maximal compact subalgebra exactly when its
grading value is even.
"""

from __future__ import annotations

from typing import NamedTuple

from .rootsys import GradingElement, Root, RootSystem, check_grading


class CompactnessTable(NamedTuple):
    """The two parts of ``rs.roots``, each in the order of ``rs.roots``, and
    the grading value of every root, indexed like ``rs.roots``."""

    compact: tuple[Root, ...]
    noncompact: tuple[Root, ...]
    values: tuple[int, ...]


def classify_roots(rs: RootSystem, e: GradingElement) -> CompactnessTable:
    """Partition the roots into compact (even grading) and noncompact (odd).

    The grading is linear, so the values are built along ``rs.steps``: one
    addition per positive root past the simple ones, and -v on the mirror
    half."""
    check_grading(rs, e)
    coeffs, half = e.coeffs, rs.half
    values = [0] * len(rs.roots)
    for s, i in enumerate(rs.simple):
        values[i] = coeffs[s]
    for k, p, s in rs.steps:
        values[k] = values[p] + coeffs[s]
    values[:half] = [-v for v in reversed(values[half:])]
    parts: tuple[list[Root], list[Root]] = ([], [])
    for a, v in zip(rs.roots, values):
        parts[v % 2].append(a)
    return CompactnessTable(
        compact=tuple(parts[0]), noncompact=tuple(parts[1]), values=tuple(values)
    )
