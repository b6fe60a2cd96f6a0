"""Exact root-system combinatorics with numeric certificates for
pseudoconcavity of flag domains and period-domain degenerations."""

from .chevalley import (
    ChevalleyConstants,
    jacobi_violations,
    structure_constants,
    verify_bracket_identities,
)
from .concavity import ConcavityReport, check_pseudoconcavity
from .hodge import (
    DegenerationSpec,
    HodgeNumbers,
    InfeasibleDegeneration,
    grading_values_on_V,
    group_of_period_domain,
    limit_diamond,
    period_report,
    sl2_cayley_checks,
)
from .leviform import DefiningFunction, levi_analyze
from .matrixrep import (
    MatrixRealization,
    below_filtration,
    fundamental_rep,
    verify_cayley_conjugation,
    verify_fixed_point,
)
from .realform import CompactnessTable, classify_roots
from .rootsys import (
    GradingElement,
    LieType,
    Root,
    RootSystem,
    build_root_system,
    from_cartan_matrix,
    grading,
    root,
    root_string,
)

__version__ = "0.1.0"
