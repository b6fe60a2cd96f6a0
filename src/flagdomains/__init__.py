"""Exact root-system combinatorics with numeric certificates for
pseudoconcavity of flag domains and period-domain degenerations."""

# only the names perfbench reads as flagdomains.*; they go once it reads the
# package's own spans (ROADMAP item 2)
from .concavity import check_pseudoconcavity
from .realform import classify_roots
from .rootsys import LieType, build_root_system, grading

__version__ = "0.1.0"
