"""Longest common palindromic subsequence of two byte strings.

Two independent solvers (a 4-index dynamic program and a geometric
nested-rectangle chain solver), an exhaustive oracle for ground truth, a
benchmark harness, and a command line front end.
"""

from .chain_solver import geometric_lcps
from .core import CapacityExceeded, CpsResult, InputTooLarge, InvalidWitness, validate_witness
from .dp_solver import dp_lcps
from .oracle import brute_force_lcps

# Not in __all__, but importable from the package: the pieces of each solver
# that the acceptance criteria exercise. Everything else is imported from
# its module.
from .bench import GenSpec, generate
from .chain_solver import DominanceMaxIndex, longest_chain
from .dp_solver import fill_table
from .geometry import decompose_cps, enumerate_rectangles, is_chained, is_nested, rect_to_point
from .match_index import build_match_set

__version__ = "0.1.0"

__all__ = [
    "CapacityExceeded",
    "CpsResult",
    "InputTooLarge",
    "InvalidWitness",
    "brute_force_lcps",
    "dp_lcps",
    "geometric_lcps",
    "validate_witness",
]
