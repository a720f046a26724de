"""Longest common palindromic subsequence of two byte strings.

Two independent solvers (a 4-index dynamic program and a geometric
nested-rectangle chain solver), an exhaustive oracle for ground truth, a
benchmark harness, and a command line front end.
"""

from .bench import SOLVERS, GenSpec, generate, run_suite
from .chain_solver import (
    ChainNode,
    DominanceMaxIndex,
    geometric_lcps,
    longest_chain,
    sort_points,
)
from .core import (
    EMPTY_RESULT,
    CapacityExceeded,
    CpsResult,
    InputTooLarge,
    InvalidWitness,
    is_palindrome,
    is_subsequence,
    validate_witness,
)
from .dp_solver import DEFAULT_CELL_CAP, DpTable, dp_lcps, fill_table
from .geometry import (
    DEFAULT_RECT_CAP,
    Point4,
    Rect,
    decompose_cps,
    enumerate_rectangles,
    is_chained,
    is_nested,
    rect_to_point,
)
from .match_index import (
    Match,
    MatchSet,
    SigmaMatchSet,
    build_match_set,
    build_occurrence_lists,
)
from .oracle import MAX_ORACLE_LEN, brute_force_lcps

__version__ = "0.1.0"

__all__ = [
    "CapacityExceeded",
    "ChainNode",
    "CpsResult",
    "DEFAULT_CELL_CAP",
    "DEFAULT_RECT_CAP",
    "DominanceMaxIndex",
    "DpTable",
    "EMPTY_RESULT",
    "GenSpec",
    "InputTooLarge",
    "InvalidWitness",
    "MAX_ORACLE_LEN",
    "Match",
    "MatchSet",
    "Point4",
    "Rect",
    "SOLVERS",
    "SigmaMatchSet",
    "brute_force_lcps",
    "build_match_set",
    "build_occurrence_lists",
    "decompose_cps",
    "dp_lcps",
    "enumerate_rectangles",
    "fill_table",
    "generate",
    "geometric_lcps",
    "is_chained",
    "is_nested",
    "is_palindrome",
    "is_subsequence",
    "longest_chain",
    "rect_to_point",
    "run_suite",
    "sort_points",
    "validate_witness",
]
