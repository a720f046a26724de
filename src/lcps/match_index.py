"""Per-symbol match sets between two byte strings.

A match is a position pair (i, j) with x[i] == y[j] (1-based). Matches are
never listed, since their count can be quadratic in the input lengths: each
input is kept as its uint8 codes, with one occurrence count per each of the
256 symbols. A symbol's matches are the cross product of its x_s positions
in x and its y_s positions in y; per_sigma gives only their count x_s * y_s.
Only geometry.rect_columns groups positions by symbol.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Match(NamedTuple):
    i: int  # 1-based position in x
    j: int  # 1-based position in y


class SigmaMatchSet(NamedTuple):
    """One symbol's match count: r_sigma = x_s * y_s."""

    sigma: int
    r_sigma: int


class MatchSet(NamedTuple):
    """Read-only codes and symbol counts of both inputs.

    x holds x's bytes as uint8 codes (the symbol at 1-based position i is
    x[i - 1]) and x_count (length 256) how many times each symbol occurs;
    y and y_count are the same for y.
    """

    x: np.ndarray
    x_count: np.ndarray
    y: np.ndarray
    y_count: np.ndarray

    @property
    def r(self) -> int:
        """The total match count."""
        return int(self.x_count @ self.y_count)

    @property
    def per_sigma(self) -> tuple[SigmaMatchSet, ...]:
        """The match count of each symbol in both inputs, by ascending symbol."""
        r = self.x_count * self.y_count
        both = np.flatnonzero(r)
        return tuple(map(SigmaMatchSet._make, zip(both.tolist(), r[both].tolist())))


def build_match_set(x: bytes, y: bytes) -> MatchSet:
    """View both inputs as codes, without a copy, and count their symbols.

    Sorts nothing and stores 256 counts per input beyond views of the
    inputs; matches are never materialized, so no input is too large here.
    The geometric solver's rectangle cap, checked against the exact count
    before any position is sorted, bounds what comes after.
    """
    arrays = []
    for s in (x, y):
        codes = np.frombuffer(s, dtype=np.uint8)
        arrays += (codes, np.bincount(codes, minlength=256))
    for a in arrays:
        a.setflags(write=False)
    return MatchSet(*arrays)
