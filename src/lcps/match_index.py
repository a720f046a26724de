"""Per-symbol match sets between two byte strings.

A match is a position pair (i, j) with x[i] == y[j] (1-based). Matches are
never listed, since their count can be quadratic in the input lengths: each
input's positions are kept grouped by symbol, with one occurrence count per
each of the 256 symbols. A symbol's matches are the cross product of its
x_s positions in x and its y_s positions in y; per_sigma gives only their
count x_s * y_s. One numpy pass per input builds the arrays.
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
    """Read-only occurrence arrays of both inputs.

    x_pos holds x's 1-based positions (int32) grouped by symbol in ascending
    symbol order, ascending within each symbol, and x_count (length 256) how
    many each symbol has; y_pos and y_count are the same for y.
    """

    x_pos: np.ndarray
    x_count: np.ndarray
    y_pos: np.ndarray
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
    """Group both inputs' positions by symbol, from one numpy pass over each.

    Stores only O(n + m) positions; matches are never materialized, so no
    input is too large here. The geometric solver's rectangle cap, checked
    against the exact count before anything is built, bounds what comes
    after.
    """
    arrays = []
    for s in (x, y):
        codes = np.frombuffer(s, dtype=np.uint8)
        arrays += (np.argsort(codes, kind="stable").astype(np.int32) + 1,
                   np.bincount(codes, minlength=256))
    for a in arrays:
        a.setflags(write=False)
    return MatchSet(*arrays)
