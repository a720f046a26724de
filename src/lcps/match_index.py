"""Per-symbol match sets between two byte strings.

A match is a position pair (i, j) with x[i] == y[j] (1-based). Matches are
never listed, since their count can be quadratic in the input lengths: each
input's positions are kept grouped by symbol, with one occurrence count per
each of the 256 symbols, and a symbol's matches are the cross product of
its positions in x and in y. One numpy pass per input builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Match(NamedTuple):
    i: int  # 1-based position in x
    j: int  # 1-based position in y


@dataclass(frozen=True)
class SigmaMatchSet:
    """All matches for one symbol: the cross product x_occ x y_occ."""

    sigma: int
    x_occ: tuple[int, ...]
    y_occ: tuple[int, ...]

    @property
    def r_sigma(self) -> int:
        return len(self.x_occ) * len(self.y_occ)


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
        """The match set of each symbol in both inputs, by ascending symbol."""
        x_occ = np.split(self.x_pos, np.cumsum(self.x_count)[:-1])
        y_occ = np.split(self.y_pos, np.cumsum(self.y_count)[:-1])
        return tuple(SigmaMatchSet(s, tuple(xo.tolist()), tuple(yo.tolist()))
                     for s, (xo, yo) in enumerate(zip(x_occ, y_occ)) if xo.size and yo.size)


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
