"""Per-symbol match sets between two byte strings.

A match is a position pair (i, j) with x[i] == y[j] (1-based). Matches are
never listed, since their count can be quadratic in the input lengths: each
input is kept as its uint8 codes and its 256 symbol counts. A symbol's
matches are the x_s * y_s pairs of its positions in x and in y; per_sigma
gives only that count. geometry.rect_columns alone groups positions by
symbol; occurrence_bounds builds the occurrence tables of dp_solver.fill_table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

COUNT_SLICE = 1 << 16  # codes per bincount call, which copies them to int64


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
    inputs; counting COUNT_SLICE codes at a time and never materializing
    matches, it takes no input as too large.
    The geometric solver's rectangle cap, checked against the exact count
    before any position is sorted, bounds what comes after.
    """
    arrays = []
    for s in (x, y):
        codes = np.frombuffer(s, dtype=np.uint8)
        count = np.bincount(codes[:COUNT_SLICE], minlength=256)
        for p in range(COUNT_SLICE, len(codes), COUNT_SLICE):
            count += np.bincount(codes[p : p + COUNT_SLICE], minlength=256)
        arrays += (codes, count)
    for a in arrays:
        a.setflags(write=False)
    return MatchSet(*arrays)


def occurrence_bounds(codes: np.ndarray, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """nxt[s, p] and prv[s, p]: the first occurrence of symbols[s] in codes at or
    after p (len(codes) if none) and the last at or before p (-1 if none)."""
    at = symbols[:, None] == codes
    pos = np.arange(len(codes))
    nxt = np.minimum.accumulate(np.where(at, pos, len(codes))[:, ::-1], axis=1)[:, ::-1]
    prv = np.maximum.accumulate(np.where(at, pos, -1), axis=1)
    return nxt, prv
