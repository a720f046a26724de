"""Per-symbol match sets between two byte strings.

A match is a position pair (i, j) with x[i] == y[j] (1-based). Matches are
grouped by symbol and kept as occurrence-list cross products rather than flat
lists, since the total count can be quadratic in the input lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


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


@dataclass(frozen=True)
class MatchSet:
    """Per-symbol match sets for every symbol present in both inputs, in
    ascending symbol order; r is the total match count."""

    per_sigma: tuple[SigmaMatchSet, ...]
    r: int


def build_match_set(x: bytes, y: bytes) -> MatchSet:
    """Group all matches by symbol, from one pass over each input.

    Stores only the O(n + m) sorted occurrence lists; matches are never
    materialized, so no input is too large here. A symbol found in one input
    only has no matches and is left out. The geometric solver's rectangle
    cap, checked against the exact count before anything is built, bounds
    what comes after.
    """
    occ: dict[int, tuple[list[int], list[int]]] = {}
    for pos, ch in enumerate(x, start=1):
        occ.setdefault(ch, ([], []))[0].append(pos)
    for pos, ch in enumerate(y, start=1):
        occ.setdefault(ch, ([], []))[1].append(pos)
    per = tuple(SigmaMatchSet(ch, tuple(xs), tuple(ys))
                for ch, (xs, ys) in sorted(occ.items()) if xs and ys)
    return MatchSet(per, sum(s.r_sigma for s in per))
