"""Occurrence lists and per-symbol match sets between two byte strings.

A match is a position pair (i, j) with x[i] == y[j] (1-based). Matches are
grouped by symbol and kept as occurrence-list cross products rather than flat
lists, since the total count can be quadratic in the input lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .core import CapacityExceeded

DEFAULT_MATCH_CAP = 10_000_000


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

    @property
    def matches(self) -> Iterator[Match]:
        for i in self.x_occ:
            for j in self.y_occ:
                yield Match(i, j)


@dataclass(frozen=True)
class MatchSet:
    """Per-symbol match sets for every symbol present in both inputs; r is the total count."""

    per_sigma: tuple[SigmaMatchSet, ...]
    r: int


def build_occurrence_lists(x: bytes, y: bytes) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Sorted 1-based positions of every octet appearing in either input.

    A symbol missing from one side maps to an empty tuple on that side.
    """
    occ: dict[int, tuple[list[int], list[int]]] = {}
    for pos, ch in enumerate(x, start=1):
        occ.setdefault(ch, ([], []))[0].append(pos)
    for pos, ch in enumerate(y, start=1):
        occ.setdefault(ch, ([], []))[1].append(pos)
    return {ch: (tuple(xs), tuple(ys)) for ch, (xs, ys) in sorted(occ.items())}


def match_count(occ: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]) -> int:
    """Total number of matches over occurrence lists from build_occurrence_lists."""
    return sum(len(xs) * len(ys) for xs, ys in occ.values())


def build_match_set(x: bytes, y: bytes, max_matches: int = DEFAULT_MATCH_CAP) -> MatchSet:
    """Group all matches by symbol, aborting before materialization if the count is huge.

    Raises CapacityExceeded when the total match count would exceed
    max_matches, which protects against quadratic blowup on low-entropy
    inputs (e.g. two long runs of the same character).
    """
    occ = build_occurrence_lists(x, y)
    total = match_count(occ)
    if total > max_matches:
        raise CapacityExceeded(f"{total} matches exceed the cap of {max_matches}")
    per = tuple(
        SigmaMatchSet(ch, xs, ys) for ch, (xs, ys) in occ.items() if xs and ys
    )
    return MatchSet(per, total)
