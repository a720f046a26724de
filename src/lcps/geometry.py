"""Same-symbol match pairs as grid rectangles, and their 4-D point images.

Plotting x positions against y positions, a pair of matches on the same
symbol spans a rectangle whose opposite corners are the two matches. One
rectangle strictly inside another means the inner pair of palindrome ends
sits strictly between the outer pair in both inputs, so palindrome length
equals total weight along a chain of nested rectangles. Negating the upper
corner turns strict nesting into strict 4-way dominance of points, which is
what the chain solver consumes. rect_count gives the exact number of
rectangles from the match set's occurrence counts alone; it is the one
count the size cap and the CLI's solver choice use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product, starmap
from math import comb

from .core import CapacityExceeded, CpsResult, InvalidWitness, validate_witness
from .match_index import Match, MatchSet

# A cap on the exact rectangle count P = sum over symbols of
# C(x_s, 2) * C(y_s, 2) + x_s * y_s, for x_s and y_s occurrences of s in x
# and y. P = sum(r_s**2) / 4 - sum(x_s * y_s * (x_s + y_s - 5)) / 4 with
# r_s = x_s * y_s, so every input with sum(r_s**2) <= 5 000 000 stays below
# this cap (the largest such P is about 1.20 M).
DEFAULT_RECT_CAP = 1_250_000


@dataclass(frozen=True)
class Rect:
    """Two same-symbol matches as opposite rectangle corners.

    lower (i, j) and upper (k, l) are (x position, y position) pairs with
    i < k and j < l, or lower == upper for the degenerate case. Weight is the
    number of palindrome characters contributed: 2 for a real pair of ends,
    1 for a degenerate rectangle standing for a lone center character.
    """

    sigma: int
    lower: Match
    upper: Match
    weight: int


@dataclass(frozen=True)
class Point4:
    """The point (i, j, -k, -l) of a rectangle with lower corner (i, j) and
    upper corner (k, l), and the rectangle's weight."""

    a: int
    b: int
    c: int
    d: int
    weight: int


def enumerate_rectangles(ms: MatchSet, max_rects: int = DEFAULT_RECT_CAP) -> list[Rect]:
    """All strictly ordered same-symbol match pairs, plus one degenerate per match.

    Pairs sharing an x or a y position are never emitted: a palindrome cannot
    reuse one input position for two output characters. Raises
    CapacityExceeded (before building anything) when the exact count
    rect_count(ms) exceeds max_rects.
    """
    count = rect_count(ms)
    if count > max_rects:
        raise CapacityExceeded(f"{count} rectangles exceed the cap of {max_rects}")
    rects = []
    for s in ms.per_sigma:
        for i, k in combinations(s.x_occ, 2):
            for j, l in combinations(s.y_occ, 2):
                rects.append(Rect(s.sigma, Match(i, j), Match(k, l), 2))
        for mt in starmap(Match, product(s.x_occ, s.y_occ)):
            rects.append(Rect(s.sigma, mt, mt, 1))
    return rects


def rect_count(ms: MatchSet) -> int:
    """Exact number of rectangles enumerate_rectangles builds, in O(sigma).

    A symbol with x_s and y_s occurrences gives C(x_s, 2) * C(y_s, 2) pairs
    plus x_s * y_s degenerates.
    """
    return sum(comb(len(s.x_occ), 2) * comb(len(s.y_occ), 2) + s.r_sigma for s in ms.per_sigma)


def rect_to_point(r: Rect) -> Point4:
    """Map corners (i, j) and (k, l) to the point (i, j, -k, -l)."""
    return Point4(r.lower.i, r.lower.j, -r.upper.i, -r.upper.j, r.weight)


def is_nested(inner: Rect, outer: Rect) -> bool:
    """True iff inner lies strictly inside outer's open interior."""
    return (
        inner.lower.i > outer.lower.i
        and inner.lower.j > outer.lower.j
        and inner.upper.i < outer.upper.i
        and inner.upper.j < outer.upper.j
    )


def is_chained(p: Point4, q: Point4) -> bool:
    """True iff p strictly dominates q in all four coordinates."""
    return p.a > q.a and p.b > q.b and p.c > q.c and p.d > q.d


def decompose_cps(r: CpsResult, x: bytes, y: bytes) -> list[Rect]:
    """Split a valid witness into its nested end-pair rectangles, outermost first.

    Position t pairs with its mirror position from the other end; an odd
    middle character becomes a single trailing degenerate rectangle.
    Raises InvalidWitness when the witness does not validate against x and y.
    """
    if not validate_witness(r, x, y):
        raise InvalidWitness("witness does not embed into the given inputs")
    u = r.length
    out = []
    for t in range(u // 2):
        s = u - 1 - t
        out.append(
            Rect(
                r.z[t],
                Match(r.x_indices[t], r.y_indices[t]),
                Match(r.x_indices[s], r.y_indices[s]),
                2,
            )
        )
    if u % 2:
        t = u // 2
        mid = Match(r.x_indices[t], r.y_indices[t])
        out.append(Rect(r.z[t], mid, mid, 1))
    return out
