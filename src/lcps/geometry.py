"""Same-symbol match pairs as grid rectangles, and their 4-D point images.

Plotting x positions against y positions, a pair of matches on the same
symbol spans a rectangle whose opposite corners are the two matches. One
rectangle strictly inside another means the inner pair of palindrome ends
sits strictly between the outer pair in both inputs, so palindrome length
equals total weight along a chain of nested rectangles. Negating the upper
corner turns strict nesting into strict 4-way dominance of points, which is
what the chain solver consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .core import CapacityExceeded, CpsResult, InvalidWitness, validate_witness
from .match_index import Match, MatchSet, OccurrenceLists

DEFAULT_RECT_CAP = 5_000_000


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
    a: int
    b: int
    c: int
    d: int
    weight: int
    source: Rect


def enumerate_rectangles(ms: MatchSet, max_rects: int = DEFAULT_RECT_CAP) -> list[Rect]:
    """All strictly ordered same-symbol match pairs, plus one degenerate per match.

    Pairs sharing an x or a y position are never emitted: a palindrome cannot
    reuse one input position for two output characters. Raises
    CapacityExceeded (before building anything) when the pair-count bound
    sum over symbols of r_sigma squared exceeds max_rects.
    """
    bound = sum(s.r_sigma**2 for s in ms.per_sigma)
    if bound > max_rects:
        raise CapacityExceeded(
            f"up to {bound} rectangles exceed the cap of {max_rects}"
        )
    rects = []
    for s in ms.per_sigma:
        for i, k in combinations(s.x_occ, 2):
            for j, l in combinations(s.y_occ, 2):
                rects.append(Rect(s.sigma, Match(i, j), Match(k, l), 2))
        for mt in s.matches:
            rects.append(Rect(s.sigma, mt, mt, 1))
    return rects


def rect_count(occ: OccurrenceLists) -> int:
    """Exact number of rectangles enumerate_rectangles builds, in O(sigma).

    occ is the output of build_occurrence_lists. A symbol with x_s and y_s
    occurrences gives C(x_s, 2) * C(y_s, 2) pairs plus x_s * y_s degenerates.
    """
    return sum(
        comb(len(xs), 2) * comb(len(ys), 2) + len(xs) * len(ys)
        for xs, ys in occ.values()
    )


def rect_to_point(r: Rect) -> Point4:
    """Map corners (i, j) and (k, l) to the point (i, j, -k, -l)."""
    return Point4(r.lower.i, r.lower.j, -r.upper.i, -r.upper.j, r.weight, r)


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
