"""Same-symbol match pairs as grid rectangles, and their 4-D point images.

Plotting x positions against y positions, a pair of matches on the same
symbol spans a rectangle whose opposite corners are the two matches. One
rectangle strictly inside another means the inner pair of palindrome ends
sits strictly between the outer pair in both inputs, so palindrome length
equals total weight along a chain of nested rectangles. Negating the upper
corner turns strict nesting into strict 4-way dominance of points, which is
what the chain solver consumes.

rect_columns builds every rectangle at once as one read-only (5, P) array,
rows a, b, c, d and w (the point and its weight), in the chain solver's
sweep order: a stable sort groups each input's positions by symbol, then
cross products over all symbols and one column sort build it. It is int16
while every position fits (inputs under 2**15 characters), int32 beyond.
enumerate_rectangles and rect_to_point are object views of the same
rectangles. rect_count gives the exact rectangle count from the occurrence
counts alone; it is the one count the size cap (checked before anything is
built) and the CLI's solver choice use.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

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


def rect_count(ms: MatchSet) -> int:
    """The exact rectangle count P above, in O(sigma) steps on Python ints."""
    both = (ms.x_count > 0) & (ms.y_count > 0)
    return sum(comb(xs, 2) * comb(ys, 2) + xs * ys
               for xs, ys in zip(ms.x_count[both].tolist(), ms.y_count[both].tolist()))


def _ranges(counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(n) for every n in counts."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)


def _cross(na: np.ndarray, nb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs into two lists cut into consecutive groups of na and nb
    items: every (item of A, item of B) pair of each group, group by group."""
    per = na * nb
    t = _ranges(per)
    nb_rep = np.repeat(nb, per)
    return (np.repeat(np.cumsum(na) - na, per) + t // nb_rep,
            np.repeat(np.cumsum(nb) - nb, per) + t % nb_rep)


def _pairs(n: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (s, t), s < t, inside each kept one of consecutive groups
    of n items, group by group; kept group g has C(n[g], 2) of them."""
    offset = _ranges(n)
    later = (np.repeat(n, n) - offset - 1) * np.repeat(keep, n)
    s = np.repeat(np.arange(len(offset)), later)
    return s, s + 1 + _ranges(later)


def rect_columns(ms: MatchSet, max_rects: int = DEFAULT_RECT_CAP) -> np.ndarray:
    """Every rectangle, as a read-only (5, P) array, from a match set's
    codes and counts: column t is rectangle t's point (a, b, c, d) =
    (i, j, -k, -l) of corners (i, j) and (k, l), and its weight w.

    The array is int16 when both inputs are under 2**15 characters, else
    int32: positions, their negations, a + c and chain values (at most the
    shorter input's length) all fit.

    Symbols with no occurrence on one side have no rectangles. Raises
    CapacityExceeded, before sorting anything, when the exact count
    rect_count(ms) exceeds max_rects. The columns come in sweep order, d
    non-increasing, then a, b and c ascending (as sort_points orders
    points). A side's pairs are built only for the symbols both sides hold
    twice, so no array outgrows that count.
    """
    count = rect_count(ms)
    if count > max_rects:
        raise CapacityExceeded(f"{count} rectangles exceed the cap of {max_rects}")
    both = (ms.x_count > 0) & (ms.y_count > 0)
    cx, cy = ms.x_count[both], ms.y_count[both]
    # The 1-based int32 positions of the symbols on both sides, grouped by symbol.
    xs, ys = ((np.argsort(codes, kind="stable").astype(np.int32) + 1)[np.repeat(both, n)]
              for codes, n in ((ms.x, ms.x_count), (ms.y, ms.y_count)))
    strict = (cx > 1) & (cy > 1)
    xi, xk = _pairs(cx, strict)
    yj, yl = _pairs(cy, strict)
    u, v = _cross(cx * (cx - 1) // 2 * strict, cy * (cy - 1) // 2 * strict)
    di, dj = _cross(cx, cy)
    cols = np.empty((5, count), np.int16 if max(len(ms.x), len(ms.y)) < 2**15 else np.int32)
    cols[0] = np.concatenate((xs[xi[u]], xs[di]))
    cols[1] = np.concatenate((ys[yj[v]], ys[dj]))
    cols[2] = np.concatenate((xs[xk[u]], xs[di]))
    cols[3] = np.concatenate((ys[yl[v]], ys[dj]))
    cols[4, :len(u)], cols[4, len(u):] = 2, 1
    np.negative(cols[2:4], out=cols[2:4])
    a, b, c, d, _ = cols
    cols = cols.take(np.lexsort((c, b, a, -d)), axis=1)
    cols.setflags(write=False)
    return cols


def enumerate_rectangles(ms: MatchSet, max_rects: int = DEFAULT_RECT_CAP) -> list[Rect]:
    """All strictly ordered same-symbol match pairs, plus one degenerate per match.

    Pairs sharing an x or a y position are never emitted: a palindrome cannot
    reuse one input position for two output characters. An object view of
    rect_columns(ms, max_rects) in its order; it raises CapacityExceeded.
    """
    cols = rect_columns(ms, max_rects)
    return [Rect(s, Match(a, b), Match(-c, -d), w)
            for s, a, b, c, d, w in zip(ms.x[cols[0] - 1].tolist(), *cols.tolist())]


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
