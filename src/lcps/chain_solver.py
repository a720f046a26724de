"""Maximum-weight chains of 4-D points, and the geometric LCPS solver on top.

Points are swept in non-increasing order of their last coordinate, so the
fourth dimension is enforced by processing time and each point only needs a
strict-dominance maximum query over the other three. Points sharing a last
coordinate are batched: the whole batch queries before any of it inserts,
which keeps dominance strict in that dimension too.

The dominance index is three nested levels of binary indexed trees over
offline rank-compressed coordinates. Each coordinate is ranked in descending
order, turning "strictly greater than" in value space into a prefix of
ranks, which a prefix-maximum tree answers in O(log) per level. Prefix
maxima are sound here because a key's stored value only ever increases.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby
from typing import Any, Iterable, Optional

from .core import EMPTY_RESULT, CpsResult, InvalidWitness, assemble_result, validate_witness
from .geometry import DEFAULT_RECT_CAP, Point4, enumerate_rectangles, rect_to_point
from .match_index import build_match_set


@dataclass(frozen=True, eq=False)
class ChainNode:
    """One point's best chain: total weight from here inward, and the next point in."""

    point: Point4
    value: int
    successor: Optional["ChainNode"] = None


class DominanceMaxIndex:
    """Strict 3-D dominance maximum over a fixed universe of insertable keys.

    The constructor takes every (a, b, c) key that may later be inserted and
    compresses each level's coordinates up front. Queries may use arbitrary
    coordinates. Values at a key only grow, and both operations cost
    O(log^3) of the universe size.

    Layout: ``_avals`` holds the distinct a values; a-tree node g holds the
    distinct b values ``_bvals[g]`` of the keys it covers; and (g, h) holds
    one leaf ``(cvals, val, pay)``, a prefix-maximum tree over the distinct
    c values it covers.
    """

    def __init__(self, keys: Iterable[tuple[int, int, int]]):
        keys = list(keys)
        self._declared = set(keys)
        self._avals = avals = sorted({a for a, _, _ in keys})
        u1 = len(avals)
        per_a: list[list] = [[] for _ in range(u1 + 1)]
        for a, b, c in keys:
            g = u1 - bisect_left(avals, a)
            while g <= u1:
                per_a[g].append((b, c))
                g += g & -g
        self._bvals: list[list] = [[]]
        self._leaves: list[list] = [[]]
        for bcs in per_a[1:]:
            bvals = sorted({b for b, _ in bcs})
            u2 = len(bvals)
            per_b: list[list] = [[] for _ in range(u2 + 1)]
            for b, c in bcs:
                h = u2 - bisect_left(bvals, b)
                while h <= u2:
                    per_b[h].append(c)
                    h += h & -h
            leaves: list = [None]
            for cs in per_b[1:]:
                cvals = sorted(set(cs))
                leaves.append((cvals, [0] * (len(cvals) + 1), [None] * (len(cvals) + 1)))
            self._bvals.append(bvals)
            self._leaves.append(leaves)

    def insert_or_raise(self, key: tuple[int, int, int], value: int, node: Any = None) -> None:
        """Raise the value stored at key to max(old, value); payload follows the max."""
        if key not in self._declared:
            raise ValueError(f"key {key} was not declared at construction")
        a, b, c = key
        u1 = len(self._avals)
        g = u1 - bisect_left(self._avals, a)
        while g <= u1:
            bvals, leaves = self._bvals[g], self._leaves[g]
            u2 = len(bvals)
            h = u2 - bisect_left(bvals, b)
            while h <= u2:
                cvals, val, pay = leaves[h]
                u3 = len(cvals)
                r = u3 - bisect_left(cvals, c)
                while r <= u3:
                    if value > val[r]:
                        val[r] = value
                        pay[r] = node
                    r += r & -r
                h += h & -h
            g += g & -g

    def query_max_strict(self, a: int, b: int, c: int) -> tuple[int, Any]:
        """Max value (and its payload) over stored keys strictly greater in all
        three coordinates; (0, None) when there is none."""
        best, best_pay = 0, None
        g = len(self._avals) - bisect_right(self._avals, a)
        while g > 0:
            bvals, leaves = self._bvals[g], self._leaves[g]
            h = len(bvals) - bisect_right(bvals, b)
            while h > 0:
                cvals, val, pay = leaves[h]
                r = len(cvals) - bisect_right(cvals, c)
                while r > 0:
                    if val[r] > best:
                        best, best_pay = val[r], pay[r]
                    r -= r & -r
                h -= h & -h
            g -= g & -g
        return best, best_pay


def sort_points(points: Iterable[Point4]) -> list[list[Point4]]:
    """Groups of points in non-increasing last coordinate, equal values together.

    One stable sort on (-d, a, b, c), then a split into runs of equal d.
    Within a group, points are ordered by (a, b, c) ascending so downstream
    processing is deterministic.
    """
    ordered = sorted(points, key=lambda p: (-p.d, p.a, p.b, p.c))
    return [list(group) for _, group in groupby(ordered, key=lambda p: p.d)]


def longest_chain(points: Iterable[Point4]) -> Optional[ChainNode]:
    """Node of maximum total weight over all chains, None for no points.

    Every point in a batch queries before any of it inserts, so a chain step
    is strict in all four coordinates. Ties keep the first node encountered
    in sweep order.
    """
    points = list(points)
    groups = sort_points(points)
    index = DominanceMaxIndex((p.a, p.b, p.c) for p in points)
    best = None
    for group in groups:
        answers = [index.query_max_strict(p.a, p.b, p.c) for p in group]
        nodes = []
        for p, (value, succ) in zip(group, answers):
            node = ChainNode(p, p.weight + value, succ)
            nodes.append(node)
            if best is None or node.value > best.value:
                best = node
        for node in nodes:
            index.insert_or_raise(
                (node.point.a, node.point.b, node.point.c), node.value, node
            )
    return best


def geometric_lcps(x: bytes, y: bytes, max_rects: int = DEFAULT_RECT_CAP) -> CpsResult:
    """LCPS via matches -> rectangles -> points -> maximum-weight chain.

    The chain is walked outward-in: each weight-2 node contributes the symbol
    at both ends, a trailing weight-1 node contributes the center character.
    A point (a, b, c, d) has corners (a, b) and (-c, -d) and symbol x[a - 1].
    Raises InvalidWitness if the assembled result does not embed into x and y.
    """
    # No name holds the rectangles, so they are freed once longest_chain has
    # turned them into points.
    best = longest_chain(
        map(rect_to_point, enumerate_rectangles(build_match_set(x, y), max_rects)))
    if best is None:
        return EMPTY_RESULT
    pairs = []
    center = None
    node = best
    while node is not None:
        p = node.point
        if p.weight == 2:
            pairs.append((x[p.a - 1], p.a, -p.c, p.b, -p.d))
        else:
            center = (x[p.a - 1], p.a, p.b)
        node = node.successor
    result = assemble_result(pairs, center)
    if not validate_witness(result, x, y):
        raise InvalidWitness(f"chain walk produced an invalid witness {result}")
    return result
