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
from typing import Any, Iterable, Optional

from .core import EMPTY_RESULT, CpsResult, InvalidWitness, assemble_result, validate_witness
from .geometry import DEFAULT_RECT_CAP, Point4, enumerate_rectangles, rect_to_point
from .match_index import DEFAULT_MATCH_CAP, build_match_set


@dataclass(frozen=True, eq=False)
class ChainNode:
    """One point's best chain: total weight from here inward, and the next point in."""

    point: Point4
    value: int
    successor: Optional["ChainNode"] = None


class _MaxBit:
    """Prefix-maximum tree over the descending ranks of one coordinate universe."""

    __slots__ = ("vals", "size", "val", "pay")

    def __init__(self, cs: list):
        self.vals = sorted(set(cs))
        self.size = len(self.vals)
        self.val = [0] * (self.size + 1)
        self.pay: list = [None] * (self.size + 1)

    def update(self, c, value, payload):
        r = self.size - bisect_left(self.vals, c)
        while r <= self.size:
            if value > self.val[r]:
                self.val[r] = value
                self.pay[r] = payload
            r += r & -r

    def query(self, c):
        # max over stored entries with coordinate strictly greater than c
        r = self.size - bisect_right(self.vals, c)
        best, pay = 0, None
        while r > 0:
            if self.val[r] > best:
                best, pay = self.val[r], self.pay[r]
            r -= r & -r
        return best, pay


class _MidLevel:
    """Tree over the b coordinate whose nodes hold c-coordinate maximum trees."""

    __slots__ = ("bvals", "size", "children")

    def __init__(self, bcs: list):
        self.bvals = sorted({b for b, _ in bcs})
        self.size = len(self.bvals)
        per: list[list] = [[] for _ in range(self.size + 1)]
        for b, c in bcs:
            h = self.size - bisect_left(self.bvals, b)
            while h <= self.size:
                per[h].append(c)
                h += h & -h
        self.children = [None] + [_MaxBit(cs) for cs in per[1:]]

    def update(self, b, c, value, payload):
        h = self.size - bisect_left(self.bvals, b)
        while h <= self.size:
            self.children[h].update(c, value, payload)
            h += h & -h

    def query(self, b, c):
        h = self.size - bisect_right(self.bvals, b)
        best, pay = 0, None
        while h > 0:
            v, p = self.children[h].query(c)
            if v > best:
                best, pay = v, p
            h -= h & -h
        return best, pay


class DominanceMaxIndex:
    """Strict 3-D dominance maximum over a fixed universe of insertable keys.

    The constructor takes every (a, b, c) key that may later be inserted and
    compresses each level's coordinates up front. Queries may use arbitrary
    coordinates. Values at a key only grow, and both operations cost
    O(log^3) of the universe size.
    """

    def __init__(self, keys: Iterable[tuple[int, int, int]]):
        keys = list(keys)
        self._declared = set(keys)
        self._avals = sorted({a for a, _, _ in keys})
        u1 = len(self._avals)
        per: list[list] = [[] for _ in range(u1 + 1)]
        for a, b, c in keys:
            g = u1 - bisect_left(self._avals, a)
            while g <= u1:
                per[g].append((b, c))
                g += g & -g
        self._u1 = u1
        self._nodes = [None] + [_MidLevel(bcs) for bcs in per[1:]]

    def insert_or_raise(self, key: tuple[int, int, int], value: int, node: Any = None) -> None:
        """Raise the value stored at key to max(old, value); payload follows the max."""
        if key not in self._declared:
            raise ValueError(f"key {key} was not declared at construction")
        a, b, c = key
        g = self._u1 - bisect_left(self._avals, a)
        while g <= self._u1:
            self._nodes[g].update(b, c, value, node)
            g += g & -g

    def query_max_strict(self, a: int, b: int, c: int) -> tuple[int, Any]:
        """Max value (and its payload) over stored keys strictly greater in all
        three coordinates; (0, None) when there is none."""
        g = self._u1 - bisect_right(self._avals, a)
        best, pay = 0, None
        while g > 0:
            v, p = self._nodes[g].query(b, c)
            if v > best:
                best, pay = v, p
            g -= g & -g
        return best, pay


def sort_points(points: Iterable[Point4]) -> list[list[Point4]]:
    """Groups of points in non-increasing last coordinate, equal values together.

    Bucket sort over the d range, linear in points plus range. Within a
    group, points are ordered by (a, b, c) ascending so downstream
    processing is deterministic.
    """
    points = list(points)
    if not points:
        return []
    dmin = min(p.d for p in points)
    dmax = max(p.d for p in points)
    buckets: list[list[Point4]] = [[] for _ in range(dmax - dmin + 1)]
    for p in points:
        buckets[p.d - dmin].append(p)
    groups = []
    for bucket in reversed(buckets):
        if bucket:
            bucket.sort(key=lambda p: (p.a, p.b, p.c))
            groups.append(bucket)
    return groups


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


def geometric_lcps(
    x: bytes,
    y: bytes,
    max_rects: int = DEFAULT_RECT_CAP,
    max_matches: int = DEFAULT_MATCH_CAP,
) -> CpsResult:
    """LCPS via matches -> rectangles -> points -> maximum-weight chain.

    The chain is walked outward-in: each weight-2 node contributes the symbol
    at both ends, a trailing weight-1 node contributes the center character.
    Raises InvalidWitness if the assembled result does not embed into x and y.
    """
    ms = build_match_set(x, y, max_matches)
    rects = enumerate_rectangles(ms, max_rects)
    best = longest_chain(map(rect_to_point, rects))
    if best is None:
        return EMPTY_RESULT
    pairs = []
    center = None
    node = best
    while node is not None:
        r = node.point.source
        if r.weight == 2:
            pairs.append((r.sigma, r.lower.i, r.upper.i, r.lower.j, r.upper.j))
        else:
            center = (r.sigma, r.lower.i, r.lower.j)
        node = node.successor
    result = assemble_result(pairs, center)
    if not validate_witness(result, x, y):
        raise InvalidWitness(f"chain walk produced an invalid witness {result}")
    return result
