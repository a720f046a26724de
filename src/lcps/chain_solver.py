"""Maximum-weight chains of 4-D points, and the geometric LCPS solver on top.

A point's chain value is its weight plus the largest value among the points
that strictly dominate it in all four coordinates. Points are sorted once in
non-increasing order of their last coordinate (the sweep order), so every
dominating point comes earlier. An offline divide and conquer over that
order (Bentley 1980) splits it into groups, solves the left half, feeds
the left half's final values to the right half's receivers, and then
solves the right half. A point that strictly dominates another has the
larger a + c, so no point at the largest a + c of the set can be dominated
(in geometric_lcps those are the degenerates, where a + c = 0); every other
point is a receiver. A group starts where a receiver's last coordinate
first appears in the sweep, so points before the first receiver form one
leading group, receivers of one group share their last coordinate, and
every point of a left half has a strictly larger last coordinate than the
receivers it feeds. Each feed is a static strict 3-D dominance maximum,
answered by median splits on the first coordinate (leaving a 2-D problem)
and on the second (leaving a 1-D one, solved by a sort and running
maxima), with small pairs of sets compared directly.
A range of groups whose points times receivers fit in BROADCAST_CELLS is
not split but settled in place as one block: one strict 4-D hit matrix of
its points against its receivers, then broadcast rounds in which every
receiver takes its weight plus the larger of its feeds from before the
block and its hits' values, until a round changes nothing. A block still
unsettled after BLOCK_ROUNDS rounds gets one pass over its groups in sweep
order, each group reading the final values of the ones before it. Blocks
cost a few broadcasts where the recursion made one feed per group. Each
way of settling wins where the other loses: on sparse input most blocks
settle in two to four whole-block rounds, cheaper than the pass's
operation per group; on deep nesting no round settles, and the cap bounds
what the rounds waste before the pass.
Everything runs on numpy rows of one (5, P) point array, in the layout,
dtype and sweep order rect_columns builds. chain_values gathers the
receivers' coordinates once, in sweep order, so every feed reads and
raises contiguous slices of them. best_chain reads the point array in place
(chain values, then a walk from the best point to a dominating point of the
right value) for both longest_chain and geometric_lcps.
geometric_lcps puts the longer input on the x side, as dp_lcps does: d
then ranges over the shorter input's positions, so there is at most one
group more than the shorter input has characters.

DominanceMaxIndex is a stand-alone online form of the same strict 3-D
dominance query, a masked scan over declared keys; the solver does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Any, Iterable, Optional

import numpy as np

from .core import CpsResult, InvalidWitness, assemble_result, validate_witness
from .geometry import DEFAULT_RECT_CAP, Point4, rect_columns
from .match_index import build_match_set

# A left and a right point set with at most this many pairs between them are
# compared pair by pair in one broadcast; larger ones are split at a median.
# The same bound on points times receivers makes a range of groups one block
# of chain_values, which runs at most BLOCK_ROUNDS broadcast rounds over it
# before its in-order pass.
BROADCAST_CELLS = 1 << 16
BLOCK_ROUNDS = 4


@dataclass(frozen=True, eq=False)
class ChainNode:
    """One link of a chain from longest_chain: the point, the chain's total
    weight from here inward, and the next point in."""

    point: Point4
    value: int
    successor: Optional["ChainNode"] = None


class DominanceMaxIndex:
    """Strict 3-D dominance maximum over a fixed set of insertable keys.

    The constructor takes every (a, b, c) key that may later be inserted,
    repeats allowed, and gives each distinct key one slot of an int64 key
    column, a value column and a payload list. Queries may use arbitrary
    coordinates. Values at a key only grow. A query is one masked scan over
    the slots, so it costs O(keys); geometric_lcps uses dominance_max.
    """

    def __init__(self, keys: Iterable[tuple[int, int, int]]):
        self._slot = {key: s for s, key in enumerate(dict.fromkeys(keys))}
        self._keys = np.array(list(self._slot), dtype=np.int64).reshape(-1, 3)
        self._values = np.zeros(len(self._slot), dtype=np.int64)
        self._payloads: list[Any] = [None] * len(self._slot)

    def insert_or_raise(self, key: tuple[int, int, int], value: int, node: Any = None) -> None:
        """Raise the value stored at key to max(old, value); payload follows the max."""
        s = self._slot.get(key)
        if s is None:
            raise ValueError(f"key {key} was not declared at construction")
        if value > self._values[s]:
            self._values[s] = value
            self._payloads[s] = node

    def query_max_strict(self, a: int, b: int, c: int) -> tuple[int, Any]:
        """Max value (and its payload) over stored keys strictly greater in all
        three coordinates; (0, None) when there is none. Among equal maxima,
        the first declared key's payload."""
        value = np.where((self._keys > (a, b, c)).all(axis=1), self._values, 0)
        if not value.any():
            return 0, None
        s = int(value.argmax())
        return int(value[s]), self._payloads[s]


def sort_points(points: Iterable[Point4]) -> list[list[Point4]]:
    """Groups of points in non-increasing last coordinate, equal values together.

    One stable sort on (-d, a, b, c), then a split into runs of equal d.
    Within a group, points are ordered by (a, b, c) ascending so downstream
    processing is deterministic.
    """
    ordered = sorted(points, key=lambda p: (-p.d, p.a, p.b, p.c))
    return [list(group) for _, group in groupby(ordered, key=lambda p: p.d)]


def dominance_max(left: tuple, values: np.ndarray, right: tuple) -> np.ndarray:
    """For each right point, the largest value of a left point strictly
    greater in every coordinate, or 0 when there is none.

    left and right are equal-length tuples of integer coordinate columns;
    values holds one non-negative value per left point. Sets too large to
    compare pair by pair are split at the median of the first coordinate,
    or at the lowest + 1 when that is the median: the high left points
    answer every low right point on the first coordinate alone, which
    leaves a problem with one coordinate fewer. One coordinate is a sort,
    a running maximum and a binary search.
    """
    n_left, n_right = len(values), len(right[0])
    if n_left == 0 or n_right == 0:
        return np.zeros(n_right, values.dtype)
    if n_left * n_right <= BROADCAST_CELLS:
        hit = left[0][:, None] > right[0]
        for lk, rk in zip(left[1:], right[1:]):
            hit &= lk[:, None] > rk
        return (hit * values[:, None]).max(axis=0)
    if len(left) == 1:
        order = np.argsort(left[0], kind="stable")
        best = np.zeros(n_left + 1, values.dtype)
        best[:n_left] = np.maximum.accumulate(values[order][::-1])[::-1]
        return best[np.searchsorted(left[0][order], right[0], side="right")]
    both = np.concatenate((left[0], right[0]))
    t = np.partition(both, len(both) // 2)[len(both) // 2]
    lowest = both.min()
    if t == lowest:
        if lowest == both.max():  # one value: nothing is strictly greater
            return np.zeros(n_right, values.dtype)
        t = lowest + 1
    left_high, right_high = left[0] >= t, right[0] >= t
    left_low, right_low = ~left_high, ~right_high
    high_values = values[left_high]
    low = tuple(k[right_low] for k in right)
    out = np.empty(n_right, values.dtype)
    out[right_high] = dominance_max(tuple(k[left_high] for k in left), high_values,
                                    tuple(k[right_high] for k in right))
    out[right_low] = np.maximum(  # high columns gathered again: not held through the low call
        dominance_max(tuple(k[left_low] for k in left), values[left_low], low),
        dominance_max(tuple(k[left_high] for k in left[1:]), high_values, low[1:]))
    return out


def chain_values(cols: np.ndarray) -> np.ndarray:
    """Each point's best chain value: its weight plus the largest chain
    value among the points strictly dominating it in all four coordinates.

    cols holds rows a, b, c, d and w, its points in sweep order (d
    non-increasing), in any integer dtype that holds the values; they come
    back in that dtype; no points give an empty array. Only points below
    the largest a + c (the receivers) can be dominated: groups are cut
    where a receiver's d first appears, and each feed goes from every point
    of the left half to the receivers of the right half. The receivers'
    coordinates are gathered once, in sweep order, so a group's receivers
    are one contiguous range of them. The divide and conquer splits at the
    middle group boundary, so its depth is log2 of the number of distinct
    receiver d values, until a range's points times receivers fit in
    BROADCAST_CELLS. Such a block is settled by a strict 4-D hit matrix
    (its last group's points and first group's receivers left out, as no
    pair there can hit): at most BLOCK_ROUNDS rounds of broadcast maxima,
    and, if they leave it unsettled, one pass over its groups in sweep order.
    """
    a, b, c, d, w = cols
    if not w.size:
        return w.copy()
    receiver = a + c < (a + c).max()
    runs = np.flatnonzero(np.diff(d, prepend=d[0] + 1))  # where each d starts
    starts = runs[np.logical_or.reduceat(receiver, runs)]
    bounds = sorted({0, *starts.tolist(), len(d)})
    at = np.flatnonzero(receiver).astype(np.int32)  # the receivers, in sweep order
    ra, rb, rc, rd, rw = (k[at] for k in cols)
    first = np.searchsorted(at, bounds).tolist()  # each group's first receiver
    inner = np.zeros_like(rw)
    value = w.copy()

    def solve(g0: int, g1: int) -> None:
        if g1 - g0 < 2:
            return
        lo, hi, r0, r1 = bounds[g0], bounds[g1], first[g0], first[g1]
        if (hi - lo) * (r1 - r0) <= BROADCAST_CELLS:
            # the last group's points dominate no receiver of the block, and
            # no point of the block dominates the first group's receivers
            hi, r0 = bounds[g1 - 1], first[g0 + 1]
            hit = a[lo:hi, None] > ra[r0:r1]
            for k, rk in ((b, rb), (c, rc), (d, rd)):
                hit &= k[lo:hi, None] > rk[r0:r1]
            for _ in range(BLOCK_ROUNDS):
                fed = rw[r0:r1] + np.maximum(inner[r0:r1], (hit * value[lo:hi, None]).max(0))
                if np.array_equal(fed, value[at[r0:r1]]):
                    return
                value[at[r0:r1]] = fed
            for g in range(g0 + 1, g1):  # in sweep order, so earlier groups are final
                top, s0, s1 = bounds[g], first[g], first[g + 1]
                fed = (hit[:top - lo, s0 - r0:s1 - r0] * value[lo:top, None]).max(0)
                value[at[s0:s1]] = rw[s0:s1] + np.maximum(inner[s0:s1], fed)
            return
        gm = (g0 + g1) // 2
        solve(g0, gm)
        mid, rm = bounds[gm], first[gm]
        fed = dominance_max((a[lo:mid], b[lo:mid], c[lo:mid]), value[lo:mid],
                            (ra[rm:r1], rb[rm:r1], rc[rm:r1]))
        np.maximum(inner[rm:r1], fed, out=inner[rm:r1])
        value[at[rm:r1]] = rw[rm:r1] + inner[rm:r1]
        solve(gm, g1)

    solve(0, len(bounds) - 1)
    return value


def best_chain(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The points of one maximum-weight chain among the columns of cols
    (rows a, b, c, d and w), as a (5, L) array, outermost first, and each
    one's chain value; both are empty when cols is.

    cols must be in sweep order, as rect_columns builds it and sort_points
    orders points. Computes chain_values, then walks from the first point of
    maximum value to the first earlier point that strictly dominates the
    current one and holds its value minus its weight, one scan per step.
    """
    a, b, c, d, w = cols
    if not w.size:
        return cols, w
    value = chain_values(cols)
    p = int(np.argmax(value))
    path = [p]
    while value[p] > w[p]:
        hit = ((a[:p] > a[p]) & (b[:p] > b[p]) & (c[:p] > c[p]) & (d[:p] > d[p])
               & (value[:p] == value[p] - w[p]))
        p = int(np.argmax(hit))
        path.append(p)
    return cols[:, path], value[path]


def longest_chain(points: Iterable[Point4]) -> Optional[ChainNode]:
    """Node of maximum total weight over all chains, None for no points.

    A Point4 view of best_chain on the points in sort_points' order, each
    node's point built from the chain's columns: a chain step is strict in
    all four coordinates, and ties keep the first node in sweep order.
    """
    rows = [(p.a, p.b, p.c, p.d, p.weight) for group in sort_points(points) for p in group]
    chain, values = best_chain(np.array(rows, dtype=np.int64).reshape(-1, 5).T)
    node = None
    for *point, v in reversed(list(zip(*chain.tolist(), values.tolist()))):
        node = ChainNode(Point4(*point), v, node)
    return node


def geometric_lcps(x: bytes, y: bytes, max_rects: int = DEFAULT_RECT_CAP) -> CpsResult:
    """LCPS via match set -> rectangle points -> maximum-weight chain.

    The chain is walked outward-in: each weight-2 point contributes the
    symbol at both ends, a trailing weight-1 point the center character. A
    point (a, b, c, d) has corners (a, b) and (-c, -d) and symbol x[a - 1].
    The longer input goes on the x side, and the witness is swapped back.
    Raises CapacityExceeded when the exact rectangle count exceeds max_rects,
    and InvalidWitness if the assembled result does not embed into x and y.
    """
    if len(x) < len(y):
        r = geometric_lcps(y, x, max_rects)
        return CpsResult(r.length, r.z, r.y_indices, r.x_indices)
    chain, _ = best_chain(rect_columns(build_match_set(x, y), max_rects))
    pairs = []
    center = None
    for a, b, c, d, w in zip(*chain.tolist()):
        if w == 2:
            pairs.append((x[a - 1], a, -c, b, -d))
        else:
            center = (x[a - 1], a, b)
    result = assemble_result(pairs, center)
    if not validate_witness(result, x, y):
        raise InvalidWitness(f"chain walk produced an invalid witness {result}")
    return result
