import random
import tracemalloc

import numpy as np
import pytest

import lcps.chain_solver as chain_solver
from conftest import random_pair
from lcps import (
    CapacityExceeded,
    CpsResult,
    InvalidWitness,
    brute_force_lcps,
    dp_lcps,
    geometric_lcps,
    validate_witness,
)
from lcps.bench import GenSpec, generate
from lcps.chain_solver import DominanceMaxIndex, dominance_max, longest_chain, sort_points
from lcps.geometry import (
    Match,
    Point4,
    Rect,
    enumerate_rectangles,
    is_chained,
    rect_columns,
    rect_count,
    rect_to_point,
)
from lcps.match_index import build_match_set


def rect(i, j, k, l):
    degenerate = (i, j) == (k, l)
    return Rect(ord("a"), Match(i, j), Match(k, l), 1 if degenerate else 2)


def random_points(rng, count, hi=15):
    pts = []
    for _ in range(count):
        if rng.random() < 0.3:
            i, j = rng.randint(1, hi), rng.randint(1, hi)
            pts.append(rect_to_point(rect(i, j, i, j)))
        else:
            i = rng.randint(1, hi - 1)
            k = rng.randint(i + 1, hi)
            j = rng.randint(1, hi - 1)
            l = rng.randint(j + 1, hi)
            pts.append(rect_to_point(rect(i, j, k, l)))
    return pts


def chain_value_by_pairwise_dp(points):
    # O(P^2): points with larger first coordinate can only be deeper in a chain
    order = sorted(points, key=lambda p: -p.a)
    value = {}
    best = 0
    for p in order:
        inner = max((value[id(q)] for q in order if id(q) in value and is_chained(q, p)),
                    default=0)
        value[id(p)] = p.weight + inner
        best = max(best, value[id(p)])
    return best


def test_sort_points_orders_d_non_increasing():
    pts = [rect_to_point(rect(1, 1, 1, 1)),   # d = -1
           rect_to_point(rect(1, 1, 3, 3)),   # d = -3
           rect_to_point(rect(1, 1, 2, 2))]   # d = -2
    groups = sort_points(pts)
    assert [g[0].d for g in groups] == [-1, -2, -3]
    assert all(len(g) == 1 for g in groups)


def test_sort_points_groups_equal_d():
    pts = [rect_to_point(rect(2, 1, 3, 4)), rect_to_point(rect(1, 1, 2, 4)),
           rect_to_point(rect(1, 2, 4, 4))]
    (group,) = sort_points(pts)
    assert [p.a for p in group] == [1, 1, 2]  # (a, b, c) ascending


def test_sort_points_empty():
    assert sort_points([]) == []


def test_index_empty_query():
    idx = DominanceMaxIndex([])
    assert idx.query_max_strict(0, 0, 0) == (0, None)


def test_index_single_key():
    idx = DominanceMaxIndex([(2, 2, 2)])
    idx.insert_or_raise((2, 2, 2), 5, "payload")
    assert idx.query_max_strict(1, 1, 1) == (5, "payload")
    assert idx.query_max_strict(2, 2, 2) == (0, None)  # strict in every coordinate
    assert idx.query_max_strict(1, 1, 2) == (0, None)
    assert idx.query_max_strict(2, 1, 1) == (0, None)


def test_index_max_semantics():
    idx = DominanceMaxIndex([(1, 1, 1)])
    idx.insert_or_raise((1, 1, 1), 3, "three")
    idx.insert_or_raise((1, 1, 1), 2, "two")
    assert idx.query_max_strict(0, 0, 0) == (3, "three")
    idx.insert_or_raise((1, 1, 1), 4, "four")
    assert idx.query_max_strict(0, 0, 0) == (4, "four")


def test_index_rejects_undeclared_key():
    idx = DominanceMaxIndex([(1, 1, 1)])
    with pytest.raises(ValueError):
        idx.insert_or_raise((1, 1, 2), 1)


def test_index_agrees_with_naive_scan():
    rng = random.Random(314)
    for _ in range(100):
        keys = [(rng.randint(1, 64), rng.randint(1, 64), rng.randint(-64, 64))
                for _ in range(rng.randint(1, 20))]
        idx = DominanceMaxIndex(keys)
        stored = {}
        for _ in range(50):
            if rng.random() < 0.5:
                key = rng.choice(keys)
                val = rng.randint(1, 1000)
                idx.insert_or_raise(key, val, key)
                stored[key] = max(stored.get(key, 0), val)
            else:
                q = (rng.randint(0, 65), rng.randint(0, 65), rng.randint(-65, 65))
                want = max((v for k, v in stored.items()
                            if k[0] > q[0] and k[1] > q[1] and k[2] > q[2]), default=0)
                got, pay = idx.query_max_strict(*q)
                assert got == want
                if got:
                    assert all(c > qc for c, qc in zip(pay, q))


def test_index_from_a_generator_with_repeated_keys():
    # The form perfbench/layers.py builds it in: a one-shot generator over
    # points, where distinct points share an (a, b, c) key.
    points = [(3, 3, 3, 1), (3, 3, 3, 2), (1, 2, 3, 1), (4, 4, 4, 1), (1, 2, 3, 5)]
    idx = DominanceMaxIndex((a, b, c) for a, b, c, _ in points)
    for key in [(3, 3, 3), (1, 2, 3), (4, 4, 4)]:
        idx.insert_or_raise(key, 0, "zero")  # a value of 0 stores nothing
    assert idx.query_max_strict(0, 0, 0) == (0, None)
    idx.insert_or_raise((3, 3, 3), 7, "first")
    idx.insert_or_raise((3, 3, 3), 7, "tie")  # not larger: payload stays
    assert idx.query_max_strict(0, 0, 0) == (7, "first")
    idx.insert_or_raise((4, 4, 4), 7, "later key")
    assert idx.query_max_strict(0, 0, 0) == (7, "first")  # first declared maximal key
    assert idx.query_max_strict(3, 3, 3) == (7, "later key")
    idx.insert_or_raise((1, 2, 3), 9, "low")
    assert idx.query_max_strict(0, 1, 2) == (9, "low")
    assert idx.query_max_strict(1, 1, 2) == (7, "first")  # a = 1 is not strictly greater
    assert idx.query_max_strict(4, 0, 0) == (0, None)
    with pytest.raises(ValueError):
        idx.insert_or_raise((3, 3, 4), 1)


def test_longest_chain_empty():
    assert longest_chain([]) is None


def test_longest_chain_single_center():
    node = longest_chain([rect_to_point(rect(3, 3, 3, 3))])
    assert node.value == 1
    assert node.successor is None


def test_longest_chain_forced_pair():
    pts = [rect_to_point(r) for r in enumerate_rectangles(build_match_set(b"aa", b"aa"))]
    node = longest_chain(pts)
    assert node.value == 2
    p = node.point
    assert (p.a, p.b, -p.c, -p.d, p.weight) == (1, 1, 2, 2, 2)  # corners (1, 1) and (2, 2)
    assert node.successor is None  # nothing fits strictly inside


def test_longest_chain_matches_pairwise_dp():
    rng = random.Random(2718)
    for _ in range(60):
        pts = random_points(rng, rng.randint(0, 80))
        node = longest_chain(pts)
        got = node.value if node else 0
        assert got == chain_value_by_pairwise_dp(pts)


def tied_points(rng, count):
    # Coordinates from a few values, one of a, b, c held constant, and d
    # from fewer still, so most comparisons meet a tie.
    flat = rng.randrange(3)
    pts = []
    for _ in range(count):
        abc = [rng.randint(1, 4) for _ in range(3)]
        abc[flat] = 2
        pts.append(Point4(*abc, rng.randint(-3, -1), rng.choice((1, 2))))
    return pts


# (BROADCAST_CELLS, BLOCK_ROUNDS): cutoffs 0 and 1 form no block of groups;
# at the default cutoff, 0 rounds leave every block to the in-order pass, 1
# round leaves to it every block with a chain inside, and 1 << 16 rounds
# settle every block without it. Default rounds keep the cutoff alone as the id.
CUTOFF_ROUNDS = (
    [pytest.param(c, chain_solver.BLOCK_ROUNDS, id=str(c))
     for c in (0, 1, chain_solver.BROADCAST_CELLS)]
    + [pytest.param(chain_solver.BROADCAST_CELLS, r, id=f"{chain_solver.BROADCAST_CELLS}-rounds{r}")
       for r in (0, 1, 1 << 16)])


@pytest.mark.parametrize("cutoff, rounds", CUTOFF_ROUNDS)
def test_longest_chain_matches_pairwise_dp_under_ties(monkeypatch, cutoff, rounds):
    # Cutoffs 0 and 1 send even tiny sets through the median splits and
    # the one-coordinate sort.
    monkeypatch.setattr(chain_solver, "BROADCAST_CELLS", cutoff)
    monkeypatch.setattr(chain_solver, "BLOCK_ROUNDS", rounds)
    rng = random.Random(4141)
    for _ in range(80):
        pts = tied_points(rng, rng.randint(0, 60)) + random_points(rng, rng.randint(0, 20), hi=5)
        node = longest_chain(pts)
        assert (node.value if node else 0) == chain_value_by_pairwise_dp(pts)


# (first coordinates, other coordinates, dtype) to draw points from: small
# ranges; int16 columns at their extremes; one first coordinate shared by
# every point; and first coordinates mostly at their lowest, so medians tie
# with it and the split moves to lowest + 1, also at the int16 top.
DOMINANCE_DRAWS = [
    (range(6), range(6), np.int32),
    ((-32767, -32766, 0, 32766, 32767), (-32767, -1, 0, 32767), np.int16),
    ((4,), range(6), np.int32),
    ((0, 0, 0, 1, 5), range(6), np.int32),
    ((32766, 32766, 32766, 32767), (-32767, 0, 32767), np.int16),
]


@pytest.mark.parametrize("cutoff", [0, 1])
def test_dominance_max_matches_naive_scan(monkeypatch, cutoff):
    monkeypatch.setattr(chain_solver, "BROADCAST_CELLS", cutoff)
    rng = random.Random(99)
    for first, rest, dtype in [draw for draw in DOMINANCE_DRAWS for _ in range(100)]:
        dims = rng.randint(1, 3)
        left, right = (np.array([[rng.choice(first)] + rng.choices(rest, k=dims - 1)
                                 for _ in range(rng.randint(0, 30))], dtype).reshape(-1, dims)
                       for _ in range(2))
        values = np.array([rng.randint(1, 9) for _ in left], dtype=np.int32)
        got = dominance_max(tuple(left.T), values, tuple(right.T))
        want = [max((v for p, v in zip(left, values) if (p > q).all()), default=0)
                for q in right]
        assert got.tolist() == want


def pairwise_chain_values(cols):
    # O(P^2): each point's weight plus the best value among the points that
    # strictly dominate it; those have a larger d, so they come first here
    a, b, c, d, w = (k.tolist() for k in cols)
    value = [0] * len(w)
    for p in sorted(range(len(w)), key=lambda t: -d[t]):
        value[p] = w[p] + max((value[q] for q in range(len(w)) if a[q] > a[p]
                               and b[q] > b[p] and c[q] > c[p] and d[q] > d[p]), default=0)
    return value


# (abba, abab): the degenerate at y's first position leads the sweep, ahead
# of every pair; (abc, cba), (a, a*9) and (a*9, a): degenerates only; the
# a-runs: one symbol, few distinct d values.
CUT_CASES = [(b"abba", b"abab"), (b"abc", b"cba"), (b"a", b"a" * 9), (b"a" * 9, b"a"),
             (b"a" * 12, b"aa"), (b"aa", b"a" * 12), (b"a" * 6, b"a" * 5), (b"aab", b"abaa")]


@pytest.mark.parametrize("cutoff, rounds", CUTOFF_ROUNDS)
def test_chain_values_on_rectangle_points_match_pairwise_dp(monkeypatch, cutoff, rounds):
    # Only points below the largest a + c receive feeds (in rect_columns'
    # points, the strict pairs), and groups are cut only where a receiver's
    # d starts; every point's value must still be the pairwise one.
    monkeypatch.setattr(chain_solver, "BROADCAST_CELLS", cutoff)
    monkeypatch.setattr(chain_solver, "BLOCK_ROUNDS", rounds)
    rng = random.Random(1812)
    cases = CUT_CASES + [random_pair(rng, max_len=14) for _ in range(60)]
    leading = only_degenerates = 0
    for x, y in cases:
        cols = rect_columns(build_match_set(x, y))
        if not cols.size:
            continue
        order = np.lexsort((cols[2], cols[1], cols[0], -cols[3]))
        assert order.tolist() == list(range(cols.shape[1])), (x, y)
        receiver = cols[0] + cols[2] < 0
        leading += bool(receiver.any() and not receiver[0])
        only_degenerates += not receiver.any()
        want = pairwise_chain_values(cols)
        assert chain_solver.chain_values(cols).tolist() == want, (x, y)
        # the same values on wider points (longest_chain passes int64)
        for dtype in (np.int32, np.int64):
            wide = chain_solver.chain_values(cols.astype(dtype))
            assert wide.dtype == dtype and wide.tolist() == want, (x, y, dtype)
        chain, values = chain_solver.best_chain(cols)
        assert values[0] == max(want)
        assert values[0] == chain_value_by_pairwise_dp([Point4(*col) for col in cols.T.tolist()])
        # the chain's own points, each a column of cols, outermost first:
        # each next point strictly dominates the one before it
        points = set(zip(*cols.tolist()))
        links = list(zip(*chain.tolist()))
        assert all(p in points for p in links)
        for (outer, v), (inner, u) in zip(zip(links, values), zip(links[1:], values[1:])):
            assert all(i > o for o, i in zip(outer[:4], inner[:4]))
            assert v == outer[4] + u
        assert values[-1] == links[-1][4]
    assert leading and only_degenerates
    chain, values = chain_solver.best_chain(np.zeros((5, 0), dtype=np.int32))
    assert chain.shape == (5, 0) and values.shape == (0,)
    cols = rect_columns(build_match_set(b"", b"a"))
    values = chain_solver.chain_values(cols)
    assert cols.shape == (5, 0) and values.shape == (0,) and values.dtype == cols.dtype


def test_chain_sweep_feeds_fewer_times_than_there_are_distinct_d(monkeypatch):
    # At sparse-geom's shape 1380 of the 3345 points are degenerates, which
    # nothing dominates; they neither cut groups nor receive feeds, so the
    # sweep makes fewer dominance_max calls, median splits included, than
    # there are distinct last coordinates (653 calls when every distinct d
    # cut a group).
    x, y = generate(GenSpec(600, 600, 256, 1))
    cols = rect_columns(build_match_set(x, y))
    distinct_d = len(np.unique(cols[3]))
    assert (cols.shape[1], distinct_d) == (3345, 543)
    calls = []
    feed = chain_solver.dominance_max
    monkeypatch.setattr(chain_solver, "dominance_max",
                        lambda *args: calls.append(1) or feed(*args))
    r = geometric_lcps(x, y)
    assert validate_witness(r, x, y)
    assert len(calls) < distinct_d


@pytest.mark.parametrize("k", [40, 120])
def test_nested_palindromes_settle_by_the_in_order_pass(k):
    # x = y = s + reverse(s) over k distinct octets: the longest chain nests
    # through every group, so no block of groups settles within BLOCK_ROUNDS
    # rounds (one block of 41 groups at k = 40, two of 60 and 61 at k = 120)
    # and the in-order pass gives the values
    s = bytes(random.Random(k).sample(range(256), k))
    x = s + s[::-1]
    cols = rect_columns(build_match_set(x, x))
    assert chain_solver.chain_values(cols).tolist() == pairwise_chain_values(cols)
    r = geometric_lcps(x, x)
    assert r.length == 2 * k and validate_witness(r, x, x)


def test_chain_sweep_settles_small_blocks_of_groups_in_place(monkeypatch):
    # At sparse-geom's shape the 247 groups end in 13 blocks of 15 to 31
    # groups whose points times receivers fit in BROADCAST_CELLS; they are
    # settled in place, so the sweep makes 84 dominance_max calls, median
    # splits included (318 when every pair of halves was fed by one)
    x, y = generate(GenSpec(600, 600, 256, 1))
    calls = []
    feed = chain_solver.dominance_max
    monkeypatch.setattr(chain_solver, "dominance_max",
                        lambda *args: calls.append(1) or feed(*args))
    r = geometric_lcps(x, y)
    assert validate_witness(r, x, y)
    assert len(calls) <= 100


def test_chain_traceback_is_sound():
    rng = random.Random(161)
    for _ in range(60):
        pts = random_points(rng, rng.randint(1, 60))
        node = longest_chain(pts)
        walked = []
        while node is not None:
            walked.append(node)
            node = node.successor
        assert all(w.point in pts for w in walked)
        for outer, inner in zip(walked, walked[1:]):
            assert is_chained(inner.point, outer.point)
            assert outer.value == outer.point.weight + inner.value
        assert sum(1 for w in walked if w.point.weight == 1) <= 1
        if any(w.point.weight == 1 for w in walked):
            assert walked[-1].point.weight == 1
        assert walked[-1].value == walked[-1].point.weight


def test_geometric_no_matches():
    assert geometric_lcps(b"ab", b"cd").length == 0


def test_geometric_known_instances():
    r = geometric_lcps(b"aab", b"aba")
    assert r.length == 2
    assert r.z == b"aa"
    assert validate_witness(r, b"aab", b"aba")
    assert geometric_lcps(b"abcba", b"bacab").length == 3


def test_geometric_rejects_invalid_witness(monkeypatch):
    monkeypatch.setattr(chain_solver, "assemble_result",
                        lambda pairs, center=None: CpsResult(2, b"ab", (1, 2), (1, 2)))
    with pytest.raises(InvalidWitness):
        geometric_lcps(b"aab", b"aba")


def test_geometric_agrees_with_dp_and_oracle():
    rng = random.Random(777)
    for _ in range(150):
        x, y = random_pair(rng)
        g = geometric_lcps(x, y)
        assert g.length == dp_lcps(x, y).length == brute_force_lcps(x, y).length
        assert validate_witness(g, x, y)
        assert all(b > a for a, b in zip(g.x_indices, g.x_indices[1:]))
        assert all(b > a for a, b in zip(g.y_indices, g.y_indices[1:]))


def test_geometric_rect_cap_declines_long_runs():
    # C(100, 2)**2 + 100 * 100 = 24 512 500 rectangles, far over the cap
    with pytest.raises(CapacityExceeded):
        geometric_lcps(b"a" * 100, b"a" * 100, max_rects=9_999)


def test_geometric_all_ties_stays_shallow():
    # P = 36 500 rectangles on 20 distinct values per coordinate
    assert geometric_lcps(b"a" * 20, b"a" * 20).length == 20


def test_geometric_peak_memory_per_rectangle():
    x, y = generate(GenSpec(40, 40, 2, 1))
    count = rect_count(build_match_set(x, y))
    assert count >= 50_000
    tracemalloc.start()
    try:
        assert geometric_lcps(x, y).length == 27
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * count


def test_geom_keeps_one_copy_of_its_points():
    # rect_columns sorts its (5, P) int16 points into sweep order and frees
    # the unsorted array on return, so best_chain sweeps the one sorted copy,
    # and chain_values gathers the receivers once: about 54 B per rectangle
    # here, against 82 with int32 points and receivers gathered per feed
    geometric_lcps(b"ab", b"ba")
    x, y = generate(GenSpec(40, 40, 2, 1))
    count = rect_count(build_match_set(x, y))
    assert count == 72_617
    tracemalloc.start()
    try:
        assert geometric_lcps(x, y).length == 27
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * count


def test_geometric_declines_before_sorting_positions():
    # random ACGT against ACGT: P = 2 000 000 degenerates, over the cap. The
    # cap is checked on the symbol counts, before any position is sorted, and
    # x is counted one slice at a time, so the peak is one slice's int64 copy
    # (8 B per character when x was counted at once, 12 B when both inputs'
    # positions were sorted first)
    x = random.Random(1).randbytes(2_000_000).translate(b"ACGT" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityExceeded):
            geometric_lcps(x, b"ACGT")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * len(x)


@pytest.mark.parametrize("x, y", [(b"a" * 3000, b"a"), (b"a", b"a" * 3000)],
                         ids=["x-repeats", "y-repeats"])
def test_geometric_peak_memory_where_one_side_holds_a_symbol_once(x, y):
    # 3000 degenerates and no strict pair; the repeated side's 4.5 M pairs
    # of positions must not be built
    count = rect_count(build_match_set(x, y))
    assert count == 3000
    tracemalloc.start()
    try:
        assert geometric_lcps(x, y).length == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * count


def test_geometric_puts_the_longer_input_on_the_x_side(monkeypatch):
    # x = aa against y = a*60 on their own sides gives the 1770 strict pairs
    # 59 distinct last coordinates and 71 dominance_max calls (the spy counts
    # its median splits too); swapped, they share the one last coordinate of
    # y's second position, and one feed from the degenerates at y's first
    # position, four calls with its splits, is all there is. The 3000
    # degenerates of (a, a*3000) cannot be dominated, so either order feeds
    # nothing there.
    calls = []
    feed = chain_solver.dominance_max
    monkeypatch.setattr(chain_solver, "dominance_max",
                        lambda *args: calls.append(1) or feed(*args))
    x, y = b"aa", b"a" * 60
    r = geometric_lcps(x, y)
    assert len(calls) <= 4
    assert r.length == 2 and validate_witness(r, x, y)
    calls.clear()
    x, y = b"a", b"a" * 3000
    r = geometric_lcps(x, y)
    assert len(calls) == 0
    assert r.length == 1 and validate_witness(r, x, y)


def test_geometric_agrees_with_dp_past_oracle_limit():
    rng = random.Random(2121)
    for _ in range(40):
        sigma = rng.randint(3, 8)
        x = bytes(rng.randrange(97, 97 + sigma) for _ in range(rng.randint(21, 40)))
        y = bytes(rng.randrange(97, 97 + sigma) for _ in range(rng.randint(21, 40)))
        d, g = dp_lcps(x, y), geometric_lcps(x, y)
        assert d.length == g.length
        assert validate_witness(d, x, y) and validate_witness(g, x, y)
