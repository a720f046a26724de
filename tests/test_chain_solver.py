import random

import pytest

import lcps.chain_solver as chain_solver
from conftest import random_pair
from lcps import (
    CpsResult,
    DominanceMaxIndex,
    InvalidWitness,
    Match,
    Rect,
    brute_force_lcps,
    build_match_set,
    dp_lcps,
    enumerate_rectangles,
    geometric_lcps,
    is_chained,
    longest_chain,
    rect_to_point,
    sort_points,
    validate_witness,
)


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
    assert node.point.source == rect(1, 1, 2, 2)
    assert node.successor is None  # nothing fits strictly inside


def test_longest_chain_matches_pairwise_dp():
    rng = random.Random(2718)
    for _ in range(60):
        pts = random_points(rng, rng.randint(0, 80))
        node = longest_chain(pts)
        got = node.value if node else 0
        assert got == chain_value_by_pairwise_dp(pts)


def test_chain_traceback_is_sound():
    rng = random.Random(161)
    for _ in range(60):
        pts = random_points(rng, rng.randint(1, 60))
        node = longest_chain(pts)
        walked = []
        while node is not None:
            walked.append(node)
            node = node.successor
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
