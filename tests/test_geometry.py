import random
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_pair
from lcps import CapacityExceeded, CpsResult, InvalidWitness, brute_force_lcps, geometric_lcps
from lcps.chain_solver import best_chain
from lcps.geometry import (
    DEFAULT_RECT_CAP,
    Match,
    Rect,
    decompose_cps,
    enumerate_rectangles,
    is_chained,
    is_nested,
    rect_columns,
    rect_count,
    rect_to_point,
)
from lcps.match_index import MatchSet, build_match_set

A = ord("a")


def rect(i, j, k, l, sigma=A):
    degenerate = (i, j) == (k, l)
    return Rect(sigma, Match(i, j), Match(k, l), 1 if degenerate else 2)


def random_rect(rng, hi=12):
    if rng.random() < 0.3:
        i, j = rng.randint(1, hi), rng.randint(1, hi)
        return rect(i, j, i, j)
    i = rng.randint(1, hi - 1)
    k = rng.randint(i + 1, hi)
    j = rng.randint(1, hi - 1)
    l = rng.randint(j + 1, hi)
    return rect(i, j, k, l)


def test_enumerate_two_by_two():
    rects = enumerate_rectangles(build_match_set(b"aa", b"aa"))
    assert len(rects) == 5
    non_deg = [r for r in rects if r.weight == 2]
    assert non_deg == [rect(1, 1, 2, 2)]
    assert {(r.lower, r.weight) for r in rects if r.weight == 1} == {
        (Match(1, 1), 1), (Match(1, 2), 1), (Match(2, 1), 1), (Match(2, 2), 1),
    }


def test_enumerate_single_match():
    rects = enumerate_rectangles(build_match_set(b"a", b"a"))
    assert rects == [rect(1, 1, 1, 1)]


def test_enumerate_no_matches():
    assert enumerate_rectangles(build_match_set(b"ab", b"cd")) == []


def test_enumerate_never_shares_a_coordinate():
    rng = random.Random(5)
    for _ in range(30):
        x, y = random_pair(rng, max_len=7)
        for r in enumerate_rectangles(build_match_set(x, y)):
            if r.weight == 2:
                assert r.lower.i < r.upper.i and r.lower.j < r.upper.j
            else:
                assert r.lower == r.upper


def test_enumerate_matches_literal_enumeration():
    rng = random.Random(31)
    for _ in range(150):
        x, y = random_pair(rng, max_len=12, max_sigma=5)
        want = Counter()
        for (i, a), (k, b) in combinations(enumerate(x, 1), 2):
            for (j, c), (l, e) in combinations(enumerate(y, 1), 2):
                if a == b == c == e:
                    want[rect(i, j, k, l, a)] += 1
        for (i, a), (j, c) in product(enumerate(x, 1), enumerate(y, 1)):
            if a == c:
                want[rect(i, j, i, j, a)] += 1
        assert Counter(enumerate_rectangles(build_match_set(x, y))) == want


def test_rect_count_is_exact():
    rng = random.Random(17)
    pairs = [
        (b"", b""),
        (b"", b"abc"),
        (b"abc", b""),
        (b"aab", b"ccd"),     # no symbol on both sides
        (b"aabz", b"abay"),   # z and y on one side only
        (b"aaaa", b"aaaa"),
    ] + [random_pair(rng, max_len=12, max_sigma=5) for _ in range(200)]
    for x, y in pairs:
        ms = build_match_set(x, y)
        assert rect_count(ms) == len(enumerate_rectangles(ms))


def test_enumerate_cap():
    ms = build_match_set(b"aaaa", b"aaaa")  # C(4, 2)**2 + 4 * 4 = 52 rectangles
    with pytest.raises(CapacityExceeded):
        enumerate_rectangles(ms, max_rects=51)
    assert len(enumerate_rectangles(ms, max_rects=52)) == 52


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2236), st.integers(0, 2236)), max_size=256))
@example([(47, 47)])
@example([(43, 52), (4, 4), (2, 3), (1, 3), (1, 1), (1, 1), (1, 1)])  # P = 1 199 681
@example([(2, 2)] * 256)
def test_default_cap_accepts_sum_r_squared_up_to_5m(counts):
    # Per-symbol occurrence counts (x_s, y_s), cut to the longest prefix with
    # sum((x_s * y_s)**2) <= 5 000 000: every such input has P < the cap.
    # rect_count reads only the count arrays, so the positions stay empty.
    kept, total = [], 0
    for xs, ys in counts:
        total += (xs * ys) ** 2
        if total > 5_000_000:
            break
        kept.append((xs, ys))
    x_count, y_count = np.zeros((2, 256), np.int64)
    x_count[:len(kept)], y_count[:len(kept)] = np.array(kept, np.int64).reshape(-1, 2).T
    empty = np.zeros(0, np.int32)
    assert rect_count(MatchSet(empty, x_count, empty, y_count)) < DEFAULT_RECT_CAP == 1_250_000


def test_rect_to_point_mapping():
    p = rect_to_point(rect(1, 1, 2, 2))
    assert (p.a, p.b, p.c, p.d) == (1, 1, -2, -2)
    q = rect_to_point(rect(3, 5, 3, 5))
    assert (q.a, q.b, q.c, q.d) == (3, 5, -3, -5)
    assert q.weight == 1
    r = rect_to_point(rect(2, 1, 4, 6))
    assert (r.a, r.b, r.c, r.d) == (2, 1, -4, -6)
    assert r.weight == 2


def test_is_nested_known_values():
    assert is_nested(rect(2, 2, 3, 3), rect(1, 1, 4, 4))
    assert not is_nested(rect(1, 1, 4, 4), rect(1, 1, 4, 4))
    assert not is_nested(rect(1, 2, 3, 3), rect(1, 1, 4, 4))  # shares i


def test_is_chained_known_values():
    p = rect_to_point(rect(2, 2, 3, 3))
    q = rect_to_point(rect(1, 1, 4, 4))
    assert is_chained(p, q)
    assert not is_chained(p, p)
    r = rect_to_point(rect(2, 1, 3, 3))
    assert not is_chained(r, q)  # b not strict


def test_nesting_chaining_equivalence():
    rng = random.Random(11)
    for _ in range(500):
        r1, r2 = random_rect(rng), random_rect(rng)
        assert is_nested(r1, r2) == is_chained(rect_to_point(r1), rect_to_point(r2))


def test_nesting_is_strict_partial_order():
    rng = random.Random(23)
    for _ in range(400):
        a, b, c = (random_rect(rng) for _ in range(3))
        assert not is_nested(a, a)
        if is_nested(a, b):
            assert not is_nested(b, a)
        if is_nested(a, b) and is_nested(b, c):
            assert is_nested(a, c)


def test_decompose_empty_witness():
    assert decompose_cps(CpsResult(0, b"", (), ()), b"x", b"y") == []


def test_decompose_single_char():
    out = decompose_cps(CpsResult(1, b"a", (1,), (2,)), b"a", b"ba")
    assert out == [rect(1, 2, 1, 2)]


def test_decompose_even_witness():
    out = decompose_cps(CpsResult(2, b"aa", (1, 2), (1, 3)), b"aab", b"aba")
    assert out == [rect(1, 1, 2, 3)]


def test_decompose_rejects_invalid_witness():
    with pytest.raises(InvalidWitness):
        decompose_cps(CpsResult(2, b"ab", (1, 2), (1, 2)), b"ab", b"ab")


def test_decompose_is_a_nested_chain_with_degenerate_last():
    rng = random.Random(9)
    for _ in range(60):
        x, y = random_pair(rng, max_len=9)
        r = brute_force_lcps(x, y)
        out = decompose_cps(r, x, y)
        assert sum(q.weight for q in out) == r.length
        for outer, inner in zip(out, out[1:]):
            assert is_nested(inner, outer)
        assert all(q.weight == 2 for q in out[:-1])
        if r.length % 2:
            assert out[-1].weight == 1


def literal_columns(x, y):
    """rect_columns' columns by double loops: every symbol's strict pairs and
    degenerates, sorted into sweep order by (-d, a, b, c)."""
    rows = []
    for s in sorted(set(x) & set(y)):
        xs = [i for i, ch in enumerate(x, 1) if ch == s]
        ys = [j for j, ch in enumerate(y, 1) if ch == s]
        rows += [(i, j, -k, -l, 2) for i, k in combinations(xs, 2) for j, l in combinations(ys, 2)]
        rows += [(i, j, -i, -j, 1) for i in xs for j in ys]
    return sorted(rows, key=lambda p: (-p[3], p[0], p[1], p[2]))


def points_dtype(x, y):
    """rect_columns' dtype: int16 while every position fits, else int32."""
    return np.int16 if max(len(x), len(y)) < 2**15 else np.int32


def test_rect_columns_where_one_side_holds_a_symbol_once():
    rng = random.Random(1313)
    pairs = [(b"aaa", b"a"), (b"a", b"aaa"), (b"aaab", b"abb"), (b"abab", b"bbba"),
             (b"zaaz", b"azz"), (b"a" * 40, b"ba")]
    while len(pairs) < 150:
        x, y = random_pair(rng, max_len=12, max_sigma=5)
        once = bytes(sorted(set(y), key=y.index))  # each of y's symbols once
        pairs += [(x, once), (once, x)]
    for x, y in pairs:
        cols = rect_columns(build_match_set(x, y))
        assert cols.dtype == points_dtype(x, y)
        assert list(zip(*(col.tolist() for col in cols))) == literal_columns(x, y)


def test_rect_columns_are_read_only():
    ms = build_match_set(b"aab", b"aba")
    cols = rect_columns(ms)
    assert type(cols) is np.ndarray
    assert cols.shape == (5, rect_count(ms))
    assert cols.dtype == points_dtype(b"aab", b"aba") and not cols.flags.writeable
    for col in cols:
        with pytest.raises(ValueError):
            col[:1] = 99
    before = cols.copy()
    best_chain(cols)
    assert np.array_equal(cols, before)


@pytest.mark.parametrize("n, dtype", [(32_767, np.int16), (32_768, np.int32)])
def test_rect_columns_dtype_at_the_int16_boundary(n, dtype):
    # positions up to n, their negations, a + c and chain values all fit in
    # int16 while n < 2**15; one more character needs int32
    x = b"ab" + b"c" * (n - 4) + b"ba"
    assert len(x) == n
    for p, q in ((x, b"abba"), (b"abba", x)):
        assert rect_columns(build_match_set(p, q)).dtype == dtype
    r = geometric_lcps(x, b"abba")
    assert (r.length, r.z) == (4, b"abba")
    assert r.x_indices == (1, 2, n - 1, n) and r.y_indices == (1, 2, 3, 4)
    r = geometric_lcps(b"abba", x)
    assert (r.length, r.z) == (4, b"abba")
    assert r.x_indices == (1, 2, 3, 4) and r.y_indices == (1, 2, n - 1, n)
