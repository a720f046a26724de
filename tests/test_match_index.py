import random
import tracemalloc

import numpy as np
import pytest

from conftest import random_pair
from lcps.geometry import enumerate_rectangles, rect_columns, rect_count
from lcps.match_index import Match, build_match_set, occurrence_bounds


def occurrences(x, y):
    """Each symbol on both sides: its positions in x and in y, read from the
    degenerate rectangles (w = 1) of rect_columns, which must be exactly the
    matches. The match set must hold the inputs' own codes and symbol
    counts, and per_sigma must name the same symbols, with
    r_sigma = x_s * y_s."""
    ms = build_match_set(x, y)
    for seq, codes, count in ((x, ms.x, ms.x_count), (y, ms.y, ms.y_count)):
        assert codes.dtype == np.uint8 and codes.tobytes() == seq
        assert count.tolist() == [seq.count(s) for s in range(256)]
    a, b, c, d, w = rect_columns(ms).tolist()
    matches = sorted((i, j) for i, j, k, l, wt in zip(a, b, c, d, w)
                     if wt == 1 and (k, l) == (-i, -j))
    assert w.count(1) == len(matches)
    assert matches == [(i, j) for i, cx in enumerate(x, 1)
                       for j, cy in enumerate(y, 1) if cx == cy]
    occ = {}
    for i, j in matches:
        xo, yo = occ.setdefault(x[i - 1], (set(), set()))
        xo.add(i)
        yo.add(j)
    occ = {s: (tuple(sorted(xo)), tuple(sorted(yo))) for s, (xo, yo) in sorted(occ.items())}
    assert [(s.sigma, s.r_sigma) for s in ms.per_sigma] == [
        (s, len(xo) * len(yo)) for s, (xo, yo) in occ.items()]
    return occ


def test_occurrence_lists_example():
    assert occurrences(b"aab", b"aba") == {
        ord("a"): ((1, 2), (1, 3)),
        ord("b"): ((3,), (2,)),
    }


def test_occurrence_lists_one_side_empty():
    assert occurrences(b"", b"a") == {}
    assert occurrences(b"abz", b"ya") == {ord("a"): ((1,), (2,))}  # b, y, z one-sided


def test_occurrence_lists_same_string():
    assert occurrences(b"zz", b"zz") == {ord("z"): ((1, 2), (1, 2))}


def test_match_set_example():
    ms = build_match_set(b"aab", b"aba")
    assert ms.r == 5
    by_sigma = {s: {Match(i, j) for i in xo for j in yo}
                for s, (xo, yo) in occurrences(b"aab", b"aba").items()}
    assert by_sigma == {
        ord("a"): {Match(1, 1), Match(1, 3), Match(2, 1), Match(2, 3)},
        ord("b"): {Match(3, 2)},
    }


def test_match_set_disjoint_alphabets():
    ms = build_match_set(b"ab", b"cd")
    assert ms.r == 0
    assert ms.per_sigma == ()


def test_match_set_full_product():
    ms = build_match_set(b"aa", b"aa")
    assert ms.r == 4
    (s,) = ms.per_sigma
    assert s.r_sigma == 4
    assert occurrences(b"aa", b"aa") == {ord("a"): ((1, 2), (1, 2))}


def test_r_sigma_is_product_of_occurrence_counts():
    ms = build_match_set(b"abab", b"bba")
    for s in ms.per_sigma:
        assert s.r_sigma == ms.x_count[s.sigma] * ms.y_count[s.sigma]
        assert type(s.sigma) is int and type(s.r_sigma) is int
    assert ms.r == sum(s.r_sigma for s in ms.per_sigma)


def test_r_matches_naive_double_loop():
    rng = random.Random(4242)
    for _ in range(50):
        x, y = random_pair(rng, max_len=50)
        naive = sum(1 for cx in x for cy in y if cx == cy)
        assert build_match_set(x, y).r == naive


def test_mean_r_tracks_density_estimate():
    # statistical sanity of the uniform model, not a per-instance assert
    rng = random.Random(7)
    n = m = 30
    sigma = 4
    trials = 300
    total = 0
    for _ in range(trials):
        x = bytes(rng.randrange(97, 97 + sigma) for _ in range(n))
        y = bytes(rng.randrange(97, 97 + sigma) for _ in range(m))
        total += build_match_set(x, y).r
    mean = total / trials
    expected = n * m / sigma
    assert abs(mean - expected) <= 0.2 * expected


def literal_grouping(x, y):
    occ = {}
    for pos, ch in enumerate(x, start=1):
        occ.setdefault(ch, ([], []))[0].append(pos)
    for pos, ch in enumerate(y, start=1):
        occ.setdefault(ch, ([], []))[1].append(pos)
    return [(ch, tuple(xs), tuple(ys)) for ch, (xs, ys) in sorted(occ.items()) if xs and ys]


def test_match_set_over_every_octet():
    rng = random.Random(256)
    pairs = [(b"\x00\xff\x00", b"\xff\x00\xff\xff")]
    while len(pairs) < 200:
        alphabet = rng.sample(range(256), rng.choice((1, 2, 3, 5, 256)))
        max_len = 16 + len(alphabet) // 4  # short where symbols repeat most
        pairs.append(tuple(bytes(rng.choices(alphabet, k=rng.randint(0, max_len))) for _ in "xy"))
    assert set().union(*(x + y for x, y in pairs)) == set(range(256))
    for x, y in pairs:
        ms = build_match_set(x, y)
        assert [(s, *occ) for s, occ in occurrences(x, y).items()] == literal_grouping(x, y)
        assert ms.r == sum(cx == cy for cx in x for cy in y)
        rects = enumerate_rectangles(ms)
        assert rect_count(ms) == len(rects)
        assert all(r.sigma == x[r.lower.i - 1] == y[r.lower.j - 1] for r in rects)


def test_match_set_is_read_only():
    ms = build_match_set(b"ab\xff", b"\x00b")
    for arr in ms:
        with pytest.raises(ValueError):
            arr[:1] = 7


def test_match_set_counts_a_long_input_at_a_small_peak():
    # 4 000 000 random ACGT characters span 62 count slices, the last one
    # partial; counting the whole input at once copies it to int64 (32 MB)
    x = random.Random(1).randbytes(4_000_000).translate(b"ACGT" * 64)
    tracemalloc.start()
    try:
        ms = build_match_set(x, b"ACGT")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert ms.x_count.tolist() == [x.count(s) for s in range(256)]
    assert ms.r == len(x)


def scanned_bounds(seq, sym):
    """occurrence_bounds' two rows for one symbol, by a plain scan."""
    n = len(seq)
    nxt = [next((q for q in range(p, n) if seq[q] == sym), n) for p in range(n)]
    prv = [next((q for q in range(p, -1, -1) if seq[q] == sym), -1) for p in range(n)]
    return nxt, prv


@pytest.mark.parametrize("sigma", [1, 2, 4, 256])
def test_occurrence_bounds_match_a_scan(sigma):
    rng = random.Random(sigma)
    for n in range(41):
        seq = bytes(rng.choices(range(sigma), k=n))
        codes = np.frombuffer(seq, dtype=np.uint8)
        # every symbol of the alphabet, some absent from a short seq, and one
        # outside the alphabet where it has fewer than 256 symbols
        symbols = np.arange(min(sigma + 1, 256))
        nxt, prv = occurrence_bounds(codes, symbols)
        assert nxt.shape == prv.shape == (len(symbols), n)
        for s, sym in enumerate(symbols.tolist()):
            assert (nxt[s].tolist(), prv[s].tolist()) == scanned_bounds(seq, sym)
            if sym not in seq:
                assert set(nxt[s].tolist()) <= {n} and set(prv[s].tolist()) <= {-1}


def test_occurrence_bounds_over_both_sides_of_a_match_set():
    ms = build_match_set(b"abcab", b"bba")
    symbols = np.flatnonzero((ms.x_count > 0) & (ms.y_count > 0))  # a and b, not c
    assert symbols.tolist() == [ord("a"), ord("b")]
    for seq, codes in ((b"abcab", ms.x), (b"bba", ms.y)):
        nxt, prv = occurrence_bounds(codes, symbols)
        for s, sym in enumerate(symbols.tolist()):
            assert (nxt[s].tolist(), prv[s].tolist()) == scanned_bounds(seq, sym)
    nxt, prv = occurrence_bounds(build_match_set(b"", b"a").x, np.arange(2))
    assert nxt.shape == prv.shape == (2, 0)
