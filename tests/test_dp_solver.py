import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import byte_seqs, random_pair
import lcps
from lcps import (CapacityExceeded, brute_force_lcps, dp_lcps, dp_solver, fill_table,
                  geometric_lcps, validate_witness)
from lcps.bench import GenSpec, generate
from lcps.core import CpsResult
from lcps.geometry import rect_count
from lcps.match_index import build_match_set


def test_single_char_cell():
    assert fill_table(b"a", b"a").cell(1, 1, 1, 1) == 1


def test_root_cells_of_known_instances():
    assert fill_table(b"aab", b"aba").cell(1, 3, 1, 3) == 2
    assert fill_table(b"abcba", b"bacab").cell(1, 5, 1, 5) == 3


def test_empty_substring_reads_zero_without_storage():
    t = fill_table(b"ab", b"ba")
    assert t.cell(2, 1, 1, 2) == 0
    assert t.cell(1, 2, 2, 1) == 0
    # i > j shortcut applies even at out-of-universe coordinates
    assert t.cell(5, 0, 1, 1) == 0


def test_accessor_rejects_out_of_range():
    t = fill_table(b"ab", b"ba")
    with pytest.raises(IndexError):
        t.cell(1, 3, 1, 2)
    with pytest.raises(IndexError):
        t.cell(0, 1, 1, 2)


def test_empty_inputs():
    r = dp_lcps(b"", b"abc")
    assert r == brute_force_lcps(b"", b"abc")
    assert r.length == 0 and r.z == b""
    assert dp_lcps(b"abc", b"").length == 0
    assert fill_table(b"", b"abc").root == fill_table(b"abc", b"").root == 0


@pytest.mark.parametrize("x, y", [(b"a" * 100_000, b""), (b"", b"a" * 100_000)],
                         ids=["y-empty", "x-empty"])
def test_empty_input_answers_without_a_table(x, y):
    # n * n * m * m is 0, so the cell cap admits any length; a table of
    # (n + 1) * n bytes for the answer 0 would be 10 GB here, and with x
    # empty the y windows' indices alone about 80 GB. fill_table, called
    # directly in either order, stores no cell.
    tracemalloc.start()
    try:
        r = dp_lcps(x, y)
        t = fill_table(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == CpsResult(0, b"", (), ())
    assert peak < 1 << 20
    assert t.root == 0 and t.cell(2, 1, 1, 1) == t.cell(1, 1, 2, 1) == 0
    with pytest.raises(IndexError):
        t.cell(1, 1, 1, 1)
    assert not t._planes.flags.writeable
    assert dp_solver._traceback(t) == r


def test_known_witness():
    r = dp_lcps(b"aab", b"aba")
    assert r.length == 2
    assert r.z == b"aa"
    assert r.x_indices == (1, 2)
    assert r.y_indices == (1, 3)
    # An x-side drop that keeps the value comes before a peel: dropping x's
    # first "a" keeps 2, so the walk peels the tightest pair of "aa" inside.
    r = dp_lcps(b"aaa", b"aa")
    assert r.z == b"aa"
    assert r.x_indices == (2, 3)
    assert r.y_indices == (1, 2)


def test_traceback_with_the_shorter_input_on_the_x_side():
    # dp_lcps puts the longer input on the x side; the walk has to hold for
    # either orientation and for one- to three-character x windows.
    rng = random.Random(505)
    pairs = [(b"a", b"b" * 39 + b"a"), (b"ab", b"ba" * 20), (b"aba", b"a" * 40)]
    for n in (1, 2, 3):
        for m in (1, 2, 5, 17, 40):
            for sigma in (1, 2, 4):
                letters = b"abcd"[:sigma]
                pairs.append((bytes(rng.choice(letters) for _ in range(n)),
                              bytes(rng.choice(letters) for _ in range(m))))
    pairs += [random_pair(rng, max_len=12) for _ in range(200)]
    for x, y in pairs:
        if len(x) >= len(y):
            x, y = y, x
        t = fill_table(x, y)
        r = dp_solver._traceback(t)
        assert validate_witness(r, x, y), (x, y, r)
        assert r.length == t.root, (x, y, r)


def test_length_one_result_is_a_common_symbol():
    r = dp_lcps(b"ab", b"ba")
    assert r.length == 1
    assert r.z in (b"a", b"b")
    assert validate_witness(r, b"ab", b"ba")


def test_capacity_cap():
    with pytest.raises(CapacityExceeded):
        fill_table(b"abcd", b"abcd", max_cells=255)
    with pytest.raises(CapacityExceeded):
        dp_lcps(b"abcd", b"abcd", max_cells=255)
    assert fill_table(b"abcd", b"abcd", max_cells=256).root == 1


def test_uint16_guard_survives_optimize_flag():
    # python -O strips asserts; the guard must raise before any allocation
    code = (
        "from lcps import CapacityExceeded, fill_table\n"
        "try:\n"
        "    fill_table(b'a' * 65536, b'a' * 65536, max_cells=2**70)\n"
        "except CapacityExceeded:\n"
        "    print('declined')\n"
    )
    src = str(Path(lcps.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "declined\n", proc.stderr


def test_root_matches_oracle_on_random_instances():
    rng = random.Random(2024)
    for _ in range(200):
        x, y = random_pair(rng)
        r = dp_lcps(x, y)
        assert r.length == brute_force_lcps(x, y).length, (x, y)
        assert validate_witness(r, x, y)


def test_every_cell_matches_oracle_on_substrings():
    rng = random.Random(31337)
    for _ in range(10):
        x, y = random_pair(rng, max_len=8)
        t = fill_table(x, y)
        for i in range(1, len(x) + 1):
            for j in range(i, len(x) + 1):
                for k in range(1, len(y) + 1):
                    for l in range(k, len(y) + 1):
                        want = brute_force_lcps(x[i - 1 : j], y[k - 1 : l]).length
                        assert t.cell(i, j, k, l) == want, (x, y, i, j, k, l)


def test_cells_bounded_and_monotone():
    rng = random.Random(88)
    for _ in range(20):
        x, y = random_pair(rng, max_len=7)
        t = fill_table(x, y)
        for i in range(1, len(x) + 1):
            for j in range(i, len(x) + 1):
                for k in range(1, len(y) + 1):
                    for l in range(k, len(y) + 1):
                        c = t.cell(i, j, k, l)
                        assert 0 <= c <= min(j - i + 1, l - k + 1)
                        assert c >= t.cell(i + 1, j, k, l)
                        assert c >= t.cell(i, j - 1, k, l)
                        assert c >= t.cell(i, j, k + 1, l)
                        assert c >= t.cell(i, j, k, l - 1)


def test_four_equal_ends_peel_consistently():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        x, y = random_pair(rng, max_len=8, max_sigma=2)
        t = fill_table(x, y)
        for i in range(1, len(x) + 1):
            for j in range(i + 1, len(x) + 1):
                for k in range(1, len(y) + 1):
                    for l in range(k + 1, len(y) + 1):
                        if x[i - 1] == x[j - 1] == y[k - 1] == y[l - 1]:
                            assert t.cell(i, j, k, l) == 2 + t.cell(i + 1, j - 1, k + 1, l - 1)
                            checked += 1
    assert checked > 100


def _dense_cells(t):
    """The table as F[i, j, k, l] over 1-based bounds; empty windows read 0."""
    n, m = t.n, t.m
    f = np.zeros((n + 2, n + 1, m + 2, m + 1), dtype=np.int32)
    k, l = np.triu_indices(m)  # the packed windows, in table order
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            f[i, j, k + 1, l + 1] = t._planes[j - i + 1, i - 1, : len(k)]
    return f


def _assert_obeys_the_recurrence(x, y):
    """Every cell with i < j and k < l is 2 + peel where the four ends are
    equal and the max of the four drops otherwise; every length-1 window is
    1 exactly when its symbol occurs in the other window."""
    n, m = len(x), len(y)
    f = _dense_cells(fill_table(x, y))
    xs = np.frombuffer(x, dtype=np.uint8)
    ys = np.frombuffer(y, dtype=np.uint8)
    xi, xj = xs.reshape(n, 1, 1, 1), xs.reshape(1, n, 1, 1)
    yk, yl = ys.reshape(1, 1, m, 1), ys.reshape(1, 1, 1, m)
    cell = f[1 : n + 1, 1 : n + 1, 1 : m + 1, 1 : m + 1]
    four_equal = (xi == xj) & (xj == yk) & (yk == yl)
    peel = f[2 : n + 2, 0:n, 2 : m + 2, 0:m] + 2
    drops = np.maximum.reduce([
        f[2 : n + 2, 1 : n + 1, 1 : m + 1, 1 : m + 1],  # (i+1, j, k, l)
        f[1 : n + 1, 0:n, 1 : m + 1, 1 : m + 1],  # (i, j-1, k, l)
        f[1 : n + 1, 1 : n + 1, 2 : m + 2, 1 : m + 1],  # (i, j, k+1, l)
        f[1 : n + 1, 1 : n + 1, 1 : m + 1, 0:m],  # (i, j, k, l-1)
    ])
    ii = np.arange(n)
    kk = np.arange(m)
    both_long = (ii[:, None] < ii[None, :])[:, :, None, None] & (kk[:, None] < kk[None, :])
    want = np.where(four_equal, peel, drops)
    assert np.array_equal(cell[both_long], want[both_long]), (x, y)
    assert both_long.sum() == (n * (n - 1) // 2) * (m * (m - 1) // 2)

    cross = (xs[:, None] == ys[None, :]).astype(np.int32)
    hits_y = np.concatenate([np.zeros((n, 1), np.int32), cross.cumsum(axis=1)], axis=1)
    in_y = hits_y[:, None, 1:] - hits_y[:, :-1, None] > 0  # (i, k, l), k <= l
    hits_x = np.concatenate([np.zeros((1, m), np.int32), cross.cumsum(axis=0)], axis=0)
    in_x = hits_x[1:][None, :, :] - hits_x[:-1][:, None, :] > 0  # (i, j, k), i <= j
    upper_y = kk[:, None] <= kk[None, :]
    upper_x = ii[:, None] <= ii[None, :]
    assert np.array_equal(cell[ii, ii][:, upper_y], in_y[:, upper_y]), (x, y)
    assert np.array_equal(cell[:, :, kk, kk][upper_x], in_x[upper_x]), (x, y)


def test_cell_reads_the_packed_window_at_every_bound():
    # cell() finds a y window by its row-major triangle index; the helper
    # unpacks with np.triu_indices. Empty windows (j = i - 1, l = k - 1) read
    # 0, and so does the trailing column of every start.
    rng = random.Random(1212)
    pairs = [(b"a", b"a"), (b"a", b"abcab"), (b"abcab", b"b"),  # n = 1, m = 1
             (b"ab", b"abbaabab"), (b"abbaabab" * 2, b"bab")]  # n < m, n > m
    pairs += [random_pair(rng, max_len=12, max_sigma=4) for _ in range(40)]
    for x, y in pairs:
        if not (x and y):
            continue
        n, m = len(x), len(y)
        t = fill_table(x, y)
        f = _dense_cells(t)
        assert not t._planes[:, :, -1].any()
        for i in range(1, n + 1):
            for j in range(i - 1, n + 1):
                for k in range(1, m + 1):
                    for l in range(k - 1, m + 1):
                        assert t.cell(i, j, k, l) == f[i, j, k, l], (x, y, i, j, k, l)


@pytest.mark.parametrize("sigma", [2, 4])
def test_every_cell_obeys_the_recurrence_at_benchmark_size(sigma):
    # The oracle cannot reach n=36; checking each cell against the recurrence
    # over its already-checked neighbours covers the whole table by induction.
    _assert_obeys_the_recurrence(*generate(GenSpec(36, 36, sigma, 1)))


def test_every_cell_obeys_the_recurrence_on_random_shapes():
    rng = random.Random(4242)
    pairs = [random_pair(rng, max_len=12, max_sigma=5) for _ in range(300)]
    pairs += [
        (b"a", b"abcab"), (b"abcab", b"a"), (b"b", b"b"),  # n = 1, m = 1
        (b"ab", b"abbaabab" * 2), (b"abbaabab" * 2, b"ba"),  # n < m, n > m
        (b"a" * 11, b"a" * 7), (b"a" * 3, b"a" * 12),  # one symbol: pairs everywhere
        (b"abab" * 3, b"cdcdc" * 2), (b"aaaa", b"bbbbbb"),  # disjoint: no pairs at all
    ]
    for x, y in pairs:
        if x and y:
            _assert_obeys_the_recurrence(x, y)


def test_every_cell_obeys_the_recurrence_across_blocks():
    # Long thin shapes have many equal-ended starts at every x length; and
    # where x repeats a symbol that y holds once or not at all, next to a
    # paired one, that symbol's starts never end a peel.
    rng = random.Random(1717)
    pairs = [(b"a" * 150, b"aa"), (b"ab" * 70, b"abba")]
    for n, m in ((100, 2), (120, 3), (150, 4), (175, 5), (200, 6)):
        letters = b"abc"[: rng.randint(1, 3)]
        y = b""
        while len(set(y)) == len(y):  # y holds some symbol twice
            y = bytes(rng.choice(letters) for _ in range(m))
        pairs.append((bytes(rng.choice(letters) for _ in range(n)), y))
    pairs += [(b"ab" * 30, b"aab"), (b"abc" * 20, b"abcc"), (b"a" * 30 + b"b" * 30, b"bb"),
              (b"a" * 50, b"a")]
    for x, y in pairs:
        t = fill_table(x, y)
        _assert_obeys_the_recurrence(x, y)
        r, s = dp_lcps(x, y), dp_lcps(y, x)
        assert r.length == s.length == t.root, (x, y)
        assert validate_witness(r, x, y) and validate_witness(s, y, x), (x, y)


@pytest.mark.parametrize("x, y", [
    (b"a" * 1024, b"aa"),  # every start is equal-ended at every length
    (b"ab" * 512, b"abab"),  # half of them, with two symbols
    (generate(GenSpec(2048, 0, 2, 1))[0], b"a"),  # no symbol y holds twice: no rows
], ids=["a1024-aa", "ab512-abab", "r2048-a"])
def test_equal_ended_rows_add_little_to_the_table(x, y):
    # A size cap must bound real memory: each x start's peel index and gain
    # take 9 bytes per y window, and one length gathers only its own
    # equal-ended rows, so even where most starts are equal-ended the fill
    # peaks near the table itself.
    tracemalloc.start()
    try:
        t = fill_table(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.15 * t._planes.nbytes, (peak, t._planes.nbytes)


@pytest.mark.parametrize("sigma", [2, 40])
def test_fill_peak_memory_is_the_table(sigma):
    # A size cap must bound real memory: the per-symbol pair indices and the
    # per-x-length temporaries are O(n*m*m), small next to the n*n*m*m table.
    # With 40 symbols the per-symbol index arrays are at their largest.
    x, y = generate(GenSpec(40, 40, sigma, 1))
    tracemalloc.start()
    try:
        t = fill_table(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * t._planes.nbytes, (peak, t._planes.nbytes)


def test_peak_memory_at_the_default_caps_largest_square():
    # n = m = 90 is the largest square under the default cap of 2**26 cells;
    # 1-byte cells over the k <= l windows make the table about 34 MB.
    x, y = generate(GenSpec(90, 90, 2, 1))
    tracemalloc.start()
    try:
        r = dp_lcps(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20, peak
    assert validate_witness(r, x, y)


@settings(max_examples=60, deadline=None)
@given(byte_seqs(max_size=8), byte_seqs(max_size=8))
def test_length_invariant_under_swap(x, y):
    assert dp_lcps(x, y).length == dp_lcps(y, x).length
    assert geometric_lcps(x, y).length == geometric_lcps(y, x).length


@settings(max_examples=60, deadline=None)
@given(byte_seqs(max_size=8), byte_seqs(max_size=8))
def test_length_invariant_under_double_reversal(x, y):
    assert dp_lcps(x, y).length == dp_lcps(x[::-1], y[::-1]).length


@st.composite
def pairs_past_oracle_limit(draw):
    """Two strings of 0 to 60 characters over the first 1 to 8 letters."""
    letters = st.sampled_from(list(b"abcdefgh"[: draw(st.integers(1, 8))]))
    sizes = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    return tuple(bytes(draw(st.lists(letters, min_size=k, max_size=k))) for k in sizes)


@settings(max_examples=200, deadline=None)
@given(pairs_past_oracle_limit())
def test_dp_agrees_with_geom_past_oracle_limit(pair):
    # geom only where it stays quick: P <= 50 000 rectangles
    x, y = pair
    d = dp_lcps(x, y)
    assert validate_witness(d, x, y)
    if rect_count(build_match_set(x, y)) <= 50_000:
        g = geometric_lcps(x, y)
        assert g.length == d.length
        assert validate_witness(g, x, y)


def test_thin_shape_peak_is_the_longer_side_table():
    # The cap counts n*n*m*m cells; with the 1-character input on the x side
    # the table alone would cost 4 bytes per counted cell (the x_len = 0 plane
    # doubles a one-row table).
    x, y = b"a", generate(GenSpec(2048, 0, 2, 1))[0]
    tracemalloc.start()
    try:
        r = dp_lcps(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(x) ** 2 * len(y) ** 2, peak
    assert validate_witness(r, x, y)
    assert r.length == dp_lcps(y, x).length == 1
