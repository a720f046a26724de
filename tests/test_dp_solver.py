import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import byte_seqs, random_pair
import lcps
from lcps import CapacityExceeded, brute_force_lcps, dp_lcps, fill_table, validate_witness


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


def test_known_witness():
    r = dp_lcps(b"aab", b"aba")
    assert r.length == 2
    assert r.z == b"aa"
    assert r.x_indices == (1, 2)
    assert r.y_indices == (1, 3)


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


@settings(max_examples=60, deadline=None)
@given(byte_seqs(max_size=8), byte_seqs(max_size=8))
def test_length_invariant_under_swap(x, y):
    assert dp_lcps(x, y).length == dp_lcps(y, x).length


@settings(max_examples=60, deadline=None)
@given(byte_seqs(max_size=8), byte_seqs(max_size=8))
def test_length_invariant_under_double_reversal(x, y):
    assert dp_lcps(x, y).length == dp_lcps(x[::-1], y[::-1]).length
