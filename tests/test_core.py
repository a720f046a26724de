from hypothesis import given

from conftest import byte_seqs
from lcps.core import CpsResult, is_palindrome, validate_witness


def test_is_palindrome_known_values():
    assert is_palindrome(b"")
    assert is_palindrome(b"aba")
    assert not is_palindrome(b"ab")
    assert is_palindrome(b"abba")
    assert not is_palindrome(b"abca")


@given(byte_seqs())
def test_palindrome_iff_equal_to_reverse(z):
    assert is_palindrome(z) == all(
        z[i] == z[len(z) - 1 - i] for i in range((len(z) + 1) // 2)
    )


def test_validate_witness_empty():
    empty = CpsResult(0, b"", (), ())
    assert validate_witness(empty, b"anything", b"at all")
    assert validate_witness(empty, b"", b"")


def test_validate_witness_accepts_real_witness():
    r = CpsResult(2, b"aa", (1, 2), (1, 3))
    assert validate_witness(r, b"aab", b"aba")


def test_validate_witness_rejects_non_palindrome():
    r = CpsResult(2, b"ab", (1, 3), (2, 1))
    assert not validate_witness(r, b"aab", b"aba")


def test_validate_witness_rejects_bad_embedding():
    # right shape, but position 2 of x is 'a', not 'b'
    r = CpsResult(1, b"b", (2,), (2,))
    assert not validate_witness(r, b"aab", b"aba")


def test_validate_witness_rejects_non_increasing_indices():
    r = CpsResult(2, b"aa", (2, 1), (1, 3))
    assert not validate_witness(r, b"aab", b"aba")


def test_validate_witness_rejects_out_of_range():
    r = CpsResult(1, b"a", (4,), (1,))
    assert not validate_witness(r, b"aab", b"aba")


def test_validate_witness_rejects_length_mismatch():
    r = CpsResult(1, b"aa", (1, 2), (1, 3))
    assert not validate_witness(r, b"aab", b"aba")
