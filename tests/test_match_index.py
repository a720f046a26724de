import random

from conftest import random_pair
from lcps.match_index import Match, build_match_set


def occurrences(x, y):
    return {s.sigma: (s.x_occ, s.y_occ) for s in build_match_set(x, y).per_sigma}


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
    by_sigma = {s.sigma: {Match(i, j) for i in s.x_occ for j in s.y_occ} for s in ms.per_sigma}
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


def test_r_sigma_is_product_of_occurrence_counts():
    ms = build_match_set(b"abab", b"bba")
    for s in ms.per_sigma:
        assert s.r_sigma == len(s.x_occ) * len(s.y_occ)
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
