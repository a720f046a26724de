import pytest

import lcps.bench as bench
from lcps import GenSpec, generate, run_suite
from lcps.match_index import build_occurrence_lists, match_count


def test_generate_empty():
    assert generate(GenSpec(0, 0, 3, 1)) == (b"", b"")


def test_generate_unary_alphabet():
    x, y = generate(GenSpec(3, 3, 1, 99))
    assert (x, y) == (b"aaa", b"aaa")
    assert match_count(build_occurrence_lists(x, y)) == 9


def test_generate_is_deterministic():
    spec = GenSpec(12, 9, 4, 123456789)
    assert generate(spec) == generate(spec)
    assert generate(spec) != generate(GenSpec(12, 9, 4, 123456790))


def test_generate_alphabet_wraps_past_z():
    x, _ = generate(GenSpec(500, 0, 256, 3))
    assert len(set(x)) > 26  # octets beyond 'z' appear


def test_generate_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        generate(GenSpec(1, 1, 0, 0))
    with pytest.raises(ValueError):
        generate(GenSpec(1, 1, 257, 0))


def test_run_suite_rows_agree_across_algorithms():
    specs = [GenSpec(8, 8, 2, 42), GenSpec(10, 10, 2, 43)]
    rows = run_suite(specs, ["dp", "geom", "oracle"], repetitions=2)
    assert len(rows) == 6
    for row in rows:
        assert row["status"] == "ok"
        assert set(row) == {"n", "m", "s", "seed", "algo", "r", "length", "median_ms", "status"}
        assert row["median_ms"] >= 0
    for spec in specs:
        lengths = {row["length"] for row in rows if row["seed"] == spec.seed}
        assert len(lengths) == 1


def test_run_suite_empty():
    assert run_suite([], ["dp"]) == []


def test_run_suite_capacity_status_row():
    # n = 100 exceeds both the dp cell cap and the rectangle bound
    rows = run_suite([GenSpec(100, 100, 2, 1)], ["dp", "geom"], repetitions=1)
    assert [row["status"] for row in rows] == ["CapacityExceeded", "CapacityExceeded"]
    assert all(row["length"] is None and row["median_ms"] is None for row in rows)
    assert all(row["r"] > 0 for row in rows)


def test_run_suite_oracle_guard_status():
    rows = run_suite([GenSpec(21, 21, 2, 1)], ["oracle"], repetitions=1)
    assert rows[0]["status"] == "InputTooLarge"


def test_run_suite_detects_solver_disagreement(monkeypatch):
    from lcps.core import CpsResult

    monkeypatch.setitem(bench.SOLVERS, "geom",
                        lambda caps, x, y: CpsResult(99, b"", (), ()))
    with pytest.raises(RuntimeError):
        bench.run_suite([GenSpec(6, 6, 2, 5)], ["dp", "geom"], repetitions=1)
