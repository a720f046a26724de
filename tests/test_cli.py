import json

import pytest

import lcps.cli as cli
from lcps.bench import GenSpec, generate
from lcps.core import CpsResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_text_golden(capsys):
    code, out, _ = run(capsys, "solve", "-x", "aab", "-y", "aba", "--format", "text")
    assert code == 0
    assert out == "2\naa\n"


def test_solve_text_empty_input(capsys):
    code, out, _ = run(capsys, "solve", "-x", "", "-y", "abc")
    assert code == 0
    assert out == "0\n"


def test_solve_json_shape(capsys):
    code, out, _ = run(capsys, "solve", "-x", "aab", "-y", "aba", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["x_len", "y_len", "algorithm", "lcps_length", "lcps",
                         "x_indices", "y_indices", "matches", "elapsed_ms"]
    assert obj["x_len"] == 3 and obj["y_len"] == 3
    assert obj["lcps_length"] == 2
    assert obj["lcps"] == "aa"
    assert obj["x_indices"] == [1, 2]
    assert obj["y_indices"] == [1, 3]
    assert obj["matches"] == 5
    assert obj["algorithm"] in ("dp", "geom")
    assert len(obj["lcps"]) == obj["lcps_length"]
    assert obj["elapsed_ms"] >= 0


@pytest.mark.parametrize("algo", ["dp", "geom", "oracle", "auto"])
def test_solve_every_algorithm(capsys, algo):
    code, out, _ = run(capsys, "solve", "-x", "abcba", "-y", "bacab",
                       "--algo", algo, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lcps_length"] == 3
    indices = obj["x_indices"]
    assert indices == sorted(indices) and len(set(indices)) == len(indices)


def test_unknown_algo_is_usage_error(capsys):
    code, _, _ = run(capsys, "solve", "-x", "a", "-y", "a", "--algo", "bogus")
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "solve", "-x", "a", "-y", "a", "--frobnicate")
    assert code == 2


def test_both_input_sources_is_usage_error(capsys, tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("abc\n")
    code, _, err = run(capsys, "solve", "-x", "abc", "--x-file", str(path), "-y", "a")
    assert code == 2
    assert "exactly one" in err


def test_missing_input_source_is_usage_error(capsys):
    code, _, _ = run(capsys, "solve", "-x", "abc")
    assert code == 2


def test_bad_cap_is_usage_error(capsys):
    code, _, _ = run(capsys, "solve", "-x", "a", "-y", "a", "--max-rects", "0")
    assert code == 2


def test_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--x-file", str(tmp_path / "nope"), "-y", "a")
    assert code == 3
    assert err


def test_capacity_exhausted_everywhere_is_exit_4(capsys):
    code, _, err = run(capsys, "solve", "-x", "aa", "-y", "aa",
                       "--max-dp-cells", "1", "--max-rects", "1")
    assert code == 4
    assert err


def test_plain_file_strips_one_trailing_newline(capsys, tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes(b"abc\n")
    code, out, _ = run(capsys, "solve", "--x-file", str(path), "-y", "cba",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["x_len"] == 3


def test_fasta_file(capsys, tmp_path):
    path = tmp_path / "x.fa"
    path.write_bytes(b">h\nac\ngt\n")
    code, out, _ = run(capsys, "solve", "--x-file", str(path), "--fasta",
                       "-y", "ACGT", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["x_len"] == 4
    assert obj["lcps_length"] >= 1


def test_fasta_first_record_only():
    assert cli.parse_fasta(b">h\nac\ngt\n") == b"ACGT"
    assert cli.parse_fasta(b">one\naaa\n>two\nccc\n") == b"AAA"
    assert cli.parse_fasta(b">h\r\na c\tg\r\nt\r\n") == b"ACGT"


def test_compare_agreement(capsys):
    code, out, _ = run(capsys, "compare", "-x", "aab", "-y", "aba")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == ["dp", "geom", "oracle"]
    assert all("length=2" in line and "valid=True" in line for line in lines)


def test_compare_empty_inputs(capsys):
    code, out, _ = run(capsys, "compare", "-x", "", "-y", "")
    assert code == 0
    assert all("length=0" in line for line in out.strip().splitlines())


def test_compare_disagreement_exits_5(capsys, monkeypatch):
    monkeypatch.setitem(cli.SOLVERS, "geom",
                        lambda cfg, x, y: CpsResult(3, b"aaa", (1, 2, 3), (1, 2, 3)))
    code, _, err = run(capsys, "compare", "-x", "aab", "-y", "aba")
    assert code == 5
    assert "disagreement" in err


def test_matches_golden(capsys):
    code, out, _ = run(capsys, "matches", "-x", "aab", "-y", "aba")
    assert code == 0
    assert json.loads(out) == {"r": 5, "per_sigma": {"a": 4, "b": 1}}


def test_bench_rows(capsys):
    code, out, _ = run(capsys, "bench", "--n-list", "6,8", "--s-list", "2",
                       "--seed", "11", "--reps", "2", "--algo", "dp,geom,oracle")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 6
    for row in rows:
        assert row["status"] == "ok"
        assert row["seed"] == 11
    for n in (6, 8):
        assert len({row["length"] for row in rows if row["n"] == n}) == 1


def test_bench_empty_n_list(capsys):
    code, out, _ = run(capsys, "bench", "--n-list", "")
    assert code == 0
    assert out == ""


def test_bench_unknown_algo_is_usage_error(capsys):
    code, _, _ = run(capsys, "bench", "--n-list", "4", "--algo", "nope")
    assert code == 2


def test_compare_reports_declined_solver(capsys):
    code, out, _ = run(capsys, "compare", "-x", "aab", "-y", "aba", "--max-dp-cells", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dp: declined (CapacityExceeded: table needs 81 cells, cap is 1)"
    assert [line.split(":")[0] for line in lines[1:]] == ["geom", "oracle"]
    assert all("length=2" in line and "valid=True" in line for line in lines[1:])


def test_compare_every_solver_declined_is_exit_4(capsys):
    x = "ab" * 11  # past the oracle's length limit, so only dp and geom apply
    code, out, err = run(capsys, "compare", "-x", x, "-y", "ba",
                         "--max-dp-cells", "1", "--max-rects", "1")
    assert code == 4
    assert [line.split(":")[0] for line in out.strip().splitlines()] == ["dp", "geom"]
    assert all("declined (CapacityExceeded: " in line for line in out.strip().splitlines())
    assert err


def test_match_count_agrees_across_commands(capsys):
    x, y = generate(GenSpec(12, 12, 3, 7))
    lits = ["-x", x.decode("latin-1"), "-y", y.decode("latin-1")]
    # the solve JSON count is not capped by --max-matches when dp answers
    _, out, _ = run(capsys, "solve", *lits, "--algo", "dp", "--format", "json",
                    "--max-matches", "1")
    solved = json.loads(out)["matches"]
    _, out, _ = run(capsys, "matches", *lits)
    counted = json.loads(out)["r"]
    _, out, _ = run(capsys, "bench", "--n-list", "12", "--s-list", "3", "--seed", "7",
                    "--reps", "1", "--algo", "geom")
    benched = json.loads(out)["r"]
    assert solved == counted == benched > 1
