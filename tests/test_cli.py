import errno
import io
import json
import os
import random
import tracemalloc

import pytest

import lcps.chain_solver as chain_solver
import lcps.cli as cli
import lcps.dp_solver as dp_solver
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


@pytest.mark.parametrize("algo", ["auto", "dp"])
def test_solve_json_empty_input_against_a_long_one(capsys, algo):
    code, out, _ = run(capsys, "solve", "--format", "json", "--algo", algo,
                       "-x", "a" * 100_000, "-y", "")
    assert code == 0
    obj = json.loads(out)
    assert (obj["x_len"], obj["y_len"], obj["algorithm"]) == (100_000, 0, "dp")
    assert (obj["lcps_length"], obj["lcps"], obj["x_indices"], obj["y_indices"]) == (0, "", [], [])


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


def test_over_cap_file_declines_at_a_small_peak(capsys, tmp_path):
    # 2 000 000 random ACGT characters against ACGT: geom and dp both decline
    # on counts, so beyond the file's bytes only one count slice's int64 copy
    # is built (9 B per character when the whole file was counted at once,
    # 17 B when positions were sorted first)
    path = tmp_path / "x.txt"
    path.write_bytes(random.Random(1).randbytes(2_000_000).translate(b"ACGT" * 64))
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "solve", "--x-file", str(path), "-y", "ACGT")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4 and err
    assert peak <= 12 * 2_000_000


def test_rect_cap_counts_the_rectangles_built(capsys):
    # aaaa against aaaa builds C(4, 2)**2 + 4 * 4 = 52 rectangles
    argv = ["solve", "--algo", "geom", "-x", "aaaa", "-y", "aaaa"]
    assert run(capsys, *argv, "--max-rects", "100") == (0, "4\naaaa\n", "")
    assert run(capsys, *argv, "--max-rects", "52") == (0, "4\naaaa\n", "")
    assert run(capsys, *argv, "--max-rects", "51") == (
        4, "", "error: 52 rectangles exceed the cap of 51\n")


def test_plain_file_strips_one_trailing_newline(capsys, tmp_path):
    path = tmp_path / "x.txt"
    path.write_bytes(b"abc\n")
    code, out, _ = run(capsys, "solve", "--x-file", str(path), "-y", "cba",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["x_len"] == 3


@pytest.mark.parametrize("ending", [b"", b"\n", b"\r\n"], ids=["none", "lf", "crlf"])
def test_file_input_is_read_in_one_copy(tmp_path, ending):
    # 5 000 000 characters: the stripped bytes are read once, at their own
    # size (2 B per character when a line end was sliced off a first copy)
    body = random.Random(1).randbytes(5_000_000).translate(b"ACGT" * 64)
    path = tmp_path / "x.txt"
    path.write_bytes(body + ending)
    tracemalloc.start()
    try:
        data = cli.read_input(str(path), is_file=True, fasta=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data == body
    assert peak <= 1.1 * len(body)


@pytest.mark.parametrize("raw, kept", [(b"", b""), (b"\n", b""), (b"\r\n", b""), (b"a\n\n", b"a\n"),
                                       (b"ab\r\n", b"ab"), (b"ab\r", b"ab\r"), (b"a\nb", b"a\nb")])
def test_one_line_end_is_stripped_from_files_and_streams(tmp_path, raw, kept):
    path = tmp_path / "x.txt"
    path.write_bytes(raw)
    assert cli.read_input(str(path), is_file=True, fasta=False) == kept
    r, w = os.pipe()  # a stream: not seekable, so read whole
    os.write(w, raw)
    os.close(w)
    with open(r, "rb") as f:
        assert not f.seekable()
        assert cli.read_stripped(f) == kept


class MisreportedSize(io.BytesIO):
    """A seekable file whose seek to its end reports `size`, or refuses
    when `size` is None, as pseudo-files under /proc and /sys do."""

    def __init__(self, data, size):
        super().__init__(data)
        self.size = size

    def seek(self, pos, whence=os.SEEK_SET):
        if whence != os.SEEK_END:
            return super().seek(pos, whence)
        if self.size is None:
            raise OSError(errno.EINVAL, "Invalid argument")
        return super().seek(self.size)


@pytest.mark.parametrize("raw", [b"", b"\n", b"ab\r\n", b"a\nbcdef"])
@pytest.mark.parametrize("shift", [None, "zero", -3, -1, 1, 4096])
def test_file_of_misreported_size_is_read_whole(raw, shift):
    # a refused seek, a size of 0 (procfs), a size too small or too large
    # (sysfs reports 4096): the whole content is read, then one line end cut
    size = None if shift is None else 0 if shift == "zero" else max(len(raw) + shift, 0)
    kept = raw[:-2] if raw.endswith(b"\r\n") else raw.removesuffix(b"\n")
    assert cli.read_stripped(MisreportedSize(raw, size)) == kept


@pytest.mark.skipif(not os.path.exists("/proc/version"), reason="no procfs")
def test_procfs_files_are_read_whole():
    # /proc/version refuses a seek from its end; /proc/self/cmdline reports size 0
    for path in ("/proc/version", "/proc/self/cmdline"):
        with open(path, "rb") as f:
            whole = f.read()
        got = cli.read_input(path, is_file=True, fasta=False)
        assert got == (whole[:-2] if whole.endswith(b"\r\n") else whole.removesuffix(b"\n"))
        assert len(got) >= len(whole) - 2 > 0


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
    assert cli.parse_fasta(b">h\na\vc\fg\xe9t\n") == b"ACG\xe9T"


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


def test_compare_invalid_witness_of_the_right_length_exits_5(capsys, monkeypatch):
    # length 2 like dp's and the oracle's, but x[3] is b, not a
    monkeypatch.setitem(cli.SOLVERS, "geom",
                        lambda cfg, x, y: CpsResult(2, b"aa", (1, 3), (1, 3)))
    code, out, err = run(capsys, "compare", "-x", "aab", "-y", "aba")
    assert code == 5
    assert [line.split(":")[0] for line in out.strip().splitlines()] == ["dp", "geom", "oracle"]
    assert err.startswith("error: geom produced an invalid witness")
    assert "disagreement" not in err


def test_bench_command_exits_5_on_solver_disagreement(capsys, monkeypatch):
    monkeypatch.setitem(cli.SOLVERS, "geom", lambda cfg, x, y: CpsResult(99, b"", (), ()))
    code, _, err = run(capsys, "bench", "--n-list", "6", "--seed", "5", "--reps", "1")
    assert code == 5
    assert err.startswith("error: solver disagreement on GenSpec(n=6, m=6, alphabet_size=2, seed=5)")


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


@pytest.mark.parametrize("argv", [
    ("--n-list", "5", "--s-list", "0"),
    ("--n-list", "5", "--s-list", "300"),
    ("--n-list", "-3"),
])
def test_bench_size_out_of_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "bench", *argv, "--reps", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


DENSE = generate(GenSpec(24, 24, 2, 1))     # 331 776 dp cells, 8 866 rectangles
SPARSE = generate(GenSpec(60, 60, 60, 1))   # 12 960 000 dp cells, 47 rectangles


def solve_auto(capsys, pair, *flags):
    x, y = (s.decode("latin-1") for s in pair)
    code, out, _ = run(capsys, "solve", "-x", x, "-y", y, "--algo", "auto",
                       "--format", "json", *flags)
    assert code == 0
    return json.loads(out)


def test_auto_picks_the_cheaper_solver(capsys):
    assert solve_auto(capsys, DENSE)["algorithm"] == "dp"
    assert solve_auto(capsys, SPARSE)["algorithm"] == "geom"


@pytest.mark.parametrize("pair, cap, fallback", [
    (DENSE, "--max-dp-cells", "geom"),
    (SPARSE, "--max-rects", "dp"),
])
def test_auto_falls_back_when_the_cheaper_solver_declines(capsys, pair, cap, fallback):
    first = solve_auto(capsys, pair)
    second = solve_auto(capsys, pair, cap, "1")
    assert second["algorithm"] == fallback != first["algorithm"]
    assert second["lcps_length"] == first["lcps_length"]


def test_auto_reports_the_solver_it_falls_back_from(capsys):
    x, y = (s.decode("latin-1") for s in DENSE)
    argv = ["solve", "-x", x, "-y", y, "--format", "json"]
    code, out, err = run(capsys, *argv, "--algo", "auto", "--max-dp-cells", "1")
    assert code == 0
    assert err == "dp: declined (CapacityExceeded: table needs 331776 cells, cap is 1)\n"
    _, forced, _ = run(capsys, *argv, "--algo", "geom")
    masked = [dict(json.loads(o), elapsed_ms=0) for o in (out, forced)]
    assert masked[0] == masked[1] and masked[0]["algorithm"] == "geom"
    assert run(capsys, *argv, "--algo", "auto")[2] == ""


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
    _, out, _ = run(capsys, "solve", *lits, "--algo", "dp", "--format", "json")
    solved = json.loads(out)["matches"]
    _, out, _ = run(capsys, "matches", *lits)
    counted = json.loads(out)["r"]
    _, out, _ = run(capsys, "bench", "--n-list", "12", "--s-list", "3", "--seed", "7",
                    "--reps", "1", "--algo", "geom")
    benched = json.loads(out)["r"]
    assert solved == counted == benched > 1


BAD_WITNESS = CpsResult(2, b"ab", (1, 2), (1, 2))


@pytest.mark.parametrize("command, algo, module, name", [
    ("solve", "dp", dp_solver, "_traceback"),
    ("solve", "geom", chain_solver, "assemble_result"),
    ("compare", None, chain_solver, "assemble_result"),
])
def test_invalid_witness_is_exit_5(capsys, monkeypatch, command, algo, module, name):
    monkeypatch.setattr(module, name, lambda *args, **kwargs: BAD_WITNESS)
    code, out, err = run(capsys, command, "-x", "aab", "-y", "aba",
                         *(["--algo", algo] if algo else []))
    assert code == 5
    assert err.startswith("error: ") and "invalid witness" in err
    assert "ab" not in out.splitlines()
