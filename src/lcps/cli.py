"""Command line front end: solve, compare, bench, and matches subcommands.

Inputs are byte strings given as literals (-x/-y) or files (--x-file/--y-file),
optionally parsed as FASTA. All indices printed anywhere are 1-based.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 capacity exhausted on
every applicable algorithm, 5 solver disagreement from compare or bench, or
an invalid witness from solve, compare or bench.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import BinaryIO

from .bench import SOLVERS, GenSpec, SolverDisagreement, check_runs, run_solver, run_suite
from .core import CapacityExceeded, InputTooLarge, InvalidWitness
from .dp_solver import DEFAULT_CELL_CAP
from .geometry import DEFAULT_RECT_CAP, rect_count
from .match_index import MatchSet, build_match_set
from .oracle import MAX_ORACLE_LEN

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CAPACITY = 4
EXIT_MISMATCH = 5


class UsageError(Exception):
    pass


class IoError(Exception):
    pass


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-x", dest="x_literal", metavar="STR", help="first sequence literal")
    p.add_argument("-y", dest="y_literal", metavar="STR", help="second sequence literal")
    p.add_argument("--x-file", metavar="PATH", help="read the first sequence from a file")
    p.add_argument("--y-file", metavar="PATH", help="read the second sequence from a file")
    p.add_argument("--fasta", action="store_true", help="parse inputs as FASTA (first record)")


def _add_cap_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-dp-cells", type=int, default=DEFAULT_CELL_CAP,
                   help="cell cap for the dynamic program (default %(default)s)")
    p.add_argument("--max-rects", type=int, default=DEFAULT_RECT_CAP,
                   help="rectangle cap for the geometric solver (default %(default)s)")


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcps",
        description="Longest common palindromic subsequence of two sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute an LCPS of two sequences")
    solve.set_defaults(run=solve_command)
    _add_input_flags(solve)
    _add_cap_flags(solve)
    solve.add_argument("--algo", choices=[*SOLVERS, "auto"], default="auto")
    solve.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")

    compare = sub.add_parser("compare", help="run every solver and check they agree")
    compare.set_defaults(run=compare_command)
    _add_input_flags(compare)
    _add_cap_flags(compare)

    matches = sub.add_parser("matches", help="print match counts as JSON")
    matches.set_defaults(run=matches_command)
    _add_input_flags(matches)

    bench = sub.add_parser("bench", help="time the solvers on generated inputs")
    bench.set_defaults(run=bench_command)
    bench.add_argument("--n-list", type=_int_list, default=(),
                       help="comma-separated lengths, one instance per value (n = m)")
    bench.add_argument("--s-list", type=_int_list, default=(2,),
                       help="comma-separated alphabet sizes (default 2)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--reps", type=int, default=5, help="timing repetitions per row")
    bench.add_argument("--algo", type=_name_list, default="dp,geom",
                       help="comma-separated algorithms to time (default dp,geom)")
    return parser


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    args = PARSER.parse_args(argv)
    if args.command == "bench":
        args.s_list = args.s_list or (2,)
        unknown = [a for a in args.algo if a not in SOLVERS]
        if unknown:
            raise UsageError(f"unknown bench algorithm(s): {', '.join(unknown)}")
        if args.reps < 1:
            raise UsageError("--reps must be at least 1")
        if any(n < 0 for n in args.n_list):
            raise UsageError("--n-list lengths must be at least 0")
        if any(not 1 <= s <= 256 for s in args.s_list):
            raise UsageError("--s-list alphabet sizes must be in 1..256")
        return args

    if args.command in ("solve", "compare") and min(args.max_dp_cells, args.max_rects) < 1:
        raise UsageError("caps must be at least 1")
    for name, literal, path in (("x", args.x_literal, args.x_file),
                                ("y", args.y_literal, args.y_file)):
        if (literal is None) == (path is None):
            raise UsageError(f"give exactly one of -{name} or --{name}-file")
    return args


def parse_fasta(data: bytes) -> bytes:
    """First record's sequence: header lines start with '>', whitespace is
    dropped, ASCII letters are uppercased."""
    seen_header = False
    lines = []
    for line in data.splitlines():
        if line.startswith(b">"):
            if seen_header:
                break
            seen_header = True
        else:
            lines.append(line)
    joined = b"".join(lines)
    return joined.translate(None, b" \t\r\n\v\f").upper()


def read_stripped(f: BinaryIO) -> bytes:
    """A binary file's bytes less one trailing \\n or \\r\\n. A seekable file
    is measured first and only the bytes kept are read, so they are the one
    copy. A stream, or a file whose size from a seek to its end proves wrong
    (pseudo-files under /proc and /sys), is read whole, then sliced."""
    try:
        size = f.seek(0, os.SEEK_END)
        f.seek(max(size - 2, 0))
        tail = f.read()
        f.seek(0)
    except OSError:  # a pipe, or a pseudo-file that refuses a seek from its end
        size, tail = -1, b""
    if len(tail) == min(size, 2):  # the file ends where its size says
        end = b"\r\n" if tail == b"\r\n" else b"\n" if tail.endswith(b"\n") else b""
        data = f.read(size - len(end))
        if len(data) == size - len(end) and f.read(len(end) + 1) == end:
            return data
        del data
        f.seek(0)
    data = f.read()
    return data[:-2] if data.endswith(b"\r\n") else data.removesuffix(b"\n")


def read_input(source: str, *, is_file: bool, fasta: bool) -> bytes:
    """One sequence from a literal or a file; empty input is fine."""
    if is_file:
        try:
            with open(source, "rb") as f:
                data = read_stripped(f)
        except OSError as exc:
            raise IoError(str(exc)) from exc
    else:
        try:
            data = source.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise UsageError("literals must consist of single-byte characters") from exc
    return parse_fasta(data) if fasta else data


def _load_inputs(args: argparse.Namespace) -> tuple[bytes, bytes]:
    x = read_input(args.x_literal if args.x_file is None else args.x_file,
                   is_file=args.x_file is not None, fasta=args.fasta)
    y = read_input(args.y_literal if args.y_file is None else args.y_file,
                   is_file=args.y_file is not None, fasta=args.fasta)
    return x, y


# The time of one geom rectangle in dp table cells: auto tries dp first when
# n*n*m*m <= DP_CELLS_PER_RECT * P. README's "Algorithm selection" points to
# the last fit and says why the dp cell cap, not this order, bounds dp's memory.
DP_CELLS_PER_RECT = 4096


def auto_order(ms: MatchSet) -> tuple[str, str]:
    """Solvers for auto to try in turn: the one predicted cheaper first, the
    other as the fallback when the first exceeds its size cap."""
    if (len(ms.x) * len(ms.y)) ** 2 <= DP_CELLS_PER_RECT * rect_count(ms):
        return ("dp", "geom")
    return ("geom", "dp")


def solve_command(args: argparse.Namespace) -> int:
    x, y = _load_inputs(args)
    ms = build_match_set(x, y)
    order = auto_order(ms) if args.algo == "auto" else (args.algo,)
    for algo in order:
        run = run_solver(algo, args, x, y)
        if run.declined is None:
            break
        if algo == order[-1]:
            raise run.declined
        print(run.line(), file=sys.stderr)  # auto moves on to its next solver
    run.check()
    result = run.result

    if args.fmt == "json":
        print(json.dumps({
            "x_len": len(x),
            "y_len": len(y),
            "algorithm": run.name,
            "lcps_length": result.length,
            "lcps": result.z.decode("latin-1"),
            "x_indices": list(result.x_indices),
            "y_indices": list(result.y_indices),
            "matches": ms.r,
            "elapsed_ms": run.ms,
        }))
    else:
        print(result.length)
        if result.length:
            print(result.z.decode("latin-1"))
    return EXIT_OK


def compare_command(args: argparse.Namespace) -> int:
    """Run every applicable solver; a solver that declines is reported and the
    rest go through check_runs. Every solver declining is a capacity error."""
    x, y = _load_inputs(args)
    algos = ["dp", "geom"] + (["oracle"] if len(x) <= MAX_ORACLE_LEN else [])
    runs = []
    for name in algos:
        runs.append(run_solver(name, args, x, y))
        print(runs[-1].line())
    if all(run.declined for run in runs):
        raise runs[-1].declined
    check_runs(runs)
    return EXIT_OK


def matches_command(args: argparse.Namespace) -> int:
    x, y = _load_inputs(args)
    ms = build_match_set(x, y)
    per_sigma = {chr(s.sigma): s.r_sigma for s in ms.per_sigma}
    print(json.dumps({"r": ms.r, "per_sigma": per_sigma}))
    return EXIT_OK


def bench_command(args: argparse.Namespace) -> int:
    specs = [GenSpec(n, n, s, args.seed) for n in args.n_list for s in args.s_list]
    for row in run_suite(specs, args.algo, args.reps):
        print(json.dumps(row))
    return EXIT_OK


PARSER = build_parser()

# Each error a command may raise, and the exit code it ends the run with.
EXIT_CODES = {
    UsageError: EXIT_USAGE,
    IoError: EXIT_IO,
    CapacityExceeded: EXIT_CAPACITY,
    InputTooLarge: EXIT_CAPACITY,
    InvalidWitness: EXIT_MISMATCH,
    SolverDisagreement: EXIT_MISMATCH,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; argv defaults to sys.argv[1:], as argparse reads it."""
    try:
        args = parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
