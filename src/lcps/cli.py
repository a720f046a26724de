"""Command line front end: solve, compare, bench, and matches subcommands.

Inputs are byte strings given as literals (-x/-y) or files (--x-file/--y-file),
optionally parsed as FASTA. All indices printed anywhere are 1-based.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 capacity exhausted on
every applicable algorithm, 5 solver disagreement (or an invalid witness)
from the compare command.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .bench import SOLVERS, GenSpec, run_suite
from .core import CapacityExceeded, InputTooLarge, validate_witness
from .dp_solver import DEFAULT_CELL_CAP
from .geometry import DEFAULT_RECT_CAP
from .match_index import DEFAULT_MATCH_CAP, build_occurrence_lists, match_count
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
    p.add_argument("--max-matches", type=int, default=DEFAULT_MATCH_CAP,
                   help="match-count cap (default %(default)s)")


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
    _add_input_flags(solve)
    _add_cap_flags(solve)
    solve.add_argument("--algo", choices=["dp", "geom", "oracle", "auto"], default="auto")
    solve.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")

    compare = sub.add_parser("compare", help="run every solver and check they agree")
    _add_input_flags(compare)
    _add_cap_flags(compare)

    matches = sub.add_parser("matches", help="print match counts as JSON")
    _add_input_flags(matches)

    bench = sub.add_parser("bench", help="time the solvers on generated inputs")
    bench.add_argument("--n-list", type=_int_list, default=(),
                       help="comma-separated lengths, one instance per value (n = m)")
    bench.add_argument("--s-list", type=_int_list, default=(2,),
                       help="comma-separated alphabet sizes (default 2)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--reps", type=int, default=5, help="timing repetitions per row")
    bench.add_argument("--algo", type=_name_list, default="dp,geom",
                       help="comma-separated algorithms to time (default dp,geom)")
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        args.s_list = args.s_list or (2,)
        unknown = [a for a in args.algo if a not in SOLVERS]
        if unknown:
            raise UsageError(f"unknown bench algorithm(s): {', '.join(unknown)}")
        if args.reps < 1:
            raise UsageError("--reps must be at least 1")
        return args

    if args.command in ("solve", "compare"):
        if min(args.max_dp_cells, args.max_rects, args.max_matches) < 1:
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
    return bytes(ch for ch in joined if ch not in b" \t\r\n\v\f").upper()


def read_input(source: str, *, is_file: bool, fasta: bool) -> bytes:
    """One sequence from a literal or a file; empty input is fine."""
    if is_file:
        try:
            data = Path(source).read_bytes()
        except OSError as exc:
            raise IoError(str(exc)) from exc
    else:
        try:
            data = source.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise UsageError("literals must consist of single-byte characters") from exc
    if fasta:
        return parse_fasta(data)
    if is_file:
        if data.endswith(b"\r\n"):
            data = data[:-2]
        elif data.endswith(b"\n"):
            data = data[:-1]
    return data


def _load_inputs(args: argparse.Namespace) -> tuple[bytes, bytes]:
    x = read_input(args.x_literal if args.x_file is None else args.x_file,
                   is_file=args.x_file is not None, fasta=args.fasta)
    y = read_input(args.y_literal if args.y_file is None else args.y_file,
                   is_file=args.y_file is not None, fasta=args.fasta)
    return x, y


# auto tries geom first and falls back to dp when geom declines.
AUTO_ORDER = ("geom", "dp")


def solve_command(args: argparse.Namespace) -> int:
    x, y = _load_inputs(args)
    r_total = match_count(build_occurrence_lists(x, y))

    order = AUTO_ORDER if args.algo == "auto" else (args.algo,)
    t0 = time.perf_counter()
    for algo_used in order:
        try:
            result = SOLVERS[algo_used](args, x, y)
            break
        except CapacityExceeded as exc:
            last_exc = exc
    else:
        raise last_exc
    elapsed_ms = (time.perf_counter() - t0) * 1000.0

    if args.fmt == "json":
        print(json.dumps({
            "x_len": len(x),
            "y_len": len(y),
            "algorithm": algo_used,
            "lcps_length": result.length,
            "lcps": result.z.decode("latin-1"),
            "x_indices": list(result.x_indices),
            "y_indices": list(result.y_indices),
            "matches": r_total,
            "elapsed_ms": elapsed_ms,
        }))
    else:
        print(result.length)
        if result.length:
            print(result.z.decode("latin-1"))
    return EXIT_OK


def compare_command(args: argparse.Namespace) -> int:
    """Run every applicable solver; a solver that declines is reported and the
    rest are compared. Every solver declining is a capacity error."""
    x, y = _load_inputs(args)
    algos = ["dp", "geom"] + (["oracle"] if len(x) <= MAX_ORACLE_LEN else [])
    lengths = {}
    all_valid = True
    declined: Exception | None = None
    for name in algos:
        t0 = time.perf_counter()
        try:
            result = SOLVERS[name](args, x, y)
        except (CapacityExceeded, InputTooLarge) as exc:
            print(f"{name}: declined ({type(exc).__name__}: {exc})")
            declined = exc
            continue
        ms = (time.perf_counter() - t0) * 1000.0
        valid = validate_witness(result, x, y)
        all_valid = all_valid and valid
        lengths[name] = result.length
        print(f"{name}: length={result.length} "
              f"palindrome={result.z.decode('latin-1')} valid={valid} ms={ms:.3f}")
    if not lengths:
        raise declined
    if len(set(lengths.values())) > 1 or not all_valid:
        print(f"disagreement: {lengths}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def matches_command(args: argparse.Namespace) -> int:
    x, y = _load_inputs(args)
    occ = build_occurrence_lists(x, y)
    per_sigma = {
        chr(ch): len(xs) * len(ys)
        for ch, (xs, ys) in occ.items()
        if xs and ys
    }
    print(json.dumps({"r": match_count(occ), "per_sigma": per_sigma}))
    return EXIT_OK


def bench_command(args: argparse.Namespace) -> int:
    specs = [
        GenSpec(n, n, s, args.seed)
        for n in args.n_list
        for s in args.s_list
    ]
    for row in run_suite(specs, args.algo, args.reps):
        print(json.dumps(row))
    return EXIT_OK


COMMANDS = {
    "solve": solve_command,
    "compare": compare_command,
    "matches": matches_command,
    "bench": bench_command,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CapacityExceeded, InputTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
