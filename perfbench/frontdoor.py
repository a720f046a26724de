"""Calls through the CLI, in-process, and the correctness gate on what it prints.

Inputs go in as ``-x=<latin-1 text>``: ``-x -ab`` is rejected by argparse,
and ``--x-file`` strips a trailing newline byte, which s=256 inputs contain.
"""

from __future__ import annotations

import contextlib
import io
import json


def argv(algo: str, x: bytes, y: bytes) -> list[str]:
    return ["solve", "--format", "json", "--algo", algo,
            "-x=" + x.decode("latin-1"), "-y=" + y.decode("latin-1")]


def solve(cli_main, args: list[str]) -> tuple[int, str]:
    """One ``lcps solve`` through ``cli.main``: its exit code and its stdout.
    Stderr is captured too and dropped; a failed solve shows in the gate."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(args)
    return code, out.getvalue()


def parse_answer(out: str):
    """The CpsResult a ``--format json`` solve printed, with the whole printed
    object; (None, {}) when the output is not such an answer."""
    from lcps.core import CpsResult

    try:
        obj = json.loads(out)
        result = CpsResult(obj["lcps_length"], obj["lcps"].encode("latin-1"),
                           tuple(obj["x_indices"]), tuple(obj["y_indices"]))
        return result, obj
    except (ValueError, KeyError, TypeError, AttributeError, UnicodeEncodeError):
        return None, {}


def answer_ok(code: int, out: str, x: bytes, y: bytes, ref: int, algo: str) -> bool:
    """Exit code 0, a witness that passes lcps.validate_witness, the reference
    length, and, unless algo is auto, the solver that was asked for."""
    from lcps.core import validate_witness

    if code != 0:
        return False
    result, obj = parse_answer(out)
    return (result is not None and validate_witness(result, x, y)
            and result.length == ref and algo in ("auto", obj["algorithm"]))
