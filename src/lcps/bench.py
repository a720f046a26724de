"""Reproducible input generation and a timing harness over the solvers."""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable, NamedTuple

from .chain_solver import geometric_lcps
from .core import CapacityExceeded, CpsResult, InputTooLarge, InvalidWitness, validate_witness
from .dp_solver import DEFAULT_CELL_CAP, dp_lcps
from .geometry import DEFAULT_RECT_CAP
from .match_index import build_match_set
from .oracle import brute_force_lcps

# Every solver by name, called as SOLVERS[name](caps, x, y); caps is any
# object with max_dp_cells and max_rects attributes.
SOLVERS = {
    "dp": lambda caps, x, y: dp_lcps(x, y, max_cells=caps.max_dp_cells),
    "geom": lambda caps, x, y: geometric_lcps(x, y, max_rects=caps.max_rects),
    "oracle": lambda caps, x, y: brute_force_lcps(x, y),
}

DEFAULT_CAPS = SimpleNamespace(max_dp_cells=DEFAULT_CELL_CAP, max_rects=DEFAULT_RECT_CAP)


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one deterministic random instance.

    alphabet_size controls match density: uniform strings give about
    n*m/alphabet_size matches, so size close to n is the sparse regime and a
    small constant size the dense one.
    """

    n: int
    m: int
    alphabet_size: int
    seed: int


def generate(spec: GenSpec) -> tuple[bytes, bytes]:
    """Two uniform strings over the first alphabet_size octets from 'a' upward.

    Octet values wrap modulo 256 past the end of the byte range. Uses the
    stdlib Mersenne Twister; the same spec always yields the same pair.
    """
    if not 1 <= spec.alphabet_size <= 256:
        raise ValueError("alphabet_size must be in 1..256")
    rng = random.Random(spec.seed)
    letters = [(ord("a") + t) % 256 for t in range(spec.alphabet_size)]
    x = bytes(rng.choice(letters) for _ in range(spec.n))
    y = bytes(rng.choice(letters) for _ in range(spec.m))
    return x, y


class SolverRun(NamedTuple):
    """A solver's result, median ms and witness check, or its size-cap error."""

    name: str
    result: CpsResult | None
    ms: float | None
    valid: bool
    declined: Exception | None

    def line(self) -> str:
        """The one-line report of this run, as compare prints it."""
        if self.declined is not None:
            return f"{self.name}: declined ({type(self.declined).__name__}: {self.declined})"
        return (f"{self.name}: length={self.result.length} palindrome="
                f"{self.result.z.decode('latin-1')} valid={self.valid} ms={self.ms:.3f}")

    def check(self) -> None:
        """Raise InvalidWitness if the solver answered with an invalid witness."""
        if self.declined is None and not self.valid:
            raise InvalidWitness(f"{self.name} produced an invalid witness {self.result}")


class SolverDisagreement(RuntimeError):
    """Solvers that answered one input returned different lengths."""


def check_runs(runs: list[SolverRun], where: str = "") -> None:
    """Raise SolverDisagreement, naming where, if the runs that answered
    differ in length; then InvalidWitness if one witness is invalid."""
    lengths = {run.name: run.result.length for run in runs if run.declined is None}
    if len(set(lengths.values())) > 1:
        raise SolverDisagreement(f"solver disagreement{where}: {lengths}")
    for run in runs:
        run.check()


def run_solver(name: str, caps, x: bytes, y: bytes, repetitions: int = 1) -> SolverRun:
    """Call SOLVERS[name] repetitions times on (x, y) and validate the last
    result; CapacityExceeded or InputTooLarge makes the run a decline."""
    times = []
    try:
        for _ in range(repetitions):
            t0 = time.perf_counter()
            result = SOLVERS[name](caps, x, y)
            times.append((time.perf_counter() - t0) * 1000.0)
    except (CapacityExceeded, InputTooLarge) as exc:
        return SolverRun(name, None, None, False, exc)
    return SolverRun(name, result, statistics.median(times), validate_witness(result, x, y), None)


def run_suite(
    specs: Iterable[GenSpec], algos: Iterable[str], repetitions: int = 5
) -> list[dict]:
    """Median-of-k wall times per (spec, algo), one report row each.

    Rows carry the instance parameters, the match count r, the result length,
    and a status: "ok", or the capacity error class name when a solver
    declined the instance. check_runs then raises SolverDisagreement when
    the solvers that ran on one spec differ in length, since it means a
    solver is wrong, and InvalidWitness when a witness does not validate.
    """
    algos = list(algos)
    rows = []
    for spec in specs:
        x, y = generate(spec)
        r = build_match_set(x, y).r
        runs = [run_solver(algo, DEFAULT_CAPS, x, y, repetitions) for algo in algos]
        rows += [{"n": spec.n, "m": spec.m, "s": spec.alphabet_size, "seed": spec.seed,
                  "algo": run.name, "r": r, "length": run.result.length if run.result else None,
                  "median_ms": run.ms,
                  "status": "ok" if run.declined is None else type(run.declined).__name__}
                 for run in runs]
        check_runs(runs, f" on {spec}")
    return rows
