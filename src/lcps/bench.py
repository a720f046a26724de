"""Reproducible input generation and a timing harness over the solvers."""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable

from .chain_solver import geometric_lcps
from .core import CapacityExceeded, InputTooLarge
from .dp_solver import DEFAULT_CELL_CAP, dp_lcps
from .geometry import DEFAULT_RECT_CAP
from .match_index import DEFAULT_MATCH_CAP, build_occurrence_lists, match_count
from .oracle import brute_force_lcps

# Every solver by name, called as SOLVERS[name](caps, x, y); caps is any
# object with max_dp_cells, max_rects and max_matches attributes.
SOLVERS = {
    "dp": lambda caps, x, y: dp_lcps(x, y, max_cells=caps.max_dp_cells),
    "geom": lambda caps, x, y: geometric_lcps(
        x, y, max_rects=caps.max_rects, max_matches=caps.max_matches),
    "oracle": lambda caps, x, y: brute_force_lcps(x, y),
}

DEFAULT_CAPS = SimpleNamespace(
    max_dp_cells=DEFAULT_CELL_CAP, max_rects=DEFAULT_RECT_CAP, max_matches=DEFAULT_MATCH_CAP
)


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


def run_suite(
    specs: Iterable[GenSpec], algos: Iterable[str], repetitions: int = 5
) -> list[dict]:
    """Median-of-k wall times per (spec, algo), one report row each.

    Rows carry the instance parameters, the match count r, the result length,
    and a status: "ok", or the capacity error class name when a solver
    declined the instance. Lengths of all solvers that ran on one spec must
    agree; a mismatch raises RuntimeError since it means a solver is wrong.
    """
    algos = list(algos)
    rows = []
    for spec in specs:
        x, y = generate(spec)
        r = match_count(build_occurrence_lists(x, y))
        lengths = {}
        for algo in algos:
            fn = SOLVERS[algo]
            row = {
                "n": spec.n,
                "m": spec.m,
                "s": spec.alphabet_size,
                "seed": spec.seed,
                "algo": algo,
                "r": r,
            }
            try:
                times = []
                for _ in range(repetitions):
                    t0 = time.perf_counter()
                    result = fn(DEFAULT_CAPS, x, y)
                    times.append((time.perf_counter() - t0) * 1000.0)
                row.update(
                    length=result.length,
                    median_ms=statistics.median(times),
                    status="ok",
                )
                lengths[algo] = result.length
            except (CapacityExceeded, InputTooLarge) as exc:
                row.update(length=None, median_ms=None, status=type(exc).__name__)
            rows.append(row)
        if len(set(lengths.values())) > 1:
            raise RuntimeError(f"solver disagreement on {spec}: {lengths}")
    return rows
