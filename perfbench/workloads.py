"""Workload definitions and the benchmark's own seeded input generator.

Inputs are generated here rather than by ``lcps.bench.generate``, so a change
to the package cannot silently change what the benchmark measures. This
module imports only the standard library: the set-up timer in ``run.py``
starts before numpy and ``lcps`` are imported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seed whose reference lengths are pinned in refs.json (see make_refs.py).
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One set of inputs, the solver the CLI is asked for, and why.

    ``shapes`` lists (n, s) per instance, with n = m and s the alphabet size.
    ``traced`` holds the indices of the instances the traced run measures;
    it is fixed so that the traced counters repeat exactly for one seed.
    ``balanced`` gives every string the same symbol counts (see make_pair).
    """

    name: str
    algo: str
    shapes: tuple[tuple[int, int], ...]
    warmup: tuple[int, int]
    traced: tuple[int, ...]
    why: str
    balanced: bool = False


# Every (n, s) pair exactly once, so each n in [12, 32] and each s is
# equally likely per instance, yet the mix does not drift with the seed.
_MIXED_SHAPES = tuple((n, s) for n in range(12, 33) for s in (2, 4, 8, 16))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-dp",
            algo="dp",
            shapes=((36, 2),) * 16,
            warmup=(36, 2),
            traced=tuple(range(3)),
            why="n=m=36, s=2, --algo dp, 16 instances: match-dense regime where "
            "only dp is practical; time is in dp_solver.fill_table",
        ),
        Workload(
            name="sparse-geom",
            algo="geom",
            shapes=((600, 256),) * 32,
            warmup=(600, 256),
            traced=tuple(range(8)),
            why="n=m=600, s=256, --algo geom, 32 instances: sparse regime, dp over "
            "its cap; time is in match_index, geometry and chain_solver",
        ),
        Workload(
            name="mixed-auto",
            algo="auto",
            shapes=_MIXED_SHAPES,
            warmup=(22, 8),
            traced=tuple(i for i, (n, _) in enumerate(_MIXED_SHAPES) if n % 4 == 0),
            why="n=m in [12,32] x s in {2,4,8,16}, one instance each, balanced symbol "
            "counts, --algo auto: exercises the CLI's solver choice on short inputs",
            balanced=True,
        ),
    )
}


def alphabet(s: int) -> list[int]:
    """The first s octets from 'a' upward, wrapping past 255."""
    return [(ord("a") + t) % 256 for t in range(s)]


def make_pair(n: int, s: int, rng: random.Random, balanced: bool = False) -> tuple[bytes, bytes]:
    """Two random strings over alphabet(s).

    Independent uniform positions by default. Balanced strings are random
    orderings of a fixed multiset, each symbol n // s times and the first
    n % s symbols once more, so the rectangle count P, which sets geom's
    cost, depends on n and s alone: on mixed-auto's short inputs independent
    counts move P by tens of percent per instance, and with it the
    workload's p50 and p90 from seed to seed.
    """
    letters = alphabet(s)
    if not balanced:
        return bytes(rng.choices(letters, k=n)), bytes(rng.choices(letters, k=n))
    pair = []
    for _ in range(2):
        seq = [letters[t % s] for t in range(n)]
        rng.shuffle(seq)
        pair.append(bytes(seq))
    return pair[0], pair[1]


def generate(w: Workload, seed: int) -> tuple[list[tuple[bytes, bytes]], tuple[bytes, bytes]]:
    """The workload's instances and its warm-up instance for one seed.

    Each instance has its own generator, keyed by workload, seed and index,
    so a workload cut to its first k shapes keeps the same first k inputs.
    """
    instances = [
        make_pair(n, s, random.Random(f"{w.name}:{seed}:{i}"), w.balanced)
        for i, (n, s) in enumerate(w.shapes)
    ]
    warm = make_pair(*w.warmup, random.Random(f"{w.name}:{seed}:warmup"), w.balanced)
    return instances, warm
