"""LCPS benchmark: one workload, run in one fresh process by one closed-loop client.

    python3 perfbench/run.py --workload dense-dp --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports ``lcps`` from ``src/``. Every
solve goes through the user's front door in-process,
``lcps.cli.main(["solve", "--format", "json", "--algo", A, "-x=...", "-y=..."])``,
with stdout captured; the next solve starts when the previous one returns.
Every printed answer passes the gate in frontdoor.py or counts as failed.

``--trace 0`` times whole passes over the workload's instances and prints
the end-to-end metrics. ``--trace 1`` runs the traced pass of layers.py and
prints the per-layer metrics. Human-readable lines come first; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics. A run record (metadata, metrics and, when traced, every span) is
written to ``.perfbench_out/``. The exit code is 0 only when every answer
passed the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import frontdoor
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

SETUP_RUNS = 5  # set-ups per run: this process's own, then fresh child processes
EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2

UNITS = {
    "solve_ms.p50": "ms",
    "solve_ms.p90": "ms",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Session:
    """What set-up leaves behind: the CLI entry point, the inputs and the
    warm-up's (exit code, stdout)."""

    cli_main: Callable[[list[str]], int]
    instances: list[tuple[bytes, bytes]]
    warm: tuple[bytes, bytes]
    warm_answer: tuple[int, str]


def setup(w: workloads.Workload, seed: int) -> tuple[float, Session]:
    """Import lcps (and with it numpy), generate the inputs and run one
    untimed warm-up solve; returns the seconds this took and the session."""
    t0 = time.perf_counter()
    from lcps.cli import main as cli_main

    instances, warm = workloads.generate(w, seed)
    warm_answer = frontdoor.solve(cli_main, frontdoor.argv(w.algo, *warm))
    return time.perf_counter() - t0, Session(cli_main, instances, warm, warm_answer)


def setup_in_children(w: workloads.Workload, seed: int, count: int) -> list[float]:
    """Set-up seconds measured in `count` fresh processes, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", w.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def reference_lengths(w: workloads.Workload, seed: int, pairs) -> list[int]:
    """Reference LCPS lengths from reference.py, checked against the lengths
    pinned in refs.json when this is the default seed."""
    import reference

    lengths = [reference.lcps_length(x, y) for x, y in pairs]
    pinned = json.loads((BENCH_DIR / "refs.json").read_text())
    if seed == pinned["seed"] and w.name in pinned["workloads"]:
        entry = pinned["workloads"][w.name]
        if lengths != entry["instances"] + [entry["warmup"]]:
            raise SystemExit(f"error: reference.py disagrees with refs.json on {w.name}")
    return lengths


def closed_loop(w, session: Session, refs: list[int], seconds: float) -> dict:
    """Whole passes over the instances until the deadline is nearer the end
    of the last pass than of the next one (at least one pass).

    Only the cli.main calls are timed; answers are checked between passes.
    Each pass is the same work, so its solves per second are comparable.
    """
    args = [frontdoor.argv(w.algo, x, y) for x, y in session.instances]
    durations, rates, wall, failed = [], [], 0.0, 0
    start = time.perf_counter()
    while True:
        outs = []
        t_pass = time.perf_counter()
        for a in args:
            t0 = time.perf_counter()
            outs.append(frontdoor.solve(session.cli_main, a))
            durations.append(time.perf_counter() - t0)
        pass_s = time.perf_counter() - t_pass
        wall += pass_s
        rates.append(len(args) / pass_s)
        for (code, out), (x, y), ref in zip(outs, session.instances, refs):
            failed += not frontdoor.answer_ok(code, out, x, y, ref, w.algo)
        if time.perf_counter() - start + pass_s / 2 >= seconds:
            break
    return {"durations": durations, "rates": rates, "wall": wall, "failed": failed}


def git_sha() -> str:
    """HEAD's commit from .git, read as files; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:<24} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))


def parse_args(argv):
    p = argparse.ArgumentParser(description="LCPS benchmark (see BENCHMARK.json)")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the seconds it took")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    # Only the checkout's own source counts, never an installed copy.
    if not (ROOT / "src" / "lcps" / "__init__.py").is_file():
        print(f"error: no lcps package under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    setup_s, session = setup(w, args.seed)
    if args.setup_probe:
        print(setup_s)
        return 0

    refs = reference_lengths(w, args.seed, session.instances + [session.warm])
    warm_ok = frontdoor.answer_ok(*session.warm_answer, *session.warm, refs[-1], w.algo)
    meta = metadata(args)
    print("meta " + json.dumps(meta))
    record = {"meta": meta}

    if args.trace:
        import layers

        metrics, tracer, attempted, failed = layers.traced_run(
            w, session.instances, refs, session.cli_main)
        record["spans"] = tracer.spans
        units = layers.UNITS
        print(f"# traced {len(w.traced)} instances, {len(tracer.spans)} spans")
    else:
        loop = closed_loop(w, session, refs, args.seconds)
        d = loop["durations"]
        attempted, failed = len(d), loop["failed"]
        metrics = {
            "solve_ms.p50": statistics.median(d) * 1000.0,
            "solve_ms.p90": statistics.quantiles(d, n=10)[-1] * 1000.0,
            # Median over passes, so a slow spell of the machine inside one
            # pass does not move it.
            "solves_per_s": statistics.median(loop["rates"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        setups = [setup_s] + setup_in_children(w, args.seed, SETUP_RUNS - 1)
        metrics["setup_s"] = statistics.median(setups)
        units = UNITS
        record["setup_runs_s"] = setups
        print(f"# {attempted} solves in {len(loop['rates'])} passes of {len(w.shapes)} instances,"
              f" {loop['wall']:.3f} s timed; set-ups (s): {setups}")
        print(f"{'fail_rate':<24} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")

    attempted += 1
    failed += not warm_ok
    correct = failed == 0
    record.update(metrics=metrics, attempted=attempted, failed=failed)
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record))
    emit(correct, attempted, failed, metrics, units)
    return 0 if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
