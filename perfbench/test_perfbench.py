"""The benchmark's own tests.

    python3 -m pytest -q perfbench

Small versions of each workload run through the same code as the real ones.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from argparse import Namespace

import pytest

import frontdoor
import reference
import run
import workloads

SMALL = {
    "dense-dp": dict(shapes=((12, 2),) * 3, warmup=(12, 2), traced=(0, 1)),
    "sparse-geom": dict(shapes=((40, 256),) * 3, warmup=(40, 256), traced=(0, 1)),
    "mixed-auto": dict(shapes=((12, 2), (14, 4), (16, 8), (20, 16)), warmup=(12, 8),
                       traced=(0, 1, 2, 3)),
}
COUNTERS = ("match.r", "geom.P", "geom.P_bound", "chain.groups", "dp.cells",
            "auto.picks.dp", "auto.picks.geom")


def small(name: str) -> workloads.Workload:
    # A new name keeps the small inputs apart from the pinned references.
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, name=f"{name}-small", **SMALL[name])


def traced(w: workloads.Workload, seed: int):
    import layers

    _, session = run.setup(w, seed)
    refs = run.reference_lengths(w, seed, session.instances + [session.warm])
    return layers.traced_run(w, session.instances, refs, session.cli_main)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_passes_gate(name):
    w = small(name)
    _, session = run.setup(w, 3)
    refs = run.reference_lengths(w, 3, session.instances + [session.warm])
    assert frontdoor.answer_ok(*session.warm_answer, *session.warm, refs[-1], w.algo)
    loop = run.closed_loop(w, session, refs, seconds=0.0)
    assert len(loop["rates"]) == 1 and len(loop["durations"]) == len(w.shapes)
    assert loop["failed"] == 0

    metrics, tracer, attempted, failed = traced(w, 3)
    assert failed == 0 and attempted > 0
    import layers

    assert list(metrics) == list(layers.UNITS)
    assert {s[0] for s in tracer.spans} >= {"instance", "cli.dp", "geom.solve", "dp.fill"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counters_repeat_for_a_seed(name):
    w = small(name)
    first, second = traced(w, 5)[0], traced(w, 5)[0]
    assert {c: first[c] for c in COUNTERS} == {c: second[c] for c in COUNTERS}


def test_generator_is_seeded_and_prefix_stable():
    w = workloads.WORKLOADS["mixed-auto"]
    a, warm_a = workloads.generate(w, 7)
    b, warm_b = workloads.generate(w, 7)
    assert a == b and warm_a == warm_b
    assert workloads.generate(w, 8)[0] != a
    cut = dataclasses.replace(w, shapes=w.shapes[:5])
    assert workloads.generate(cut, 7)[0] == a[:5]
    assert all(len(x) == len(y) == n for (x, y), (n, _) in zip(a, w.shapes))


def test_alphabet_wraps_past_255():
    letters = workloads.alphabet(256)
    assert letters[0] == ord("a") and letters[158] == 255 and letters[159] == 0
    assert sorted(letters) == list(range(256))


def test_reference_agrees_with_dp():
    from lcps.dp_solver import dp_lcps

    rng = random.Random(0)
    for _ in range(300):
        s = rng.randint(1, 5)
        x, y = (bytes(rng.choices(b"abcde"[:s], k=rng.randint(0, 14))) for _ in range(2))
        assert reference.lcps_length(x, y) == dp_lcps(x, y).length, (x, y)
    assert reference.lcps_length(b"abc", b"xyz") == 0


def test_pinned_references_match_reference_solver():
    pinned = json.loads((run.BENCH_DIR / "refs.json").read_text())
    assert pinned["seed"] == workloads.DEFAULT_SEED
    for w in workloads.WORKLOADS.values():
        instances, warm = workloads.generate(w, workloads.DEFAULT_SEED)
        lengths = run.reference_lengths(w, workloads.DEFAULT_SEED, instances + [warm])
        assert lengths[:-1] == pinned["workloads"][w.name]["instances"]


def test_every_octet_survives_the_front_door():
    from lcps.cli import main as cli_main

    x = b"-=\n\x00 " + bytes(range(256))
    y = bytes(reversed(x))
    code, out = frontdoor.solve(cli_main, frontdoor.argv("geom", x, y))
    assert frontdoor.answer_ok(code, out, x, y, reference.lcps_length(x, y), "geom")


def test_gate_rejects_bad_answers():
    from lcps.cli import main as cli_main

    x, y = b"abcab", b"bacba"
    ref = reference.lcps_length(x, y)
    code, out = frontdoor.solve(cli_main, frontdoor.argv("dp", x, y))
    assert frontdoor.answer_ok(code, out, x, y, ref, "dp")
    assert not frontdoor.answer_ok(code, out, x, y, ref + 1, "dp")
    assert not frontdoor.answer_ok(code, out, x, y, ref, "geom")
    assert not frontdoor.answer_ok(1, out, x, y, ref, "dp")
    assert not frontdoor.answer_ok(code, "not json", x, y, ref, "dp")
    obj = json.loads(out)
    obj["x_indices"] = obj["x_indices"][::-1]
    assert not frontdoor.answer_ok(code, json.dumps(obj), x, y, ref, "dp")


def test_metadata_records_versions_nproc_and_sha():
    import numpy

    meta = run.metadata(Namespace(workload="dense-dp", seed=1, seconds=1.0, trace=0))
    assert meta["python"] == ".".join(map(str, sys.version_info[:3]))
    assert meta["numpy"] == numpy.__version__
    assert isinstance(meta["nproc"], int) and meta["nproc"] >= 1
    sha = meta["git_sha"]
    assert sha == "unknown" or (len(sha) == 40 and int(sha, 16) >= 0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    import layers

    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-dp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
