"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines stream; without -s they appear in captured output on failure. The
whole module is sized to finish in a few minutes on a desktop.
"""

import contextlib
import io
import json
import random
import statistics
import time

import lcps.cli as cli
from lcps import (
    GenSpec,
    brute_force_lcps,
    build_match_set,
    decompose_cps,
    dp_lcps,
    DominanceMaxIndex,
    enumerate_rectangles,
    fill_table,
    generate,
    geometric_lcps,
    is_chained,
    is_nested,
    longest_chain,
    rect_to_point,
    validate_witness,
)
from lcps.geometry import Match, Rect


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    return ok


def _random_pair(rng, max_len=10, sigmas=(1, 2, 3, 4)):
    sigma = rng.choice(sigmas)
    x = bytes(rng.randrange(97, 97 + sigma) for _ in range(rng.randint(0, max_len)))
    y = bytes(rng.randrange(97, 97 + sigma) for _ in range(rng.randint(0, max_len)))
    return x, y


def test_criterion_1_three_way_agreement():
    rng = random.Random(0xC0FFEE)
    failures = 0
    for _ in range(1000):
        x, y = _random_pair(rng)
        o = brute_force_lcps(x, y)
        d = dp_lcps(x, y)
        g = geometric_lcps(x, y)
        if not (o.length == d.length == g.length
                and validate_witness(o, x, y)
                and validate_witness(d, x, y)
                and validate_witness(g, x, y)):
            failures += 1
    assert _report(1, "three-way agreement on 1000 random pairs",
                   failures == 0, f"failures={failures}")


def test_criterion_2_dp_cell_soundness():
    rng = random.Random(0xBEEF)
    cache = {}

    def oracle_len(xs, ys):
        key = (xs, ys)
        if key not in cache:
            cache[key] = brute_force_lcps(xs, ys).length
        return cache[key]

    bad = 0
    cells = 0
    for _ in range(200):
        x, y = _random_pair(rng, max_len=8)
        t = fill_table(x, y)
        for i in range(1, len(x) + 1):
            for j in range(i, len(x) + 1):
                for k in range(1, len(y) + 1):
                    for l in range(k, len(y) + 1):
                        cells += 1
                        if t.cell(i, j, k, l) != oracle_len(x[i - 1:j], y[k - 1:l]):
                            bad += 1
    assert _report(2, "dp cell soundness on 200 instances",
                   bad == 0, f"cells={cells} bad={bad}")


def test_criterion_3_dominance_index_equivalence():
    rng = random.Random(0xDEAD)
    bad = 0
    for _ in range(500):
        keys = [(rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 64))
                for _ in range(rng.randint(1, 24))]
        idx = DominanceMaxIndex(keys)
        stored = {}
        for _ in range(30):
            if rng.random() < 0.5:
                key = rng.choice(keys)
                value = rng.randint(1, 1000)
                idx.insert_or_raise(key, value, key)
                stored[key] = max(stored.get(key, 0), value)
            else:
                q = (rng.randint(0, 64), rng.randint(0, 64), rng.randint(0, 64))
                want = max((v for k, v in stored.items()
                            if k[0] > q[0] and k[1] > q[1] and k[2] > q[2]), default=0)
                if idx.query_max_strict(*q)[0] != want:
                    bad += 1
    assert _report(3, "dominance index equals naive scan over 500 op sequences",
                   bad == 0, f"bad={bad}")


def _random_point(rng, hi=40):
    if rng.random() < 0.3:
        i, j = rng.randint(1, hi), rng.randint(1, hi)
        return rect_to_point(Rect(97, Match(i, j), Match(i, j), 1))
    i = rng.randint(1, hi - 1)
    k = rng.randint(i + 1, hi)
    j = rng.randint(1, hi - 1)
    l = rng.randint(j + 1, hi)
    return rect_to_point(Rect(97, Match(i, j), Match(k, l), 2))


def _chain_value_pairwise(points):
    order = sorted(points, key=lambda p: -p.a)
    value = {}
    best = 0
    for p in order:
        inner = max((value[id(q)] for q in order
                     if id(q) in value and is_chained(q, p)), default=0)
        value[id(p)] = p.weight + inner
        best = max(best, value[id(p)])
    return best


def test_criterion_4_chain_optimality():
    rng = random.Random(0xFACE)
    bad = 0
    for _ in range(100):
        pts = [_random_point(rng) for _ in range(rng.randint(0, 300))]
        node = longest_chain(pts)
        got = node.value if node else 0
        if got != _chain_value_pairwise(pts):
            bad += 1
    assert _report(4, "chain value equals pairwise DP on 100 point sets",
                   bad == 0, f"bad={bad}")


def _median_ratio(fn, small, large, rounds=9):
    # One warm-up call per size, then one timed call of each per round, so a
    # slow spell of the machine falls on both sizes rather than on one.
    fn(*small)
    fn(*large)
    times = ([], [])
    for _ in range(rounds):
        for t, pair in zip(times, (small, large)):
            t0 = time.perf_counter()
            fn(*pair)
            t.append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[0])


def test_criterion_5_scaling_smoke():
    dp_ratio = _median_ratio(dp_lcps, generate(GenSpec(40, 40, 2, 2026)),
                             generate(GenSpec(80, 80, 2, 2026)))

    # sparse-match regime: alphabet as large as the input allows (octets cap
    # the alphabet at 256, which keeps matches near-linear in n regardless)
    geom_ratio = _median_ratio(geometric_lcps, generate(GenSpec(200, 200, 200, 2026)),
                               generate(GenSpec(400, 400, 256, 2026)))

    ok = 8.0 <= dp_ratio <= 40.0 and geom_ratio <= 8.0
    assert _report(5, "scaling smoke test",
                   ok, f"dp t80/t40={dp_ratio:.2f} in [8,40], geom t400/t200={geom_ratio:.2f} <= 8")


def test_criterion_6_structural_invariants():
    rng = random.Random(0xABBA)
    ok = True
    for _ in range(250):
        x, y = _random_pair(rng)
        d = dp_lcps(x, y)
        g = geometric_lcps(x, y)
        ok &= validate_witness(d, x, y) and validate_witness(g, x, y)
        ok &= dp_lcps(y, x).length == d.length
        ok &= dp_lcps(x[::-1], y[::-1]).length == d.length
        rects = enumerate_rectangles(build_match_set(x, y))
        if len(rects) >= 2:
            r1, r2 = rng.sample(rects, 2)
            ok &= is_nested(r1, r2) == is_chained(rect_to_point(r1), rect_to_point(r2))
        chain = decompose_cps(d, x, y)
        ok &= all(is_nested(inner, outer) for outer, inner in zip(chain, chain[1:]))
        ok &= all(r.weight == 2 for r in chain[:-1])
        ok &= sum(r.weight for r in chain) == d.length
    assert _report(6, "structural invariants on 250 random instances", ok)


def _run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_7_cli_contract(tmp_path):
    checks = []

    code, out, _ = _run_cli("solve", "-x", "aab", "-y", "aba", "--format", "text")
    checks.append(code == 0 and out == "2\naa\n")

    code, out, _ = _run_cli("solve", "-x", "", "-y", "abc")
    checks.append(code == 0 and out == "0\n")

    code, out, _ = _run_cli("solve", "-x", "aab", "-y", "aba", "--format", "json")
    obj = json.loads(out)
    checks.append(code == 0 and obj == {
        "x_len": 3, "y_len": 3, "algorithm": obj["algorithm"], "lcps_length": 2,
        "lcps": "aa", "x_indices": [1, 2], "y_indices": [1, 3], "matches": 5,
        "elapsed_ms": obj["elapsed_ms"],
    } and obj["algorithm"] in ("dp", "geom") and obj["elapsed_ms"] >= 0)

    fasta = tmp_path / "x.fa"
    fasta.write_bytes(b">h\nac\ngt\n")
    code, out, _ = _run_cli("solve", "--x-file", str(fasta), "--fasta",
                            "-y", "ACGT", "--format", "json")
    checks.append(code == 0 and json.loads(out)["x_len"] == 4)
    checks.append(cli.parse_fasta(b">h\nac\ngt\n") == b"ACGT")

    code, out, _ = _run_cli("compare", "-x", "aab", "-y", "aba")
    checks.append(code == 0 and [l.split(":")[0] for l in out.strip().splitlines()]
                  == ["dp", "geom", "oracle"])

    code, out, _ = _run_cli("matches", "-x", "aab", "-y", "aba")
    checks.append(code == 0 and json.loads(out) == {"r": 5, "per_sigma": {"a": 4, "b": 1}})

    code, out, _ = _run_cli("bench", "--n-list", "6", "--s-list", "2",
                            "--seed", "3", "--reps", "2", "--algo", "dp,geom,oracle")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    checks.append(code == 0 and len(rows) == 3
                  and len({row["length"] for row in rows}) == 1
                  and all(set(row) == {"n", "m", "s", "seed", "algo", "r",
                                       "length", "median_ms", "status"} for row in rows))

    checks.append(_run_cli("solve", "-x", "a", "-y", "a", "--algo", "bogus")[0] == 2)
    checks.append(_run_cli("solve", "--x-file", str(tmp_path / "missing"), "-y", "a")[0] == 3)
    checks.append(_run_cli("solve", "-x", "aa", "-y", "aa",
                           "--max-dp-cells", "1", "--max-rects", "1")[0] == 4)

    real_geom = cli.SOLVERS["geom"]
    try:
        cli.SOLVERS["geom"] = lambda cfg, x, y: brute_force_lcps(x * 2, x * 2)
        checks.append(_run_cli("compare", "-x", "aab", "-y", "aba")[0] == 5)
    finally:
        cli.SOLVERS["geom"] = real_geom

    bad = [i for i, ok in enumerate(checks) if not ok]
    assert _report(7, "cli contract (text/json shapes, fasta, exit codes)",
                   not bad, f"checks={len(checks)} failed={bad}")
