"""Traced run: per-layer times and counters, measured from outside the package.

Each layer is timed around calls to its public functions; no code under
``src/`` records anything. Spans (name, start, end, parent, instance) are
kept in memory and written out by run.py when the run ends. Peak memory comes
from a separate tracemalloc pass, so tracemalloc never slows the timed calls.

Every layer runs on every traced instance of every workload. Where a layer
declines an input under its default cap (dp on sparse-geom), its span times
the decline and it adds nothing to the counters.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager

from lcps.chain_solver import DominanceMaxIndex, geometric_lcps, longest_chain, sort_points
from lcps.cli import EXIT_CAPACITY
from lcps.core import CapacityExceeded, validate_witness
from lcps.dp_solver import dp_lcps, fill_table
from lcps.geometry import enumerate_rectangles, rect_to_point
from lcps.match_index import build_match_set

import frontdoor

# Metric name -> unit, in the order they are printed.
UNITS = {
    "match.build_ms": "ms",
    "match.r": "count",
    "geom.rects_ms": "ms",
    "geom.points_ms": "ms",
    "geom.P": "count",
    "geom.P_bound": "count",
    "geom.P_over_bound": "ratio",
    "chain.sort_ms": "ms",
    "chain.index_build_ms": "ms",
    "chain.longest_chain_ms": "ms",
    "chain.sweep_ms": "ms",
    "geom.walk_ms": "ms",
    "chain.groups": "count",
    "dp.fill_ms": "ms",
    "dp.traceback_ms": "ms",
    "dp.cells": "count",
    "dp.cells_per_s": "1/s",
    "dp.peak_traced_mb": "MB",
    "geom.peak_traced_mb": "MB",
    "geom.bytes_per_point": "B",
    "cli.overhead_ms": "ms",
    "auto.picks.dp": "count",
    "auto.picks.geom": "count",
    "auto.pick_faster_ratio": "ratio",
    "auto.regret_ms": "ms",
    "core.validate_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

class Tracer:
    """Spans in memory, each [name, start, end, parent index, instance id]."""

    def __init__(self):
        self.spans: list[list] = []

    @contextmanager
    def span(self, name: str, instance: int, parent: int | None = None):
        rec = [name, 0.0, 0.0, parent, instance]
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield len(self.spans) - 1
        finally:
            rec[2] = time.perf_counter()

    def ms(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return (end - start) * 1000.0


def _trace_instance(tr, checks, i, x, y, ref, algo, cli_main) -> dict:
    """One instance through the CLI (dp, geom and auto) and through each
    layer's public functions; returns span indices and exact counters.
    Appends one gate outcome to `checks` per answer."""
    rec = {"cli": {}, "counts": {}}
    with tr.span("instance", i) as root:
        for a in ("dp", "geom", "auto"):
            with tr.span(f"cli.{a}", i, root) as sid:
                code, out = frontdoor.solve(cli_main, frontdoor.argv(a, x, y))
            if code == EXIT_CAPACITY and a not in (algo, "auto"):
                continue  # a forced solver may decline; the workload's may not
            checks.append(frontdoor.answer_ok(code, out, x, y, ref, a))
            rec["cli"][a] = (sid, out)

        with tr.span("geom", i, root) as g:
            try:
                with tr.span("match.build", i, g) as rec["match.build"]:
                    ms = build_match_set(x, y)
                with tr.span("geom.rects", i, g) as rec["geom.rects"]:
                    rects = enumerate_rectangles(ms)
                with tr.span("geom.points", i, g) as rec["geom.points"]:
                    points = [rect_to_point(r) for r in rects]
                with tr.span("chain.sort", i, g) as rec["chain.sort"]:
                    groups = sort_points(points)
                with tr.span("chain.index_build", i, g) as rec["chain.index_build"]:
                    DominanceMaxIndex((p.a, p.b, p.c) for p in points)
                with tr.span("chain.longest_chain", i, g) as rec["chain.longest_chain"]:
                    longest_chain(points)
                with tr.span("geom.solve", i, g) as rec["geom.solve"]:
                    geom = geometric_lcps(x, y)
                checks.append(geom.length == ref)
                rec["counts"].update({
                    "match.r": ms.r,
                    "geom.P": len(rects),
                    "geom.P_bound": sum(s.r_sigma ** 2 for s in ms.per_sigma),
                    "chain.groups": len(groups),
                })
            except CapacityExceeded:
                pass

        for name, fn in (("dp.fill", fill_table), ("dp.solve", dp_lcps)):
            try:
                with tr.span(name, i, root) as rec[name]:
                    result = fn(x, y)
            except CapacityExceeded:
                continue
            if name == "dp.solve":
                checks.append(result.length == ref)
                rec["counts"]["dp.cells"] = len(x) ** 2 * len(y) ** 2

        answer = frontdoor.parse_answer(rec["cli"][algo][1])[0]
        if answer is not None:
            with tr.span("core.validate", i, root) as rec["core.validate"]:
                validate_witness(answer, x, y)
    return rec


def _peak_bytes(fn, x: bytes, y: bytes) -> int:
    tracemalloc.start()
    try:
        fn(x, y)
    except CapacityExceeded:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def traced_run(w, instances, refs, cli_main):
    """Trace the workload's fixed instance subset.

    Returns (metrics, tracer, attempted, failed). Times are means per traced
    instance; counters are exact totals over the subset. Metrics are empty
    when an answer failed the gate.
    """
    tr = Tracer()
    checks: list[bool] = []
    recs = []
    for i in w.traced:
        x, y = instances[i]
        recs.append(_trace_instance(tr, checks, i, x, y, refs[i], w.algo, cli_main))
    failed = checks.count(False)

    # Untraced: the same CLI calls without spans, for the tracing overhead.
    untraced = 0.0
    for i in w.traced:
        t0 = time.perf_counter()
        frontdoor.solve(cli_main, frontdoor.argv(w.algo, *instances[i]))
        untraced += time.perf_counter() - t0

    if failed:
        return {}, tr, len(checks), failed

    peaks = {"dp": [], "geom": []}
    for i in w.traced:
        peaks["dp"].append(_peak_bytes(dp_lcps, *instances[i]))
        peaks["geom"].append(_peak_bytes(geometric_lcps, *instances[i]))

    def dur(rec, name):
        return tr.ms(rec[name])

    geom_recs = [r for r in recs if "geom.solve" in r]
    dp_filled = [r for r in recs if "dp.cells" in r["counts"]]
    total = {name: sum(r["counts"].get(name, 0) for r in recs)
             for name in ("match.r", "geom.P", "geom.P_bound", "chain.groups", "dp.cells")}

    m = {
        "match.build_ms": _mean(dur(r, "match.build") for r in geom_recs),
        "match.r": total["match.r"],
        "geom.rects_ms": _mean(dur(r, "geom.rects") for r in geom_recs),
        "geom.points_ms": _mean(dur(r, "geom.points") for r in geom_recs),
        "geom.P": total["geom.P"],
        "geom.P_bound": total["geom.P_bound"],
        "geom.P_over_bound": total["geom.P"] / total["geom.P_bound"] if total["geom.P_bound"] else 0.0,
        "chain.sort_ms": _mean(dur(r, "chain.sort") for r in geom_recs),
        "chain.index_build_ms": _mean(dur(r, "chain.index_build") for r in geom_recs),
        "chain.longest_chain_ms": _mean(dur(r, "chain.longest_chain") for r in geom_recs),
        "chain.sweep_ms": _mean(
            dur(r, "chain.longest_chain") - dur(r, "chain.sort") - dur(r, "chain.index_build")
            for r in geom_recs),
        "geom.walk_ms": _mean(
            dur(r, "geom.solve") - dur(r, "match.build") - dur(r, "geom.rects")
            - dur(r, "geom.points") - dur(r, "chain.longest_chain")
            for r in geom_recs),
        "chain.groups": total["chain.groups"],
        "dp.fill_ms": _mean(dur(r, "dp.fill") for r in recs),
        "dp.traceback_ms": _mean(dur(r, "dp.solve") - dur(r, "dp.fill") for r in recs),
        "dp.cells": total["dp.cells"],
        "dp.cells_per_s": (total["dp.cells"] / (sum(dur(r, "dp.fill") for r in dp_filled) / 1000.0)
                           if dp_filled else 0.0),
        "dp.peak_traced_mb": max(peaks["dp"]) / 2**20,
        "geom.peak_traced_mb": max(peaks["geom"]) / 2**20,
    }
    # Bytes per point at the instance with the largest geom peak, where the
    # fixed overheads weigh least.
    top = max(range(len(recs)), key=lambda t: peaks["geom"][t])
    top_p = recs[top]["counts"].get("geom.P", 0)
    m["geom.bytes_per_point"] = peaks["geom"][top] / top_p if top_p else 0.0

    overhead, picks, faster, regret = [], {"dp": 0, "geom": 0}, 0, []
    for r in recs:
        sid, out = r["cli"][w.algo]
        # The CLI's own elapsed_ms times the solver inside this same call.
        overhead.append(tr.ms(sid) - frontdoor.parse_answer(out)[1]["elapsed_ms"])
        pick = frontdoor.parse_answer(r["cli"]["auto"][1])[1]["algorithm"]
        picks[pick] += 1
        forced = {a: tr.ms(r["cli"][a][0]) for a in ("dp", "geom") if a in r["cli"]}
        best = min(forced, key=forced.get)
        faster += pick == best
        regret.append(tr.ms(r["cli"]["auto"][0]) - forced[best])
    traced_cli = sum(tr.ms(r["cli"][w.algo][0]) for r in recs) / 1000.0
    m.update({
        "cli.overhead_ms": _mean(overhead),
        "auto.picks.dp": picks["dp"],
        "auto.picks.geom": picks["geom"],
        "auto.pick_faster_ratio": faster / len(recs),
        "auto.regret_ms": _mean(regret),
        "core.validate_ms": _mean(dur(r, "core.validate") for r in recs),
        "trace.overhead_ratio": traced_cli / untraced,
    })
    return m, tr, len(checks), failed
