"""Pin the reference LCPS lengths of the default seed into refs.json.

    python3 perfbench/make_refs.py

Run from the repository root whenever a workload's inputs change. Lengths
come from lcps's own solvers, cross-checked where more than one fits under
the default caps: dp and geom on dense-dp and mixed-auto; geom alone on
sparse-geom, where n^2 m^2 = 600^4 cells is far over dp's cap. Each length
must also equal the independent reference.py, which the benchmark uses as
the reference on every seed and checks against refs.json on this one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import reference
import workloads

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from lcps.chain_solver import geometric_lcps  # noqa: E402
from lcps.core import CapacityExceeded  # noqa: E402
from lcps.dp_solver import dp_lcps  # noqa: E402


def pinned_length(x: bytes, y: bytes, solvers: list[str]) -> int:
    fns = {"dp": dp_lcps, "geom": geometric_lcps}
    lengths = {name: fns[name](x, y).length for name in solvers}
    lengths["reference"] = reference.lcps_length(x, y)
    if len(set(lengths.values())) != 1:
        raise SystemExit(f"disagreement on {x!r}, {y!r}: {lengths}")
    return lengths["reference"]


def main() -> int:
    out = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for w in workloads.WORKLOADS.values():
        instances, warm = workloads.generate(w, workloads.DEFAULT_SEED)
        x, y = instances[0]
        try:
            dp_lcps(x, y)
            solvers = ["dp", "geom"]
        except CapacityExceeded:
            solvers = ["geom"]
        out["workloads"][w.name] = {
            "solvers": solvers,
            "instances": [pinned_length(x, y, solvers) for x, y in instances],
            "warmup": pinned_length(*warm, solvers),
        }
        print(w.name, solvers, file=sys.stderr)
    (BENCH_DIR / "refs.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
