"""One benchmark process: set up a workload, then time passes over it.

Started by ``run.py`` with the thread variables pinned and ``src/`` of the
checkout on ``PYTHONPATH``.  Prints one JSON line to standard output.

    python3 bench/worker.py --workload W --seed S --setup-only
    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 --out-dir D
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 2  # two passes in one run can always be compared with each other


def _check_origin(checkout: Path) -> None:
    import radonfourier

    origin = Path(radonfourier.__file__).resolve()
    if checkout.resolve() / "src" not in origin.parents:
        raise SystemExit(f"radonfourier was loaded from {origin}, not from {checkout}/src")


def _timed_pass(workload, inputs, scratch: Path):
    gc.collect()  # every pass starts from the same heap, not the last pass's garbage
    t0 = time.perf_counter()
    records = workload.run_pass(inputs, scratch)
    return time.perf_counter() - t0, records


def _check_seconds(records: list) -> dict:
    out: dict[str, float] = {}
    for rec in records:
        name = rec["key"].rsplit(" :: ", 1)[-1]
        out[name] = out.get(name, 0.0) + float(rec.get("runtime_s", 0.0))
    return out


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    checkout = Path.cwd()
    _check_origin(checkout)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    ready_at = time.time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result: dict = {"ready_at": ready_at}
    passes = []
    walls = []
    if args.trace:
        import tracing

        wall, records = _timed_pass(workload, inputs, out_dir)
        walls.append(wall)
        passes.append(records)
        with tracing.Tracer() as tracer:
            traced_wall, traced = _timed_pass(workload, inputs, out_dir)
        passes.append(traced)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(checkout))
        result["per_layer"] = tracer.metrics(traced_wall, wall, _check_seconds(traced))
        result["check_s_by_config"] = {
            r["key"]: r.get("runtime_s", 0.0) for r in traced if "runtime_s" in r
        }
    else:
        start = time.perf_counter()
        while True:
            wall, records = _timed_pass(workload, inputs, out_dir)
            walls.append(wall)
            passes.append(records)
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > args.seconds:
                break

    if args.write_reference:
        path = workloads.reference_path(args.workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workloads.reference_doc(args.workload, args.seed, passes[0]), fh,
                      indent=1, sort_keys=True)
            fh.write("\n")

    result["walls_s"] = walls
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["gate"] = workloads.gate(passes)
    result["compare"] = workloads.compare(
        passes, workloads.load_reference(args.workload, args.seed)
    )
    result["environment"] = _environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
