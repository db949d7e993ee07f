"""Benchmark of radonfourier: time to a verification verdict, end to end and
layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy.  Workloads (``workloads.py``):
``arch-battery``, ``padic`` and ``tensor-quadrature``.

Load model: one client in one process, closed loop, no rate.  Every timed
process runs with the BLAS/OpenMP thread variables set to 1 and with
``RADONFOURIER_THREADS`` removed, whatever the caller's environment says.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``: median wall time of one pass over the workload's inputs, over
  the passes that fit in ``--seconds`` (at least two);
* ``setup_s``: median, over five fresh processes, of the time from process
  start to the first timed pass (interpreter, ``import radonfourier``,
  inputs; caches the program fills on first use are filled in the passes);
* ``peak_rss_mb``: peak resident memory of the measuring process;
* ``pass_ratio`` = 1 - fail_ratio, where fail_ratio is the share of checks
  (or integrals) that failed, errored or missed their tolerance;
* ``match_ratio`` = 1 - mismatch_ratio, where mismatch_ratio is the share of
  records whose deterministic payload differs from the committed reference
  (default seed) or, for other seeds, from the run's first pass.

``--trace 1`` times one pass untraced and one traced (``tracing.py``) and
reports the per-layer metrics, the tracing overhead and the layer accounting;
spans are written to ``bench/out/``.

Every run writes ``bench/out/result-<workload>-seed<N>-trace<T>.json`` with
the environment (Python, numpy and scipy versions, nproc, thread settings,
seed, git commit).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every output is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # fresh processes timed to ready; the measuring one is the last
RUN_LIMIT_S = 170.0  # every child is stopped before a run reaches this
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "pass_ratio": "ratio", "match_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pinned_env(checkout: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("RADONFOURIER_THREADS", None)
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit(checkout: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_worker(argv: list, env: dict, checkout: Path, deadline: float) -> tuple[float, dict]:
    """Start a worker, wait for it, return (wall-clock start, its result line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before a worker could start")
    spawned_at = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *argv],
            cwd=checkout, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv} did not finish within the run limit") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {argv} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {argv} printed no result")
    return spawned_at, json.loads(lines[-1])


def summary(values: list) -> dict:
    out = {
        "median": statistics.median(values), "min": min(values),
        "max": max(values), "n": len(values),
    }
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def accounting(per_layer: dict) -> dict:
    """Self times may not exceed the traced wall time; report the remainder."""
    selfs = sum(v for k, v in per_layer.items() if k.endswith(".self_s") and k.count(".") == 1)
    wall = per_layer["trace.wall_s"]
    return {
        "layer_self_s": selfs,
        "traced_wall_s": wall,
        "unaccounted_s": wall - selfs,
        "ok": selfs <= wall * (1 + 1e-9),
    }


def ordering(workload: str, per_layer: dict, check_s_by_config: dict) -> dict:
    """The profile ordering the benchmark was built on, as observed."""
    def largest(values: dict) -> str:
        return max(values, key=values.get) if values else ""

    if workload == "arch-battery":
        checks = {k.split(".")[2]: v for k, v in per_layer.items() if k.startswith("suite.check.")}
        return {"largest_check": largest(checks), "expected_check": "truncation"}
    if workload == "padic":
        q3: dict[str, float] = {}
        for key, s in check_s_by_config.items():
            if key.startswith("qp3 "):
                name = key.rsplit(" :: ", 1)[-1]
                q3[name] = q3.get(name, 0.0) + s
        xl = {
            name: per_layer[f"exactlinalg.{name}.s"]
            for name in ("hnf_zp", "smith_zp", "inv", "matmul")
        }
        return {
            "largest_check_q3": largest(q3), "expected_check_q3": "composition",
            "largest_exactlinalg": largest(xl), "expected_exactlinalg": "hnf_zp",
        }
    return {}


def measure(args, checkout: Path) -> tuple[dict, dict]:
    """Run the workers for one benchmark run; return (result file, output line)."""
    env = pinned_env(checkout)
    out_dir = BENCH_DIR / "out"
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            spawned, res = run_worker(base + ["--setup-only"], env, checkout, deadline)
            setups.append(res["ready_at"] - spawned)
    argv = base + [
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir),
    ]
    if args.write_reference:
        argv.append("--write-reference")
    spawned, res = run_worker(argv, env, checkout, deadline)
    setups.append(res["ready_at"] - spawned)

    gate, cmp = res["gate"], res["compare"]
    fail_ratio = gate["failed"] / gate["attempted"] if gate["attempted"] else 1.0
    mismatch_ratio = cmp["mismatched"] / cmp["compared"] if cmp["compared"] else 1.0
    correct = gate["attempted"] > 0 and gate["failed"] == 0 and cmp["mismatched"] == 0
    result = {
        "workload": args.workload,
        "why": workloads.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            **res["environment"],
            "threads": {var: env[var] for var in THREAD_VARS},
            "RADONFOURIER_THREADS": "unset"
            + (f" (caller's {os.environ['RADONFOURIER_THREADS']!r} ignored)"
               if "RADONFOURIER_THREADS" in os.environ else ""),
            "git_commit": git_commit(checkout),
            "load_model": "closed loop, one client, one process",
        },
        "wall_s": summary(res["walls_s"]),
        "setup_s": summary(setups),
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        "fail_ratio": fail_ratio,
        "mismatch_ratio": mismatch_ratio,
        "gate": gate,
        "compare": cmp,
    }
    if args.trace:
        per_layer = res["per_layer"]
        result["per_layer"] = per_layer
        result["accounting"] = accounting(per_layer)
        result["ordering"] = ordering(args.workload, per_layer, res["check_s_by_config"])
        result["check_s_by_config"] = res["check_s_by_config"]
        result["spans_file"] = res["spans_file"]
        correct = correct and result["accounting"]["ok"]
        metrics = {
            name: {"value": value, "unit": tracing.unit_of(name)}
            for name, value in per_layer.items()
        }
    else:
        values = {
            "wall_s": result["wall_s"]["median"],
            "setup_s": result["setup_s"]["median"],
            "peak_rss_mb": result["peak_rss_mb"],
            "pass_ratio": 1.0 - fail_ratio,
            "match_ratio": 1.0 - mismatch_ratio,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result["correct"] = correct
    line = {
        "correct": correct,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": metrics,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    result["result_file"] = str(path.relative_to(checkout))
    return result, line


def report(result: dict) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    w = result["wall_s"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    spread = (
        f"q1 {w['q1']:.4f}, q3 {w['q3']:.4f}, " if "q1" in w else ""
    ) + f"min {w['min']:.4f}, max {w['max']:.4f}"
    print(f"  wall_s          {w['median']:.4f} s   (median of {w['n']} passes; {spread})")
    s = result["setup_s"]
    print(f"  setup_s         {s['median']:.4f} s   (median of {s['n']} processes)")
    print(f"  peak_rss_mb     {result['peak_rss_mb']:.1f} MB")
    g, c = result["gate"], result["compare"]
    print(f"  fail_ratio      {result['fail_ratio']:.4f} ratio   "
          f"({g['failed']} of {g['attempted']} failed; "
          f"pass_ratio {1 - result['fail_ratio']:.4f})")
    print(f"  mismatch_ratio  {result['mismatch_ratio']:.4f} ratio   "
          f"({c['mismatched']} of {c['compared']} differ from the {c['basis']}; "
          f"match_ratio {1 - result['mismatch_ratio']:.4f})")
    for failure in g["failures"]:
        print(f"  FAILED {failure}")
    for key in c["mismatches"]:
        print(f"  MISMATCH {key}")
    if result["trace"]:
        acc = result["accounting"]
        print(f"  layer accounting: self times {acc['layer_self_s']:.4f} s of traced wall "
              f"{acc['traced_wall_s']:.4f} s, unaccounted {acc['unaccounted_s']:.4f} s"
              + ("" if acc["ok"] else "  (FAILED: self times exceed the wall time)"))
        per_layer = result["per_layer"]
        print(f"  trace_overhead_ratio {per_layer['trace_overhead_ratio']:.4f} ratio")
        for key, value in result["ordering"].items():
            print(f"  ordering {key}: {value}")
        for name, value in per_layer.items():
            print(f"  {name:<52} {value:.6g} {tracing.unit_of(name)}")
    print(f"  result file {result['result_file']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-reference", action="store_true",
        help="overwrite reference/<workload>.json with this run's first pass",
    )
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    checkout = Path.cwd()
    if not (checkout / "src" / "radonfourier" / "__init__.py").is_file():
        print(f"error: no src/radonfourier in {checkout}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        result, line = measure(args, checkout)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
