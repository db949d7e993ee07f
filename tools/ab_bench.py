"""Run the benchmark on another revision and on this checkout in alternating
pairs, and compare the end-to-end metrics.

    python3 tools/ab_bench.py REV --workload W --pairs N [--seed S]

Extracts REV's committed files (``git archive``) into a temporary directory.
Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``,
with T the ``run_seconds`` of ``BENCHMARK.json``, once in that tree and once
in the checkout that holds this script, each tree with its own
``bench/run.py`` and ``src/``; odd pairs run REV first, even pairs this
checkout first, so that a drift in host load falls on both sides.  S is 7
unless given: the benchmark's default seed, whose references are
committed.  Another seed checks that a claim holds on inputs that the
change was not written against.

For each end-to-end metric of ``BENCHMARK.json`` it prints the median and
quartiles on both sides, the relative change of the median (positive when
worse, in the metric's ``better`` direction) beside the metric's bound, and
how many pairs read better.  Below ``peak_rss_mb`` it prints each run's
count of timed passes, ``wall_s.n`` of the tree's
``bench/out/result-W-seedS-trace0.json``: the worker keeps every pass's
records, so an RSS change can come from a change in the pass count.

Each metric gets one verdict:

* "unresolved" when the spread of REV's runs, IQR / median, exceeds its
  bound and not every run of the change beats every run of REV: the runs
  cannot tell a change of that size from noise;
* "better" when the change wins at least 9 in 10 pairs (a tie counts for
  neither side) and its median beats REV's by more than REV's IQR;
* "worse" when the change of the median exceeds the bound;
* "ok" otherwise.

Exits 0 when every run is correct and no metric is worse, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from report_diff import extract  # noqa: E402


def result_path(tree: Path, workload: str, seed: int) -> Path:
    return tree / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json"


def read_passes(tree: Path, workload: str, seed: int):
    """The timed passes of ``tree``'s last run, or None without a result file."""
    path = result_path(tree, workload, seed)
    return json.loads(path.read_text())["wall_s"]["n"] if path.exists() else None


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its exit code, final JSON line and
    number of timed passes."""
    result_path(tree, workload, seed).unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return {"exit_code": proc.returncode, "line": line, "passes": read_passes(tree, workload, seed)}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list, change: list, end_to_end: list) -> list:
    """One row per end-to-end metric from paired result lines.

    ``parent`` and ``change`` are the final JSON lines of the runs, pair i
    at index i on both sides; ``end_to_end`` is BENCHMARK.json's list of
    {"name", "better", "bound"}.  A row holds both sides' quartiles, the
    relative change of the median (positive when worse), the pairs that read
    better, and the verdict "better", "ok", "worse" or "unresolved" (see the
    module docstring).
    """
    rows = []
    for metric in end_to_end:
        name, bound, sign = metric["name"], metric["bound"], 1 if metric["better"] == "lower" else -1
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p.get("metrics", {}) and name in c.get("metrics", {})]
        if not pairs:
            rows.append({"metric": name, "bound": bound, "verdict": "unresolved", "pairs": 0})
            continue
        old, new = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
        spread = (old[2] - old[0]) / abs(old[1]) if old[1] else 0.0
        if old[1]:
            rel = sign * (new[1] - old[1]) / abs(old[1])
        else:
            rel = 0.0 if new[1] == 0 else sign * float("inf")
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        dominates = max(sign * c for _, c in pairs) < min(sign * p for p, _ in pairs)
        better = 10 * wins >= 9 * len(pairs) and sign * (old[1] - new[1]) > old[2] - old[0]
        if spread > bound and not dominates:
            verdict = "unresolved"
        else:
            verdict = "better" if better else "worse" if rel > bound else "ok"
        rows.append({
            "metric": name, "bound": bound, "pairs": len(pairs),
            "parent": old, "change": new, "parent_spread": spread, "rel_change": rel,
            "better_pairs": wins, "verdict": verdict,
        })
    return rows


def print_rows(rows: list, passes: dict) -> None:
    """The rows, with ``passes`` (side -> passes per run) below peak_rss_mb."""
    for r in rows:
        if not r["pairs"]:
            print(f"{r['metric']:<12} no runs reported it: unresolved")
        else:
            (pq1, pm, pq3), (cq1, cm, cq3) = r["parent"], r["change"]
            print(f"{r['metric']:<12} parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}]  "
                  f"change {cm:.4g} [{cq1:.4g}, {cq3:.4g}]  "
                  f"worse by {r['rel_change']:+.1%} (bound {r['bound']:.0%}, parent IQR/median "
                  f"{r['parent_spread']:.1%})  better in {r['better_pairs']}/{r['pairs']} pairs: "
                  f"{r['verdict']}")
        if r["metric"] == "peak_rss_mb":
            print(f"{'':<12} passes per run: parent {passes['parent']}  change {passes['change']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="revision to compare against, e.g. HEAD~1")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        tree = Path(tmp) / "tree"
        extract(args.rev, tree)
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                run = run_bench(tree if side == "parent" else ROOT, args.workload, args.seed, seconds)
                runs[side].append(run)
                print(f"pair {i}/{args.pairs} {side}: exit {run['exit_code']}", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {seconds:g} s a run, {args.pairs} pairs; "
          f"parent {args.rev}, change this checkout")
    rows = summarize([r["line"] for r in runs["parent"]], [r["line"] for r in runs["change"]],
                     spec["end_to_end"])
    print_rows(rows, {side: [r.get("passes") for r in rs] for side, rs in runs.items()})
    failed = [f"{side} run {i + 1}" for side, rs in runs.items() for i, r in enumerate(rs)
              if r["exit_code"] != 0 or not r["line"].get("correct")]
    for name in failed:
        print(f"not correct: {name}")
    return 1 if failed or any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
