"""Write a benchmark snapshot of this checkout: ``BENCH_<label>.json``.

    python3 tools/bench_snapshot.py LABEL

Runs ``bench/run.py`` on every workload at seed 7 with ``--seconds 26`` and
``--trace 0`` in three rounds, each of which runs every workload once,
from the root of the checkout that holds this script, and writes
``BENCH_<LABEL>.json`` there.  Taking the rounds in turn spreads a change
in host load over all workloads instead of one.  For each workload
the file keeps every run (its final JSON line, with the end-to-end metrics
and the correctness verdict, and the environment block of its result file:
Python and numpy versions, nproc, thread settings, git commit) and the
median of each end-to-end metric over the runs that reported it.  The
settings are fixed so that two snapshots are comparable; a run that exits
nonzero is recorded with its exit code, and the script then exits 1.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("arch-battery", "padic", "tensor-quadrature")
SEED = 7
SECONDS = 26
ROUNDS = 3


def run_workload(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    entry = {"exit_code": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        entry["result"] = json.loads(lines[-1])
    result_file = ROOT / "bench" / "out" / f"result-{name}-seed{SEED}-trace0.json"
    if proc.returncode in (0, 1) and result_file.is_file():
        with open(result_file, encoding="utf-8") as fh:
            entry["environment"] = json.load(fh)["environment"]
    if proc.returncode != 0:
        entry["stderr"] = proc.stderr[-2000:]
    return entry


def median_metrics(entries: list) -> dict:
    """{metric: {"unit", "value", "runs"}}: the median over the runs that report it."""
    values: dict[str, list] = {}
    units: dict[str, str] = {}
    for entry in entries:
        for metric, m in entry.get("result", {}).get("metrics", {}).items():
            values.setdefault(metric, []).append(m["value"])
            units[metric] = m["unit"]
    return {
        metric: {"unit": units[metric], "value": statistics.median(vals), "runs": len(vals)}
        for metric, vals in values.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label", help="file name part: BENCH_<label>.json")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        ap.error("label may hold only letters, digits, '.', '_' and '-'")
    snapshot = {
        "command": f"bench/run.py --workload NAME --seed {SEED} --seconds {SECONDS} --trace 0",
        "rounds": ROUNDS,
        "workloads": {},
    }
    runs = {name: [] for name in WORKLOADS}
    for r in range(ROUNDS):
        for name in WORKLOADS:
            print(f"round {r + 1}/{ROUNDS}: running {name} ...", file=sys.stderr, flush=True)
            runs[name].append(run_workload(name))
    for name, entries in runs.items():
        snapshot["workloads"][name] = {"runs": entries, "median": median_metrics(entries)}
    path = ROOT / f"BENCH_{args.label}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path.name)
    return 0 if all(e["exit_code"] == 0 for entries in runs.values() for e in entries) else 1


if __name__ == "__main__":
    sys.exit(main())
