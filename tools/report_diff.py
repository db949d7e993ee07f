"""Compare the reports of this checkout with those of another revision.

    python3 tools/report_diff.py REV

Extracts REV's committed files (``git archive``) into a temporary directory
and runs, there and in the checkout that holds this script, each with its
own ``src/``:

* ``radonfourier verify`` on the five north-star configs (the default
  battery, ``--field c``, ``--field r --n 2``, ``--field qp --p 2 --n 2``
  and ``--field qp --p 5``) and on ``--field qp --p 3 --n 2`` at seeds 7
  and 8: with Q_2, it is the n = 2 battery whose coset intersections are
  not all nested;
* ``radonfourier compute`` ``fourier``, ``intertwine`` and ``inner-product``
  on the CI workflow's specs in ``tests/data/compute/``.

Both sets of outputs are compared by the benchmark's rule, imported from
``bench/workloads.py``: timing fields are dropped (``strip_timing``), values
under a p-adic record (``field`` ``Q_p`` or ``qp``) must be byte-identical
(``_digest``), and archimedean numbers must agree to 1e-9 relative plus
1e-15 absolute (``_close``).  The exit code of every command is compared as
well.  Prints the SHA-256 of each ``compute`` output, checked against
``tests/data/compute/SHA256SUMS`` where that lists it, then each differing
path with both values; exits 0 when nothing differs and every listed digest
holds, 1 otherwise, and 2 when git cannot archive REV.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import _close, _digest, strip_timing  # noqa: E402

SEEDS = (7, 8)
VERIFY = {
    "battery": [],
    "c": ["--field", "c"],
    "r-n2": ["--field", "r", "--n", "2"],
    "qp2-n2": ["--field", "qp", "--p", "2", "--n", "2"],
    "qp3-n2": ["--field", "qp", "--p", "3", "--n", "2"],
    "qp5": ["--field", "qp", "--p", "5"],
}
# the CI workflow's compute specs; SHA256SUMS beside them lists the digests
# of the outputs that CI checks
SPECS = ROOT / "tests" / "data" / "compute"
# (operation, spec); the output is named <operation>-<spec>
COMPUTE = (
    ("fourier", "sb_q3"), ("fourier", "ops_r"),
    ("intertwine", "ops_q3"), ("intertwine", "ops_r"),
    ("inner-product", "ops_q3"), ("inner-product", "ops_r"),
)
# one BLAS/OpenMP thread, as the benchmark runs the package
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def extract(rev: str, dest: Path) -> str:
    """REV's committed files under ``dest``, and REV's commit id from the
    archive's header; exits 2 when git cannot archive REV."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True)
    if proc.returncode:
        print(f"unknown revision: {rev}", file=sys.stderr)
        raise SystemExit(2)
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as archive:
        # the "data" filter refuses links and paths that leave dest, where
        # this Python has it
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        return archive.pax_headers.get("comment")


def cli(tree: Path, argv: list) -> subprocess.CompletedProcess:
    """``radonfourier.cli`` with ``argv`` on ``tree``'s own ``src/``, one thread."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{v: "1" for v in THREAD_VARS})
    return subprocess.run([sys.executable, "-m", "radonfourier.cli", *argv],
                          cwd=tree, env=env, capture_output=True)


def run_verify(tree: Path, configs: dict, seeds, out: Path) -> list:
    """(config, seed, exit code, report or None) of ``radonfourier verify`` in
    ``tree`` on each of ``configs`` (name -> flags) at each seed, under ``out``."""
    runs = []
    for name, flags in configs.items():
        for seed in seeds:
            report = out / f"verify-{name}-seed{seed}.json"
            report.unlink(missing_ok=True)
            proc = cli(tree, ["verify", *flags, "--seed", str(seed), "--out", str(report)])
            doc = json.loads(report.read_text()) if report.exists() else None
            runs.append((name, seed, proc.returncode, doc))
    return runs


def run_tree(tree: Path, out: Path) -> None:
    """Every output of ``tree``'s package as ``out/<name>.json``, with its
    exit code, and each compute output's SHA-256 as ``out/<name>.sha256``."""
    out.mkdir(parents=True)
    for name, seed, code, doc in run_verify(tree, VERIFY, SEEDS, out):
        (out / f"verify-{name}-seed{seed}.json").write_text(
            json.dumps({"exit_code": code, "report": strip_timing(doc)}))
    for op, stem in COMPUTE:
        name, spec_path = f"{op}-{stem}", SPECS / f"{stem}.json"
        proc = cli(tree, ["compute", op, "--input", str(spec_path)])
        doc = json.loads(proc.stdout) if proc.returncode == 0 else proc.stderr.decode()
        (out / f"compute-{name}.sha256").write_text(hashlib.sha256(proc.stdout).hexdigest())
        (out / f"compute-{name}.json").write_text(json.dumps(
            {"exit_code": proc.returncode, "field": json.loads(spec_path.read_text())["field"], "output": doc}))


def _is_exact(node: dict) -> bool:
    return str(node.get("field", "")).startswith(("Q_", "qp"))


def diff(old, new, path: str = "", exact: bool = False) -> list:
    """(path, old, new) for each leaf or subtree where the two differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        exact = exact or _is_exact(old)
        out = []
        for key in sorted(set(old) | set(new), key=str):
            sub = f"{path}.{key}"
            if key not in old or key not in new:
                out.append((sub, old.get(key, "<missing>"), new.get(key, "<missing>")))
            else:
                out += diff(old[key], new[key], sub, exact)
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        out = []
        for i, (a, b) in enumerate(zip(old, new)):
            out += diff(a, b, f"{path}[{i}]", exact)
        return out
    same = _digest(old) == _digest(new) if exact else _close(old, new)
    return [] if same else [(path, old, new)]


def compare_trees(old_dir: Path, new_dir: Path) -> list:
    """The differences between two directories of JSON outputs, by file."""
    out = []
    for name in sorted({p.name for p in old_dir.glob("*.json")} | {p.name for p in new_dir.glob("*.json")}):
        a, b = old_dir / name, new_dir / name
        if not (a.exists() and b.exists()):
            out.append((name, "<present>" if a.exists() else "<missing>", "<present>" if b.exists() else "<missing>"))
            continue
        out += diff(json.loads(a.read_text()), json.loads(b.read_text()), name)
    return out


def verdict(old_dir: Path, new_dir: Path) -> int:
    """Print every difference; 0 when there is none, else 1."""
    diffs = compare_trees(Path(old_dir), Path(new_dir))
    for path, a, b in diffs:
        print(f"{path}\n  old: {json.dumps(a)[:400]}\n  new: {json.dumps(b)[:400]}")
    count = len(list(Path(old_dir).glob("*.json")))
    print(f"{len(diffs)} difference(s) over {count} outputs")
    return 1 if diffs else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="revision to compare against, e.g. HEAD~1")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        tmp = Path(tmp)
        extract(args.rev, tmp / "tree")
        run_tree(tmp / "tree", tmp / "old")
        run_tree(ROOT, tmp / "new")
        print(f"old: {args.rev}, new: this checkout")
        listed = dict(reversed(line.split()) for line in (SPECS / "SHA256SUMS").read_text().splitlines())
        off_list = 0
        for path in sorted((tmp / "new").glob("*.sha256")):
            new = path.read_text()
            want = listed.get(path.stem.removeprefix("compute-") + ".json")
            note = "" if want is None else " (listed)" if new == want else f" (SHA256SUMS lists {want})"
            off_list += want not in (None, new)
            print(f"{path.stem}: old {(tmp / 'old' / path.name).read_text()}, new {new}{note}")
        return max(verdict(tmp / "old", tmp / "new"), int(off_list > 0))


if __name__ == "__main__":
    sys.exit(main())
