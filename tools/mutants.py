"""The report's mutation score: which checks fail under each source mutant.

    python3 tools/mutants.py [--tier1] [--out MUTANTS.json]

Each entry of ``MUTANTS`` is one exact text replacement in one file of
``src/``, with the paper constant or convention that it breaks.  M1-M6
mis-wire the Fourier transform and the pairing; O1-O5 are the exact layer's
mutants that the oracle tests in ``tests/test_exact_oracle.py`` were shown to
catch, and O6 is O5 on the opposite-side pairing.  For each mutant the tool
copies this checkout's ``src/`` (with ``--tier1`` the whole checkout) to a
temporary directory, applies the mutant there, and runs
``radonfourier verify`` at seed 7 on the five north-star configs (the
default battery R, Q_2 and Q_3 at n = 1, ``--field c``, ``--field r --n 2``,
``--field qp --p 2 --n 2`` and ``--field qp --p 5``) plus C n = 2 and Q_3
n = 2.

It writes, per mutant, the failing checks of every suite that has one
(keyed ``"<field> n=<n>"``, or by config name with the exit code when a run
writes no report), and whether the report catches it; with ``--tier1`` also
the number of tier-1 tests that fail.  The unmutated tree runs first and
must pass every check, so that each failure belongs to its mutant.  The
output holds no timing, so a rerun on an unchanged tree writes the same
bytes.  Exits 0 when the file is written, 1 when the unmutated tree fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from report_diff import THREAD_VARS, VERIFY  # noqa: E402

SEED = 7
# report_diff's configs (the five north-star configs and Q_3 n = 2) plus C n = 2
CONFIGS = {**VERIFY, "c-n2": ["--field", "c", "--n", "2"]}
# tier-1 without this list's own test, which a mutant's replaced text fails
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py"]

# name -> (file under src/radonfourier, old text, new text, what it breaks)
MUTANTS = {
    "M1": ("functions.py", "elly = -1j * (P @ (Qi @ self.ell))", "elly = 1j * (P @ (Qi @ self.ell))",
           "the sign of the Fourier kernel's phase in the Gaussian transform's linear term"),
    "M2": ("functions.py", "Qy = P @ Qi @ P.T", "Qy = Qi",
           "the orientation of the pairing in the Gaussian transform's form P Q^(-1) P^T"),
    "M3": ("transforms.py", "P[yc + 1, xc + 1] = -1", "P[yc + 1, xc + 1] = 1",
           "Re Tr(y x) over C: the (im, im) entry of the pairing matrix is -1"),
    "M4": ("functions.py", "self.kappa.conjugate(), -self.ell.conj())", "self.kappa.conjugate(), self.ell)",
           "complex conjugation of a Gaussian conjugates its linear term"),
    "M5": ("functions.py", "phase = add_char(Fraction(_dot(w, R), p ** (e + M.e)), fd)",
           "phase = add_char(-Fraction(_dot(w, R), p ** (e + M.e)), fd)",
           "the sign of the character chi(<y, w>) in the exact p-adic transform"),
    "M6": ("functions.py", "fd, p = self.space.fd, self.p\n        out = []",
           "fd, p, P = self.space.fd, self.p, tuple(zip(*P))\n        out = []",
           "the orientation of the pairing matrix P in the exact p-adic transform"),
    "O1": ("lattices.py", "xl.p_split(det, p)[0] - e\n", "xl.p_split(det, p)[0] - e + 1\n",
           "the exponent of the dual lattice basis^(-T)"),
    "O2": ("lattices.py", "(eye + eye, 0, 1)", "(eye + [[p * v for v in row] for row in eye], 0, 1)",
           "a coset intersection is the preimage under the diagonal x -> (x, x)"),
    "O3": ("transforms.py", "translate_group(fg, (*eye, z_vec), side=\"left\")",
           "translate_group(fg, (*eye, tuple(p * z for z in z_vec)), side=\"left\")",
           "each composition shell point translates along the unipotent [I_n; z]"),
    "O4": ("hilbert.py", "det_power(a, Fraction(n + 1, 2), fd) * integrate",
           "det_power(a, Fraction(n - 1, 2), fd) * integrate",
           "the weight |det a|^((n+1)/2) of the pairing <f, h>_X"),
    "O5": ("hilbert.py", "n = space.cols\n    fc = f.conjugate()", "n = space.cols\n    fc = f",
           "the pairing <f, h>_X conjugates f"),
    "O6": ("hilbert.py", "n = space.rows\n    fc = f.conjugate()", "n = space.rows\n    fc = f",
           "the pairing <f, h>_Xbar conjugates f"),
}


def source(name: str, root: Path = ROOT) -> Path:
    return root / "src" / "radonfourier" / MUTANTS[name][0]


def apply(name: str, root: Path) -> None:
    """Apply mutant ``name`` to the tree at ``root``; its old text must occur once."""
    _, old, new, _ = MUTANTS[name]
    path = source(name, root)
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{name}: {old!r} occurs {text.count(old)} times in {path.name}")
    path.write_text(text.replace(old, new))


def copy_tree(dest: Path, tier1: bool) -> None:
    """This checkout's ``src/`` under ``dest``; with ``tier1`` the whole
    checkout but git's files, caches and benchmark outputs, since the
    tier-1 suite also loads ``tools/`` and ``bench/``."""
    skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info", "out")
    shutil.copytree(ROOT if tier1 else ROOT / "src", dest if tier1 else dest / "src", ignore=skip)


def failing_checks(tree: Path, out: Path) -> dict:
    """The failing checks per suite over CONFIGS at SEED, in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{v: "1" for v in THREAD_VARS})
    fails = {}
    for config, flags in CONFIGS.items():
        report = out / f"{config}.json"
        report.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "radonfourier.cli", "verify", *flags, "--seed", str(SEED),
             "--out", str(report)],
            cwd=tree, env=env, capture_output=True,
        )
        if not report.exists():
            fails[config] = f"no report (exit {proc.returncode})"
            continue
        doc = json.loads(report.read_text())
        for suite in doc.get("suites", [doc]):
            for rec in suite["checks"]:
                if not rec["pass"]:
                    fails.setdefault(f"{rec['field']} n={rec['n']}", []).append(rec["check"])
    return fails


def tier1_failures(tree: Path) -> int:
    """How many tier-1 tests fail (or error) in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return sum(int(k) for k in re.findall(r"(\d+) (?:failed|error)", last))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tier1", action="store_true", help="also run tier-1 on every mutant")
    ap.add_argument("--out", default=str(ROOT / "MUTANTS.json"))
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tmp = Path(tmp)
        clean = failing_checks(ROOT, tmp)
        if clean:
            print(f"the unmutated tree fails: {clean}", file=sys.stderr)
            return 1
        rows = []
        for name, (file, _, _, breaks) in MUTANTS.items():
            tree = tmp / name
            copy_tree(tree, args.tier1)
            apply(name, tree)
            fails = failing_checks(tree, tmp)
            row = {"name": name, "file": f"src/radonfourier/{file}", "breaks": breaks,
                   "caught": bool(fails), "failing": fails}
            if args.tier1:
                row["tier1_failures"] = tier1_failures(tree)
            rows.append(row)
            print(f"{name}: {'caught' if fails else 'missed'} {fails}", file=sys.stderr, flush=True)
            shutil.rmtree(tree)
    caught = [r["name"] for r in rows if r["caught"]]
    doc = {"seed": SEED, "configs": list(CONFIGS), "caught": caught,
           "score": f"{len(caught)} of {len(rows)}", "mutants": rows}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"report catches {len(caught)} of {len(rows)}: {', '.join(caught)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
