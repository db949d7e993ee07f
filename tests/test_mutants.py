"""tools/mutants.py's list stays applicable: every mutant's old text occurs
exactly once in its file, and the committed MUTANTS.json scores the same
list; its failing checks are read from report_diff's verify runner, faked
here.  No mutant runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"


@pytest.fixture(scope="module")
def mutants():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once(mutants):
    for name, (_, old, new, breaks) in mutants.MUTANTS.items():
        assert old != new and breaks, name
        assert mutants.source(name).read_text().count(old) == 1, name


def test_committed_score_lists_the_same_mutants(mutants):
    doc = json.loads((ROOT / "MUTANTS.json").read_text())
    assert [m["name"] for m in doc["mutants"]] == list(mutants.MUTANTS)
    assert doc["configs"] == list(mutants.CONFIGS) and doc["seed"] == mutants.SEED
    for row in doc["mutants"]:
        assert row["file"] == f"src/radonfourier/{mutants.MUTANTS[row['name']][0]}"
        assert row["caught"] == bool(row["failing"])


def test_failing_checks_read_the_shared_runner(mutants, monkeypatch, tmp_path):
    # a battery report holds suites, a single-suite report is its own suite,
    # and a run that writes no report counts with its exit code
    def check(name, field, n, ok):
        return {"check": name, "field": field, "n": n, "pass": ok}

    runs = [
        ("battery", 7, 1, {"suites": [
            {"checks": [check("slice", "real", 1, True), check("unitarity", "real", 1, False)]},
            {"checks": [check("slice", "Q_2", 1, False), check("unitarity", "Q_2", 1, False)]},
        ]}),
        ("c", 7, 0, {"checks": [check("slice", "complex", 1, True)]}),
        ("r-n2", 7, 2, None),
    ]
    seen = []

    def fake(tree, configs, seeds, out):
        seen.append((tree, configs, list(seeds), out))
        return runs

    monkeypatch.setattr(mutants, "run_verify", fake)
    fails = mutants.failing_checks(tmp_path / "tree", tmp_path)
    assert seen == [(tmp_path / "tree", mutants.CONFIGS, [mutants.SEED], tmp_path)]
    assert fails == {"real n=1": ["unitarity"], "Q_2 n=1": ["slice", "unitarity"],
                     "r-n2": "no report (exit 2)"}
