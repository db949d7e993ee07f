"""tools/mutants.py's list stays applicable: every mutant's old text occurs
exactly once in its file, and the committed MUTANTS.json scores the same
list.  No mutant runs here."""

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
