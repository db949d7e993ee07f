"""tools/report_diff.py on two synthetic trees of outputs: p-adic records must
keep every byte, archimedean numbers must agree to 1e-9 relative; and an
unknown revision exits 2."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"

PADIC = {"exit_code": 0, "report": {"checks": [{
    "check": "slice", "field": "Q_3", "n": 1, "pass": True,
    "samples": [{"input": [["1", "1/3"]], "exact_equal": True,
                 "lhs": {"qexp": "0", "cyclotomic": {"conductor": 9, "coeffs": ["1/1", "-1/2"]}}}],
}]}}
ARCH = {"exit_code": 0, "report": {"checks": [{
    "check": "slice", "field": "real", "n": 1, "pass": True,
    "samples": [{"input": [[1.0, 0.5]], "lhs": [0.0432139182637723, 0.0], "abs_err": 2.1e-17,
                 "rhs_quadrature_error": 0.0}],
}]}}


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, docs: dict) -> Path:
    root.mkdir(parents=True)
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


def _verdict(report_diff, tmp_path, new_docs):
    old = _tree(tmp_path / "old", {"padic": PADIC, "arch": ARCH})
    new = _tree(tmp_path / "new", new_docs)
    return report_diff.verdict(old, new)


def test_identical_trees_pass(report_diff, tmp_path, capsys):
    assert _verdict(report_diff, tmp_path, {"padic": PADIC, "arch": ARCH}) == 0
    assert "0 difference(s) over 2 outputs" in capsys.readouterr().out


def test_one_padic_byte_fails(report_diff, tmp_path, capsys):
    moved = copy.deepcopy(PADIC)
    moved["report"]["checks"][0]["samples"][0]["input"][0][1] = "1/4"
    assert _verdict(report_diff, tmp_path, {"padic": moved, "arch": ARCH}) == 1
    out = capsys.readouterr().out
    assert "padic.json.report.checks[0].samples[0].input[0][1]" in out
    assert '"1/3"' in out and '"1/4"' in out


def test_archimedean_values_within_and_past_tolerance(report_diff, tmp_path, capsys):
    near, far = copy.deepcopy(ARCH), copy.deepcopy(ARCH)
    lhs = ARCH["report"]["checks"][0]["samples"][0]["lhs"][0]
    near["report"]["checks"][0]["samples"][0]["lhs"][0] = lhs * (1 + 1e-12)
    far["report"]["checks"][0]["samples"][0]["lhs"][0] = lhs * (1 + 1e-8)
    assert _verdict(report_diff, tmp_path / "near", {"padic": PADIC, "arch": near}) == 0
    assert _verdict(report_diff, tmp_path / "far", {"padic": PADIC, "arch": far}) == 1
    assert "arch.json.report.checks[0].samples[0].lhs[0]" in capsys.readouterr().out


def test_missing_output_or_key_fails(report_diff, tmp_path):
    assert _verdict(report_diff, tmp_path / "file", {"padic": PADIC}) == 1
    dropped = copy.deepcopy(ARCH)
    del dropped["report"]["checks"][0]["samples"][0]["rhs_quadrature_error"]
    assert _verdict(report_diff, tmp_path / "key", {"padic": PADIC, "arch": dropped}) == 1


def test_unknown_revision_exits_2(report_diff, capsys):
    # one line naming the revision, not git's traceback, and not exit 1
    with pytest.raises(SystemExit) as exit_info:
        report_diff.main(["no-such-revision"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.strip().splitlines() == ["unknown revision: no-such-revision"]
