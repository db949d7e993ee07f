"""tools/ab_bench.py's summary of paired benchmark runs, on synthetic result
lines: medians and quartiles per side, the change against the bound,
"better" where the change wins 9 in 10 pairs by more than the parent's IQR,
and "unresolved" where the parent's own spread exceeds the bound and the
sides overlap; and the passes per run, read from synthetic result files."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "pass_ratio", "better": "higher", "bound": 0.01},
]


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lines(walls, pass_ratio=1.0):
    return [{"correct": True, "metrics": {"wall_s": {"value": w, "unit": "s"},
                                          "pass_ratio": {"value": pass_ratio, "unit": "ratio"}}}
            for w in walls]


def by_metric(rows):
    return {row["metric"]: row for row in rows}


def test_neutral_change_is_ok(ab_bench):
    parent = lines([1.00, 1.02, 0.98, 1.01, 0.99])
    change = lines([1.03, 1.01, 1.00, 0.97, 1.02])
    rows = by_metric(ab_bench.summarize(parent, change, END_TO_END))
    wall = rows["wall_s"]
    assert wall["verdict"] == "ok" and wall["pairs"] == 5
    assert wall["parent"] == (0.99, 1.00, 1.01) and wall["change"] == (1.00, 1.01, 1.02)
    assert wall["rel_change"] == pytest.approx(0.01)
    assert wall["better_pairs"] == 2
    assert rows["pass_ratio"]["verdict"] == "ok" and rows["pass_ratio"]["rel_change"] == 0.0


def test_slower_change_is_worse(ab_bench):
    parent = lines([1.00, 1.02, 0.98, 1.01, 0.99])
    change = lines([1.40, 1.42, 1.38, 1.41, 1.39])
    wall = by_metric(ab_bench.summarize(parent, change, END_TO_END))["wall_s"]
    assert wall["verdict"] == "worse" and wall["rel_change"] == pytest.approx(0.40)
    assert wall["better_pairs"] == 0


def test_lower_pass_ratio_is_worse(ab_bench):
    # a higher-is-better metric is worse when it falls
    rows = by_metric(ab_bench.summarize(lines([1.0] * 3), lines([1.0] * 3, 0.9), END_TO_END))
    assert rows["pass_ratio"]["verdict"] == "worse"
    assert rows["pass_ratio"]["rel_change"] == pytest.approx(0.1)


def test_wide_parent_spread_is_unresolved(ab_bench):
    # parent IQR/median 0.35 > 0.25: not even a 60 % slowdown is resolved
    parent = lines([0.19, 0.30, 0.24, 0.34, 0.20, 0.29])
    change = lines([0.40] * 6)
    wall = by_metric(ab_bench.summarize(parent, change, END_TO_END))["wall_s"]
    assert wall["parent_spread"] > 0.25 and wall["verdict"] == "unresolved"


PARENT_10 = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


@pytest.mark.parametrize(
    "change, verdict",
    [
        ([0.75] * 9 + [1.05], "better"),  # 9 of 10 pairs won
        ([0.75] * 9 + [0.98], "better"),  # 9 won, 1 tie
        ([0.75] * 8 + [1.05, 1.05], "ok"),  # 8 of 10 won
        ([0.75] * 8 + [1.02, 0.98], "ok"),  # 8 won, 2 ties: a tie is no win
        ([p - 0.015 for p in PARENT_10], "ok"),  # 10 won, median gap below the IQR
    ],
)
def test_better_needs_nine_wins_in_ten_beyond_the_parent_iqr(ab_bench, change, verdict):
    wall = by_metric(ab_bench.summarize(lines(PARENT_10), lines(change), END_TO_END))["wall_s"]
    assert wall["parent"][2] - wall["parent"][0] == pytest.approx(0.035)
    assert wall["verdict"] == verdict


def test_higher_is_better_metric_reads_better(ab_bench):
    rows = by_metric(ab_bench.summarize(lines([1.0] * 10, 0.9), lines([1.0] * 10), END_TO_END))
    assert rows["pass_ratio"]["verdict"] == "better" and rows["pass_ratio"]["better_pairs"] == 10


def test_wide_parent_spread_resolves_when_every_change_run_wins(ab_bench):
    # the parent's IQR/median 0.35 exceeds 0.25, but every change run beats
    # every parent run: the gain is resolved
    parent = lines([0.19, 0.30, 0.24, 0.34, 0.20, 0.29])
    wall = by_metric(ab_bench.summarize(parent, lines([0.10] * 6), END_TO_END))["wall_s"]
    assert wall["parent_spread"] > 0.25 and wall["verdict"] == "better"
    # one change run at 0.20 is slower than the parent's fastest, 0.19
    wall = by_metric(ab_bench.summarize(parent, lines([0.10] * 5 + [0.20]), END_TO_END))["wall_s"]
    assert wall["verdict"] == "unresolved"


def test_missing_metric_is_unresolved(ab_bench):
    parent = [{"correct": False}, {"correct": False}]
    rows = by_metric(ab_bench.summarize(parent, lines([1.0, 1.0]), END_TO_END))
    assert rows["wall_s"] == {"metric": "wall_s", "bound": 0.25, "verdict": "unresolved", "pairs": 0}


@pytest.mark.parametrize("argv, seed", [([], 7), (["--seed", "23"], 23)])
def test_seed_reaches_every_run(ab_bench, monkeypatch, capsys, argv, seed):
    # both sides of every pair run at the seed given, 7 when none is
    calls = []
    monkeypatch.setattr(ab_bench, "extract", lambda rev, dest: None)

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree == ab_bench.ROOT, workload, seed))
        return {"exit_code": 0, "line": lines([1.0])[0]}

    monkeypatch.setattr(ab_bench, "run_bench", fake_run)
    assert ab_bench.main(["HEAD", "--workload", "padic", "--pairs", "2", *argv]) == 0
    assert sorted(calls) == [(False, "padic", seed)] * 2 + [(True, "padic", seed)] * 2
    assert f"seed {seed}," in capsys.readouterr().out


def _result(tree, workload, seed, passes):
    path = tree / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"wall_s": {"median": 1.0, "n": passes}}))


def test_passes_come_from_the_result_file(ab_bench, tmp_path):
    # wall_s.n of the run's own result file; None when the run wrote none
    _result(tmp_path, "padic", 7, 11)
    _result(tmp_path, "padic", 8, 4)
    assert ab_bench.read_passes(tmp_path, "padic", 7) == 11
    assert ab_bench.read_passes(tmp_path, "padic", 8) == 4
    assert ab_bench.read_passes(tmp_path, "arch-battery", 7) is None


def test_run_bench_reads_only_its_own_result(ab_bench, tmp_path, monkeypatch):
    # a result file left by an earlier run is removed before the run starts
    _result(tmp_path, "padic", 7, 9)

    def fake(argv, cwd, **kw):
        if "--seed" in argv and argv[argv.index("--seed") + 1] == "7" and cwd == tmp_path:
            assert not ab_bench.result_path(tmp_path, "padic", 7).exists()
            _result(tmp_path, "padic", 7, 5)
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps({"correct": True}) + "\n")

    monkeypatch.setattr(ab_bench.subprocess, "run", fake)
    run = ab_bench.run_bench(tmp_path, "padic", 7, 1.0)
    assert run == {"exit_code": 0, "line": {"correct": True}, "passes": 5}


def test_passes_print_beside_peak_rss(ab_bench, monkeypatch, capsys):
    monkeypatch.setattr(ab_bench, "extract", lambda rev, dest: None)
    counts = iter([10, 12, 11, 13])

    def fake_run(tree, workload, seed, seconds):
        line = {"correct": True, "metrics": {"wall_s": {"value": 1.0}, "peak_rss_mb": {"value": 50.0}}}
        return {"exit_code": 0, "line": line, "passes": next(counts)}

    monkeypatch.setattr(ab_bench, "run_bench", fake_run)
    assert ab_bench.main(["HEAD", "--workload", "padic", "--pairs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    rss = next(i for i, line in enumerate(out) if line.startswith("peak_rss_mb"))
    # pair 1 runs the parent first, pair 2 the change first
    assert out[rss + 1].split() == ["passes", "per", "run:", "parent", "[10,", "13]", "change", "[12,", "11]"]
