"""Tests of the benchmark itself: both correctness gates can fail, the trace
restores what it patches, and BENCHMARK.json names what the runs emit.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _control(checks, **cfg):
    cfg = cfg or {"field": "qp", "p": 3}
    return workloads.VerifyWorkload("control", "negative control", [{**cfg, "checks": list(checks)}])


def _run(workload, seed, tmp_path, perturb=None):
    return workload.run_pass(workload.build(seed, perturb), tmp_path)


@pytest.mark.parametrize(
    "checks, perturb",
    [
        (("gamma-kernel",), {"gamma_exponent_shift": "1/2"}),
        # the fiber check scales both of its sides by the measure factor, so
        # the fiber-measure knob is caught by the slice check it runs beside
        (("fiber", "slice"), {"fiber_measure_factor": 3}),
        (("equivariance",), {"equivariance_exponent_sign": -1}),
    ],
)
def test_perturbation_flips_fail_ratio(checks, perturb, tmp_path):
    wl = _control(checks)
    clean = workloads.gate([_run(wl, 13, tmp_path)])
    assert clean["attempted"] == len(checks) and clean["failed"] == 0
    broken = workloads.gate([_run(wl, 13, tmp_path, perturb)])
    assert broken["failed"] / broken["attempted"] > 0, broken


@pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="GaussianForm.integral overflows in cmath.exp on some fiber restrictions "
    "over R; arch-battery's R configs leave out these two checks until this passes",
)
@pytest.mark.parametrize("n, seeds", [(1, (31, 90)), (2, (2, 12))])
def test_real_battery_runs_clean(n, seeds, tmp_path):
    wl = _control(("equivariance", "fiber"), field="r", n=n)
    for seed in seeds:
        gate = workloads.gate([_run(wl, seed, tmp_path)])
        assert gate["failed"] == 0, gate["failures"]


@pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="at rand_gaussian's full phase the default Gauss-Hermite orders miss the "
    "tier-1 tolerance; tensor-quadrature scales the phase down until this passes",
)
def test_full_phase_misses_at_default_orders(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.QuadratureWorkload, "PHASE_SCALE", 1.0)
    wl = workloads.WORKLOADS["tensor-quadrature"]
    for seed in (79, 205):
        d5 = [item for item in wl.build(seed) if item[0] == "gaussian d=5"]
        records = wl.run_pass(d5, tmp_path)
        gate = workloads.gate([records])
        assert gate["failed"] == 0, gate["failures"]


def test_altered_reference_flips_mismatch_ratio(tmp_path):
    wl = _control(("gamma-kernel", "composition"), field="qp", p=2)
    records = _run(wl, 7, tmp_path)
    ref = workloads.reference_entries(records)
    assert workloads.compare([records], ref)["mismatched"] == 0

    altered = copy.deepcopy(records)
    rec = next(r for r in altered if r["key"].endswith("composition"))
    rec["payload"]["samples"][0]["pair"] += 1
    out = workloads.compare([records], workloads.reference_entries(altered))
    assert out["mismatched"] == 1 and out["mismatches"] == [rec["key"]]

    missing = dict(ref)
    missing["qp2 n=1 seed=8 :: check"] = {"exact": True, "sha256": {}}
    assert workloads.compare([records], missing)["mismatched"] == 1

    # a field the report adds beyond the reference is not compared
    grown = copy.deepcopy(records)
    grown[0]["payload"]["margin"] = 0.5
    assert workloads.compare([grown], ref)["mismatched"] == 0


def test_archimedean_tolerance(tmp_path):
    wl = _control(("gamma-kernel",), field="c")
    records = _run(wl, 7, tmp_path)
    ref = workloads.reference_entries(records)
    (key,) = ref
    for scale, mismatched in ((1 + 1e-12, 0), (1 + 1e-6, 1)):
        near = copy.deepcopy(ref)
        lhs = near[key]["payload"]["samples"][0]["lhs"]
        lhs[0] *= scale
        assert workloads.compare([records], near)["mismatched"] == mismatched


def test_second_pass_is_compared_without_reference(tmp_path):
    wl = _control(("rho-chain",))
    first, second = _run(wl, 11, tmp_path), _run(wl, 11, tmp_path)
    assert workloads.compare([first, second], None) == {
        "basis": "first pass", "compared": 1, "mismatched": 0, "mismatches": [],
    }
    second[0]["payload"]["samples"] = []
    assert workloads.compare([first, second], None)["mismatched"] == 1


def test_tracer_restores_every_attribute(tmp_path):
    import radonfourier
    from radonfourier import exactlinalg, hilbert, lattices, suite

    before = (
        exactlinalg.hnf_zp, hilbert.pointwise_mul, suite.compose_shell_stabilized,
        lattices.Coset.__dict__["affine_preimage"], radonfourier.integrate,
    )
    wl = _control(("composition", "estimate"), field="qp", p=2)
    inputs = wl.build(7)
    with tracing.Tracer() as tracer:
        assert exactlinalg.hnf_zp is not before[0]
        assert hilbert.pointwise_mul is not before[1]
        wl.run_pass(inputs, tmp_path)
    after = (
        exactlinalg.hnf_zp, hilbert.pointwise_mul, suite.compose_shell_stabilized,
        lattices.Coset.__dict__["affine_preimage"], radonfourier.integrate,
    )
    assert all(a is b for a, b in zip(before, after))
    metrics = tracer.metrics(1.0, 1.0, {})
    assert metrics["transforms.compose_shell_stabilized.calls"] > 0
    assert metrics["transforms.compose_shell_stabilized.points"] > 0
    assert metrics["exactlinalg.hnf_zp.calls"] > 0
    selfs = tracer.self_times()
    assert min(selfs) >= 0.0


def test_quadrature_nodes_and_integrand_time(tmp_path):
    wl = workloads.QuadratureWorkload("q", "small", dims=(2, 3))
    inputs = wl.build(3)
    with tracing.Tracer() as tracer:
        records = wl.run_pass(inputs, tmp_path)
    assert workloads.gate([records])["failed"] == 0
    m = tracer.metrics(1.0, 1.0, {})
    # order 60 / 66 at d = 2 and 28 / 34 at d = 3, each integral twice
    assert m["quadrature.integrate_gauss_hermite.nodes"] == 60**2 + 66**2 + 28**3 + 34**3
    assert m["quadrature.integrate_box.nodes"] == 60**2 + 66**2
    assert m["quadrature.estimate_node_share"] == pytest.approx(
        (2 * 60**2 + 28**3) / (2 * (60**2 + 66**2) + 28**3 + 34**3)
    )
    assert 0 < m["quadrature.integrate_gauss_hermite.integrand_s"] < m[
        "quadrature.integrate_gauss_hermite.s"
    ]


def test_integral_verdict():
    want = 0.5 + 0.25j
    assert workloads.integral_verdict(want + 1e-12, want, 1e-14)["ok"]
    assert not workloads.integral_verdict(want * (1 + 1e-6), want, 1e-12)["ok"]
    # a miss is a failure even when the program's own error estimate covers it
    flagged = workloads.integral_verdict(want + 5e-8, want, 1e-6)
    assert not flagged["ok"]
    assert workloads.gate([[{"key": "k", "not_applicable": False, **flagged}]]) == {
        "attempted": 1, "failed": 1, "failures": ["k: " + flagged["detail"]],
    }


def test_benchmark_json_names_what_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == tracing.per_layer_metric_names()
    for m in spec["per_layer"]:
        assert m["unit"] == tracing.unit_of(m["name"])
        assert m["better"] == tracing.better_of(m["name"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "padic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
