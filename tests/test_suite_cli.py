import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from radonfourier import (
    LFunction, complex_field, fourier, function_from_json, inner_X, intertwine_I, padic_field,
    real_field, space_X,
)
from radonfourier import sampling, suite, transforms
from radonfourier.cli import main
from radonfourier.geometry import as_matrix, mdet, mmul
from radonfourier.hilbert import _input_json
from radonfourier.sampling import default_a_grid
from radonfourier.suite import (
    CHECKS,
    SuiteConfig,
    explain_check,
    report_to_json,
    run_suite,
)


# the compute specs the CI workflow runs, and the SHA-256 digests of the
# outputs it checks
COMPUTE_SPECS = Path(__file__).parent / "data" / "compute"
COMPUTE_DIGESTS = {
    name: digest for digest, name in (
        line.split() for line in (COMPUTE_SPECS / "SHA256SUMS").read_text().splitlines()
    )
}
OPS_R = json.loads((COMPUTE_SPECS / "ops_r.json").read_text())


def small_cfg(**kw):
    base = dict(field="qp", p=3, n=1, seed=13, samples=12)
    base.update(kw)
    return SuiteConfig(**base)


def test_run_suite_passes():
    rep = run_suite(small_cfg(checks=("gamma-kernel", "unitarity", "fiber")))
    assert rep["pass"]
    names = [c["check"] for c in rep["checks"]]
    assert names == sorted(names)


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_suite(small_cfg(checks=("bogus",)))
    with pytest.raises(ValueError):
        SuiteConfig.from_json({"field": "r", "nope": 1})


def test_default_a_grid_square_and_invertible():
    """Every grid matrix is n x n and invertible for n = 1..4, and the
    unitarity check runs on the grid at n = 3 over R and C."""
    for fd in (real_field(), complex_field(), padic_field(2)):
        for n in range(1, 5):
            for a in default_a_grid(n, fd):
                assert np.shape(a) == (n, n) and mdet(a, fd) != 0
    for field in ("r", "c"):
        rep = run_suite(SuiteConfig(field=field, n=3, samples=2, checks=("unitarity",)))
        assert rep["pass"], rep["checks"][0].get("error")


def test_determinism_byte_identical_samples():
    cfg = small_cfg(checks=("gamma-kernel", "slice", "composition"))
    r1 = run_suite(cfg)
    r2 = run_suite(cfg)

    def sections(rep):
        return json.dumps(
            [{k: v for k, v in c.items() if k != "runtime_s"} for c in rep["checks"]],
            sort_keys=True,
        ).encode()

    assert sections(r1) == sections(r2)


def test_negative_control_gamma_exponent():
    for shift in ("1/2", "-1/2"):
        rep = run_suite(
            small_cfg(checks=("gamma-kernel",), perturb={"gamma_exponent_shift": shift})
        )
        assert not rep["pass"]
        # the failing record carries a replayable counterexample
        bad = rep["checks"][0]
        assert any(not s.get("exact_equal", True) for s in bad["samples"])


def test_negative_control_fiber_measure():
    rep = run_suite(
        small_cfg(checks=("slice",), perturb={"fiber_measure_factor": 3})
    )
    assert not rep["pass"]


@pytest.mark.parametrize("field, p", [("r", None), ("c", None), ("qp", 2)])
def test_fiber_check_does_not_read_the_measure_knob(field, p):
    """The fiber check compares intertwine_I over two parametrizations of one
    fiber; scaling both by the knob would test nothing, so its records stay
    those of the clean run, and the slice check is the knob's catcher."""
    cfg = dict(field=field, p=p, n=1, seed=7, samples=4, checks=["fiber"])
    clean = _check_records(SuiteConfig(**cfg))
    assert _check_records(SuiteConfig(**cfg, perturb={"fiber_measure_factor": 3})) == clean


@pytest.mark.xfail(
    strict=True,
    reason="slice at Q_2 n=2 draws only y with F f(y) = 0, so it passes on nothing; "
    "drawing other y changes the padic benchmark reference",
)
def test_negative_control_fiber_measure_qp2_n2():
    rep = run_suite(
        SuiteConfig(field="qp", p=2, n=2, seed=7, checks=["slice"], perturb={"fiber_measure_factor": 2})
    )
    assert not rep["pass"]


def test_negative_control_equivariance_sign():
    rep = run_suite(
        small_cfg(checks=("equivariance",), perturb={"equivariance_exponent_sign": -1})
    )
    assert not rep["pass"]


def test_composition_fails_without_a_stabilized_pair(monkeypatch):
    """Shells cut at k = 1 leave no room for two empty shells: no pair
    stabilizes, each is recorded with its certificate alone, and the record,
    which then tests no composition, fails.  With every other pair cut, the
    stabilized half decides: each of its pairs matches, so the record passes."""
    real = suite.compose_shell_stabilized

    def cut(every):
        calls = []

        def compose(f, y, k_max):
            calls.append(None)
            return real(f, y, 1 if len(calls) % every == 0 else k_max)
        return compose

    monkeypatch.setattr(suite, "compose_shell_stabilized", cut(1))
    rep = run_suite(SuiteConfig(field="qp", p=3, checks=["composition"]))
    rec = rep["checks"][0]
    assert not rep["pass"] and not rec["pass"]
    assert rec["stabilized_matches"] == 0 and len(rec["samples"]) == 12
    for row in rec["samples"]:
        assert set(row) == {"pair", "stabilized", "certificate"} and row["stabilized"] is False
        cert = row["certificate"]
        assert not cert["stabilized"] and cert["stabilization_radius"] is None
        assert [shell["k"] for shell in cert["shells"]] == [0, 1]
    monkeypatch.setattr(suite, "compose_shell_stabilized", cut(2))
    rec = run_suite(SuiteConfig(field="qp", p=3, checks=["composition"]))["checks"][0]
    assert rec["pass"] and rec["stabilized_matches"] == 6
    assert [row["stabilized"] for row in rec["samples"]] == [True, False] * 6


def test_rho_chain_keeps_failing_rows(monkeypatch):
    """A weight off by 1 % at the 37th sample fails the record, and its row is
    kept beyond the first ten, marked with the failing comparison; the passing
    rows stay those of the clean run."""
    cfg = SuiteConfig(field="qp", p=3, checks=["rho-chain"])
    clean = run_suite(cfg)["checks"][0]
    real = suite.rho_weight
    calls = []

    def skewed(diag, n, fd):
        calls.append(None)
        return real(diag, n, fd) * (1.01 if len(calls) == 37 else 1)

    monkeypatch.setattr(suite, "rho_weight", skewed)
    rec = run_suite(cfg)["checks"][0]
    assert clean["pass"] and len(clean["samples"]) == 10
    assert not rec["pass"] and rec["samples"][:10] == clean["samples"]
    (bad,) = rec["samples"][10:]
    assert bad["chain_ok"] is True and bad["weight_ok"] is False
    assert bad["weight"] == pytest.approx(1.01 * bad["weight_expected"], rel=1e-9)


@pytest.mark.parametrize("field, p, n, name", [("qp", 3, 1, "gamma_n"), ("r", None, 2, "abs_norm")])
def test_gamma_kernel_keeps_failing_rows(monkeypatch, field, p, n, name):
    """A left side doubled at the 37th sample fails the record, and that
    sample's row is kept beyond the first ten; the passing rows stay those of
    the clean run.  Over Q_3 the skew goes through gamma_n, over R through
    the 37th |det a| (its exponent (1-n)/2 is 0 at n = 1, hence n = 2)."""
    cfg = SuiteConfig(field=field, p=p, n=n, checks=["gamma-kernel"])
    clean = run_suite(cfg)["checks"][0]
    real = getattr(transforms, name)
    calls = []

    def skewed(*args):
        calls.append(None)
        return real(*args) * (2 if len(calls) == 37 else 1)

    monkeypatch.setattr(transforms, name, skewed)
    rec = run_suite(cfg)["checks"][0]
    assert clean["pass"] and len(clean["samples"]) == 10
    assert not rec["pass"] and rec["samples"][:10] == clean["samples"]
    (bad,) = rec["samples"][10:]
    rng = suite._rng_for(cfg, "gamma-kernel")
    samples = [sampling.rand_gl(rng, n, cfg.fd) for _ in range(37)]
    assert bad["input"] == _input_json(samples[36], cfg.fd)
    if p is None:
        lhs, rhs = complex(*bad["lhs"]), complex(*bad["rhs"])
        assert bad["pass"] is False and abs(lhs) == pytest.approx(abs(rhs) / 2**0.5, rel=1e-9)
    else:
        assert bad["exact_equal"] is False


@pytest.mark.parametrize("field, p", [("r", None), ("c", None), ("qp", 2), ("qp", 3)])
@pytest.mark.parametrize("pairing", ["inner_X", "inner_Xbar"])
def test_unitarity_sees_an_unconjugated_pairing(monkeypatch, field, p, pairing):
    """A pairing that does not conjugate f, here the true one applied to
    conj(f), fails unitarity through the twisted rows alone: the default f is
    real, so its rows stay those of the clean run."""
    cfg = SuiteConfig(field=field, p=p, checks=["unitarity"])
    clean = run_suite(cfg)["checks"][0]
    real = getattr(transforms, pairing)
    monkeypatch.setattr(transforms, pairing, lambda f, h: real(f.conjugate(), h))
    rec = run_suite(cfg)["checks"][0]
    assert clean["pass"] and not rec["pass"] and rec["samples"] == clean["samples"]
    failing = [row for row in rec["twisted"]
               if row.get("exact_equal") is False or row.get("abs_err", 0) > cfg.tol]
    assert failing and len(rec["twisted"]) == len(clean["twisted"])


@pytest.mark.parametrize("field, p", [("r", None), ("qp", 2)])
def test_equivariance_fails_on_the_module_form_alone(monkeypatch, field, p):
    """F(f).a doubled mis-wires only the module form F(f.a) = F(f).a: the
    scaling law's sides still agree in every row, and the rows fail through
    the module form, over R by its residual, over Q_p by exact_equal."""
    cfg = SuiteConfig(field=field, p=p, checks=["equivariance"])
    assert run_suite(cfg)["pass"]
    real = transforms.act_module_Xbar
    monkeypatch.setattr(transforms, "act_module_Xbar", lambda f, a: real(f, a).scale(2))
    rec = run_suite(cfg)["checks"][0]
    laws = [r for r in rec["samples"] if r["check"] == "fourier-equivariance"]
    assert not rec["pass"] and laws and not any(r["pass"] for r in laws)
    rows = [row for r in laws for row in r["samples"]]
    if p is None:
        assert all(row["abs_err"] <= cfg.tol for row in rows)
        assert any(row["module_form_err"] > cfg.tol for row in rows)
    else:
        assert all(row["lhs"] == row["rhs"] for row in rows)
        assert any(row["exact_equal"] is False for row in rows)


@pytest.mark.parametrize("field, p", [("r", None), ("qp", 2)])
def test_fiber_failing_rows_carry_the_input(monkeypatch, field, p):
    """Completions of determinant 2 (or p) rescale the fiber measure: the
    rows that then fail name their sampled y, and replaying I(f)(y) on the
    two completions shows the disagreement.  Clean rows carry no input."""
    cfg = SuiteConfig(field=field, p=p, samples=4, checks=["fiber"])
    fd = cfg.fd
    clean = run_suite(cfg)["checks"][0]
    scale = as_matrix([[1, 0], [0, fd.p or 2]], fd)
    real = suite.fiber_param

    def skewed(y, n, fd, rng=None):
        return mmul(real(y, n, fd, rng=rng), scale, fd)

    monkeypatch.setattr(suite, "fiber_param", skewed)
    rec = run_suite(cfg)["checks"][0]
    assert clean["pass"] and all("input" not in row for row in clean["samples"])
    assert not rec["pass"]
    f = suite._default_function(cfg)
    failing = [row for row in rec["samples"] if "input" in row]
    assert failing
    for row in failing:
        y = as_matrix([[Fraction(e) if p else e for e in r] for r in row["input"]], fd)
        base, other = intertwine_I(f, y), intertwine_I(f, y, fiber=skewed(y, 1, fd))
        assert (abs(other - base) > 1e-10) if p is None else other != base


@pytest.mark.parametrize("field", ["r", "c"])
def test_unitarity_failing_rows_carry_both_sides(monkeypatch, field):
    """A doubled X-side pairing fails every archimedean unitarity row; each
    row names its a and both sides as [re, im], which replay the failure
    against the true pairing."""
    cfg = SuiteConfig(field=field, checks=["unitarity"])
    real = transforms.inner_X

    def doubled(f, h):
        pairing = real(f, h)
        return LFunction(lambda a: 2 * pairing(a), pairing.provenance)

    monkeypatch.setattr(transforms, "inner_X", doubled)
    rec = run_suite(cfg)["checks"][0]
    assert not rec["pass"] and rec["samples"]
    f = suite._default_function(cfg)
    for row in rec["samples"]:
        lhs, rhs = complex(*row["lhs"]), complex(*row["rhs"])
        want = inner_X(f, f)(as_matrix(row["input"], cfg.fd))
        assert lhs == pytest.approx(want, rel=1e-9) and rhs == pytest.approx(2 * want, rel=1e-9)
        assert row["abs_err"] == pytest.approx(abs(lhs - rhs), rel=1e-12) and row["abs_err"] > cfg.tol


@pytest.mark.parametrize("field", ["r", "c"])
def test_intertwine_rows_name_both_sides(field):
    """Each archimedean intertwine-equivariance row carries both sides of
    both laws as [re, im], and each residual is their distance."""
    rec = run_suite(SuiteConfig(field=field, samples=4, checks=["equivariance"]))["checks"][0]
    (inter,) = [r for r in rec["samples"] if r["check"] == "intertwine-equivariance"]
    for row in inter["samples"]:
        for law in "ga":
            lhs, rhs = complex(*row[f"{law}_lhs"]), complex(*row[f"{law}_rhs"])
            assert row[f"{law}_side_err"] == pytest.approx(abs(lhs - rhs), rel=1e-12, abs=1e-300)


def test_raising_check_is_a_failed_record(monkeypatch, capsys):
    """A check that raises becomes a failing record naming the exception; the
    other checks still run, and verify exits 1."""
    def boom(cfg, rng):
        raise RuntimeError("boom")

    monkeypatch.setitem(suite.CHECKS, "rho-chain", suite.CHECKS["rho-chain"]._replace(run=boom))
    rep = run_suite(small_cfg(checks=("gamma-kernel", "rho-chain", "unitarity")))
    by_name = {c["check"]: c for c in rep["checks"]}
    assert by_name["rho-chain"]["pass"] is False
    assert by_name["rho-chain"]["error"] == "RuntimeError: boom"
    assert by_name["gamma-kernel"]["pass"] and by_name["unitarity"]["pass"]
    assert not rep["pass"]
    capsys.readouterr()
    assert main(["verify", "rho-chain", "gamma-kernel", "--field", "qp", "--p", "3", "--samples", "10"]) == 1
    err = capsys.readouterr().err
    assert "[FAIL] rho-chain" in err and "[PASS] gamma-kernel" in err


def test_explain():
    assert sorted(CHECKS) == [
        "composition", "equivariance", "estimate", "fiber", "gamma-kernel", "rho-chain", "slice",
        "truncation", "unitarity",
    ]
    for name, check in CHECKS.items():
        text = explain_check(name)
        assert text == check.explanation and isinstance(text, str) and len(text) > 40
    with pytest.raises(KeyError):
        explain_check("nope")


ARCH_PADIC = "shell stabilization is a p-adic operation"
SHELLS_GROW = "shell enumeration grows like p^(n k); the suite exercises the n = 1 surface"
REAL_N1 = "truncation diagnostics run on the real n=1 case"


@pytest.mark.parametrize("field, p, n, composition, truncation", [
    ("r", None, 1, ARCH_PADIC, None),
    ("r", None, 2, ARCH_PADIC, REAL_N1),
    ("c", None, 1, ARCH_PADIC, REAL_N1),
    ("c", None, 2, ARCH_PADIC, REAL_N1),
    ("qp", 2, 1, None, REAL_N1),
    ("qp", 2, 2, SHELLS_GROW, REAL_N1),
    ("qp", 3, 1, None, REAL_N1),
    ("qp", 3, 2, SHELLS_GROW, REAL_N1),
    ("qp", 5, 1, None, REAL_N1),
], ids=["R", "R-n2", "C", "C-n2", "Q2", "Q2-n2", "Q3", "Q3-n2", "Q5"])
def test_not_applicable_records(field, p, n, composition, truncation):
    """Which composition and truncation records are not applicable, and why:
    composition's archimedean reason comes before its n > 1 reason.  A check
    that applies runs and passes, with no reason in its record."""
    rep = run_suite(SuiteConfig(field=field, p=p, n=n, samples=6, checks=("composition", "truncation")))
    for rec, reason in zip(rep["checks"], (composition, truncation)):
        assert rec.get("not_applicable") == reason and rec["pass"] is True
        assert (rec["samples"] == []) == (reason is not None)


def test_report_serialization_stable():
    rep = run_suite(small_cfg(checks=("gamma-kernel",)))
    s1 = report_to_json(rep)
    s2 = report_to_json(rep)
    assert s1 == s2
    parsed = json.loads(s1)
    assert parsed["suite"]["field"] == "qp"


# -- command line ---------------------------------------------------------


def test_cli_verify_named_check(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(
        [
            "verify", "gamma-kernel", "--field", "qp", "--p", "3", "--n", "1",
            "--seed", "3", "--samples", "10", "--out", str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["pass"]


def test_cli_unwritable_out(tmp_path, capsys, monkeypatch):
    """An --out in a missing directory, or one that is a directory, is a
    configuration error that names the path, before anything runs."""
    import radonfourier.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("ran despite an unwritable --out")

    monkeypatch.setattr(cli, "run_suite", never)
    monkeypatch.setattr(cli, "_compute", never)
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps({"field": "r", "f": {"type": "gaussian"}, "y": [[1.0, 0.0]]}))
    missing = str(tmp_path / "nowhere" / "x.json")
    for out, named in ((missing, f"--out {missing}: no directory"), (str(tmp_path), "is a directory")):
        for argv in (
            ["verify", "--field", "c", "rho-chain", "--out", out],
            ["compute", "intertwine", "--input", str(inp), "--out", out],
        ):
            capsys.readouterr()
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
            assert named in captured.err, captured.err


def test_cli_verify_fail_exit_code(tmp_path):
    cfg = {
        "field": "qp",
        "p": 3,
        "n": 1,
        "seed": 3,
        "samples": 8,
        "checks": ["gamma-kernel"],
        "perturb": {"gamma_exponent_shift": "1/2"},
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    code = main(["verify", "--config", str(cfgfile)])
    assert code == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    assert main(["verify", "--field", "qp"]) == 2  # missing p
    bad = tmp_path / "bad.json"
    bad.write_text("{\"field\": \"r\", \"whatever\": 1}")
    assert main(["verify", "--config", str(bad)]) == 2
    assert main(["verify", "bogus-check", "--field", "r"]) == 2
    assert main(["explain", "bogus"]) == 2

    # sizes and sample counts must be integers >= 1; nothing runs otherwise
    for argv in (
        ["verify", "gamma-kernel", "--field", "r", "--n", "0"],
        ["verify", "gamma-kernel", "--field", "r", "--n", "-1"],
        ["verify", "--field", "qp", "--p", "2", "--samples", "0"],
        ["verify", "truncation", "--field", "r", "--m-max", "0"],
        ["verify", "composition", "--field", "qp", "--p", "3", "--k-max", "0"],
        # seeds are integers >= 0, and --p needs --field qp
        ["verify", "gamma-kernel", "--field", "r", "--seed", "-3"],
        ["verify", "--seed", "-3"],
        ["verify", "--p", "5", "gamma-kernel"],
        ["verify", "gamma-kernel", "--field", "r", "--p", "5"],
        # an unknown flag, a malformed flag value and a missing argument are
        # config errors too
        ["verify", "--bogus", "1"],
        ["verify", "--n", "x"],
        ["verify", "--field", "z"],
        ["compute", "fourier"],
        [],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, argv
    with pytest.raises(SystemExit) as exc:
        main(["verify", "-h"])  # help is not an error
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage:")
    badcfg = tmp_path / "bad_size.json"
    for cfg in (
        {"field": "qp", "p": 3, "samples": 0},
        {"field": "qp", "p": 3, "n": 1.5},
        # a misspelled perturbation key must not run the unperturbed check
        {"field": "r", "checks": ["gamma-kernel"], "perturb": {"gamma_exponent_shfit": "1/2"}},
        {"field": "qp", "p": 3, "checks": ["gamma-kernel"], "perturb": {"gamma_exponent_shift": "x"}},
        {"field": "qp", "p": 3, "perturb": {"equivariance_exponent_sign": 0}},
        {"field": "r", "checks": ["slice"], "tol": -1},
        {"field": "r", "checks": ["slice"], "tol": "abc"},
        {"field": "r", "checks": ["slice"], "tol": float("nan")},
        {"field": "r", "checks": ["slice"], "tol_exact": True},
        {"field": "r", "checks": ["slice"], "seed": 1.5},
        {"field": "r", "checks": "slice"},
        {"field": "r", "functions": [{"type": "gaussian", "Q": [[1.0, 0.0], [0.0, 1.0]]}]},
        # an empty list names no suite, so it must not pass on nothing
        [],
    ):
        badcfg.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert main(["verify", "--config", str(badcfg)]) == 2, cfg
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, cfg

    # --config stands alone: a flag or check name beside it is named, not dropped
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"field": "r", "checks": ["slice"], "samples": 3}))
    for extra, named in (
        (["--seed", "8", "--samples", "0"], "--samples, --seed"),
        (["--field", "c"], "--field"),
        (["--p", "5"], "--p"),
        (["--n", "2"], "--n"),
        (["--tol", "1e-3"], "--tol"),
        (["slice"], "check names"),
    ):
        capsys.readouterr()
        assert main(["verify", "--config", str(good), *extra]) == 2, extra
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, extra
        assert err.rstrip().endswith(named), (extra, err)
    out = tmp_path / "rep.json"
    assert main(["verify", "--config", str(good), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["suite"]["samples"] == 3

    # malformed compute specs exit 2 with one line, not a traceback
    gauss = {"type": "gaussian", "Q": [[1.0, 0.0], [0.0, 1.0]], "kappa": 1.0}
    ball = {"type": "sb", "terms": [{"coeff": "1", "center": ["0", "0"], "basis": [["1", "0"], ["0", "1"]]}]}
    for op, spec in (
        ("fourier", {"field": "r", "n": 1, "f": {"type": "nope"}}),
        ("intertwine", {"field": "r", "n": 1, "f": gauss, "y": [[0.0, 0.0]]}),
        ("intertwine", {"field": "r", "n": 1, "f": gauss, "y": [[1.0], [0.0]]}),
        ("intertwine", {"field": "r", "n": 1, "y": [[1.0, 0.0]]}),
        ("fourier", [gauss]),
        ("fourier", {"field": "r", "n": 1, "f": {"type": "product", "of": []}}),
        # n and p follow verify's rules: no rounding, no booleans, no strings, p only with qp
        ("intertwine", {"field": "r", "n": 1.5, "f": gauss, "y": [[1.0, 0.0]]}),
        ("intertwine", {"field": "r", "n": True, "f": gauss, "y": [[1.0, 0.0]]}),
        ("intertwine", {"field": "r", "n": "1", "f": gauss, "y": [[1.0, 0.0]]}),
        ("intertwine", {"field": "r", "n": 0, "f": gauss, "y": [[1.0, 0.0]]}),
        ("fourier", {"field": "qp", "p": "3", "n": 1, "f": ball}),
        ("fourier", {"field": "qp", "p": 3.0, "n": 1, "f": ball}),
        ("intertwine", {"field": "r", "p": 5, "n": 1, "f": gauss, "y": [[1.0, 0.0]]}),
    ):
        inp = tmp_path / "spec.json"
        inp.write_text(json.dumps(spec))
        capsys.readouterr()
        assert main(["compute", op, "--input", str(inp)]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:"), spec
        assert captured.err.count("\n") == 1, spec


def test_cli_compute_malformed_numbers(tmp_path, capsys):
    """Short [re, im] pairs, non-finite numbers, zero denominators, JSON
    booleans, pairs on a field without them, vectors of the wrong length, an
    sb terms, product of, points or a_grid value that is not a list, a ragged
    Q or y, a Q of the wrong size, an sb basis of the wrong shape or rank, a
    singular a_grid entry, a rank-deficient y and an sb spec off Q_p exit 2
    with one line naming the field, at the JSON boundary."""
    gauss = {"type": "gaussian", "Q": [[1.0, 0.0], [0.0, 1.0]]}
    gauss_c = {"type": "gaussian", "Q": np.eye(4).tolist()}
    y = [[1.0, 0.0]]

    def sb(center):
        return {"type": "sb", "terms": [{"coeff": "1", "center": center, "basis": [["1", "0"], ["0", "1"]]}]}

    qp = {"field": "qp", "p": 3, "f": sb(["0", "0"])}

    def qp_term(**entries):
        term = {"coeff": "1", "center": ["0", "0"], "basis": [["1", "0"], ["0", "1"]], **entries}
        return {"field": "qp", "p": 3, "f": {"type": "sb", "terms": [term]}}

    for op, spec, named in (
        ("intertwine", {"field": "r", "f": dict(gauss, kappa=[1.0]), "y": y}, "kappa"),
        ("intertwine", {"field": "r", "f": dict(gauss, kappa=[1.0, 0.0, 2.0]), "y": y}, "kappa"),
        ("intertwine", {"field": "r", "f": dict(gauss, ell=[[0.5], 0.0]), "y": y}, "ell"),
        ("intertwine", {"field": "c", "f": gauss_c, "y": [[[1.0], [0.0, 0.0]]]}, "y entry"),
        ("fourier", {"field": "c", "f": gauss_c, "points": [[[[1.0, 0.0], [0.0]]]]}, "points entry"),
        ("intertwine", {"field": "r", "f": dict(gauss, kappa=1e400), "y": y}, "kappa"),
        ("intertwine", {"field": "r", "f": dict(gauss, kappa=[1.0, -1e400]), "y": y}, "kappa"),
        ("fourier", {"field": "r", "f": dict(gauss, ell=[1e400, 0.0])}, "ell"),
        ("intertwine", {"field": "r", "f": dict(gauss, ell=[0.0, 0.0, 0.0]), "y": y}, "ell"),
        ("fourier", {"field": "r", "f": dict(gauss, ell=[0.0])}, "ell"),
        ("fourier", {"field": "qp", "p": 3, "f": sb(["0"])}, "center"),
        ("fourier", {"field": "qp", "p": 3, "f": sb(["0", "0", "1/3"])}, "center"),
        # matrix entries of y, points and a_grid
        ("intertwine", dict(qp, y=[[1e400, 0]]), "y entry"),
        ("intertwine", dict(qp, y=[[float("nan"), 0]]), "y entry"),
        ("intertwine", dict(qp, y=[["1/0", "0"]]), "y entry"),
        ("intertwine", dict(qp, y=[[[1.0, 0.5], 0]]), "y entry"),
        ("fourier", dict(qp, points=[[["0", "1/0"]]]), "points entry"),
        ("intertwine", {"field": "r", "f": gauss, "y": [["1/0", 0.0]]}, "y entry"),
        ("intertwine", {"field": "r", "f": gauss, "y": [[1e400, 0.0]]}, "y entry"),
        ("intertwine", {"field": "r", "f": gauss, "y": [["1e400", 0.0]]}, "y entry"),
        ("intertwine", {"field": "r", "f": gauss, "y": [[float("nan"), 0.0]]}, "y entry"),
        ("intertwine", {"field": "r", "f": gauss, "y": [[[1.0, 0.5], 0.0]]}, "y entry"),
        ("inner-product", {"field": "r", "f": gauss, "h": gauss, "a_grid": [[[1e400]]]}, "a_grid entry"),
        ("intertwine", {"field": "c", "f": gauss_c, "y": [[float("nan"), 0.0]]}, "y entry"),
        # a ragged or wrong-sized matrix is named, with the shape Q needs
        ("intertwine", {"field": "r", "f": dict(gauss, Q=[[1.0, 0.0], [0.0]]), "y": y}, "Q must be a rectangular"),
        ("intertwine", {"field": "r", "f": gauss, "y": [[1.0, 0.0], [1.0]]}, "y must be a rectangular"),
        ("intertwine", {"field": "r", "f": dict(gauss, Q=[[1.0]]), "y": y}, "Q must be a 2x2 matrix"),
        # sb numbers and the terms list
        ("fourier", qp_term(coeff="1/0"), "coeff"),
        ("fourier", qp_term(center=["1/0", "0"]), "center"),
        ("fourier", qp_term(basis=[["1/0", "0"], ["0", "1"]]), "basis"),
        ("fourier", qp_term(coeff=1e400), "coeff"),
        ("fourier", {"field": "qp", "p": 3, "f": {"type": "sb", "terms": "x"}}, "terms"),
        # an sb basis of the wrong shape or rank is named
        ("fourier", qp_term(basis=[["1", "0"], ["0", "0"]]), "sb basis must generate a full lattice"),
        ("fourier", qp_term(basis=[["1"], ["0"]]), "sb basis must generate a full lattice"),
        ("fourier", qp_term(basis=[["1", "0"]]), "sb basis must be a rectangular matrix with 2 rows"),
        ("fourier", qp_term(basis=[["1", "0"], ["0"]]), "sb basis must be a rectangular matrix"),
        ("fourier", qp_term(coeff={"conductor": 1e400, "coeffs": ["1"]}), "conductor"),
        ("fourier", qp_term(coeff={"conductor": 1, "coeffs": []}), "conductor"),
        # a product's of, points and a_grid must be lists
        ("fourier", {"field": "r", "f": {"type": "product", "of": 5}}, "product of must be a JSON array"),
        ("fourier", {"field": "r", "f": gauss, "points": 5}, "points must be a JSON array"),
        ("inner-product", {"field": "r", "f": gauss, "h": gauss, "a_grid": 5}, "a_grid must be a JSON array"),
        # a singular a_grid entry is named by its index
        ("inner-product", {"field": "r", "f": gauss, "h": gauss, "a_grid": [[[0]]]}, "a_grid[0]"),
        ("inner-product", {"field": "c", "f": gauss_c, "h": gauss_c, "a_grid": [[[1.0]], [[[0.0, 0.0]]]]}, "a_grid[1]"),
        ("inner-product", dict(qp, h=qp["f"], a_grid=[[["1/3"]], [["0"]]]), "a_grid[1]"),
        ("inner-product", {"field": "r", "n": 2, "f": {"type": "gaussian"}, "h": {"type": "gaussian"},
                           "a_grid": [[[1, 2], [2, 4]]]}, "a_grid[0]"),
        # a rank-deficient y is named
        ("intertwine", {"field": "r", "f": gauss, "y": [[0, 0]]}, "y must be regular"),
        ("intertwine", {"field": "r", "n": 2, "f": {"type": "gaussian"}, "y": [[1, 2, 3], [2, 4, 6]]},
         "y must be regular"),
        ("intertwine", dict(qp, y=[["0", "0"]]), "y must be regular"),
        # a JSON true or false is not a number
        ("intertwine", {"field": "r", "f": dict(gauss, kappa=True), "y": y}, "kappa"),
        ("intertwine", {"field": "r", "f": dict(gauss, Q=[[True, False], [False, True]]), "y": y}, "Q"),
        ("intertwine", {"field": "r", "f": dict(gauss, ell=[True, 0.0]), "y": y}, "ell"),
        ("fourier", qp_term(coeff=True), "coeff"),
        ("fourier", qp_term(center=[False, "0"]), "center"),
        ("fourier", qp_term(basis=[[True, "0"], ["0", "1"]]), "basis"),
        ("intertwine", {"field": "r", "f": gauss, "y": [[True, False]]}, "y entry"),
        ("intertwine", dict(qp, y=[[True, 0]]), "y entry"),
        ("fourier", {"field": "r", "f": gauss, "points": [[[True, 0.0]]]}, "points entry"),
        ("inner-product", {"field": "r", "f": gauss, "h": gauss, "a_grid": [[[True]]]}, "a_grid entry"),
        # an sb spec off Q_p is refused before any term is read
        ("fourier", {"field": "r", "f": sb(["0", "0"])}, "live on p-adic spaces"),
        ("fourier", {"field": "c", "f": sb(["0", "0"])}, "live on p-adic spaces"),
    ):
        inp = tmp_path / "spec.json"
        # json.dumps writes 1e400 (inf) as Infinity; the number is what a user
        # writes.  NaN stays: Python's json module reads it
        inp.write_text(json.dumps(spec).replace("Infinity", "1e400"))
        capsys.readouterr()
        assert main(["compute", op, "--input", str(inp)]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == "", spec
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1, spec
        assert named in captured.err, (spec, captured.err)


def test_cli_compute_fourier(tmp_path):
    spec = {
        "field": "qp",
        "p": 3,
        "n": 1,
        "f": {
            "type": "sb",
            "terms": [
                {"coeff": "1", "center": ["0", "0"], "basis": [["1", "0"], ["0", "1"]]}
            ],
        },
        "points": [[["1", "0"]]],
    }
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    assert main(["compute", "fourier", "--input", str(inp), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["values"][0]["cyclotomic"]["coeffs"] == ["1/1"]


@pytest.mark.parametrize("field", ["r", "c"])
def test_cli_compute_fourier_gaussian(tmp_path, field):
    """A Gaussian transform is written as a spec that reads back to itself,
    and over C the standard Gaussian's transform is exp(-pi |y|^2)."""
    if field == "r":
        spec = {**OPS_R, "points": [[[1.0, 0.5]], [[-0.3, 2.0]]]}
    else:
        spec = {"field": "c", "n": 1, "f": {"type": "gaussian"}, "points": [[[[1.0, 0.5], [0.0, 0.0]]]]}
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    assert main(["compute", "fourier", "--input", str(inp), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    fd = real_field() if field == "r" else complex_field()
    X = space_X(1, fd)
    want = fourier(function_from_json(spec["f"], X))
    got = function_from_json(rep["transform"], X.transpose_space())
    assert np.array_equal(got.Q, want.Q) and got.kappa == want.kappa and np.array_equal(got.ell, want.ell)
    for pt, val in zip(spec["points"], rep["values"]):
        y = np.array([[complex(*z) if field == "c" else z for z in row] for row in pt])
        assert complex(*val) == want.value(y) == got.value(y)
    if field == "c":
        assert abs(complex(*rep["values"][0]) - np.exp(-np.pi * 1.25)) < 1e-12


def _compute_output(capsys, op, stem):
    """The bytes ``compute op`` writes for tests/data/compute/<stem>.json."""
    capsys.readouterr()
    assert main(["compute", op, "--input", str(COMPUTE_SPECS / f"{stem}.json")]) == 0
    return capsys.readouterr().out.encode()


def test_cli_compute_fourier_bytes(capsys):
    """The transform of the two-term Q_3 sb spec (coefficient conductors 1 to
    81) keeps its bytes; the workflow checks the same digest."""
    out = _compute_output(capsys, "fourier", "sb_q3")
    assert hashlib.sha256(out).hexdigest() == COMPUTE_DIGESTS["fourier-sb_q3.json"]


def test_cli_compute_intertwine_inner_product_bytes(capsys):
    """compute intertwine and inner-product write bare closed-form or exact
    values: the Q_3 outputs keep their bytes (the workflow checks the same
    digests), and the R outputs their key sets."""
    for stem, op in (("ops_q3", "intertwine"), ("ops_q3", "inner-product"),
                     ("ops_r", "intertwine"), ("ops_r", "inner-product")):
        out = _compute_output(capsys, op, stem)
        if stem == "ops_q3":
            assert hashlib.sha256(out).hexdigest() == COMPUTE_DIGESTS.get(f"{op}-{stem}.json"), op
        rep = json.loads(out)
        if op == "intertwine":
            assert sorted(rep) == ["value"]
        else:
            assert sorted(rep) == ["provenance", "rows"] and len(rep["rows"]) == 3
            assert all(sorted(row) == ["a", "value"] for row in rep["rows"])


def test_cli_compute_intertwine(tmp_path):
    spec = {
        "field": "r",
        "n": 1,
        "f": {"type": "gaussian", "Q": [[1.0, 0.0], [0.0, 1.0]], "kappa": 1.0},
        "y": [[1.0, 0.0]],
    }
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    assert main(["compute", "intertwine", "--input", str(inp), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    import numpy as np

    assert abs(rep["value"][0] - np.exp(-np.pi)) < 1e-10
    # regularity is judged relative to the scale of y: 1e-11 * e_1 is regular
    inp.write_text(json.dumps(dict(spec, y=[[1e-11, 0.0]])))
    assert main(["compute", "intertwine", "--input", str(inp), "--out", str(out)]) == 0


def test_cli_compute_inner_product(tmp_path):
    spec = {
        "field": "r",
        "n": 1,
        "f": {"type": "gaussian", "Q": [[1.0, 0.0], [0.0, 1.0]], "kappa": 1.0},
        "h": {"type": "gaussian", "Q": [[1.0, 0.0], [0.0, 1.0]], "kappa": 1.0},
        # invertibility is judged relative to the scale of a: 1e-11 is invertible
        "a_grid": [[[0.5]], [[1.0]], [[2.0]], [[1e-11]]],
    }
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(spec))
    out = tmp_path / "out.json"
    assert main(["compute", "inner-product", "--input", str(inp), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["rows"]) == 4
    for row, av in zip(rep["rows"], (0.5, 1.0, 2.0, 1e-11)):
        want = av / (1 + av * av)
        assert abs(row["value"][0] - want) < 1e-10 * want


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "radonfourier.cli", "explain", "slice"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "slice" in proc.stdout.lower() or "transform" in proc.stdout.lower()


NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from radonfourier import GaussianForm, fourier_slice_verify, real_field, space_X
from radonfourier.cli import main

f = GaussianForm.standard(space_X(1, real_field()))
rep = fourier_slice_verify(f, [np.array([[1.0, 0.0]])])
assert rep["pass"], rep
sys.exit(main(["verify", "slice", "--field", "r"]))
"""


def test_runs_without_scipy():
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "[PASS] slice" in proc.stderr


# -- golden reports ---------------------------------------------------------

DATA = Path(__file__).parent / "data"


def _check_records(cfg):
    rep = json.loads(report_to_json(run_suite(cfg)))
    return [{k: v for k, v in c.items() if k != "runtime_s"} for c in rep["checks"]]


def _assert_close(got, want, path="checks"):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * abs(want), (path, got, want)
    else:
        assert got == want, path


def test_golden_report_padic():
    """The Q_2 battery's check records are byte-identical to the stored ones."""
    got = json.dumps(_check_records(SuiteConfig(field="qp", p=2, seed=7)), sort_keys=True, indent=2)
    assert got + "\n" == (DATA / "golden_qp2_seed7.json").read_text()


def test_golden_report_padic_n2():
    """The Q_2 n=2 battery (estimate, fiber, unitarity on 6-dim lattices) byte for byte."""
    got = json.dumps(
        _check_records(SuiteConfig(field="qp", p=2, n=2, seed=7)), sort_keys=True, indent=2
    )
    assert got + "\n" == (DATA / "golden_qp2_n2_seed7.json").read_text()


def test_golden_report_padic5_composition():
    """Q_5 shell composition (non-square preimages) byte for byte."""
    got = json.dumps(
        _check_records(SuiteConfig(field="qp", p=5, seed=7, samples=6, checks=["composition"])),
        sort_keys=True,
        indent=2,
    )
    assert got + "\n" == (DATA / "golden_qp5_composition_seed7.json").read_text()


def test_golden_report_real():
    """The real n=2 battery matches the stored records key by key, floats to 1e-12."""
    want = json.loads((DATA / "golden_r2_seed7.json").read_text())
    _assert_close(_check_records(SuiteConfig(field="r", n=2, seed=7)), want)


def test_golden_report_truncation():
    """Real n=1 truncation: every per-m sup, monotone and final_sup to 1e-12."""
    want = json.loads((DATA / "golden_r1_truncation_seed7.json").read_text())
    _assert_close(_check_records(SuiteConfig(field="r", n=1, seed=7, checks=["truncation"])), want)


def test_golden_report_complex():
    """The complex battery matches the stored records key by key, floats to 1e-12."""
    want = json.loads((DATA / "golden_c_seed7.json").read_text())
    _assert_close(_check_records(SuiteConfig(field="c", seed=7)), want)


@pytest.mark.parametrize("field, p, n, count", [
    ("qp", 2, 2, 0), ("qp", 2, 1, 3), ("qp", 3, 1, 3), ("r", None, 1, 20), ("c", None, 1, 20),
])
def test_slice_counts_nonzero_lhs(field, p, n, count):
    """A slice record counts its samples with F f(y) != 0, as its rows show.
    At Q_2 n = 2, seed 7, all 8 are 0; no verdict reads the count yet."""
    (rec,) = _check_records(SuiteConfig(field=field, p=p, n=n, seed=7, checks=["slice"]))
    exact_zero = {"cyclotomic": {"coeffs": ["0/1"], "conductor": 1}, "qexp": "0/1"}
    assert rec["pass"] and rec["nonzero_lhs"] == count
    assert count == sum(row["lhs"] not in (exact_zero, [0.0, 0.0]) for row in rec["samples"])
