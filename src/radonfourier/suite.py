"""Batch verification harness: configs, check registry, reports.

A suite config fixes the field, the size n, tolerances, a seed and the list
of checks; ``run_suite`` executes the checks one after another and assembles
a Report whose JSON form is stable: keys sorted, rationals as strings, check
records ordered by name.  Fixed seed means identical sample sets, and the
p-adic sections are byte-identical across runs since every p-adic value
serializes exactly.

The ``perturb`` block deliberately mis-wires one constant at a time (the
gamma exponent, the fiber measure, the equivariance exponent sign) so the
negative controls can demonstrate that each check discriminates.  The knobs
live in the verification functions, never in the operators they compare.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import zlib
from dataclasses import dataclass, field as dc_field, fields
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, sampling
from . import exactlinalg as xl
from .cyclotomic import CyclotomicValue
from .fields import FieldDescriptor, complex_field, padic_field, padic_valuation, real_field
from .functions import GaussianForm, SBFunction
from .geometry import base_point_y, fiber_param, rho_weight, rho_weight_exponents, space_X
from .hilbert import (
    _KERNEL_ROWS, _input_json, check_record, decay_bound_check, judged_record, truncation_sequence,
)
from .lattices import Coset, Lattice
from .transforms import (
    compose_shell_stabilized,
    fourier,
    fourier_equivariance_check,
    fourier_slice_verify,
    intertwine_I,
    intertwine_equivariance_check,
    kernel_identity_check,
    sides_agree,
    unitarity_verify,
)


def field_from_spec(kind: str, p=None) -> FieldDescriptor:
    if p is not None and kind in ("r", "real", "c", "complex"):
        raise ValueError(f"p is set but field {kind!r} is not p-adic (use field qp)")
    if kind in ("r", "real"):
        return real_field()
    if kind in ("c", "complex"):
        return complex_field()
    if kind in ("qp", "p-adic", "padic"):
        if p is None:
            raise ValueError("p-adic field needs --p")
        return padic_field(int(p))
    raise ValueError(f"unknown field {kind!r}")


def _number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a finite number (an integer with ``integer``);
    JSON booleans are not numbers."""
    kind = int if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value)


def _rational(value) -> bool:
    try:
        Fraction(str(value))
        return True
    except (ValueError, ZeroDivisionError):
        return False


_AT_LEAST_1 = ("an integer >= 1", lambda v: _number(v, integer=True) and v >= 1)
# config key -> (what its value must be, test of a value)
_BOUNDS = {
    "p": ("an integer or null", lambda v: v is None or _number(v, integer=True)),
    "n": _AT_LEAST_1, "samples": _AT_LEAST_1,
    "seed": ("an integer >= 0", lambda v: _number(v, integer=True) and v >= 0),
    "tol": ("a finite number > 0", lambda v: _number(v) and v > 0),
}
# perturbation knob -> (what its value must be, test of a value)
_PERTURB_KNOBS = {
    "gamma_exponent_shift": ("a rational", _rational),
    "fiber_measure_factor": ("a finite number", _number),
    "equivariance_exponent_sign": ("1 or -1", lambda v: _number(v) and v in (1, -1)),
}


def check_bounds(**values):
    """Raise ValueError unless each config key's value meets its bound."""
    for key, value in values.items():
        rule, ok = _BOUNDS[key]
        if not ok(value):
            raise ValueError(f"{key} must be {rule}, got {value!r}")


@dataclass
class SuiteConfig:
    """The one owner of a verify config's defaults, bounds, JSON schema and
    field descriptor ``fd`` (built once): a config that constructs can run."""

    field: str = "r"
    p: int | None = None
    n: int = 1
    seed: int = 7
    tol: float = 1e-6
    samples: int = 200
    checks: tuple = ()
    perturb: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        check_bounds(**{key: getattr(self, key) for key in _BOUNDS})
        self.fd = field_from_spec(self.field, self.p)
        if not isinstance(self.checks, (list, tuple)):
            raise ValueError(f"checks must be a list of check names, got {self.checks!r}")
        unknown = [c for c in self.checks if not isinstance(c, str) or c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}; available: {sorted(CHECKS)}")
        # each name once, in the order first given
        self.checks = tuple(dict.fromkeys(self.checks))
        if not isinstance(self.perturb, dict):
            raise ValueError(f"perturb must be an object, got {self.perturb!r}")
        for key, value in self.perturb.items():
            if key not in _PERTURB_KNOBS:
                raise ValueError(f"unknown perturb key {key!r}; available: {sorted(_PERTURB_KNOBS)}")
            rule, ok = _PERTURB_KNOBS[key]
            if not ok(value):
                raise ValueError(f"perturb {key} must be {rule}, got {value!r}")

    @classmethod
    def from_json(cls, obj: dict) -> "SuiteConfig":
        if not isinstance(obj, dict):
            raise ValueError("a suite config must be a JSON object")
        bad = sorted(set(obj) - {f.name for f in fields(cls)})
        if bad:
            raise ValueError(f"unknown config keys: {bad}")
        return cls(**obj)

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["checks"] = list(self.checks) or sorted(CHECKS)
        return out


def _rng_for(cfg: SuiteConfig, check: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([cfg.seed, zlib.crc32(check.encode())])
    )


def _default_function(cfg: SuiteConfig, shifted: bool = False):
    """The standard Gaussian over R and C; over Q_p the indicator of Z_p^d,
    or with ``shifted`` that of e_1 + p Z_p^d."""
    fd = cfg.fd
    X = space_X(cfg.n, fd)
    if fd.is_archimedean:
        return GaussianForm.standard(X)
    if not shifted:
        return SBFunction.standard_ball(X)
    center = tuple(
        Fraction(1) if i == 0 else Fraction(0) for i in range(X.dim)
    )
    return SBFunction.indicator(X, Coset(Lattice.scaled_standard(fd.p, X.dim, 1), center))


def _twisted_function(cfg: SuiteConfig):
    """A complex-valued f on which a pairing that drops a conjugation shows:
    over R and C the Gaussian with kappa = 0.5 + 0.75i and ell = 0.25 (1, ..., 1),
    over Q_p 1_{Z_p^d} + zeta_{p^2} 1_{e_1 + p Z_p^d} (zeta_p is real at p = 2)."""
    X = space_X(cfg.n, cfg.fd)
    if cfg.fd.is_archimedean:
        return GaussianForm(X, kappa=0.5 + 0.75j, ell=np.full(X.dim, 0.25))
    p = cfg.fd.p
    ball = _default_function(cfg).terms[0][1]
    shifted = _default_function(cfg, shifted=True).terms[0][1]
    return SBFunction(X, [(1, ball), (CyclotomicValue.root_of_unity(p, p * p, 1), shifted)])


# ---------------------------------------------------------------------
# Check runners
# ---------------------------------------------------------------------


def _check_gamma_kernel(cfg: SuiteConfig, rng) -> dict:
    fd = cfg.fd
    samples = [sampling.rand_gl(rng, cfg.n, fd) for _ in range(cfg.samples)]
    shift = Fraction(str(cfg.perturb.get("gamma_exponent_shift", 0)))
    return kernel_identity_check(fd, cfg.n, samples, exponent_shift=shift)


def _check_slice(cfg: SuiteConfig, rng) -> dict:
    fd = cfg.fd
    X = space_X(cfg.n, fd)
    f = _default_function(cfg)
    count = min(cfg.samples, 20 if fd.is_archimedean else 8)
    ys = [
        sampling.rand_regular_point(rng, X.transpose_space()) for _ in range(count)
    ]
    factor = cfg.perturb.get("fiber_measure_factor", 1)
    return fourier_slice_verify(f, ys, tol=cfg.tol, measure_factor=factor)


def _composition_skip(cfg: SuiteConfig):
    if cfg.fd.is_archimedean:
        return "shell stabilization is a p-adic operation"
    if cfg.n > 1:
        return "shell enumeration grows like p^(n k); the suite exercises the n = 1 surface"


def _check_composition(cfg: SuiteConfig, rng) -> dict:
    fd = cfg.fd
    X = space_X(cfg.n, fd)
    pairs = [
        (sampling.rand_sb_function(rng, X, terms=1, unit_leading_center=True),
         _unit_row_sample(rng, cfg.n, fd.p))
        for _ in range(max(6, min(cfg.samples, 12)))
    ]

    def judge(pair):
        i, (f, y) = pair
        val, cert = compose_shell_stabilized(f, y, 7)
        if val is None:
            return True, {"pair": i, "stabilized": False, "certificate": cert}
        expect = fourier(f).value(y)
        match = val == expect
        return match, {
            "pair": i,
            "stabilized": True,
            "stabilization_radius": cert["stabilization_radius"],
            "value": val.to_json(),
            "fourier": expect.to_json(),
            "exact_equal": bool(match),
        }

    rec = judged_record("composition", fd, cfg.n, enumerate(pairs), judge)
    matches = sum(row.get("exact_equal", False) for row in rec["samples"])
    # a pair that never stabilizes tests nothing: at least one must match
    return {**rec, "pass": rec["pass"] and matches > 0, "stabilized_matches": matches}


def _unit_row_sample(rng, n: int, p: int):
    """A regular point of the opposite space with unimodular leading block
    and tail column in p Z_p.

    For coset functions with unit leading center and integral tail, every
    slice y.x over the support then lands on |det a| = 1 (ultrametrically the
    unit leading product dominates), the class on which the shell-stabilized
    composition provably reproduces the transform.
    """
    lead = sampling.rand_gl_zp(rng, n, p)
    tail = tuple(Fraction(p * int(rng.integers(0, p))) for _ in range(n))
    return tuple(row + (tail[i],) for i, row in enumerate(lead))


def _check_unitarity(cfg: SuiteConfig, _rng) -> dict:
    """The default f, then the twisted f under ``twisted``, each against the
    shifted default h; the record passes when both row sets do."""
    h = _default_function(cfg, shifted=True)
    grid = sampling.default_a_grid(cfg.n, cfg.fd)
    rec, twisted = (unitarity_verify(f, h, grid, tol=cfg.tol)
                    for f in (_default_function(cfg), _twisted_function(cfg)))
    return {**rec, "pass": rec["pass"] and twisted["pass"], "twisted": twisted["samples"]}


def _check_equivariance(cfg: SuiteConfig, rng) -> dict:
    fd = cfg.fd
    X = space_X(cfg.n, fd)
    f = _default_function(cfg)
    sign = int(cfg.perturb.get("equivariance_exponent_sign", +1))
    reports = []
    y0 = base_point_y(cfg.n, fd)  # deterministic point where the ball transform lives
    for k in range(3):
        a = sampling.rand_gl(rng, cfg.n, fd)
        if k == 0 and not fd.is_archimedean:
            # force a non-unit determinant so the exponent sign is visible
            v = padic_valuation(xl.det(a), fd.p)
            e = 1 if v + cfg.n != 0 else 2
            s = Fraction(fd.p) ** e
            a = tuple(tuple(x * s for x in row) for row in a)
        ys = [y0] + [
            sampling.rand_regular_point(rng, X.transpose_space()) for _ in range(3)
        ]
        reports.append(
            fourier_equivariance_check(f, a, ys, tol=cfg.tol, exponent_sign=sign)
        )
    g = sampling.rand_sl(rng, cfg.n + 1, fd)
    a = sampling.rand_gl(rng, cfg.n, fd)
    ys = [sampling.rand_regular_point(rng, X.transpose_space()) for _ in range(4)]
    reports.append(intertwine_equivariance_check(f, g, a, ys, tol=cfg.tol))
    return check_record("equivariance", fd, cfg.n, all(r["pass"] for r in reports), reports)


def _check_estimate(cfg: SuiteConfig, rng) -> dict:
    count = min(cfg.samples, 200)
    samples = [sampling.rand_kak_sample(rng, cfg.n, cfg.fd) for _ in range(count)]
    return decay_bound_check(_default_function(cfg), samples)


def _check_rho_chain(cfg: SuiteConfig, rng) -> dict:
    fd = cfg.fd
    n = cfg.n
    base = 2.0 if fd.is_archimedean else float(fd.p)

    def draw():
        # exponents e_1 >= ... >= e_n and the diagonal a with |a_i| = base^(e_i)
        if fd.is_archimedean:
            exps = sorted((Fraction(int(rng.integers(-16, 17)), 4) * fd.d_F for _ in range(n)),
                          reverse=True)
            return exps, tuple(float(2.0 ** float(e / fd.d_F)) for e in exps)
        exps = sorted((Fraction(-int(rng.integers(-4, 5))) for _ in range(n)), reverse=True)
        return exps, tuple(Fraction(fd.p) ** int(-e) for e in exps)

    def judge(sample):
        exps, diag = sample
        rho, mid, low = rho_weight_exponents(exps, n)
        chain_ok = rho >= mid >= low
        w = rho_weight(diag, n, fd)
        want = base ** float(rho)
        weight_ok = abs(w - want) <= 1e-9 * max(1.0, abs(w))
        row = {"exponents": [str(e) for e in exps], "rho": str(rho), "mid": str(mid),
               "low": str(low), "chain_ok": chain_ok}
        if not weight_ok:
            row.update(weight_ok=False, weight=w, weight_expected=want)
        return chain_ok and weight_ok, row

    samples = [draw() for _ in range(min(cfg.samples, 500))]
    return judged_record("rho-chain", fd, n, samples, judge, keep=_KERNEL_ROWS)


def _truncation_skip(cfg: SuiteConfig):
    if not (cfg.fd.kind == "real" and cfg.n == 1):
        return "truncation diagnostics run on the real n=1 case"


def _check_truncation(cfg: SuiteConfig, _rng) -> dict:
    fd = cfg.fd
    grid = [float(a[0][0]) for a in sampling.default_a_grid(1, fd)]
    return truncation_sequence(GaussianForm.standard(space_X(1, fd)), 20, grid)


def _check_fiber(cfg: SuiteConfig, rng) -> dict:
    fd = cfg.fd
    Y = space_X(cfg.n, fd).transpose_space()
    f = _default_function(cfg)

    def draw():
        y = sampling.rand_regular_point(rng, Y)
        return y, [fiber_param(y, cfg.n, fd, rng=rng) for _ in range(5)]

    def judge(sample):
        y, completions = sample
        base = intertwine_I(f, y)
        verdicts = [sides_agree(fd, intertwine_I(f, y, fiber=g), base, 1e-10) for g in completions]
        good = all(agree for agree, _ in verdicts)
        if fd.is_archimedean:
            row = {"max_dev": max(err for _, err in verdicts)}
        else:
            row = {"exact_equal": good}
        # a failing row names its sample, so that it can be replayed
        return good, row if good else {**row, "input": _input_json(y, fd)}

    return judged_record("fiber", fd, cfg.n, [draw() for _ in range(min(20, cfg.samples))], judge)


class Check(NamedTuple):
    run: Callable  # (config, the check's own generator) -> record
    explanation: str  # what the check verifies, as ``explain`` prints it
    skip: Callable = lambda cfg: None  # config -> why the check does not run there, or None


CHECKS = {
    "gamma-kernel": Check(_check_gamma_kernel, (
        "Kernel identity |det a|^((1-n)/2) * gamma_n(a^(-1)) = chi(Tr a), the "
        "algebraic crux linking the normalizing weight to the additive "
        "character.  Exact over Q_p; magnitude and phase compared to 1e-12 "
        "relative over R and C."
    )),
    "slice": Check(_check_slice, (
        "Fourier-slice identity F f(y) = int T(f)(y,a) chi(Tr a) da, the "
        "absolutely convergent face of the normalized-intertwiner "
        "composition.  Both sides computed along independent routes; exact "
        "p-adically, |lhs-rhs| <= tol (default 1e-6) archimedean."
    )),
    "composition": Check(_check_composition, (
        "Shell-stabilized p-adic evaluation of the iterated composition "
        "I(C_gamma f)(y) over growing fiber balls, certified by exact "
        "vanishing of two consecutive shell character sums by k = 7, "
        "compared exactly against F f(y).  A pair that does not stabilize "
        "is recorded with its certificate and tests nothing; every "
        "stabilized pair must match, and a record with none fails."
    ), _composition_skip),
    "unitarity": Check(_check_unitarity, (
        "Inner-product preservation <F f, F h>_Xbar(a) = <f, h>_X(a) on the "
        "default grid in GL(n): the transform extends to a unitary operator "
        "of the module pairings.  Exact p-adically, tol archimedean.  Two "
        "pairs run against the shifted default h: the default f, and under "
        "'twisted' a complex-valued f (over R and C the Gaussian with kappa = "
        "0.5 + 0.75i and ell = 0.25 (1, ..., 1), over Q_p 1_{Z_p^d} + "
        "zeta_{p^2} 1_{e_1 + p Z_p^d}), on which a pairing that drops the "
        "conjugation of f fails; the check passes when both pairs do."
    )),
    "equivariance": Check(_check_equivariance, (
        "Scaling law F(f^(a^(-1))) = |det a|^(n+1) * F f(a .) (corrected "
        "positive exponent, pinned by the discriminating Gaussian example), "
        "its module form F(f.a) = F(f).a, and the translation laws "
        "I(g.f)(y) = I(f)(y g), I(f.a)(y) = |det a|^((n+1)/2) I(f)(a y).  "
        "Both laws at tol (default 1e-6) archimedean, exact p-adic."
    )),
    "estimate": Check(_check_estimate, (
        "Decay estimate |<f,f>_X(k1 a k2)| <= C prod_i min(|a_i|,|a_i|^-1)"
        "^((n+1)/2) with the explicit constant C = prod ||f_i||_inf ||f_i||_1 "
        "from the per-column envelope (C = 1 for the standard Gaussian and "
        "the standard p-adic ball, where the bound is attained exactly).  "
        "f must be one block repeated down the columns of X (a Gaussian's "
        "form, a lattice's basis), so that the compact group acting on the "
        "right fixes f."
    )),
    "rho-chain": Check(_check_rho_chain, (
        "Spherical weight chain: prod |a_i|^(i-(n+1)/2) >= "
        "prod min(|a_i|,|a_i|^-1)^((n-1)/2) >= prod min(|a_i|,|a_i|^-1)"
        "^((n+1)/2), verified with exact rational arithmetic on logarithmic "
        "exponents."
    )),
    "truncation": Check(_check_truncation, (
        "Truncation diagnostics: phi_m = <f - f chi_m, f - f chi_m>_X over "
        "the default grid is nonincreasing in m and sup phi_m < 1e-3 by "
        "m = 20 for the standard Gaussian (real, n = 1), the computable "
        "surrogate for convergence of the cutoff approximations."
    ), _truncation_skip),
    "fiber": Check(_check_fiber, (
        "Well-definedness of the intertwining integral: I(f)(y) agrees "
        "across independently drawn unimodular completions of y (exact "
        "p-adically, 1e-10 archimedean), so the fiber measure does not "
        "depend on the completion."
    )),
}


def explain_check(name: str) -> str:
    if name not in CHECKS:
        avail = ", ".join(sorted(CHECKS))
        raise KeyError(f"unknown check {name!r}; available: {avail}")
    return CHECKS[name].explanation


def run_suite(cfg: SuiteConfig) -> dict:
    """Run the selected checks and assemble the report.

    Check records are ordered by name for stable diffs; partial failures do
    not abort the suite.  The report's ``pass`` is the conjunction.
    """
    names = cfg.checks or CHECKS
    t0 = time.time()
    checks = [_run_one(cfg, name) for name in sorted(names)]
    return {
        "suite": cfg.to_json(),
        "checks": checks,
        "pass": all(c.get("pass") for c in checks),
        "runtime_s": round(time.time() - t0, 3),
        "versions": {"radonfourier": __version__, "numpy": np.__version__},
    }


def _run_one(cfg: SuiteConfig, name: str) -> dict:
    """Check ``name``'s record: not applicable where its ``skip`` says why."""
    t0 = time.time()
    check = CHECKS[name]
    try:
        reason = check.skip(cfg)
        if reason:
            rep = check_record(name, cfg.fd, cfg.n, True, [], not_applicable=reason)
        else:
            rep = check.run(cfg, _rng_for(cfg, name))
    except Exception as exc:  # noqa: BLE001 - failures must not abort the suite
        rep = check_record(name, cfg.fd, cfg.n, False, [], error=f"{type(exc).__name__}: {exc}")
    rep["runtime_s"] = round(time.time() - t0, 3)
    return rep


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if hasattr(obj, "to_json"):
        return obj.to_json()
    return str(obj)
