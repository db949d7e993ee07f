"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines for passing tests as well.  Tolerances are pinned here and nowhere
else; every expected value is either trivial, derived from an independent
oracle computed in-line, or verified exactly.
"""

import time
from fractions import Fraction

import numpy as np

from radonfourier import (
    Coset,
    ExactValue,
    GaussianForm,
    Lattice,
    SBFunction,
    complex_field,
    compose_shell_stabilized,
    fiber_param,
    fourier,
    fourier_equivariance_check,
    fourier_slice_verify,
    inner_X,
    intertwine_I,
    intertwine_equivariance_check,
    kernel_identity_check,
    padic_field,
    real_field,
    rho_weight_exponents,
    space_X,
    truncation_sequence,
    unitarity_verify,
)
from radonfourier import exactlinalg as xl
from radonfourier.hilbert import decay_bound_check
from radonfourier.geometry import rho_weight
from radonfourier.sampling import (
    default_a_grid,
    rand_gl,
    rand_kak_sample,
    rand_regular_point,
    rand_sl,
)
from radonfourier.suite import SuiteConfig, run_suite
from slice_quadrature import quadrature_slice_verify

FR = real_field()
FC = complex_field()
F2 = padic_field(2)
F3 = padic_field(3)


def _record(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}{' - ' + detail if detail else ''}")
    return ok


def test_criterion_1_kernel_identity():
    rng = np.random.default_rng(101)
    cases = [(FR, 1), (FR, 2), (FR, 3), (FC, 1), (FC, 2), (F2, 1), (F2, 2), (F3, 1), (F3, 2)]
    sampled = {
        (str(fd), n): [rand_gl(rng, n, fd) for _ in range(1000)] for fd, n in cases
    }
    t0 = time.time()
    ok = True
    for fd, n in cases:
        rep = kernel_identity_check(fd, n, sampled[(str(fd), n)], tol=1e-12)
        ok = ok and rep["pass"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    assert _record(
        1, "kernel identity", ok, f"9 field/size cases x 1000 samples in {elapsed:.3f}s"
    )


def test_criterion_2_fourier_slice():
    t0 = time.time()
    # real, n = 1: twenty regular points; the closed-form right side, and an
    # independent one by pointwise quadrature (tests/slice_quadrature.py)
    rng = np.random.default_rng(102)
    X1 = space_X(1, FR)
    f1 = GaussianForm.standard(X1)
    ys = [np.array([[1.0, 0.0]])] + [
        rand_regular_point(rng, space_X(1, FR).transpose_space()) for _ in range(19)
    ]
    rep1 = fourier_slice_verify(f1, ys, tol=1e-6)
    ok1, rows1 = quadrature_slice_verify(f1, ys, tol=1e-6)
    ok1 = ok1 and all(abs(complex(*s["rhs"]) - r["rhs"]) <= 1e-6 for s, r in zip(rep1["samples"], rows1))
    oracle = abs(rows1[0]["lhs"] - np.exp(-np.pi)) < 1e-12
    # real, n = 2: five points, closed-form routes on both sides
    X2 = space_X(2, FR)
    f2 = GaussianForm.standard(X2)
    ys2 = [rand_regular_point(rng, space_X(2, FR).transpose_space()) for _ in range(5)]
    rep2 = fourier_slice_verify(f2, ys2, tol=1e-4)
    # p-adic, n = 1 and 2, p = 2 and 3: exact equality on lattice cosets
    reps_p = []
    for fd in (F2, F3):
        p = fd.p
        for n in (1, 2):
            Xp = space_X(n, fd)
            d = Xp.dim
            center = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(d))
            f = SBFunction(
                Xp,
                [
                    (Fraction(1), Coset(Lattice.scaled_standard(p, d, 0), tuple(Fraction(0) for _ in range(d)))),
                    (Fraction(1, 2), Coset(Lattice.scaled_standard(p, d, 1), center)),
                ],
            )
            ysp = [rand_regular_point(rng, space_X(n, fd).transpose_space()) for _ in range(3)]
            reps_p.append(fourier_slice_verify(f, ysp))
    elapsed = time.time() - t0
    ok = (
        rep1["pass"]
        and ok1
        and oracle
        and rep2["pass"]
        and all(r["pass"] for r in reps_p)
        and elapsed < 300.0
    )
    assert _record(
        2, "Fourier-slice identity", ok,
        f"n=1 max err {max(r['abs_err'] for r in rows1):.2e}, "
        f"n=2 max err {max(s['abs_err'] for s in rep2['samples']):.2e}, "
        f"p-adic exact, {elapsed:.1f}s",
    )


def test_criterion_3_padic_composition():
    rng = np.random.default_rng(103)
    matched = 0
    inconclusive = 0
    ok = True
    for fd in (F2, F3):
        p = fd.p
        Xp = space_X(1, fd)
        centers = [
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
            (Fraction(1 + p), Fraction(0)),
            (Fraction(1), Fraction(p)),
            (Fraction(2 * p + 1), Fraction(1)),
            (Fraction(1, 1 + p), Fraction(0)),
        ]
        ys = [
            xl.mat([[1, 0]]),
            xl.mat([[1, Fraction(p)]]),
            xl.mat([[Fraction(1 + p), Fraction(0)]]),
        ]
        for i, center in enumerate(centers):
            f = SBFunction.indicator(
                Xp, Coset(Lattice.scaled_standard(p, 2, 1 + (i % 2)), center)
            )
            y = ys[i % len(ys)]
            val, cert = compose_shell_stabilized(f, y, k_max=8)
            if val is None:
                inconclusive += 1
                fb = fourier_slice_verify(f, [y])
                ok = ok and fb["pass"]
                continue
            ok = ok and cert["stabilized"] and cert["stabilization_radius"] is not None
            expect = fourier(f).value(y)
            ok = ok and val == expect
            matched += 1
        # the plain unit ball never stabilizes: must fall back, reported
        ball = SBFunction.standard_ball(Xp)
        val, cert = compose_shell_stabilized(ball, xl.mat([[1, 0]]), k_max=4)
        ok = ok and val is None and not cert["stabilized"]
        inconclusive += 1
        fb = fourier_slice_verify(ball, [xl.mat([[1, 0]])])
        ok = ok and fb["pass"]
    ok = ok and matched >= 10
    assert _record(
        3, "p-adic composition", ok,
        f"{matched} stabilized exact matches, {inconclusive} inconclusive fell back",
    )


def test_criterion_4_unitarity():
    X = space_X(1, FR)
    f = GaussianForm.standard(X)
    grid = default_a_grid(1, FR)
    rep = unitarity_verify(f, f, grid, tol=1e-6)
    # closed-form oracle |a|/(1+a^2) on both sides
    ip = inner_X(f, f)
    closed_ok = all(
        abs(ip(a) - float(a[0][0]) / (1 + float(a[0][0]) ** 2)) < 1e-6 for a in grid
    )
    ok = rep["pass"] and closed_ok
    for fd in (F2, F3):
        Xp = space_X(1, fd)
        ball = SBFunction.standard_ball(Xp)
        gridp = default_a_grid(1, fd)
        repp = unitarity_verify(ball, ball, gridp)
        ipp = inner_X(ball, ball)
        oracle = all(
            ipp(a)
            == ExactValue.from_cyclo(
                fd.p,
                Fraction(fd.p)
                ** (-abs(__import__("radonfourier").padic_valuation(a[0][0], fd.p))),
            )
            for a in gridp
        )
        ok = ok and repp["pass"] and oracle
    assert _record(4, "unitarity", ok, "closed-form and exact oracles matched")


def test_criterion_5_equivariance_suite():
    rng = np.random.default_rng(105)
    X = space_X(1, FR)
    f = GaussianForm.standard(X)
    ok = True
    # ten (f, a, y) triples at 1e-8, including the discriminating case a = 2
    triples = 0
    for k in range(5):
        a = np.array([[2.0]]) if k == 0 else rand_gl(rng, 1, FR)
        ys = [rand_regular_point(rng, space_X(1, FR).transpose_space()) for _ in range(2)]
        rep = fourier_equivariance_check(f, a, ys, tol=1e-8)
        ok = ok and rep["pass"]
        triples += len(ys)
    # the discriminating value itself: F(f(./2))(y) = 4 exp(-4 pi |y|^2)
    fhalf = fourier(GaussianForm(X, np.eye(2) / 4.0))
    y = np.array([[0.7, -0.2]])
    want = 4.0 * np.exp(-4.0 * np.pi * float(np.sum(y**2)))
    ok = ok and abs(fhalf.value(y) - want) < 1e-12
    # G-equivariance of the transform
    fhat = fourier(f)
    from radonfourier import act_g

    for _ in range(5):
        g = rand_sl(rng, 2, FR)
        moved = fourier(act_g(f, g))
        yv = rand_regular_point(rng, space_X(1, FR).transpose_space())
        ok = ok and abs(moved.value(yv) - fhat.value(yv @ g)) < 1e-8
    # intertwining translation laws, real at 1e-6 and p-adic exact
    g = rand_sl(rng, 2, FR)
    a = rand_gl(rng, 1, FR)
    ys = [rand_regular_point(rng, space_X(1, FR).transpose_space()) for _ in range(3)]
    rep = intertwine_equivariance_check(f, g, a, ys, tol=1e-6)
    ok = ok and rep["pass"]
    Xp = space_X(1, F3)
    ballp = SBFunction.standard_ball(Xp)
    from radonfourier.sampling import rand_gl_zp

    gp = rand_gl_zp(rng, 2, 3)
    dp = xl.det(gp)
    gp = tuple(tuple(x / dp if j == 0 else x for j, x in enumerate(r)) for r in gp)
    ap = xl.mat([[Fraction(3)]])
    ysp = [rand_regular_point(rng, space_X(1, F3).transpose_space()) for _ in range(3)]
    repp = intertwine_equivariance_check(ballp, gp, ap, ysp)
    ok = ok and repp["pass"]
    assert _record(5, "equivariance suite", ok, f"{triples} scaling triples checked")


def test_criterion_6_schwartz_estimate():
    rng = np.random.default_rng(106)
    ok = True
    for n in (1, 2):
        X = space_X(n, FR)
        f = GaussianForm.standard(X)
        samples = [rand_kak_sample(rng, n, FR) for _ in range(1000)]
        rep = decay_bound_check(f, samples)
        ok = ok and rep["pass"] and abs(rep["C"] - 1.0) < 1e-12
    # p-adic: the standard ball attains the bound with C = 1, exactly
    Xp = space_X(1, F3)
    ball = SBFunction.standard_ball(Xp)
    samples = [rand_kak_sample(rng, 1, F3) for _ in range(200)]
    rep = decay_bound_check(ball, samples)
    ok = ok and rep["pass"] and rep["C"] == 1.0
    ip = inner_X(ball, ball)
    for k1, diag, k2 in samples[:50]:
        a = xl.matmul(xl.matmul(k1, ((diag[0],),)), k2)
        v = __import__("radonfourier").padic_valuation(diag[0], 3)
        attained = ip(a) == ExactValue.from_cyclo(3, Fraction(3) ** (-abs(v)))
        ok = ok and attained
    assert _record(6, "decay estimate with C = 1", ok, "bound holds; p-adic equality")


def test_criterion_7_rho_chain():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        arch = bool(rng.integers(0, 2))
        if arch:
            es = sorted(
                (Fraction(int(rng.integers(-16, 17)), 4) for _ in range(n)), reverse=True
            )
            diag = tuple(2.0 ** float(e) for e in es)
            fd = FR
            base = 2.0
        else:
            es = sorted((Fraction(int(rng.integers(-4, 5))) for _ in range(n)), reverse=True)
            diag = tuple(Fraction(3) ** int(-e) for e in es)
            fd = F3
            base = 3.0
        rho, mid, low = rho_weight_exponents(es, n)
        ok = ok and (rho >= mid >= low)  # exact Fractions
        w = rho_weight(diag, n, fd)
        ok = ok and abs(w - base ** float(rho)) <= 1e-9 * max(1.0, w)
    assert _record(7, "rho-weight chain", ok, "1000 diagonals, exact exponents")


def test_criterion_8_truncation():
    X = space_X(1, FR)
    f = GaussianForm.standard(X)
    grid = [float(a[0][0]) for a in default_a_grid(1, FR)]
    rep = truncation_sequence(f, 20, grid)
    ok = rep["monotone"] and rep["final_sup"] < 1e-3
    assert _record(
        8, "truncation", ok,
        f"monotone={rep['monotone']}, sup at m=20 is {rep['final_sup']:.2e} < 1e-3",
    )


def test_criterion_9_fiber_well_definedness():
    rng = np.random.default_rng(109)
    ok = True
    X = space_X(1, FR)
    f = GaussianForm.standard(X)
    for _ in range(20):
        y = rand_regular_point(rng, space_X(1, FR).transpose_space())
        vals = [
            intertwine_I(f, y, fiber=fiber_param(y, 1, FR, rng=rng)) for _ in range(5)
        ]
        ok = ok and max(abs(v - vals[0]) for v in vals) <= 1e-10
    Xp = space_X(1, F3)
    ball = SBFunction.standard_ball(Xp)
    for _ in range(20):
        y = rand_regular_point(rng, space_X(1, F3).transpose_space())
        vals = [
            intertwine_I(ball, y, fiber=fiber_param(y, 1, F3, rng=rng))
            for _ in range(5)
        ]
        ok = ok and all(v == vals[0] for v in vals)
    assert _record(9, "fiber well-definedness", ok, "20 points x 5 completions each")


def test_criterion_10_negative_controls():
    ok = True
    # gamma exponent off by +-1/2 must break the kernel check
    for shift in ("1/2", "-1/2"):
        rep = run_suite(
            SuiteConfig(
                field="qp", p=3, n=1, seed=9, samples=30,
                checks=("gamma-kernel",), perturb={"gamma_exponent_shift": shift},
            )
        )
        ok = ok and not rep["pass"]
    # fiber measure scaled by p must break the slice identity
    rep = run_suite(
        SuiteConfig(
            field="qp", p=3, n=1, seed=9, samples=10,
            checks=("slice",), perturb={"fiber_measure_factor": 3},
        )
    )
    ok = ok and not rep["pass"]
    # flipped equivariance exponent sign must break the scaling law
    rep = run_suite(
        SuiteConfig(
            field="qp", p=3, n=1, seed=9, samples=10,
            checks=("equivariance",), perturb={"equivariance_exponent_sign": -1},
        )
    )
    ok = ok and not rep["pass"]
    assert _record(10, "negative controls", ok, "all three perturbations detected")
