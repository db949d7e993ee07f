from fractions import Fraction

import numpy as np
import pytest

from radonfourier import (
    Coset,
    CyclotomicValue,
    Envelope,
    Evaluable,
    ExactValue,
    GaussianForm,
    Lattice,
    SBFunction,
    abs_norm,
    act_g,
    act_module_X,
    add_char,
    b_map,
    compose_shell_stabilized,
    fiber_param,
    fourier,
    fourier_equivariance_check,
    fourier_slice_verify,
    gamma_n,
    inner_X,
    inner_Xbar,
    integrate,
    intertwine_I,
    intertwine_equivariance_check,
    kernel_identity_check,
    pointwise_mul,
    space_X,
    translate_group,
    unitarity_verify,
)
from radonfourier import exactlinalg as xl
from radonfourier import transforms
from radonfourier.functions import _json_exact, fiber_restrict
from radonfourier.hilbert import _input_json
from radonfourier.geometry import as_matrix, det_power, minv, mmul, mtrace, space_L
from radonfourier.sampling import (
    rand_fraction,
    rand_gaussian,
    rand_gl,
    rand_gl_zp,
    rand_regular_point,
    rand_sb_function,
    rand_sl,
)
from radonfourier.suite import SuiteConfig, _rng_for, _unit_row_sample
from radonfourier.transforms import (
    _shell_points, integrate_against_trace_character, pairing_matrix, slice_family,
)
from basis import basis_matrices, brute_value
from slice_quadrature import quadrature_slice_verify, slice_transform


def one(p):
    return ExactValue.from_cyclo(p, 1)


# -- Fourier -------------------------------------------------------------


def test_fourier_self_dual_gaussian(fr):
    for n in (1, 2):
        X = space_X(n, fr)
        f = GaussianForm.standard(X)
        fhat = fourier(f)
        assert np.allclose(fhat.Q, np.eye(X.dim)) and abs(fhat.kappa - 1) < 1e-14


def test_fourier_self_dual_ball(f2, f3):
    for fd in (f2, f3):
        for n in (1, 2):
            X = space_X(n, fd)
            ball = SBFunction.standard_ball(X)
            bhat = fourier(ball)
            assert len(bhat.terms) == 1
            c, k = bhat.terms[0]
            assert c == one(fd.p)
            assert k.lattice == Lattice.scaled_standard(fd.p, X.dim, 0)
            assert all(x == 0 for x in k.center)


def test_fourier_coset_toy(f3):
    # d = 1 toy: 1_{c + p^k Z_p} maps to p^-k chi(yc) 1_{p^-k Z_p}(y)
    from radonfourier.geometry import MatrixSpace

    D1 = MatrixSpace(f3, 1, 1)
    c = Fraction(2, 3)
    k = 2
    g = SBFunction.indicator(D1, Coset(Lattice.scaled_standard(3, 1, k), (c,)))
    ghat = fourier(g)
    for ynum in [0, 1, Fraction(1, 3), Fraction(1, 9), Fraction(4, 9), Fraction(1, 27), 5]:
        y = ((Fraction(ynum),),)
        got = ghat.value(y)
        inside = ynum == 0 or abs_norm(Fraction(ynum), f3) <= Fraction(9)
        want = (
            ExactValue.from_cyclo(3, add_char(Fraction(ynum) * c, f3) * Fraction(1, 9))
            if inside
            else ExactValue.from_cyclo(3, 0)
        )
        assert got == want


def test_fourier_inversion_round_trip(rng, fr, fc, f2, f3):
    # the measure is self-dual, so transforming twice reflects: F(F f) = f(-.)
    for fd in (fr, fc, f2, f3):
        for n in (1, 2):
            X = space_X(n, fd)
            minus = as_matrix([[-int(i == j) for j in range(n + 1)] for i in range(n + 1)], fd)
            if fd.is_archimedean:
                f = rand_gaussian(rng, X)
                back, want = fourier(fourier(f)), translate_group(f, minus, side="left")
                assert np.allclose(back.Q, want.Q, atol=1e-10)
                assert abs(back.kappa - want.kappa) < 1e-10
                assert np.allclose(back.ell, want.ell, atol=1e-10)
            else:
                g = rand_sb_function(rng, X)
                gback = fourier(fourier(g))
                # representations may refine: compare values by brute
                # membership, at the reflected term centers and at random points
                pts = [[-x for x in k.center] for _, k in g.terms]
                pts += [[rand_fraction(rng, fd.p, -1, 2) for _ in range(X.dim)] for _ in range(6)]
                for v in pts:
                    assert brute_value(gback, v) == brute_value(g, [-x for x in v])
                assert all(brute_value(gback, v) != 0 for v in pts[: len(g.terms)])


def _pairing_reference(yspace, xspace):
    """Re Tr(y x) on every pair of basis matrices: the loop the closed-form
    pairing matrix replaced."""
    fd = yspace.fd
    return tuple(
        tuple(int(mtrace(mmul(yb, xb, fd), fd).real) for xb in basis_matrices(xspace))
        for yb in basis_matrices(yspace)
    )


def _same_entries(got, want):
    assert got == want
    assert [type(v) for row in got for v in row] == [type(v) for row in want for v in row]
    if type(want[0][0]) is not Fraction:
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_pairing_matrix_matches_basis_loop(fr, fc, f3):

    for fd in (fr, fc, f3):
        for n in (1, 2):
            X, Y, L = space_X(n, fd), space_X(n, fd).transpose_space(), space_L(n, fd)
            for ys, xs in ((Y, X), (X, Y), (L, L)):
                _same_entries(pairing_matrix(ys, xs), _pairing_reference(ys, xs))


def test_fourier_closed_form_vs_quadrature_n2(rng, fr):
    # generic quadratic form at n = 2: the pairing permutation is no longer
    # symmetric, which distinguishes P Q^(-1) P' from P' Q^(-1) P

    X = space_X(2, fr)
    Y = space_X(2, fr).transpose_space()
    f = rand_gaussian(rng, X, with_phase=True)
    fhat = fourier(f)
    P = np.asarray(pairing_matrix(Y, X))
    for _ in range(2):
        y = rand_regular_point(rng, Y) * 0.4
        eta = P.T @ Y.coords(y)
        ev = Evaluable(
            X,
            lambda pts, eta=eta: f.eval_coords(pts) * np.exp(-2j * np.pi * (pts @ eta)),
            f.envelope(),
            "direct",
        )
        want = integrate(ev)
        assert abs(fhat.value(y) - want) < 1e-4, (fhat.value(y), want)


def test_fourier_equivariance_n2(rng, fr):
    X = space_X(2, fr)
    f = GaussianForm.standard(X)
    with_phase = rand_gaussian(rng, X)
    for fn in (f, with_phase):
        a = rand_gl(rng, 2, fr)
        ys = [rand_regular_point(rng, space_X(2, fr).transpose_space()) * 0.5 for _ in range(3)]
        rep = fourier_equivariance_check(fn, a, ys, tol=1e-8)
        assert rep["pass"], rep


def test_fourier_evaluable_quadrature(fr):
    # the closed-form transform matches quadrature of the defining integral
    # f(x) exp(-2 pi i <P' y, x>), handed to integrate as an Evaluable
    X = space_X(1, fr)
    g = GaussianForm.standard(X)
    ghat = fourier(g)
    y = np.array([[0.4, -0.7]])
    eta = np.asarray(pairing_matrix(ghat.space, X)).T @ ghat.space.coords(y)
    integrand = Evaluable(
        X, lambda pts: g.eval_coords(pts) * np.exp(-2j * np.pi * (pts @ eta)), g.envelope(), "Fg"
    )
    assert abs(integrate(integrand) - ghat.value(y)) < 1e-9
    with pytest.raises(TypeError, match="Evaluable"):
        fourier(integrand)  # an integrand is not a test function


def test_plancherel_at_identity(rng, fr):
    X = space_X(1, fr)
    f = rand_gaussian(rng, X)
    lhs = inner_Xbar(fourier(f), fourier(f))(np.eye(1))
    rhs = inner_X(f, f)(np.eye(1))
    assert abs(lhs - rhs) < 1e-10


# -- equivariance --------------------------------------------------------


def test_fourier_equivariance_discriminating(fr):
    # F(f(./2))(y) = 4 exp(-4 pi |y|^2): pins the positive exponent
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    a = np.array([[2.0]])
    fhalf = fourier(GaussianForm(X, np.eye(2) / 4.0))
    ys = [np.array([[0.3, 0.1]]), np.array([[1.0, -0.5]])]
    for y in ys:
        want = 4.0 * np.exp(-4 * np.pi * float(np.sum(np.asarray(y) ** 2)))
        assert abs(fhalf.value(y) - want) < 1e-12
    rep = fourier_equivariance_check(f, a, ys, tol=1e-10)
    assert rep["pass"]
    bad = fourier_equivariance_check(f, a, ys, tol=1e-10, exponent_sign=-1)
    assert not bad["pass"]


def test_fourier_equivariance_random(rng, fr, f3):
    X = space_X(1, fr)
    f = rand_gaussian(rng, X)
    for _ in range(3):
        a = rand_gl(rng, 1, fr)
        ys = [rand_regular_point(rng, space_X(1, fr).transpose_space()) for _ in range(4)]
        rep = fourier_equivariance_check(f, a, ys, tol=1e-8)
        assert rep["pass"], rep
    Xp = space_X(1, f3)
    fp = rand_sb_function(rng, Xp)
    a = xl.mat([[rand_fraction(rng, 3, -2, 2)]])
    ys = [rand_regular_point(rng, space_X(1, f3).transpose_space()) for _ in range(3)]
    rep = fourier_equivariance_check(fp, a, ys)
    assert rep["pass"], rep


def test_fourier_g_equivariance(rng, fr, f3):
    # F(g.f)(y) = F f(y g) for determinant-one g
    X = space_X(1, fr)
    f = rand_gaussian(rng, X)
    fhat = fourier(f)
    for _ in range(5):
        g = rand_sl(rng, 2, fr)
        moved = fourier(act_g(f, g))
        for _ in range(3):
            y = rand_regular_point(rng, space_X(1, fr).transpose_space())
            assert abs(moved.value(y) - fhat.value(y @ g)) < 1e-8
    Xp = space_X(1, f3)
    fp = rand_sb_function(rng, Xp)
    fphat = fourier(fp)
    g = rand_sl(rng, 2, f3)
    movedp = fourier(act_g(fp, g))
    for _ in range(3):
        y = rand_regular_point(rng, space_X(1, f3).transpose_space())
        assert movedp.value(y) == fphat.value(xl.matmul(y, g))


# -- slice and intertwining ----------------------------------------------


def test_slice_examples(fr, f3):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    y = np.array([[1.0, 0.0]])
    for av in [0.0, 1.0, -0.7]:
        got = slice_transform(f, y, np.array([[av]]))
        assert abs(got - np.exp(-np.pi * av * av)) < 1e-13
    # p-adic: the slice of the unit ball at y = (1,0) is the indicator of Z_p
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    yp = xl.mat([[1, 0]])
    assert slice_transform(ball, yp, xl.mat([[1]])) == one(3)
    assert slice_transform(ball, yp, xl.mat([[Fraction(3)]])) == one(3)
    # fiber points (1/3, z) have the first coordinate outside Z_p: zero
    assert slice_transform(ball, yp, xl.mat([[Fraction(1, 3)]])).is_zero()


def test_slice_homogeneity(rng, fr, f3):
    # T(f)(y, a) = |det a| * I(f^a)(y), both sides via independent routes

    X = space_X(1, fr)
    f = rand_gaussian(rng, X)
    for _ in range(5):
        y = rand_regular_point(rng, space_X(1, fr).transpose_space())
        a = rand_gl(rng, 1, fr)
        lhs = slice_transform(f, y, a)
        rhs = float(abs_norm(np.linalg.det(a), fr)) * intertwine_I(
            translate_group(f, a), y
        )
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))
    Xp = space_X(1, f3)
    fp = rand_sb_function(rng, Xp)
    for _ in range(5):
        y = rand_regular_point(rng, space_X(1, f3).transpose_space())
        a = xl.mat([[rand_fraction(rng, 3, -2, 2)]])
        lhs = slice_transform(fp, y, a)
        rhs = abs_norm(xl.det(a), f3) * intertwine_I(translate_group(fp, a), y)
        assert lhs == rhs


def test_intertwine_examples(fr, f3):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    assert abs(intertwine_I(f, np.array([[1.0, 0.0]])) - np.exp(-np.pi)) < 1e-13
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    assert intertwine_I(ball, xl.mat([[1, 0]])) == one(3)
    got = intertwine_I(ball, xl.mat([[Fraction(1, 3), 0]]))
    assert got == ExactValue.from_cyclo(3, Fraction(1, 3))


def test_operators_refuse_evaluable(fr):
    # an Evaluable is an integrand for integrate only: every operator on test
    # functions raises a TypeError naming it, before any attribute lookup
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    flat = Evaluable(
        X, lambda p: np.ones(len(p), dtype=complex), Envelope(C=1.0), "flat"
    )
    y, a = np.array([[1.0, 0.0]]), np.array([[2.0]])
    calls = [
        lambda: translate_group(flat, a),
        lambda: translate_group(flat, np.eye(2), side="left"),
        lambda: fiber_restrict(flat, fiber_param(y, 1, fr)),
        lambda: intertwine_I(flat, y),
        lambda: act_module_X(flat, a),
        lambda: inner_X(flat, f),
        lambda: inner_X(f, flat),
        lambda: inner_Xbar(flat, f),
        lambda: fourier(flat),
        lambda: pointwise_mul(f, flat),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="Evaluable"):
            call()


def test_intertwine_equivariance(rng, fr, f3):
    X = space_X(1, fr)
    f = rand_gaussian(rng, X)
    rep = intertwine_equivariance_check(
        f, np.eye(2), np.eye(1), [rand_regular_point(rng, space_X(1, fr).transpose_space())]
    )
    assert rep["pass"]
    g = rand_sl(rng, 2, fr)
    a = rand_gl(rng, 1, fr)
    ys = [rand_regular_point(rng, space_X(1, fr).transpose_space()) for _ in range(3)]
    rep = intertwine_equivariance_check(f, g, a, ys, tol=1e-6)
    assert rep["pass"], rep
    Xp = space_X(1, f3)
    fp = rand_sb_function(rng, Xp)
    gp = _integral_unimodular_sl(rng, 2, 3)
    ap = xl.mat([[rand_fraction(rng, 3, -1, 1)]])
    ysp = [rand_regular_point(rng, space_X(1, f3).transpose_space()) for _ in range(3)]
    rep = intertwine_equivariance_check(fp, gp, ap, ysp)
    assert rep["pass"], rep


@pytest.mark.parametrize("field", ["r", "q2"])
def test_intertwine_failing_law_keeps_its_row(monkeypatch, rng, fr, f2, field):
    """f.a doubled mis-wires the second law only: the record fails and keeps
    every row with its input, over R with both laws' sides and residuals,
    over Q_2 with both exact flags, the first law's still true."""
    fd = fr if field == "r" else f2
    X = space_X(1, fd)
    Y = X.transpose_space()
    if fd is fr:
        f, g, a = GaussianForm.standard(X), rand_sl(rng, 2, fd), rand_gl(rng, 1, fd)
    else:
        f, g, a = SBFunction.standard_ball(X), _integral_unimodular_sl(rng, 2, 2), xl.mat([[2]])
    ys = [rand_regular_point(rng, Y) for _ in range(4)]
    assert intertwine_equivariance_check(f, g, a, ys)["pass"]
    real = transforms.act_module_X
    monkeypatch.setattr(transforms, "act_module_X", lambda h, b: real(h, b).scale(2))
    rep = intertwine_equivariance_check(f, g, a, ys)
    assert not rep["pass"] and len(rep["samples"]) == len(ys)
    for y, row in zip(ys, rep["samples"]):
        assert row["input"] == _input_json(y, fd)
    if fd is fr:
        keys = {"input", "g_lhs", "g_rhs", "g_side_err", "a_lhs", "a_rhs", "a_side_err"}
        assert all(set(row) == keys for row in rep["samples"])
        assert all(row["g_side_err"] <= 1e-6 < row["a_side_err"] for row in rep["samples"])
    else:
        assert all(set(row) == {"input", "g_side_exact", "a_side_exact"} for row in rep["samples"])
        assert all(row["g_side_exact"] for row in rep["samples"])
        assert any(row["a_side_exact"] is False for row in rep["samples"])


def _integral_unimodular_sl(rng, size, p):
    m = rand_gl_zp(rng, size, p)
    d = xl.det(m)
    # divide the first column by the unit determinant to land in SL
    return tuple(
        tuple(x / d if j == 0 else x for j, x in enumerate(row)) for row in m
    )


# -- gamma and the kernel identity ---------------------------------------


def test_gamma_examples(fr):
    # n = 1: gamma(a) = chi(1/a), no magnitude factor
    a = np.array([[0.5]])
    assert abs(gamma_n(a, fr) - np.exp(-2j * np.pi * 2.0)) < 1e-14
    for n in (1, 2, 3):
        eye = np.eye(n)
        assert abs(gamma_n(eye, fr) - 1.0) < 1e-14  # chi(n) = e^{-2 pi i n}
    got = gamma_n(2.0 * np.eye(2), fr)
    assert abs(got - 0.5) < 1e-14  # |4|^(-1/2) chi(1) = 1/2


def test_gamma_padic_exact(f3):
    a = xl.mat([[3, 0], [0, 3]])
    got = gamma_n(a, f3)
    # |det|^((1-2)/2) = |9|^(-1/2) = 3; chi(Tr a^-1) = chi(2/3)
    assert got == ExactValue(3, Fraction(0), add_char(Fraction(2, 3), f3) * 3)


def test_kernel_identity_all_fields(rng, fr, fc, f2, f3):
    for fd, n in [(fr, 1), (fr, 2), (fc, 1), (f2, 1), (f2, 2), (f3, 2)]:
        samples = [rand_gl(rng, n, fd) for _ in range(60)]
        rep = kernel_identity_check(fd, n, samples)
        assert rep["pass"], (str(fd), n)
        bad = kernel_identity_check(fd, n, samples, exponent_shift=Fraction(-1, 2))
        assert not bad["pass"]


def test_kernel_identity_shift_matches_shifted_gamma(rng, f2, f3):
    # the reference keeps the shift inside gamma_n's exponent, on a^(-1)
    def shifted_lhs(a, fd, n, s):
        ai = xl.inv(a)
        gamma = det_power(ai, Fraction(1 - n, 2) + s, fd) * add_char(mtrace(minv(ai, fd), fd), fd)
        return det_power(a, Fraction(1 - n, 2), fd) * gamma

    for fd in (f2, f3):
        for n in (1, 2):
            # ten samples: the report keeps a row for each, in order
            samples = [rand_gl(rng, n, fd) for _ in range(10)]
            samples[0] = tuple(tuple(x * fd.p for x in row) for row in samples[0])
            for s in (Fraction(1, 2), Fraction(-1, 2)):
                rep = kernel_identity_check(fd, n, samples, exponent_shift=s)
                assert not rep["pass"] and len(rep["samples"]) == len(samples)
                for a, row in zip(samples, rep["samples"]):
                    assert row["lhs"] == shifted_lhs(a, fd, n, s).to_json(), (str(fd), n, s)


def test_kernel_identity_base_cases(fr):
    for n in (1, 2, 3):
        rep = kernel_identity_check(fr, n, [np.eye(n)])
        row = rep["samples"][0]
        # both sides equal chi(n) at the identity
        want = np.exp(-2j * np.pi * n)
        assert abs(complex(*row["lhs"]) - want) < 1e-14
        assert abs(complex(*row["rhs"]) - want) < 1e-14
    rep = kernel_identity_check(fr, 2, [2.0 * np.eye(2)])
    assert rep["pass"]
    # lhs = |4|^(-1/2) |4|^(1/2) chi(4) = chi(4) = 1
    assert abs(complex(*rep["samples"][0]["lhs"]) - 1.0) < 1e-13


# -- convolutions ---------------------------------------------------------


def convolve_gamma(f, x):
    """C_gamma f(x) = integral over M_n of f(x b) chi(Tr b) db, the operational
    form that compose_shell_stabilized evaluates at each fiber point."""
    return integrate_against_trace_character(translate_group(f, x, side="left"))


def test_convolve_gamma_closed_form(fr):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    for xv in [np.array([[1.0], [0.0]]), np.array([[0.6], [0.8]]), np.array([[2.0], [0.0]])]:
        norm = float(np.linalg.norm(xv))
        want = (1.0 / norm) * np.exp(-np.pi / norm**2)
        assert abs(convolve_gamma(f, xv) - want) < 1e-12
    with pytest.raises(ValueError):
        convolve_gamma(f, np.zeros((2, 1)))  # b -> 0 b is not injective


def test_convolve_gamma_padic(f3):
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    assert convolve_gamma(ball, xl.mat([[1], [0]])) == one(3)


# -- composition ----------------------------------------------------------


def test_compose_shell_stabilized_examples(f2, f3):
    # unit-centered shifted cosets stabilize and match the transform exactly
    for fd in (f2, f3):
        p = fd.p
        Xp = space_X(1, fd)
        f = SBFunction.indicator(
            Xp, Coset(Lattice.scaled_standard(p, 2, 1), (Fraction(1), Fraction(0)))
        )
        y = xl.mat([[1, 0]])
        val, cert = compose_shell_stabilized(f, y, k_max=6)
        assert cert["stabilized"] and val == fourier(f).value(y)
        assert cert["stabilization_radius"] is not None


def test_compose_shell_zero_value(f3):
    # a combination whose transform vanishes at the chosen point stabilizes to 0
    p = 3
    Xp = space_X(1, f3)
    lat = Lattice.scaled_standard(p, 2, 2)
    f = SBFunction(
        Xp,
        [
            (Fraction(1), Coset(lat, (Fraction(1), Fraction(0)))),
            (Fraction(-1), Coset(lat, (Fraction(1 + p), Fraction(0)))),
        ],
    )
    y = xl.mat([[Fraction(1, p), 0]])
    want = fourier(f).value(y)
    assert want.is_zero()
    val, cert = compose_shell_stabilized(f, y, k_max=7)
    assert cert["stabilized"] and val is not None and val.is_zero()


def test_compose_shell_inconclusive_ball(f3):
    # the plain unit ball has constant shell contributions 1 - 1/p: no
    # stabilization, so there is no value to compare
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    y = xl.mat([[1, 0]])
    val, cert = compose_shell_stabilized(ball, y, k_max=4)
    assert val is None and not cert["stabilized"]
    for sh in cert["shells"][1:]:
        assert sh["contribution"]["cyclotomic"]["coeffs"] == ["2/3"]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", [7, 8])
def test_compose_shells_match_pointwise_route(p, seed):
    """Every shell contribution of the composition, on the pairs that the
    suite's composition check draws, is the sum over the shell points z of
    C_gamma f(A + c z), each times the cell volume p^(-n s)."""
    cfg = SuiteConfig(field="qp", p=p, seed=seed)
    fd, n = cfg.fd, cfg.n
    rng = _rng_for(cfg, "composition")
    X = space_X(n, fd)
    for _ in range(max(6, min(cfg.samples, 12))):
        f = rand_sb_function(rng, X, terms=1, unit_leading_center=True)
        y = _unit_row_sample(rng, n, p)
        _, cert = compose_shell_stabilized(f, y, k_max=7)  # the suite's k_max
        s = cert["granularity_exponent"]
        g = fiber_param(y, n, fd)
        A, c = b_map(g, n, fd), [row[n:] for row in g]
        for shell in cert["shells"]:
            want = ExactValue.from_cyclo(p, 0)
            for z in _shell_points(p, n, shell["k"], s):
                x = [[a + ci * zj for a, zj in zip(ra, z)] for ra, (ci,) in zip(A, c)]
                want = want + convolve_gamma(f, x) * Fraction(1, p ** (n * s))
            assert want.to_json() == shell["contribution"]


def test_compose_weighted_slice_on_nonunit_support(f2):
    # off the unit-determinant class the stabilized value reproduces the
    # |det a|^(-1)-weighted slice integral rather than the transform:
    # the weight is invisible exactly when the slice support has |det| = 1
    p = 2
    Xp = space_X(1, f2)
    f = SBFunction(
        Xp,
        [
            (Fraction(1), Coset(Lattice.scaled_standard(p, 2, 1), (Fraction(1), Fraction(0)))),
            (
                CyclotomicValue.root_of_unity(2, 4, 1),
                Coset(Lattice.scaled_standard(p, 2, 2), (Fraction(1, 2), Fraction(0))),
            ),
        ],
    )
    y = xl.mat([[Fraction(1, 2), Fraction(0)]])
    val, cert = compose_shell_stabilized(f, y, k_max=7)
    assert cert["stabilized"]
    fam = slice_family(f, y)
    weighted = ExactValue.from_cyclo(p, 0)
    sub = Lattice.scaled_standard(p, 1, 8)
    for coeff, coset in fam.terms:
        for rep in coset.lattice.quotient_representatives(sub):
            a0 = coset.center[0] + Fraction(rep[0], p**coset.lattice.e)
            if a0 == 0:
                continue
            from radonfourier import padic_valuation

            winv = Fraction(p) ** padic_valuation(a0, p)  # |a|^{-1}
            weighted = weighted + coeff * add_char(a0, f2) * winv * sub.volume()
    assert val == weighted
    assert val != fourier(f).value(y)


# -- top-level identities -------------------------------------------------


def test_fourier_slice_gaussian_quadrature(rng, fr):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    ys = [np.array([[1.0, 0.0]])] + [
        rand_regular_point(rng, space_X(1, fr).transpose_space()) for _ in range(3)
    ]
    # a small y whose slice envelope is wide: a fixed line interval sampled
    # its far tail, where the pulled-back Gaussian amplitude overflows
    ys.append(np.array([[0.031982182782880425, 0.042112834616157335]]))
    ok, rows = quadrature_slice_verify(f, ys, tol=1e-6)
    assert ok, rows
    # oracle at y = (1,0)
    assert abs(rows[0]["lhs"] - np.exp(-np.pi)) < 1e-12
    # the closed-form route agrees with the quadrature one on every point
    rep = fourier_slice_verify(f, ys, tol=1e-6)
    assert rep["pass"], rep
    for got, row in zip(rep["samples"], rows):
        assert abs(complex(*got["rhs"]) - row["rhs"]) <= 1e-6
        assert got["rhs_quadrature_error"] == 0.0


def test_fourier_slice_quadrature_error_gated(monkeypatch, fr):
    # the cross-check fails on an estimate above tol, however small the residual
    import slice_quadrature

    exact_integrate = slice_quadrature.integrate

    def loose(g, with_error=False):
        val, _ = exact_integrate(g, with_error=True)
        return val, 1e-3

    monkeypatch.setattr(slice_quadrature, "integrate", loose)
    f = GaussianForm.standard(space_X(1, fr))
    ok, rows = quadrature_slice_verify(f, [np.array([[1.0, 0.0]])], tol=1e-6)
    assert rows[0]["abs_err"] <= 1e-6 and rows[0]["err"] == 1e-3
    assert not ok


def test_fourier_slice_negative_control(rng, fr, f3):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    ys = [np.array([[1.0, 0.0]])]
    bad = fourier_slice_verify(f, ys, tol=1e-6, measure_factor=2.0)
    assert not bad["pass"]
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    badp = fourier_slice_verify(ball, [xl.mat([[1, 0]])], measure_factor=3)
    assert not badp["pass"]


def test_fourier_slice_measure_factor_scales_rhs(rng, fr, f3):
    # exact over Q_3: every perturbed rhs is 3 times the unperturbed one
    def exact(obj):
        return _json_exact(obj, 3)

    Xp = space_X(1, f3)
    for f in (SBFunction.standard_ball(Xp), rand_sb_function(rng, Xp)):
        ys = [xl.mat([[1, 0]])] + [rand_regular_point(rng, Xp.transpose_space()) for _ in range(3)]
        good = fourier_slice_verify(f, ys)["samples"]
        bad = fourier_slice_verify(f, ys, measure_factor=3)["samples"]
        assert any(not exact(row["rhs"]).is_zero() for row in good)
        for g, b in zip(good, bad):
            assert exact(b["rhs"]) == exact(g["rhs"]) * 3
    # over R at c = 2: the right side doubles, and is twice the independent
    # quadrature slice integral, to its tolerance
    X = space_X(1, fr)
    f = rand_gaussian(rng, X)
    ys = [np.array([[1.0, 0.0]])] + [rand_regular_point(rng, X.transpose_space()) for _ in range(3)]
    good = fourier_slice_verify(f, ys)["samples"]
    bad = fourier_slice_verify(f, ys, measure_factor=2.0)["samples"]
    ok, rows = quadrature_slice_verify(f, ys, tol=1e-6)
    assert ok, rows
    for g, b, row in zip(good, bad, rows):
        want = 2.0 * complex(*g["rhs"])
        assert abs(complex(*b["rhs"]) - want) <= 1e-15 * abs(want)
        assert abs(complex(*b["rhs"]) - 2.0 * row["rhs"]) <= 2.0 * 1e-6
        assert b["rhs_quadrature_error"] == 0.0


def test_unitarity(rng, fr, f3):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    grid = [np.array([[2.0 ** (j / 4.0)]]) for j in range(-16, 17)]
    rep = unitarity_verify(f, f, grid, tol=1e-10)
    assert rep["pass"]
    g = rand_gaussian(rng, X)
    h = rand_gaussian(rng, X)
    rep2 = unitarity_verify(g, h, grid[::4], tol=1e-8)
    assert rep2["pass"], rep2
    Xp = space_X(1, f3)
    fp = rand_sb_function(rng, Xp)
    hp = rand_sb_function(rng, Xp)
    gridp = [xl.mat([[Fraction(3) ** k]]) for k in range(-3, 4)]
    repp = unitarity_verify(fp, hp, gridp)
    assert repp["pass"], repp
