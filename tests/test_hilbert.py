from fractions import Fraction

import numpy as np
import pytest

from radonfourier import (
    Envelope,
    Evaluable,
    ExactValue,
    GaussianForm,
    SBFunction,
    act_g,
    act_module_X,
    act_module_Xbar,
    inner_X,
    inner_Xbar,
    space_X,
    truncation_sequence,
)
from radonfourier import exactlinalg as xl
from radonfourier import hilbert
from radonfourier.hilbert import _mat_json, column_product_constant, decay_bound_check, exact_le
from radonfourier.lattices import Coset, Lattice
from radonfourier.quadrature import integrate_polar_2d
from radonfourier.sampling import (
    default_a_grid,
    rand_gaussian,
    rand_gl,
    rand_kak_sample,
    rand_sl,
)
from cutoff import cutoff_chi


def test_inner_X_closed_forms(fr, f3):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    ip = inner_X(f, f)
    for av in [0.25, 0.5, 1.0, 2.0, 5.0]:
        assert abs(ip(np.array([[av]])) - av / (1 + av * av)) < 1e-12
    assert ip(np.eye(1)).real > 0  # positivity at the identity
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    ipp = inner_X(ball, ball)
    for k in range(-3, 4):
        a = xl.mat([[Fraction(3) ** k]])
        assert ipp(a) == ExactValue.from_cyclo(3, Fraction(3) ** (-abs(k)))


def test_inner_Xbar_mirror(fr, f3):
    Y = space_X(1, fr).transpose_space()
    f = GaussianForm.standard(Y)
    ip = inner_Xbar(f, f)
    for av in [0.5, 1.0, 3.0]:
        assert abs(ip(np.array([[av]])) - av / (1 + av * av)) < 1e-12
    Yp = space_X(1, f3).transpose_space()
    ball = SBFunction.standard_ball(Yp)
    ipp = inner_Xbar(ball, ball)
    for k in range(-2, 3):
        a = xl.mat([[Fraction(3) ** k]])
        assert ipp(a) == ExactValue.from_cyclo(3, Fraction(3) ** (-abs(k)))


def test_act_module_scalings(fr):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    fi = act_module_X(f, np.eye(1))
    assert np.allclose(fi.Q, f.Q) and abs(fi.kappa - f.kappa) < 1e-15
    fa = act_module_X(f, np.array([[2.0]]))
    assert abs(fa.kappa - 0.5) < 1e-15
    assert np.allclose(fa.Q, np.eye(2) / 4.0)
    # action law (f.a).b = f.(ab)
    a, b = np.array([[1.3]]), np.array([[0.6]])
    lhs = act_module_X(act_module_X(f, a), b)
    rhs = act_module_X(f, a @ b)
    assert np.allclose(lhs.Q, rhs.Q) and abs(lhs.kappa - rhs.kappa) < 1e-14
    # opposite side scaling
    Y = space_X(1, fr).transpose_space()
    g = GaussianForm.standard(Y)
    ga = act_module_Xbar(g, np.array([[2.0]]))
    assert abs(ga.kappa - 2.0) < 1e-15
    assert np.allclose(ga.Q, 4.0 * np.eye(2))


def test_module_property_literal(rng, fr):
    # <f, h.a>_X(b) computed both ways
    X = space_X(1, fr)
    f = rand_gaussian(rng, X)
    h = rand_gaussian(rng, X)
    for _ in range(5):
        a = rand_gl(rng, 1, fr)
        b = rand_gl(rng, 1, fr)
        lhs = inner_X(f, act_module_X(h, a))(b)
        scale = float(np.abs(np.linalg.det(a))) ** (-1.0)  # |det a|^(-(n+1)/2), n = 1
        from radonfourier import translate_group

        rhs = scale * inner_X(f, translate_group(h, np.linalg.inv(a)))(b)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_hermitian_symmetry(rng, fr, f3):
    X = space_X(1, fr)
    f = rand_gaussian(rng, X)
    h = rand_gaussian(rng, X)
    pf = inner_X(f, h)
    ph = inner_X(h, f)
    for _ in range(5):
        a = rand_gl(rng, 1, fr)
        assert abs(pf(a) - np.conj(ph(np.linalg.inv(a)))) < 1e-10
    Xp = space_X(1, f3)
    from radonfourier.sampling import rand_sb_function

    fp = rand_sb_function(rng, Xp)
    hp = rand_sb_function(rng, Xp)
    pfp = inner_X(fp, hp)
    php = inner_X(hp, fp)
    for k in range(-2, 3):
        a = xl.mat([[Fraction(3) ** k]])
        ai = xl.mat([[Fraction(3) ** (-k)]])
        assert pfp(a) == php(ai).conjugate()


def test_g_invariance(rng, fr):
    X = space_X(1, fr)
    f = rand_gaussian(rng, X)
    h = rand_gaussian(rng, X)
    base = inner_X(f, h)
    for _ in range(3):
        g = rand_sl(rng, 2, fr)
        moved = inner_X(act_g(f, g), act_g(h, g))
        for a in [np.array([[0.7]]), np.array([[1.9]])]:
            assert abs(base(a) - moved(a)) < 1e-9 * max(1.0, abs(base(a)))


def test_act_g_laws(rng, fr):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    assert np.allclose(act_g(f, np.eye(2)).Q, f.Q)
    g1 = rand_sl(rng, 2, fr)
    g2 = rand_sl(rng, 2, fr)
    lhs = act_g(f, g1 @ g2)
    rhs = act_g(act_g(f, g2), g1)
    assert np.allclose(lhs.Q, rhs.Q, atol=1e-10)


def test_decay_bound_gaussian(rng, fr):
    X = space_X(2, fr)
    f = GaussianForm.standard(X)
    samples = [rand_kak_sample(rng, 2, fr) for _ in range(100)]
    rep = decay_bound_check(f, samples)
    assert rep["pass"] and abs(rep["C"] - 1.0) < 1e-12
    # n = 1 closed form: |a|/(1+a^2) <= min(|a|, 1/|a|)
    X1 = space_X(1, fr)
    f1 = GaussianForm.standard(X1)
    ip = inner_X(f1, f1)
    for av in [0.1, 0.5, 1.0, 2.0, 10.0]:
        assert abs(ip(np.array([[av]]))) <= min(av, 1 / av) + 1e-12


def test_decay_bound_padic_equality(rng, f3):
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    samples = [rand_kak_sample(rng, 1, f3) for _ in range(50)]
    rep = decay_bound_check(ball, samples)
    assert rep["pass"]
    # the bound is attained: value equals min(|a|,|a|^-1)^((n+1)/2) with C = 1
    ip = inner_X(ball, ball)
    for k1, diag, k2 in samples[:10]:
        D = ((diag[0],),)
        a = xl.matmul(xl.matmul(k1, D), k2)
        v = __import__("radonfourier").padic_valuation(diag[0], 3)
        assert ip(a) == ExactValue.from_cyclo(3, Fraction(3) ** (-abs(v)))


def test_decay_bound_requires_product_structure(rng, fr):
    X = space_X(2, fr)
    g = rand_gaussian(rng, X)  # generic Q does not split across columns
    with pytest.raises(ValueError):
        decay_bound_check(g, [rand_kak_sample(rng, 2, fr)])


def _column_blocks(space, blocks):
    """The quadratic form that is ``blocks[j]`` on the entries of column j
    (a real block acts on real and imaginary parts alike over C) and zero
    across columns."""
    column = np.arange(space.dim) // space.fd.d_F % space.cols
    Q = np.zeros((space.dim, space.dim))
    for j, B in enumerate(blocks):
        if space.fd.kind == "complex":
            B = np.kron(B, np.eye(2))
        Q[np.ix_(column == j, column == j)] = B
    return Q


# a non-isotropic column block of determinant 8.67, and a different one
_BLOCK = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.89]])
_OTHER_BLOCK = np.diag([1.0, 3.0, 0.5])


def test_decay_bound_refuses_unequal_column_blocks(rng, fr, fc, f3):
    # with unequal column blocks the compact group acting on the right moves
    # f, and the bound fails with C = ||f||_inf ||f||_1: by a factor above 2
    # over R at swap diag(8, 1/8), and of exactly 27 over Q_3 at
    # diag(1/3, 3) swap; so the check refuses f
    for fd in (fc, fr):
        X = space_X(2, fd)
        f = GaussianForm(X, _column_blocks(X, (_OTHER_BLOCK, _BLOCK)), kappa=2.0)
        with pytest.raises(ValueError, match="one block repeated"):
            decay_bound_check(f, [rand_kak_sample(rng, 2, fd)])
    C = 4.0 / np.sqrt(np.linalg.det(_OTHER_BLOCK) * np.linalg.det(_BLOCK))
    a = np.array([[0.0, 1.0], [1.0, 0.0]]) @ np.diag([8.0, 1 / 8])
    assert abs(inner_X(f, f)(a)) > 2 * C * 8.0**-3
    f = _padic_column_lattice(f3, (_diag(3, 3, 3), _diag(1, 1, 1)))
    with pytest.raises(ValueError, match="one block repeated"):
        decay_bound_check(f, [rand_kak_sample(rng, 2, f3)])
    a = xl.matmul(_diag(Fraction(1, 3), 3), _diag(1, 1)[::-1])
    assert inner_X(f, f)(a) == ExactValue.from_cyclo(3, 27 * Fraction(1, 108) * Fraction(1, 27))


@pytest.mark.parametrize("field", ["r", "q3"])
def test_decay_bound_keeps_failing_rows(monkeypatch, rng, fr, f3, field):
    """A constant a quarter of the true one puts every sample above its bound
    (over R |a|/(1+a^2) > min(|a|,|a|^-1)/4, over Q_3 the bound is attained):
    the record fails, keeps every row, and each row carries k1 and k2 for
    replay.  Clean rows carry neither."""
    fd = fr if field == "r" else f3
    X = space_X(1, fd)
    f = GaussianForm.standard(X) if fd is fr else SBFunction.standard_ball(X)
    samples = [rand_kak_sample(rng, 1, fd) for _ in range(6)]
    clean = decay_bound_check(f, samples)
    assert clean["pass"] and all(set(row) == {"diag", "value", "bound"} for row in clean["samples"])
    real = hilbert.column_product_constant
    monkeypatch.setattr(hilbert, "column_product_constant", lambda g: real(g) / 4)
    rep = decay_bound_check(f, samples)
    assert not rep["pass"] and len(rep["samples"]) == len(samples)
    for (k1, _, k2), row, was in zip(samples, rep["samples"], clean["samples"]):
        assert row["diag"] == was["diag"] and row["value"] == was["value"]
        assert row["bound"] < row["value"]
        assert row["k1"] == _mat_json(k1, fd) and row["k2"] == _mat_json(k2, fd)


def test_decay_bound_equal_column_blocks(rng, fr, fc, f3):
    # C = |kappa|^2 det(Q)^(-1/2) with det(Q) = det(block)^(n d_F)
    for fd, want in ((fr, 0.461361014994233), (fc, 0.0532134965391272)):
        X = space_X(2, fd)
        f = GaussianForm(X, _column_blocks(X, (_BLOCK, _BLOCK)), kappa=2.0)
        rep = decay_bound_check(f, [rand_kak_sample(rng, 2, fd) for _ in range(100)])
        assert rep["pass"] and abs(rep["C"] - want) < 1e-12
        assert abs(want - 4.0 / 8.67 ** (2 if fd is fc else 1)) < 1e-12
    # over Q_3, 1/2 on the lattice whose columns lie in 3Z_3 + Z_3 + Z_3:
    # C = (1/2)^2 (1/3)^2; and on a non-diagonal column lattice of volume 1/9
    one = Fraction(1)
    for block, want in ((_diag(3, 1, 1), Fraction(1, 36)),
                        (((3 * one, 0, 0), (one, 3 * one, 0), (0, 0, one)), Fraction(1, 324))):
        f = _padic_column_lattice(f3, (block, block))
        assert column_product_constant(f) == want
        rep = decay_bound_check(f, [rand_kak_sample(rng, 2, f3) for _ in range(40)])
        assert rep["pass"] and rep["C"] == float(want)


def _diag(*entries):
    return tuple(tuple(Fraction(e) if i == j else Fraction(0) for j in range(len(entries)))
                 for i, e in enumerate(entries))


def _padic_column_lattice(fd, blocks):
    """1/2 on the lattice of the matrices whose column j lies in the lattice
    spanned by the columns of ``blocks[j]``."""
    X = space_X(2, fd)
    basis = [[Fraction(0)] * X.dim for _ in range(X.dim)]
    for j, block in enumerate(blocks):
        for r, row in enumerate(block):
            for s, b in enumerate(row):
                basis[r * X.cols + j][s * X.cols + j] = Fraction(b)
    lattice = Coset(Lattice(fd.p, basis), (Fraction(0),) * X.dim)
    return SBFunction.indicator(X, lattice).scale(Fraction(1, 2))


def test_exact_le():
    a = ExactValue(3, Fraction(1, 2), Fraction(1))
    b = ExactValue(3, 0, Fraction(2))
    assert exact_le(a, b)  # sqrt(3) <= 2
    assert not exact_le(b, a)
    # exponent differences that squaring does not clear, in both orders
    for e1, c1, e2, c2, want in [
        (Fraction(1, 4), 1, 0, 1, False),  # 2^(1/4) = 1.189... > 1
        (Fraction(1, 4), 1, 0, Fraction(6, 5), True),
        (Fraction(1, 4), 1, 0, Fraction(7, 6), False),
        (Fraction(3, 4), 1, 0, Fraction(3, 2), False),  # 2^(3/4) = 1.681...
        (Fraction(3, 4), 1, 0, Fraction(17, 10), True),
        (Fraction(1, 3), 3, Fraction(3, 4), 2, False),  # difference 5/12
    ]:
        assert (2 ** float(e1) * c1 <= 2 ** float(e2) * c2) == want
        v1, v2 = ExactValue(2, e1, Fraction(c1)), ExactValue(2, e2, Fraction(c2))
        assert exact_le(v1, v2) is want
        assert exact_le(v2, v1) is (not want)


def test_truncation_bump_vanishes(fr):
    # a function supported on the cutoff plateau has phi_m = 0 from that m on
    X = space_X(1, fr)
    center = np.array([1.5, 0.0])

    def bump(pts):
        r = np.linalg.norm(pts - center[None, :], axis=1)
        out = np.zeros(len(pts), dtype=complex)
        mask = r < 0.4
        out[mask] = np.exp(-1.0 / (1 - (r[mask] / 0.4) ** 2))
        return out

    f = Evaluable(X, bump, Envelope(C=1.0, radius=2.0), "bump")
    for m in (3, 5):
        chi = cutoff_chi(m, X)
        diff_at = lambda pts: f.eval_coords(pts) * (1 - chi.eval_coords(pts))
        pts = np.random.default_rng(0).standard_normal((2000, 2)) * 2
        assert np.max(np.abs(diff_at(pts))) == 0.0


def _truncation_reference(f, m, av):
    """phi_m(a) from the pointwise integrand conj(delta(x)) delta(x a),
    delta = f (1 - cutoff_chi(m)), on truncation_sequence's panels."""
    chi = cutoff_chi(m, f.space)

    def delta(pts):
        return f.eval_coords(pts) * (1.0 - np.real(chi.eval_coords(pts)))

    feat = [1.0 / (m + 1) ** 2, 1.0 / m**2, float(m), float(m + 1)]
    feat += [x / abs(av) for x in feat]
    r_tail = min(float(m + 1), 4.5 / min(1.0, abs(av)))
    breaks = sorted({0.0, r_tail, *[x for x in feat if 0 < x < r_tail]})
    M = np.eye(2) * av
    val = integrate_polar_2d(lambda pts: np.conj(delta(pts)) * delta(pts @ M.T), breaks, 40, 48)
    return abs(abs(av) * val.real)


def _truncation_gaussians(fr):
    """A standard Gaussian and one with non-standard Q and complex kappa and
    ell, with a over the default grid plus a negative a."""
    X = space_X(1, fr)
    gaussians = [
        GaussianForm.standard(X),
        GaussianForm(X, [[1.3, 0.4], [0.4, 0.9]], 0.8 - 0.3j, [0.2 + 0.05j, -0.3 + 0.1j]),
    ]
    return gaussians, [float(a[0][0]) for a in default_a_grid(1, fr)] + [-0.7]


def _record_polar_calls(monkeypatch):
    """Route integrate_polar_2d through a recorder of (integrand, r_breaks)."""
    calls = []
    rule = integrate_polar_2d

    def recorded(fn, r_breaks, *args, **kwargs):
        calls.append((fn, list(r_breaks)))
        return rule(fn, r_breaks, *args, **kwargs)

    monkeypatch.setattr("radonfourier.quadrature.integrate_polar_2d", recorded)
    return calls


def test_truncation_sequence_matches_pointwise_integrand(fr):
    # the radial split of the cutoff factor changes only the roundoff; a = -0.7
    # fails when the cutoff at x a is taken at a r instead of |a| r
    gaussians, grid = _truncation_gaussians(fr)
    for f in gaussians:
        for av in grid:
            sups = [row["sup"] for row in truncation_sequence(f, 7, [av])["samples"]]
            for m in (1, 2, 7):
                want = _truncation_reference(f, m, av)
                assert abs(sups[m - 1] - want) <= 1e-13 * want, (m, av, sups[m - 1], want)


def test_truncation_integrand_is_the_closed_form_product(fr, monkeypatch):
    # the Gaussian that truncation_sequence integrates for a is conj(f(x)) f(a x),
    # on points where neither factor underflows (scaled so |x|, |a x| <= ~3):
    # the exponent is rounded once, not twice, so the relative gap grows with it
    gaussians, grid = _truncation_gaussians(fr)
    std = np.random.default_rng(3).standard_normal((200, 2))
    calls = _record_polar_calls(monkeypatch)
    for f in gaussians:
        for av in grid:
            calls.clear()
            truncation_sequence(f, 1, [av])
            (fn, _), = calls
            pts = std / max(1.0, abs(av))
            want = np.conj(f.eval_coords(pts)) * f.eval_coords(av * pts)
            got = fn(pts)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), av


def test_truncation_evaluates_each_node_once(fr, monkeypatch):
    # one Gaussian evaluation per polar panel, one exp per node, for every (m, a)
    f = GaussianForm.standard(space_X(1, fr))
    grid = [float(a[0][0]) for a in default_a_grid(1, fr)]
    calls = _record_polar_calls(monkeypatch)
    evals = []
    eval_coords = GaussianForm.eval_coords

    def counted(self, pts):
        evals.append(len(pts))
        return eval_coords(self, pts)

    monkeypatch.setattr(GaussianForm, "eval_coords", counted)
    truncation_sequence(f, 3, grid)
    assert len(calls) == 3 * len(grid)
    panels = sum(len(breaks) - 1 for _, breaks in calls)
    assert len(evals) == panels
    assert sum(evals) == panels * 40 * 48


def test_truncation_sequence_decreases(fr):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    grid = [float(a[0][0]) for a in default_a_grid(1, fr)]
    rep = truncation_sequence(f, 6, grid)
    assert rep["monotone"]
    sups = [row["sup"] for row in rep["samples"]]
    assert sups[-1] < sups[0]
    # phi_m(1) is the squared L2 distance and it shrinks
    assert rep["samples"][-1]["sup"] < 0.01
