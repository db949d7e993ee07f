import json
from fractions import Fraction

import numpy as np
import pytest

from radonfourier import (
    Coset,
    Envelope,
    Evaluable,
    ExactValue,
    GaussianForm,
    Lattice,
    SBFunction,
    fiber_param,
    fiber_restrict,
    fourier,
    function_from_json,
    integrate,
    pointwise_mul,
    space_X,
    translate_group,
)
from radonfourier import complex_field, padic_field, padic_valuation, real_field
from radonfourier import exactlinalg as xl
from radonfourier.functions import _quadratic_form
from radonfourier.fields import add_char
from radonfourier.geometry import MatrixSpace, mmul
from radonfourier.sampling import rand_fraction, rand_gaussian, rand_matrix, rand_sb_function
from radonfourier.transforms import pairing_matrix

from basis import brute_value, inverse
from cutoff import cutoff_chi


def one(p):
    return ExactValue.from_cyclo(p, 1)


def test_value_examples(fr, f3):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    assert abs(f.value(np.zeros((2, 1))) - 1.0) < 1e-15
    assert abs(f.value(np.array([[1.0], [0.0]])) - np.exp(-np.pi)) < 1e-15
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    assert ball.value(xl.mat([[1], [3]])) == one(3)
    assert ball.value(xl.mat([[Fraction(1, 3)], [0]])).is_zero()


def test_pullback_examples(fr, f3):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    g = f.pullback_affine(np.eye(2), X)
    assert np.allclose(g.Q, f.Q) and g.kappa == f.kappa
    h = f.pullback_affine(2.0 * np.eye(2), X)
    assert np.allclose(h.Q, 4.0 * np.eye(2))
    with pytest.raises(ValueError):
        f.pullback_affine(np.array([[1.0], [1.0]]) @ np.array([[1.0, 1.0]]), X)
    D1 = MatrixSpace(f3, 1, 1)
    ind = SBFunction.indicator(D1, Coset(Lattice.scaled_standard(3, 1, 0), (Fraction(0),)))
    pre = ind.pullback_affine(xl.p_scaled(((Fraction(3),),), 3), D1)
    assert pre.terms[0][1].lattice == Lattice.scaled_standard(3, 1, -1)


def test_translate_group(fr):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    ft = translate_group(f, np.eye(1), side="right")
    assert np.allclose(ft.Q, f.Q)
    fa = translate_group(f, np.array([[2.0]]), side="right")
    assert np.allclose(fa.Q, 4.0 * np.eye(2))
    a, b = np.array([[1.7]]), np.array([[0.4]])
    lhs = translate_group(translate_group(f, a), b)
    rhs = translate_group(f, a @ b)
    assert np.allclose(lhs.Q, rhs.Q) and abs(lhs.kappa - rhs.kappa) < 1e-14


@pytest.mark.parametrize("fd", [real_field(), complex_field(), padic_field(3)], ids=str)
@pytest.mark.parametrize("n", [1, 2])
def test_translate_group_left_non_square(rng, fd, n):
    """x -> f(m x) for an (n+1) x n matrix m lives on n x n matrices."""
    X = space_X(n, fd)
    f = GaussianForm.standard(X) if fd.is_archimedean else rand_sb_function(rng, X, terms=3)
    m = rand_matrix(rng, n + 1, n, fd)
    g = translate_group(f, m, side="left")
    assert g.space.shape == (n, n)
    for _ in range(4):
        b = rand_matrix(rng, n, n, fd)
        want = f.value(mmul(m, b, fd))
        got = g.value(b)
        assert abs(got - want) < 1e-12 if fd.is_archimedean else got == want


def test_cutoff_chi(rng, fr):
    n = 2
    X = space_X(n, fr)
    chi2 = cutoff_chi(2, X)
    x0 = np.eye(n + 1)[:, :n]
    assert abs(chi2.value(x0) - 1.0) < 1e-14  # sigma = 1, norm = sqrt(2) <= 2
    rank_def = np.zeros((3, 2))
    rank_def[0, 0] = 1.0
    assert chi2.value(rank_def) == 0
    pts = rng.standard_normal((500, X.dim)) * 3
    vals = np.real(chi2.eval_coords(pts))
    assert np.all(vals >= 0) and np.all(vals <= 1)
    with pytest.raises(ValueError):
        cutoff_chi(0, X)


def test_pointwise_mul(fr, f3):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    g = GaussianForm(X, np.array([[2.0, 0.5], [0.5, 1.0]]), kappa=0.5, ell=[0.3, -0.1])
    pts = np.random.default_rng(1).standard_normal((50, 2))
    prod = pointwise_mul(f, g)
    assert np.allclose(prod.eval_coords(pts), f.eval_coords(pts) * g.eval_coords(pts))
    # ball intersection: 1_{Z_p^2} * 1_{p Z_p^2} = 1_{p Z_p^2}
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    small = SBFunction.indicator(Xp, Coset(Lattice.scaled_standard(3, 2, 1), (Fraction(0),) * 2))
    got = pointwise_mul(ball, small)
    assert got.terms == small.terms
    # a cutoff is an integrand, not a factor of a test function
    with pytest.raises(TypeError, match="GaussianForm by Evaluable"):
        pointwise_mul(f, cutoff_chi(3, X))


def test_sb_algebra_closure(rng, f3):
    Xp = space_X(1, f3)
    for _ in range(10):
        f = rand_sb_function(rng, Xp, terms=2)
        g = rand_sb_function(rng, Xp, terms=2)
        prod = pointwise_mul(f, g)
        for _ in range(10):
            v = tuple(rand_fraction(rng, 3, -2, 2) for _ in range(Xp.dim))
            assert prod.value_coords(v) == f.value_coords(v) * g.value_coords(v)


def test_sb_to_json_canonical_order(rng, f3):
    # one function, its terms given in two orders: the same bytes
    Xp = space_X(1, f3)
    f = rand_sb_function(rng, Xp, terms=6)
    for h in (f, fourier(f)):
        g = SBFunction(h.space, reversed(h.terms))
        assert g.terms != h.terms and set(g.terms) == set(h.terms)
        assert json.dumps(g.to_json()) == json.dumps(h.to_json())


def _det(B):
    """det B by Fraction elimination."""
    M, det = [[Fraction(x) for x in row] for row in B], Fraction(1)
    for c in range(len(M)):
        r = next((i for i in range(c, len(M)) if M[i][c]), None)
        if r is None:
            return Fraction(0)
        M[c], M[r], det = M[r], M[c], det * M[r][c] * (1 if r == c else -1)
        for i in range(c + 1, len(M)):
            M[i] = [x - M[i][c] / M[c][c] * y for x, y in zip(M[i], M[c])]
    return det


def _fourier_reference(f, P, y):
    """F f(y) against psi(y^T P x), term by term in Fractions: over x = c + B t,
    t in Z_p^d, the indicator of c + B Z_p^d transforms to |det B|_p psi(y^T
    P c) where B^T P^T y lies in Z_p^d, and to 0 elsewhere."""
    p, fd = f.p, f.space.fd
    Py = [sum(a * b for a, b in zip(col, y)) for col in zip(*P)]
    total = ExactValue.from_cyclo(p, 0)
    for coeff, coset in f.terms:
        B = coset.lattice.basis
        if all(sum(b * u for b, u in zip(col, Py)).denominator % p for col in zip(*B)):
            phase = add_char(sum(a * c for a, c in zip(Py, coset.center)), fd)
            total = total + coeff * Fraction(p) ** -padic_valuation(_det(B), p) * phase
    return total


def _rand_coset(rng, p, d, trivial):
    """A coset of a random non-diagonal lattice; its center is 0 for
    ``trivial`` (the transform then has no phase) and of valuation -1 to 1
    otherwise."""
    while True:
        B = tuple(
            tuple(rand_fraction(rng, p, -1, 1) if rng.integers(0, 3) else Fraction(0)
                  for _ in range(d))
            for _ in range(d)
        )
        if _det(B) != 0:
            break
    center = tuple(Fraction(0) if trivial else rand_fraction(rng, p, -1, 1) for _ in range(d))
    return Coset(Lattice(p, B), center)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_sb_fourier_matches_phase_split_reference(rng, p, n):
    """The (P L + Z_p w)^dual phase split agrees with the transform of each
    coset indicator in closed form, evaluated by brute membership at points
    of the terms' dual lattices and at random points, on X (d = 2 at n = 1,
    d = 6 at n = 2) under both pairings."""
    fd = padic_field(p)
    X = space_X(n, fd)
    target = X.transpose_space()
    P = pairing_matrix(target, X)
    P_inv = tuple(tuple(-v for v in row) for row in P)
    phases, nonzero = set(), 0
    for trial in range(6):
        trivial = trial % 3 == 0
        cosets = [_rand_coset(rng, p, X.dim, trivial) for _ in range(2)]
        f = SBFunction(X, [(Fraction(int(rng.integers(1, 5))), k) for k in cosets])
        for pairing in (P, P_inv):
            got = f.fourier(pairing, target)
            # points P B^(-T) t of each term's dual lattice, P a signed permutation
            ys = [[sum(a * b for a, b in zip(row, u)) for row in pairing]
                  for _, k in f.terms
                  for u in [[sum(int(rng.integers(0, p * p)) * x for x in col)
                             for col in zip(*inverse(k.lattice.basis))]]]
            ys += [[rand_fraction(rng, p, -1, 2) for _ in range(X.dim)] for _ in range(2)]
            for y in ys:
                want = _fourier_reference(f, pairing, y)
                assert brute_value(got, y) == want
                nonzero += not want.is_zero()
            phases.add(len(got.terms) > len(f.terms))
        if trivial:
            assert len(got.terms) == len(f.terms)
    assert phases == {False, True} and nonzero


def test_integrate_examples(fr, f3):
    X = space_X(1, fr)
    assert abs(integrate(GaussianForm.standard(X)) - 1.0) < 1e-14
    for d in (1, 2, 3):
        sp = MatrixSpace(f3, 1, d)
        assert integrate(SBFunction.standard_ball(sp)) == one(3)
    Xp = space_X(1, f3)
    pball = SBFunction.indicator(Xp, Coset(Lattice.scaled_standard(3, 2, 1), (Fraction(0),) * 2))
    assert integrate(pball) == ExactValue.from_cyclo(3, Fraction(1, 9))
    # closed forms and exact sums have no quadrature error to estimate
    for g in (GaussianForm.standard(X), pball):
        with pytest.raises(TypeError, match="closed form"):
            integrate(g, with_error=True)


def test_gaussian_closed_form_vs_quadrature(rng, fr):
    # dims up to 6, mostly small; the envelope is exact so the rule converges fast
    dims = [2, 2, 3, 3, 4, 4, 2, 3, 4, 2, 3, 2, 4, 3, 2, 2, 3, 4, 6, 6]
    for d in dims:
        sp = MatrixSpace(fr, 1, d)
        g = rand_gaussian(rng, sp, with_phase=bool(rng.integers(0, 2)))
        ev = Evaluable(sp, g.eval_coords, g.envelope(), "g")
        got, err = integrate(ev, with_error=True)
        want = g.integral()
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (d, got, want, err)


@pytest.mark.parametrize("d", range(1, 7))
def test_quadratic_form_matches_einsum_bitwise(d):
    # bit-identity, not closeness: the golden reports pin residuals at
    # roundoff level, so any other summation order can move them
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    Q = a @ a.T + 0.5 * np.eye(d)  # non-diagonal
    for n in (0, 1, 7, 1920, 65536):
        base = rng.standard_normal((2 * n, d)) * 3
        for pts in (
            np.ascontiguousarray(base[:n]),
            np.asfortranarray(base[:n]),
            base[::2],
        ):
            want = np.einsum("ni,ij,nj->n", pts, Q, pts)
            assert np.array_equal(_quadratic_form(pts, Q), want), (d, n, pts.strides)


def test_gaussian_eval_coords_single_point(rng, fr):
    X = space_X(2, fr)
    g = rand_gaussian(rng, X)
    x = rng.standard_normal((3, 2))
    got = g.eval_coords(X.coords(x))
    assert got.shape == (1,)
    assert got[0] == g.value(x)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_gaussian_rejects_non_finite_form(fr, bad):
    X = MatrixSpace(fr, 1, 2)
    for Q in ([[1.0, bad], [bad, 1.0]], [[bad, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="must be finite"):
            GaussianForm(X, Q)


def test_gaussian_form_checks(fr):
    X = MatrixSpace(fr, 1, 2)
    GaussianForm(X, [[1.0, 0.3], [0.3 + 1e-9, 1.0]])  # within np.allclose
    with pytest.raises(ValueError, match="symmetric"):
        GaussianForm(X, [[1.0, 0.3], [0.31, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        GaussianForm(X, [[1.0, 2.0], [2.0, 1.0]])


def test_gaussian_envelope_bounds(rng, fr):
    X = space_X(2, fr)
    for _ in range(10):
        g = rand_gaussian(rng, X)
        env = g.envelope()
        pts = rng.standard_normal((200, X.dim)) * 2
        center = 0 if env.center is None else np.asarray(env.center)
        bound = env.C * np.exp(-np.pi * _quadratic_form(pts - center, np.asarray(env.Q)))
        assert np.all(np.abs(g.eval_coords(pts)) <= bound * (1 + 1e-9))


def test_fiber_restrict(fr, f3):
    X = space_X(1, fr)
    f = GaussianForm.standard(X)
    fib = fiber_param(np.array([[1.0, 0.0]]), 1, fr)
    fz = fiber_restrict(f, fib)
    for z in [0.0, 0.7, -2.0]:
        assert abs(fz.value(np.array([[z]])) - np.exp(-np.pi * (1 + z * z))) < 1e-14
    Xp = space_X(1, f3)
    ball = SBFunction.standard_ball(Xp)
    fibp = fiber_param(xl.mat([[1, 0]]), 1, f3)
    bz = fiber_restrict(ball, fibp)
    assert bz.value(xl.mat([[1]])) == one(3)
    assert bz.value(xl.mat([[Fraction(1, 3)]])).is_zero()
    # an integrand has no restriction
    const = Evaluable(
        X, lambda p: np.ones(len(p), dtype=complex), Envelope(C=1.0, radius=50.0), "const"
    )
    with pytest.raises(TypeError, match="Evaluable"):
        fiber_restrict(const, fib)


def test_evaluable_requires_decay(fr):
    X = space_X(1, fr)
    bad = Evaluable(X, lambda p: np.ones(len(p), dtype=complex), Envelope(C=1.0), "flat")
    with pytest.raises(ValueError):
        integrate(bad)


def test_evaluable_beyond_default_orders_is_refused(fr):
    # on space_X(3) over R (d = 12) an order of 10 would mean two grids of
    # 10^12 nodes: integrate refuses before calling the integrand, under a
    # Gaussian envelope and under a support radius
    X = space_X(3, fr)
    g = GaussianForm.standard(X)
    calls = []
    for env in (g.envelope(), Envelope(C=1.0, radius=1.0)):
        ev = Evaluable(X, lambda p: calls.append(len(p)) or g.eval_coords(p), env, "d12")
        with pytest.raises(ValueError, match=r"d = 12.*integrate_gauss_hermite\(\.\.\., order=\)"):
            integrate(ev, with_error=True)
    assert not calls


def test_function_from_json(fr, f3):
    X = space_X(1, fr)
    f = function_from_json(
        {"type": "gaussian", "Q": [[1.0, 0.0], [0.0, 1.0]], "kappa": 1.0, "ell": [0.0, 0.0]},
        X,
    )
    assert abs(integrate(f) - 1.0) < 1e-14
    Xp = space_X(1, f3)
    g = function_from_json(
        {
            "type": "sb",
            "terms": [
                {"coeff": "1/2", "center": ["1", "0"], "basis": [["3", "0"], ["0", "3"]]}
            ],
        },
        Xp,
    )
    assert g.value_coords((Fraction(1), Fraction(3))) == ExactValue.from_cyclo(
        3, Fraction(1, 2)
    )
    prod = function_from_json(
        {"type": "product", "of": [f.to_json(), f.to_json()]}, X
    )
    assert abs(integrate(prod) - 2.0 ** (-1)) < 1e-12
