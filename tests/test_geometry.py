from fractions import Fraction

import numpy as np
import pytest

from radonfourier import (
    Evaluable,
    GaussianForm,
    b_map,
    bbar_map,
    fiber_param,
    integrate,
    kak,
    rho_weight,
    rho_weight_exponents,
    space_X,
)
from radonfourier import exactlinalg as xl
from radonfourier.geometry import (
    MatrixSpace,
    as_matrix,
    base_point_y,
    flatten_linear,
    is_regular,
    meye,
    mmul,
)
from radonfourier.sampling import rand_gl, rand_matrix, rand_regular_point, rand_sl
from basis import basis_matrices


def _unipotent(u, n, lower=False):
    """[[I_n, u], [0, 1]] for a column u, or [[I_n, 0], [u, 1]] for a row u."""
    m = np.eye(n + 1)
    if lower:
        m[n, :n] = u
    else:
        m[:n, n] = u
    return m


def _is_unipotent(m, n, tol=1e-10):
    """Whether m lies in the upper unipotent radical [[I_n, *], [0, 1]]."""
    return np.allclose(m, _unipotent(m[:n, n], n), atol=tol, rtol=tol)


def test_action_laws_and_rank(rng, fr):
    # regular points stay regular under x -> x a and y -> a^(-1) y
    n = 2
    X = space_X(n, fr)
    for _ in range(20):
        x = rand_regular_point(rng, X)
        a = rand_gl(rng, n, fr)
        assert is_regular(x @ a, fr)
        y = rand_regular_point(rng, space_X(n, fr).transpose_space())
        assert is_regular(np.linalg.inv(a) @ y, fr)
    # over R and C regularity does not depend on scale
    for c in (1e-11, 1.0, 1e11):
        assert is_regular(c * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), fr)
        assert not is_regular(c * np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]), fr)
    assert not is_regular(np.zeros((3, 2)), fr)


def test_b_map(rng, fr):
    n = 2
    assert np.allclose(b_map(np.eye(n + 1), n, fr), np.eye(n + 1)[:, :n])
    for _ in range(100):
        g = rand_sl(rng, n + 1, fr)
        assert is_regular(b_map(g, n, fr), fr)
    # unipotent stabilizer: b(g m) = b(g) for m upper unipotent
    for _ in range(20):
        g = rand_sl(rng, n + 1, fr)
        m = _unipotent(rng.standard_normal(n), n)
        assert np.allclose(b_map(g @ m, n, fr), b_map(g, n, fr))
        # and a generic right factor moves it
        h = rand_sl(rng, n + 1, fr)
        if not _is_unipotent(h, n):
            assert not np.allclose(b_map(g @ h, n, fr), b_map(g, n, fr))


def test_b_map_bijection_mod_unipotent(rng, fr):
    # b(g) = b(g') iff g^(-1) g' is upper unipotent
    n = 2
    for _ in range(40):
        g = rand_sl(rng, n + 1, fr)
        gp = rand_sl(rng, n + 1, fr)
        same = np.allclose(b_map(g, n, fr), b_map(gp, n, fr), atol=1e-9)
        member = _is_unipotent(np.linalg.inv(g) @ gp, n, tol=1e-7)
        assert same == member


def test_b_map_l_equivariance(rng, fr):
    n = 2
    for _ in range(20):
        g = rand_sl(rng, n + 1, fr)
        a = rand_gl(rng, n, fr)
        # L = GL(n) embeds in G as [[a, 0], [0, det(a)^(-1)]]
        embed = np.eye(n + 1)
        embed[:n, :n] = a
        embed[n, n] = 1 / np.linalg.det(a)
        lhs = b_map(g @ embed, n, fr)
        rhs = b_map(g, n, fr) @ a
        assert np.allclose(lhs, rhs, atol=1e-8)


def test_bbar_map(rng, fr):
    n = 2
    assert np.allclose(bbar_map(np.eye(n + 1), n, fr), base_point_y(n, fr))
    for _ in range(20):
        g = rand_sl(rng, n + 1, fr)
        m = _unipotent(rng.standard_normal(n), n, lower=True)
        assert np.allclose(bbar_map(g @ m, n, fr), bbar_map(g, n, fr), atol=1e-9)
        h = rand_sl(rng, n + 1, fr)
        # equivariance: bbar(h g) = bbar(g) h^(-1)
        assert np.allclose(
            bbar_map(h @ g, n, fr), bbar_map(g, n, fr) @ np.linalg.inv(h), atol=1e-8
        )


def test_unimodular_completion_examples(fr, f3):
    g = fiber_param(np.array([[1.0, 0.0]]), 1, fr)
    assert np.allclose(g, np.eye(2))
    gp = fiber_param(xl.mat([[Fraction(1, 3), 0]]), 1, f3)
    assert gp == xl.mat([[3, 0], [0, Fraction(1, 3)]])
    with pytest.raises(ValueError):
        fiber_param(xl.mat([[0, 0]]), 1, f3)
    # regularity is judged relative to the scale of y: 1e-11 * e_1 is regular
    y = np.array([[1e-11, 0.0]])
    g = fiber_param(y, 1, fr)
    assert abs(np.linalg.det(g) - 1) < 1e-9 and np.allclose(bbar_map(g, 1, fr), y, rtol=1e-12, atol=0)
    for y in (np.zeros((1, 2)), np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])):
        with pytest.raises(ValueError, match="not regular"):
            fiber_param(y, len(y), fr)


def test_unimodular_completion_random(rng, fr, f3):
    for _ in range(100):
        y = rand_regular_point(rng, space_X(2, fr).transpose_space())
        g = fiber_param(y, 2, fr, rng=rng)
        assert abs(np.linalg.det(g) - 1) < 1e-9
        assert np.allclose(bbar_map(g, 2, fr), y, atol=1e-8)
    for _ in range(30):
        y = rand_regular_point(rng, space_X(2, f3).transpose_space())
        g = fiber_param(y, 2, f3, rng=rng)
        assert xl.det(g) == 1
        assert bbar_map(g, 2, f3) == y


def test_fiber_param(rng, fr, f3):
    g = fiber_param(np.array([[1.0, 0.0]]), 1, fr)
    assert np.allclose(b_map(g, 1, fr), np.array([[1.0], [0.0]]))
    assert np.allclose(g[:, 1:], np.array([[0.0], [1.0]]))
    gp = fiber_param(xl.mat([[Fraction(1, 3), 0]]), 1, f3)
    assert b_map(gp, 1, f3) == ((Fraction(3),), (Fraction(0),))
    assert tuple(row[1:] for row in gp) == ((Fraction(0),), (Fraction(1, 3),))
    # postcondition y (A + c z) = y g [I_n; z] = I_n on random fibers
    for _ in range(20):
        n = 2
        y = rand_regular_point(rng, space_X(n, fr).transpose_space())
        g = fiber_param(y, n, fr)
        z = rng.standard_normal(n)
        pt = g @ np.vstack([np.eye(n), z[None, :]])
        assert np.allclose(np.asarray(y) @ pt, np.eye(n), atol=1e-8)


def test_kak(rng, fr, fc, f3):
    f = kak(np.diag([2.0, 0.5]), fr)
    assert np.allclose(sorted(f.diag, reverse=True), [2.0, 0.5])
    assert np.allclose(f.reconstruct(), np.diag([2.0, 0.5]), atol=1e-12)
    for fd in (fr, fc):
        for _ in range(50):
            a = rand_gl(rng, 2, fd)
            fac = kak(a, fd)
            assert np.allclose(fac.reconstruct(), a, atol=1e-10)
            assert fac.diag[0] >= fac.diag[1] > 0
    # p-adic: elementary divisors of diag(3, 1/3) are (3^-1, 3)
    fac = kak(xl.mat([[3, 0], [0, Fraction(1, 3)]]), f3)
    assert fac.diag == (Fraction(1, 3), Fraction(3))
    for _ in range(50):
        a = rand_gl(rng, 2, f3)
        fac = kak(a, f3)
        assert fac.reconstruct() == a
    with pytest.raises(ValueError):
        kak(xl.mat([[1, 1], [1, 1]]), f3)


def test_rho_weight(fr, fc, f3):
    # n = 1 degenerate: weight is identically 1
    for a in [0.3, 1.0, 7.2]:
        assert rho_weight((a,), 1, fr) == 1.0
    assert abs(rho_weight((2.0, 0.5), 2, fr) - 0.5) < 1e-14
    # complex absolute value doubles the exponent through the module
    assert abs(rho_weight((2.0, 0.5), 2, fc) - 0.25) < 1e-14
    # exact chain on log-exponents
    rho, mid, low = rho_weight_exponents([Fraction(2), Fraction(-1)], 2)
    assert rho == Fraction(-3, 2) and mid == Fraction(-3, 2) and low == Fraction(-9, 2)
    assert rho >= mid >= low


def test_rho_chain_random(rng):
    for _ in range(200):
        n = int(rng.integers(1, 5))
        es = sorted((Fraction(int(rng.integers(-12, 13)), 4) for _ in range(n)), reverse=True)
        rho, mid, low = rho_weight_exponents(es, n)
        assert rho >= mid >= low


def test_measure_scale(rng, fr):
    # quadrature oracle: integral of f(x a) = |det a|^(-(n+1)) integral of f
    n = 1
    X = space_X(n, fr)
    f = GaussianForm(X, np.array([[1.3, 0.2], [0.2, 0.9]]), kappa=1.1)
    for a in [np.array([[1.7]]), rand_gl(rng, 1, fr)]:
        M = flatten_linear(meye(n + 1, fr), a, fr)
        fa = Evaluable(X, lambda p, M=M: f.eval_coords(p @ M.T),
                       f.pullback_affine(M, X).envelope(), "f(xa)")
        lhs = integrate(fa)
        rhs = abs(np.linalg.det(a)) ** -(n + 1) * f.integral()
        assert abs(lhs - rhs) < 1e-8 * abs(rhs)


def _flatten_reference(fn, domain, target):
    """Coordinate matrix of a linear map ``fn`` by pushing every basis matrix
    of ``domain`` through it: the algorithm the closed form replaced."""
    cols = [target.coords(fn(m)) for m in basis_matrices(domain)]
    if domain.fd.is_archimedean:
        return np.column_stack(cols)
    return tuple(tuple(col[r] for col in cols) for r in range(target.dim))


def test_flatten_linear_matches_basis_push(rng, fr, fc, f2, f3):
    for fd in (fr, fc, f2, f3):
        for n in (1, 2, 3):
            X, L, W = space_X(n, fd), MatrixSpace(fd, n, n), MatrixSpace(fd, 1, n)
            a, x = rand_gl(rng, n, fd), rand_regular_point(rng, X)
            c, A = rand_matrix(rng, n + 1, 1, fd), rand_matrix(rng, n + 1, n, fd)
            # small integer entries keep every product of the two-sided map
            # exact, so both routes round alike; H is not symmetric, which
            # pins the orientation A (x) B^T
            G = as_matrix(rng.integers(-4, 5, (n + 1, n + 1)).tolist(), fd)
            H = as_matrix([[1 + 2 * i + 3 * j for j in range(n)] for i in range(n)], fd)
            if fd.kind == "complex":
                G = G + 1j * rng.integers(-4, 5, (n + 1, n + 1))
                H = H - 2j * H.T
            eye_n, eye_x = meye(n, fd), meye(n + 1, fd)
            cases = [
                (eye_x, a, lambda v: mmul(v, a, fd), X, X),  # x a
                (a, eye_n, lambda v: mmul(a, v, fd), L, L),  # a x
                (c, eye_n, lambda v: mmul(c, v, fd), W, X),  # c z
                (A, eye_n, lambda v: mmul(A, v, fd), L, X),  # A a
                (x, eye_n, lambda v: mmul(x, v, fd), L, X),  # x b
                (G, H, lambda v: mmul(mmul(G, v, fd), H, fd), X, X),
            ]
            for left, right, fn, dom, tgt in cases:
                got = flatten_linear(left, right, fd)
                want = _flatten_reference(fn, dom, tgt)
                if fd.is_archimedean:
                    assert np.array_equal(got, want), (fd.kind, n)
                else:
                    # the integer triple (K, k, u) stands for K / (p^k u)
                    K, k, u = got
                    assert all(type(v) is int for row in K for v in row)
                    got = tuple(tuple(Fraction(v, fd.p**k * u) for v in row) for row in K)
                    assert got == want, (fd.p, n)
                    assert all(type(v) is Fraction for row in got for v in row)


def test_disintegration(rng, fr):
    # integral over X of f equals the a-integral of the slice transform
    from radonfourier.transforms import slice_family

    n = 1
    X = space_X(n, fr)
    f = GaussianForm(X, np.array([[1.4, -0.3], [-0.3, 0.8]]), kappa=0.7, ell=[0.2, 0.1])
    for _ in range(5):
        y = rand_regular_point(rng, space_X(n, fr).transpose_space())
        fam = slice_family(f, y)
        assert abs(fam.integral() - f.integral()) < 1e-10
