"""An oracle for the exact coset calculus that shares no code with it.

A Schwartz-Bruhat function whose cosets lie between p^K Z_p^d and p^(-K)
Z_p^d, with centers in p^(-K) Z^d, is a function on the finite group G =
p^(-K) Z^d / p^K Z^d of p^(2Kd) points.  The oracle evaluates it there by
brute membership: x lies in center + basis Z_p^d exactly when basis^(-1) (x -
center) has no denominator divisible by p.  The inverse is the tests' own
``Fraction`` Gauss-Jordan (``basis.inverse``); only ``.basis``, ``.center``
and the coefficients of a result are read, so a defect of the lattice layer
(its normal forms, duals, preimages or membership) is not shared by this
test.

The operators built on that layer are checked the same way: a left translate
by an integer unimodular matrix is a permutation of G, the Fourier transform
is a finite DFT on G (so Plancherel is an identity of two sums over G), the
pairing <f, h>_X(a) is a sum over G of conj f(x) h(x a), and at n = 1 the intertwining integral and the composition's inner integral over
M_1 are finite sums over points of G, with characters as exact roots of
unity.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from radonfourier import (
    Coset, ExactValue, Lattice, SBFunction, add_char, bbar_map, compose_shell_stabilized,
    fiber_param, fourier, inner_X, intertwine_I, padic_field, pointwise_mul, space_X,
    translate_group,
)
from radonfourier.geometry import MatrixSpace
from radonfourier.transforms import _shell_points

from basis import inverse

# (p, d, K, J): cosets in p^(-J) Z_p^d of lattices between p^K Z_p^d and
# p^(-J) Z_p^d, J <= K
CASES = [(2, 2, 1, 1), (2, 2, 2, 2), (3, 2, 1, 1), (3, 2, 2, 2), (2, 6, 1, 0)]


def _v(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _contains(L1, L2) -> bool:
    """L2 inside L1: basis1^(-1) basis2 is integral over Z_p."""
    inv = inverse(L1.basis)
    return all(sum(a * b for a, b in zip(row, col)).denominator % L1.p
               for row in inv for col in zip(*L2.basis))


def _members(coset, Y, D):
    """Mask of the points Y / D (integer rows Y) that lie in the coset: the
    numerators M (q Y - D C) of basis^(-1) (y - C / q), M / m = basis^(-1),
    vanish modulo p^(v(m D q)); they are computed modulo that power."""
    p = coset.p
    inv = inverse(coset.lattice.basis)
    m = lcm(*(x.denominator for row in inv for x in row))
    M = [[int(x * m) for x in row] for row in inv]
    q = lcm(*(x.denominator for x in coset.center))
    C = [int(x * q) for x in coset.center]
    P = p ** (_v(m, p) + _v(D, p) + _v(q, p))
    assert len(M) * P * P < 2**62
    A = np.array([[x % P for x in row] for row in M], dtype=np.int64)
    shift = np.array([D * sum(a * c for a, c in zip(row, C)) % P for row in M], dtype=np.int64)
    T = ((Y % P) * (q % P) % P) @ A.T
    return np.all((T - shift) % P == 0, axis=1)


def _rational(coeff) -> Fraction:
    assert coeff.qexp == 0 and coeff.cyc.is_rational()
    return coeff.cyc.rational_value()


def _table(f, Y, D, exact=False):
    """Values of f at the points Y / D, summed term by term: ``Fraction``s of
    rational coefficients, or ``ExactValue``s with ``exact``."""
    zero = ExactValue.from_cyclo(f.p, 0) if exact else Fraction(0)
    vals = np.full(len(Y), zero, dtype=object)
    for coeff, coset in f.terms:
        mask = _members(coset, Y, D)
        vals[mask] = vals[mask] + (coeff if exact else _rational(coeff))
    return vals


def _grid(p, d, K):
    """G as integer rows X standing for X / p^K."""
    return np.array(list(itertools.product(range(p ** (2 * K)), repeat=d)), dtype=np.int64)


def _rand_coset(rng, p, d, K, J):
    gens = [[p**K * (i == j) for j in range(d)] for i in range(d)]
    gens += [[Fraction(int(rng.integers(0, p ** (K + J))), p**J) for _ in range(d)]
             for _ in range(int(rng.integers(0, d + 2)))]
    center = [Fraction(int(rng.integers(0, p ** (K + J))), p**J) for _ in range(d)]
    return Coset(Lattice(p, tuple(zip(*gens))), center)


def _rand_function(rng, space, K, J, terms=3):
    p = space.fd.p
    return SBFunction(space, [(int(rng.integers(1, 5)), _rand_coset(rng, p, space.dim, K, J))
                              for _ in range(terms)])


def _rand_unimodular(rng, p, d):
    """An integer matrix of determinant 1: unit lower times unit upper."""
    low = [[int(rng.integers(0, p * p)) if i > j else int(i == j) for j in range(d)] for i in range(d)]
    up = [[int(rng.integers(0, p * p)) if i < j else int(i == j) for j in range(d)] for i in range(d)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*up)] for row in low]


@pytest.mark.parametrize("p, d, K, J", CASES)
def test_pointwise_mul_matches_oracle(rng, p, d, K, J):
    X = MatrixSpace(padic_field(p), 1, d)
    grid = _grid(p, d, K)
    branches = set()
    for _ in range(3):
        f, g = (_rand_function(rng, X, K, J) for _ in range(2))
        for _, k1 in f.terms:
            for _, k2 in g.terms:
                if np.any(_members(k1, grid, p**K) & _members(k2, grid, p**K)):
                    L1, L2 = k1.lattice, k2.lattice
                    branches.add(_contains(L1, L2) or _contains(L2, L1))
        got = _table(pointwise_mul(f, g), grid, p**K)
        want = _table(f, grid, p**K) * _table(g, grid, p**K)
        assert list(got) == list(want)
    # meeting pairs reach both the nested shortcut and the general meet
    assert branches == {False, True}


@pytest.mark.parametrize("p, d, K, J", CASES)
def test_pullback_affine_matches_oracle(rng, p, d, K, J):
    """z -> f(offset + M z) for M = N / u, N of determinant 1 and u a p-unit:
    the whole of N (square) and its first columns (an injective map with a
    left inverse over Z_p), so every preimage is again a function on G."""
    fd = padic_field(p)
    X = MatrixSpace(fd, 1, d)
    u = p + 1
    for m in (d, d // 2):
        zgrid = _grid(p, m, K)
        for _ in range(2):
            f = _rand_function(rng, X, K, J)
            N = [row[:m] for row in _rand_unimodular(rng, p, d)]
            O = [int(rng.integers(0, p ** (K + J))) for _ in range(d)]
            g = f.pullback_affine((N, 0, u), MatrixSpace(fd, 1, m), [Fraction(x, p**J) for x in O])
            # offset + M z = (u p^(K - J) O + N Z) / (u p^K) at z = Z / p^K
            Y = u * p ** (K - J) * np.array(O, dtype=np.int64) + zgrid @ np.array(N, dtype=np.int64).T
            assert list(_table(g, zgrid, p**K)) == list(_table(f, Y, u * p**K))


@pytest.mark.parametrize("p, d, K, J", CASES)
def test_partial_integral_matches_oracle(rng, p, d, K, J):
    """Integrating out coordinates is a sum over their part of G, each point
    weighted by the cell volume p^(-K) per coordinate."""
    fd = padic_field(p)
    X = MatrixSpace(fd, 1, d)
    grid, side = _grid(p, d, K), p ** (2 * K)
    for _ in range(3):
        f = _rand_function(rng, X, K, J)
        k = int(rng.integers(1, d))
        keep = tuple(int(i) for i in rng.permutation(d)[:k])
        h = f.marginalize(keep, MatrixSpace(fd, 1, k))
        vals = _table(f, grid, p**K).reshape((side,) * d)
        vals = vals.sum(axis=tuple(i for i in range(d) if i not in keep))
        vals = np.transpose(vals, [sorted(keep).index(i) for i in keep]).reshape(-1)
        want = [x * Fraction(1, p ** (K * (d - k))) for x in vals]
        assert list(_table(h, _grid(p, k, K), p**K)) == want


@pytest.mark.parametrize("p, d, K, J", CASES)
def test_translate_left_matches_oracle(rng, p, d, K, J):
    """x -> f(m x) for an integer m of determinant 1 permutes G: in row-major
    coordinates of the (n+1) x n matrices x, m x is (m kron I_n) x."""
    n = {2: 1, 6: 2}[d]
    X = MatrixSpace(padic_field(p), n + 1, n)
    grid = _grid(p, d, K)
    for _ in range(2):
        f = _rand_function(rng, X, K, J)
        m = _rand_unimodular(rng, p, n + 1)
        Y = grid @ np.kron(np.array(m, dtype=np.int64), np.eye(n, dtype=np.int64)).T
        got = _table(translate_group(f, m, side="left"), grid, p**K)
        assert list(got) == list(_table(f, Y, p**K))


def _pairing_perm(n: int):
    """Tr(y x) = sum over k of y_k x_perm[k], in row-major coordinates of the
    n x (n+1) matrix y and the (n+1) x n matrix x: y_ij pairs with x_ji."""
    return [j * n + i for i in range(n) for j in range(n + 1)]


def _dft(vals, grid, Y, perm, K, sign, fd):
    """p^(-Kd) times the sum over x = X / p^K in G of f(x) psi(sign <x, y>) at
    y = Y / p^K, for integer values f(x); the character depends on <X, Y>
    modulo p^(2K) only, so the values are summed per residue first."""
    p, q = fd.p, fd.p ** (2 * K)
    sums = np.zeros(q, dtype=np.int64)
    np.add.at(sums, (grid[:, perm] @ Y) % q, vals)
    total = sum(int(s) * add_char(Fraction(sign * k, q), fd) for k, s in enumerate(sums) if s)
    return ExactValue.from_cyclo(p, total * Fraction(1, p ** (K * len(Y))))


@pytest.mark.parametrize("p, d, K, J", CASES + [(5, 2, 1, 1)])
def test_fourier_matches_oracle(rng, p, d, K, J):
    """F f(y) = integral of f(x) psi(<x, y>) dx with <x, y> = Tr(y x).  f is
    constant on the cells of p^K Z_p^d, over which the character integrates
    to p^(-Kd) for y in p^(-K) Z_p^d and to 0 otherwise: at y = Y / p^K the
    transform is a finite DFT on G, and it vanishes off p^(-K) Z_p^d.  The
    pairing of either sign: the transform and the inverse kernel."""
    n = {2: 1, 6: 2}[d]
    fd = padic_field(p)
    X = space_X(n, fd)
    perm = _pairing_perm(n)
    minus = tuple(tuple(-int(perm[k] == j) for j in range(d)) for k in range(d))
    grid = _grid(p, d, K)
    far = np.array([[1] + [0] * (d - 1)], dtype=np.int64)  # 1 / p^(K+1) in the first entry
    nonzero = 0
    for _ in range(2):
        f = _rand_function(rng, X, K, J)
        vals = np.array([int(v) for v in _table(f, grid, p**K)], dtype=np.int64)
        for fhat, sign in ((fourier(f), 1), (f.fourier(minus, X.transpose_space()), -1)):
            Ys = rng.integers(0, p ** (2 * K), size=(4, d))
            got = list(_table(fhat, Ys, p**K, exact=True))
            assert got == [_dft(vals, grid, Y, perm, K, sign, fd) for Y in Ys]
            assert _table(fhat, far, p ** (K + 1), exact=True)[0].is_zero()
            nonzero += sum(not v.is_zero() for v in got)
    assert nonzero


@pytest.mark.parametrize("p, d, K, J", CASES)
def test_plancherel_matches_oracle(rng, p, d, K, J):
    """||f||_2 = ||F f||_2, both squared norms as sums over G weighted by the
    cell volume p^(-Kd): F f lives on p^(-K) Z_p^d and is constant on the
    cosets of p^J Z_p^d, so it is a function on G as well."""
    n = {2: 1, 6: 2}[d]
    fd = padic_field(p)
    X = space_X(n, fd)
    grid = _grid(p, d, K)
    for _ in range(2):
        f = _rand_function(rng, X, K, J)
        hat = Counter(_table(fourier(f), grid, p**K, exact=True))
        want = sum(x * x for x in _table(f, grid, p**K))
        assert sum(v * v.conjugate() * count for v, count in hat.items()) == want


def _unimodular_unit_corner(rng, p):
    """An integer m of determinant 1 whose corner m[0][1] is a p-unit."""
    while True:
        m = _rand_unimodular(rng, p, 2)
        if m[0][1] % p:
            return m


@pytest.mark.parametrize("p, d, K, J", [c for c in CASES if c[1] == 2])
def test_intertwine_I_matches_oracle(rng, p, d, K, J):
    """At n = 1, I(f)(y) for y = bbar(m) is the integral of f(m [1; z]) dz:
    m [1; z] lies in p^(-J) Z_p^2 only for z in p^(-J) Z_p, and f(m [1; z])
    is constant on cosets of p^K Z_p, so it is a sum over the p^(K+J) points
    z = Z / p^J of G, each weighted by p^(-K)."""
    fd = padic_field(p)
    X = MatrixSpace(fd, 2, 1)
    Z = np.arange(p ** (K + J), dtype=np.int64) * p ** (K - J)
    for _ in range(3):
        f = _rand_function(rng, X, K, J)
        m = np.array(_rand_unimodular(rng, p, 2), dtype=np.int64)
        # p^K m [1; z] as integer rows
        Y = np.stack([m[:, 0] * p**K + m[:, 1] * zz for zz in Z])
        want = sum(_table(f, Y, p**K)) * Fraction(1, p**K)
        assert intertwine_I(f, bbar_map(m.tolist(), 1, fd)) == want


def _point_value(f, x, k, K, J):
    """integral over b in Q_p of f(x b) chi(b) db at a column x with |x| = p^k
    (k >= 0): f(x b) needs b in p^(-J) Z_p and is constant on cosets of
    p^(K + k) Z_p, as is chi, so it is a sum over b = B / p^J, B modulo
    p^(J + K + k), with cells of volume p^(-(K + k)).  Points x b are the
    integer rows B (L x) over L p^J, L a common denominator of x."""
    p = f.p
    L = lcm(*(e.denominator for e in x))
    B = np.arange(p ** (J + K + k), dtype=np.int64)
    vals = _table(f, B[:, None] * np.array([int(e * L) for e in x], dtype=np.int64), L * p**J)
    # chi(B / p^J) depends on B modulo p^J only
    sums = vals.reshape(-1, p**J).sum(axis=0)
    total = sum(s * add_char(Fraction(r, p**J), f.space.fd) for r, s in enumerate(sums))
    return total * Fraction(1, p ** (K + k))


@pytest.mark.parametrize("p, K, J", [(2, 1, 1), (3, 1, 1), (2, 2, 2)])
def test_composition_shells_match_oracle(rng, p, K, J):
    """Each shell contribution of the p-adic composition at y = bbar(m) is the
    sum over the shell points z of the inner integral at x = g [1; z], g the
    package's completion of y, times the cell volume p^(-s).  With m[0][1] a
    unit, g lies in SL_2(Z_p), so |g [1; z]| = |z| on the shells k >= 1."""
    fd = padic_field(p)
    X = MatrixSpace(fd, 2, 1)
    for _ in range(2):
        f = _rand_function(rng, X, K, J)
        y = bbar_map(_unimodular_unit_corner(rng, p), 1, fd)
        g = fiber_param(y, 1, fd)
        _, cert = compose_shell_stabilized(f, y, k_max=2)
        s = cert["granularity_exponent"]
        for shell in cert["shells"]:
            k = shell["k"]
            want = sum(
                _point_value(f, [g[0][0] + g[0][1] * z, g[1][0] + g[1][1] * z], k, K, J)
                for (z,) in _shell_points(p, 1, k, s)
            ) * Fraction(1, p**s)
            assert ExactValue.from_cyclo(p, want).to_json() == shell["contribution"]


@pytest.mark.parametrize("p, n, K, J, k", [
    (2, 1, 2, 2, 1), (2, 1, 2, 2, -1), (3, 1, 1, 1, 1), (3, 1, 1, 1, -1), (2, 2, 1, 1, 0),
])
def test_inner_X_matches_oracle(rng, p, n, K, J, k):
    """<f, h>_X(a) = |det a|^((n+1)/2) times the integral of conj f(x) h(x a).
    At n = 1, a = u p^k with u a unit, and x -> h(x a) lives on p^(-J-k) Z_p^2
    and is constant on cosets of p^(K-k) Z_p^2; at n = 2, a is an integer of
    determinant 1 and x a permutes G.  On the grid X / p^A, X modulo
    p^(A+B), fine enough for f and for x -> h(x a), the integral is the sum
    times the cell volume p^(-Bd).  A root of unity in a coefficient of f
    makes the conjugation visible."""
    fd = padic_field(p)
    X = space_X(n, fd)
    d = X.dim
    A, B = max(J, J + k), max(K, K - k)
    grid = np.array(list(itertools.product(range(p ** (A + B)), repeat=d)), dtype=np.int64)
    assert len(grid) <= 4096
    root = ExactValue.from_cyclo(p, add_char(Fraction(1, p * p), fd))
    nonzero = 0
    for _ in range(3):
        f, h = (_rand_function(rng, X, K, J) for _ in range(2))
        f = SBFunction(X, [(c * root, coset) if i == 0 else (c, coset)
                           for i, (c, coset) in enumerate(f.terms)])
        if n == 1:
            u = int(rng.choice([u for u in range(1, 2 * p) if u % p]))
            a = [[Fraction(u) * Fraction(p) ** k]]
            # x a = u p^k X / p^A as integer rows over a power of p
            Y, D = grid * u * p ** max(k, 0), p ** (A + max(-k, 0))
            scale = Fraction(p) ** -k
        else:
            a = _rand_unimodular(rng, p, n)
            Y, D = grid @ np.kron(np.eye(n + 1, dtype=np.int64), np.array(a, dtype=np.int64)), p**A
            scale = Fraction(1)
        fx, hxa = _table(f, grid, p**A, exact=True), _table(h, Y, D, exact=True)
        total = sum((v.conjugate() * w for v, w in zip(fx, hxa)), ExactValue.from_cyclo(p, 0))
        want = total * (scale * Fraction(1, p ** (B * d)))
        assert inner_X(f, h)(a) == want
        nonzero += not want.is_zero()
    assert nonzero
