"""Deterministic sample generators for the verification suites.

All randomness flows through a single numpy Generator seeded from the suite
config, so a fixed seed reproduces every sample point bit for bit.  p-adic
samples are rational (unit numerator/denominator times a power of p), so the
exact pipelines stay exact.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exactlinalg as xl
from .fields import FieldDescriptor
from .functions import GaussianForm, SBFunction
from .geometry import MatrixSpace, as_matrix, is_regular, mdet
from .lattices import Coset, Lattice


# -- scalars ------------------------------------------------------------


def rand_unit_fraction(rng, p: int) -> Fraction:
    """A random p-unit rational: num/den with both prime to p, drawn below 30."""
    num = int(rng.integers(1, 30))
    den = int(rng.integers(1, 30))
    while num % p == 0:
        num += 1
    while den % p == 0:
        den += 1
    sign = -1 if rng.integers(0, 2) else 1
    return Fraction(sign * num, den)


def rand_fraction(rng, p: int, vmin: int = -2, vmax: int = 2) -> Fraction:
    """A random rational with p-adic valuation in [vmin, vmax]."""
    v = int(rng.integers(vmin, vmax + 1))
    return rand_unit_fraction(rng, p) * Fraction(p) ** v


# -- matrices -----------------------------------------------------------


def rand_matrix(rng, rows: int, cols: int, fd: FieldDescriptor):
    if fd.is_archimedean:
        m = rng.standard_normal((rows, cols))
        if fd.kind == "complex":
            m = m + 1j * rng.standard_normal((rows, cols))
        return m
    return tuple(
        tuple(rand_fraction(rng, fd.p) for _ in range(cols)) for _ in range(rows)
    )


def rand_gl(rng, n: int, fd: FieldDescriptor):
    """A random invertible n x n matrix (|det| > 0.2 archimedean)."""
    while True:
        a = rand_matrix(rng, n, n, fd)
        d = mdet(a, fd)
        if (abs(d) > 0.2) if fd.is_archimedean else (d != 0):
            return a


def rand_sl(rng, size: int, fd: FieldDescriptor):
    """A random determinant-one matrix (first column rescaled by 1/det)."""
    a = rand_gl(rng, size, fd)
    d = mdet(a, fd)
    return as_matrix(
        [[x / d if j == 0 else x for j, x in enumerate(row)] for row in a], fd
    )


def rand_regular_point(rng, space: MatrixSpace):
    """A random full-rank point of the given matrix space."""
    while True:
        m = rand_matrix(rng, space.rows, space.cols, space.fd)
        if is_regular(m, space.fd, 1e-6):
            return m


def rand_orthogonal(rng, n: int, fd: FieldDescriptor):
    """Haar-ish orthogonal/unitary matrix via QR of a Gaussian matrix."""
    m = rng.standard_normal((n, n))
    if fd.kind == "complex":
        m = m + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def rand_gl_zp(rng, n: int, p: int):
    """A random element of GL(n, Z_p): a product of 12 integer shears, swaps
    and unit scalings, formed on integers."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(12):
        kind = int(rng.integers(0, 3))
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if n > 1 and i == j:
            j = (j + 1) % n
        if kind == 0 and n > 1:
            c = int(rng.integers(-4, 5))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif kind == 1 and n > 1:
            m[i], m[j] = m[j], m[i]
        else:
            u = 1 + p * int(rng.integers(0, 3))
            m[i] = [x * u for x in m[i]]
    return xl.mat(m)


def rand_kak_sample(rng, n: int, fd: FieldDescriptor):
    """A KAK triple (k1, diag, k2); diagonal sizes log-uniform in 2^[-4, 4] (p^[-4, 4])."""
    if fd.is_archimedean:
        k1 = rand_orthogonal(rng, n, fd)
        k2 = rand_orthogonal(rng, n, fd)
        exps = np.sort(rng.uniform(-4.0, 4.0, size=n))[::-1]
        diag = tuple(float(2.0**e) for e in exps)
        return k1, diag, k2
    k1 = rand_gl_zp(rng, n, fd.p)
    k2 = rand_gl_zp(rng, n, fd.p)
    exps = sorted(int(rng.integers(-4, 5)) for _ in range(n))
    diag = tuple(Fraction(fd.p) ** e for e in exps)
    return k1, diag, k2


# -- grids --------------------------------------------------------------


def default_a_grid(n: int, fd: FieldDescriptor):
    """Log-uniform diagonal grid: 2^(j/4), |j| <= 16 archimedean; p^k p-adic.
    For n >= 2 the first two diagonal entries vary and the rest are 1."""
    if fd.is_archimedean:
        vals = [2.0 ** (j / 4.0) for j in range(-16, 17)]
        if n == 1:
            return [np.array([[v]]) for v in vals]
        picks = [(v, 1.0 / v) for v in vals] + [(v, v) for v in vals[::4]]
        return [np.diag([*d] + [1.0] * (n - 2)) for d in picks]
    vals = [Fraction(fd.p) ** k for k in range(-4, 5)]
    if n == 1:
        return [((v,),) for v in vals]
    grid = []
    for v in vals:
        grid.append(
            tuple(
                tuple(v if i == j == 0 else (1 / v if i == j == 1 else Fraction(i == j)) for j in range(n))
                for i in range(n)
            )
        )
    return grid


# -- functions ----------------------------------------------------------


def rand_gaussian(rng, space: MatrixSpace, with_phase: bool = True) -> GaussianForm:
    d = space.dim
    m = rng.standard_normal((d, d)) * 0.4
    Q = m.T @ m + np.eye(d) * float(rng.uniform(0.4, 1.2))
    kappa = complex(rng.standard_normal(), rng.standard_normal())
    ell = None
    if with_phase:
        ell = rng.standard_normal(d) * 0.5
    return GaussianForm(space, Q, kappa, ell)


def rand_sb_function(rng, space: MatrixSpace, terms: int = 2,
                     unit_leading_center: bool = False) -> SBFunction:
    """A random lattice-coset combination.

    With ``unit_leading_center`` every coset center has a p-unit first
    coordinate and the lattice sits inside p Z_p^d, the class on which the
    shell-stabilized composition provably reproduces the Fourier transform.
    """
    p = space.fd.p
    d = space.dim
    out = []
    for _ in range(terms):
        k = int(rng.integers(1, 3))
        basis = Lattice.scaled_standard(p, d, k)
        if unit_leading_center:
            center = [rand_unit_fraction(rng, p)] + [
                rand_fraction(rng, p, vmin=0, vmax=2) for _ in range(d - 1)
            ]
        else:
            center = [rand_fraction(rng, p, vmin=-1, vmax=2) for _ in range(d)]
        coeff = Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        out.append((coeff, Coset(basis, tuple(center))))
    return SBFunction(space, out)
