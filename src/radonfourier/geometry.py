"""Matrix spaces over a local field, group actions and decompositions.

The ambient objects are the special linear group G of size (n+1), its Levi
subgroup L = GL(n), the space X of (n+1) x n matrices carrying a left G- and
a right L-action, and the opposite space Xbar of n x (n+1) matrices.  A point
of X (resp. Xbar) is regular when it has full rank n; regular points are a
single G-orbit and the quotient maps are realized by block extraction.

Archimedean matrices are numpy arrays, p-adic matrices are nested tuples of
Fractions; the small dispatch helpers below keep the two representations
behind one interface.  Other modules branch on the field only to choose an
algorithm (closed form or exact sum, tolerance or exact equality, a sampling
law), never to spell a matrix or scalar operation.  Real coordinates of a
matrix space flatten row-major, with complex entries split into (re, im)
pairs.  Every linear action used here is x -> A x B, whose coordinate matrix
is the Kronecker product A (x) B^T, vec(A X B) = (A (x) B^T) vec(X) in
row-major order, with each complex entry written as a real 2 x 2 block;
over Q_p it is integer rows over p^k u, the form the lattice layer takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactlinalg as xl
from .cyclotomic import ExactValue
from .fields import FieldDescriptor, abs_norm, padic_valuation


# ---------------------------------------------------------------------
# Matrix representation dispatch
# ---------------------------------------------------------------------


def as_matrix(m, fd: FieldDescriptor):
    """Normalize input to the field's matrix representation."""
    if fd.is_archimedean:
        dtype = complex if fd.kind == "complex" else float
        return np.asarray(m, dtype=dtype)
    return xl.mat(m)


def mmul(a, b, fd: FieldDescriptor):
    if fd.is_archimedean:
        return np.asarray(a) @ np.asarray(b)
    return xl.matmul(a, b)


def minv(a, fd: FieldDescriptor):
    if fd.is_archimedean:
        return np.linalg.inv(np.asarray(a))
    return xl.inv(a)


def mdet(a, fd: FieldDescriptor):
    if fd.is_archimedean:
        return np.linalg.det(np.asarray(a))
    return xl.det(a)


def mtrace(a, fd: FieldDescriptor):
    if fd.is_archimedean:
        return np.trace(np.asarray(a))
    return xl.trace(a)


def meye(n: int, fd: FieldDescriptor):
    return as_matrix([[int(i == j) for j in range(n)] for i in range(n)], fd)


def det_power(a, s, fd: FieldDescriptor):
    """|det a|^s: a float archimedean, the exact q-power q^(-v_p(det a) s) p-adic."""
    d = mdet(a, fd)
    if fd.is_archimedean:
        return float(abs_norm(d, fd)) ** float(s)
    return ExactValue(fd.p, -padic_valuation(d, fd.p) * Fraction(s), 1)


def is_regular(x, fd: FieldDescriptor, tol: float = 1e-10) -> bool:
    """Full rank test: exact for p-adic; over R/C the smallest singular value
    must exceed ``tol`` times the largest, so the scale of x does not matter."""
    x = as_matrix(x, fd)
    if fd.is_archimedean:
        s = np.linalg.svd(x, compute_uv=False)
        return bool(s[-1] > tol * s[0])
    return xl.rank(x) == min(len(x), len(x[0]))


# ---------------------------------------------------------------------
# Coordinate flattening
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixSpace:
    """A space of rows x cols matrices over the field, with flat coordinates."""

    fd: FieldDescriptor
    rows: int
    cols: int

    @property
    def dim(self) -> int:
        """Flat coordinate dimension: d_F coordinates per entry."""
        return self.rows * self.cols * self.fd.d_F

    @property
    def shape(self):
        return (self.rows, self.cols)

    def transpose_space(self) -> "MatrixSpace":
        return MatrixSpace(self.fd, self.cols, self.rows)

    def coords(self, m):
        """Row-major flat coordinates; complex entries interleave (re, im)."""
        if self.fd.kind == "complex":
            flat = np.asarray(m, dtype=complex).reshape(-1)
            out = np.empty(2 * flat.size)
            out[0::2] = flat.real
            out[1::2] = flat.imag
            return out
        if self.fd.is_archimedean:
            return np.asarray(m, dtype=float).reshape(-1).copy()
        return tuple(Fraction(x) for row in xl.mat(m) for x in row)


def space_X(n: int, fd: FieldDescriptor) -> MatrixSpace:
    return MatrixSpace(fd, n + 1, n)


def space_L(n: int, fd: FieldDescriptor) -> MatrixSpace:
    return MatrixSpace(fd, n, n)


def flatten_linear(A, B, fd: FieldDescriptor):
    """Coordinate matrix of the linear map x -> A x B between matrix spaces.

    In row-major coordinates this is A (x) B^T: the entry at target (k, l),
    domain (i, j) is A[k, i] B[j, l].  Over C each complex entry c becomes the
    real block [[Re c, -Im c], [Im c, Re c]].  Over Q_p it is the lattice
    layer's triple (K, k, u), integer rows K with A (x) B^T = K / (p^k u):
    the Kronecker product of the two ``xl.p_scaled`` forms.
    """
    A, B = as_matrix(A, fd), as_matrix(B, fd)
    if not fd.is_archimedean:
        (NA, a, ua), (NB, b, ub) = xl.p_scaled(A, fd.p), xl.p_scaled(B, fd.p)
        K = [[x * y for x in ra for y in cb] for ra in NA for cb in zip(*NB)]
        return K, a + b, ua * ub
    rows, cols = len(A) * len(B[0]), len(A[0]) * len(B)
    K = (A[:, None, :, None] * B.T[None, :, None, :]).reshape(rows, cols)
    if fd.kind == "complex":
        re, im = K.real, K.imag
        K = np.stack([np.stack([re, -im], -1), np.stack([im, re], -1)], 1)
        K = K.reshape(2 * rows, 2 * cols)
    return K


# ---------------------------------------------------------------------
# Quotient maps
# ---------------------------------------------------------------------


def b_map(g, n: int, fd: FieldDescriptor):
    """Quotient map to X: the left (n+1) x n block of g."""
    return as_matrix([row[:n] for row in g], fd)


def bbar_map(g, n: int, fd: FieldDescriptor):
    """Quotient map to Xbar: the top n rows of g^(-1)."""
    return minv(g, fd)[:n]


def base_point_y(n: int, fd: FieldDescriptor):
    return bbar_map(meye(n + 1, fd), n, fd)


# ---------------------------------------------------------------------
# Fibers: unimodular completions
# ---------------------------------------------------------------------


def fiber_param(y, n: int, fd: FieldDescriptor, rng=None):
    """The fiber of the intertwining kernel over a regular y, as a
    determinant-one completion g of y: bbar_map(g) = y.

    The fiber {x : y x = I_n} is the unipotent orbit z -> g [I_n; z] = A + c z,
    with A = b_map(g) and c the last column of g, and carries Lebesgue
    measure dz.  Appends a row w to y with d = det([y; w]) != 0 and returns
    [y; w / d]^(-1).  The candidates for w are the standard basis rows, or,
    with ``rng``, random draws, which is how completion-independence is
    exercised.  Over R and C the best-conditioned of the unit rows or of 8
    unit draws wins (the largest |d|, the first on a tie); over Q_p the first
    unit row, or the first of up to 64 integer draws, with d != 0.
    """
    y_ = as_matrix(y, fd)
    if not is_regular(y_, fd):
        raise ValueError("point is not regular (rank deficient)")
    if fd.is_archimedean:
        rows = meye(n + 1, fd) if rng is None else [_unit_draw(rng, n + 1, fd) for _ in range(8)]
        w = max(rows, key=lambda w: abs(mdet([*y_, w], fd)))
        # |det [y; w]| scales as |y|^n for unit w
        if abs(mdet([*y_, w], fd)) <= 1e-10 * np.linalg.norm(y_) ** n:
            w = None
    else:
        rows = meye(n + 1, fd) if rng is None else (
            tuple(Fraction(int(rng.integers(-9, 10))) for _ in range(n + 1)) for _ in range(64)
        )
        w = next((w for w in rows if mdet([*y_, w], fd) != 0), None)
    if w is None:
        raise ValueError("could not complete to a unimodular matrix")
    d = mdet([*y_, w], fd)
    return minv([*y_, [x / d for x in w]], fd)


def _unit_draw(rng, size: int, fd: FieldDescriptor):
    """A random unit vector over R or C: standard normal real parts, then
    (over C) standard normal imaginary parts."""
    w = rng.standard_normal(size)
    if fd.kind == "complex":
        w = w + 1j * rng.standard_normal(size)
    return w / np.linalg.norm(w)


# ---------------------------------------------------------------------
# KAK / Cartan decomposition and weights
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class KAKFactors:
    """k1 @ diag @ k2 with k1, k2 in the maximal compact subgroup.

    Archimedean: singular value decomposition, diagonal sorted decreasing.
    p-adic: Smith decomposition with k1, k2 in GL(n, Z_p) and diagonal
    entries p**m_i, m_1 <= ... <= m_n (so the diagonal is sorted by
    decreasing normalized absolute value in both cases).
    """

    k1: object
    diag: tuple
    k2: object
    fd: FieldDescriptor

    def reconstruct(self):
        n, fd = len(self.diag), self.fd
        D = as_matrix([[d if i == j else 0 for j in range(n)] for i, d in enumerate(self.diag)], fd)
        return mmul(mmul(self.k1, D, fd), self.k2, fd)


def kak(a, fd: FieldDescriptor) -> KAKFactors:
    """Cartan decomposition of an invertible n x n matrix."""
    if fd.is_archimedean:
        u, s, vh = np.linalg.svd(as_matrix(a, fd))
        if s[-1] <= 1e-12:
            raise ValueError("singular input")
        return KAKFactors(k1=u, diag=tuple(float(x) for x in s), k2=vh, fd=fd)
    a_ = xl.mat(a)
    if xl.det(a_) == 0:
        raise ValueError("singular input")
    U, exps, V = xl.smith_zp(a_, fd.p)
    diag = tuple(Fraction(fd.p) ** e for e in exps)
    return KAKFactors(k1=U, diag=diag, k2=V, fd=fd)


def rho_weight(diag, n: int, fd: FieldDescriptor) -> float:
    """The spherical decay weight prod_i |a_i|^(i - (n+1)/2).

    The normalized absolute value absorbs the real dimension of the field, so
    the same exponents serve R, C and Q_p.  Diagonal entries are expected in
    the KAK order (decreasing normalized absolute value); the value itself is
    order-dependent but each bound below holds per factor in any order.
    """
    w = 1.0
    for i, ai in enumerate(diag, start=1):
        w *= float(abs_norm(ai, fd)) ** (i - (n + 1) / 2.0)
    return w


def rho_weight_exponents(log_sizes, n: int):
    """Exact log-scale weights for the decay chain.

    ``log_sizes`` are the logarithms base t of the normalized absolute values
    |a_i| (any fixed base t > 1; Fractions).  Returns exact Fractions
    (rho, mid, low) with

        rho = sum_i (i - (n+1)/2) * e_i,
        mid = -(n-1)/2 * sum_i |e_i|,
        low = -(n+1)/2 * sum_i |e_i|,

    so that t**rho = prod |a_i|^(i-(n+1)/2) and the chain rho >= mid >= low
    mirrors prod |a_i|^(i-(n+1)/2) >= prod min(|a_i|, |a_i|^-1)^((n-1)/2)
    >= prod min(|a_i|, |a_i|^-1)^((n+1)/2).
    """
    es = [Fraction(e) for e in log_sizes]
    rho = sum((Fraction(2 * i - (n + 1), 2)) * e for i, e in enumerate(es, start=1))
    total = sum(abs(e) for e in es)
    mid = -Fraction(n - 1, 2) * total
    low = -Fraction(n + 1, 2) * total
    return rho, mid, low
