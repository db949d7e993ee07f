"""Coordinate basis matrices of a matrix space, for the tests' reference
routes that push every basis matrix through a map, and a ``Fraction``
inverse and brute-membership evaluation that share no code with the
package's lattice layer."""

from fractions import Fraction
from functools import lru_cache

import numpy as np


def basis_matrices(space):
    """The matrix of each coordinate basis vector of ``space``: real entries
    over R, complex entries from interleaved (re, im) coordinates over C,
    Fraction entries over Q_p."""
    out = []
    for e in np.eye(space.dim):
        if space.fd.kind == "complex":
            out.append((e[0::2] + 1j * e[1::2]).reshape(space.shape))
        elif space.fd.is_archimedean:
            out.append(e.reshape(space.shape))
        else:
            out.append(tuple(tuple(Fraction(int(x)) for x in row) for row in e.reshape(space.shape)))
    return out


@lru_cache(maxsize=None)
def _inverse_of(basis):
    return inverse(basis)


def inverse(B):
    """B^(-1) for a square rational matrix, by Fraction Gauss-Jordan."""
    n = len(B)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(B)]
    for c in range(n):
        r = next(i for i in range(c, n) if M[i][c])
        M[c], M[r] = M[r], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for i in range(n):
            if i != c and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return [row[n:] for row in M]


def brute_value(f, v):
    """A Schwartz-Bruhat function at the rational point v, term by term: v
    lies in center + basis Z_p^d exactly when basis^(-1) (v - center) has no
    denominator divisible by p."""
    total = 0
    for coeff, coset in f.terms:
        diff = [Fraction(x) - c for x, c in zip(v, coset.center)]
        t = [sum(a * b for a, b in zip(row, diff)) for row in _inverse_of(coset.lattice.basis)]
        if all(x.denominator % f.p for x in t):
            total = coeff + total
    return total


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def matvec(A, v):
    return tuple(sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in A)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))
