"""Coordinate basis matrices of a matrix space, for the tests' reference
routes that push every basis matrix through a map."""

from fractions import Fraction

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
