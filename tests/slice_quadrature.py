"""The slice identity's right side by pointwise quadrature: a cross-check
independent of the closed forms that ``fourier_slice_verify`` uses.

The slice T(f)(y, a) integrates f over the affine fiber {x : y x = a}, the
orbit z -> A a + c z, where z -> g [I_n; z] = A + c z is the fiber of y
through its completion g = [A | c].  For a real input with n = 1 the
a-integral of T(f)(y, a) chi(a) goes to ``integrate`` as an ``Evaluable``,
under the slice family's Gaussian envelope, and comes back with a two-order
error estimate.
"""

import numpy as np

from radonfourier import Evaluable, add_char, b_map, fiber_param, fourier, integrate, intertwine_I
from radonfourier.geometry import as_matrix, mmul
from radonfourier.transforms import slice_family


def slice_transform(f, y, a, g=None):
    """T(f)(y, a) over any field: I(f) on the fiber [A a | c] of {x : y x = a},
    for the completion g = [A | c] of y."""
    fd, n = f.space.fd, f.space.cols
    if g is None:
        g = fiber_param(y, n, fd)
    Aa = mmul(b_map(g, n, fd), a, fd)
    return intertwine_I(f, y, fiber=as_matrix([[*ra, *row[n:]] for ra, row in zip(Aa, g)], fd))


def quadrature_slice_verify(f, y_samples, tol):
    """(ok, rows) for F f(y) = integral of T(f)(y, a) chi(a) da at each y, for
    a real f with n = 1.

    Each row holds both sides, ``abs_err`` = |lhs - rhs| and the quadrature
    estimate ``err``; ``ok`` holds both to ``tol`` on every row.
    """
    fd = f.space.fd
    fhat = fourier(f)
    rows = []
    for y in y_samples:
        fib = fiber_param(y, 1, fd)

        def point_slice(apts, y=y, fib=fib):
            return np.array([slice_transform(f, y, [[av]], fib) * add_char(av, fd) for av in apts[:, 0]])

        fam = slice_family(f, y)
        rhs, err = integrate(Evaluable(fam.space, point_slice, fam.envelope(), "slice"), with_error=True)
        lhs = fhat.value(y)
        rows.append({"lhs": lhs, "rhs": rhs, "abs_err": abs(lhs - rhs), "err": err})
    return all(r["abs_err"] <= tol and r["err"] <= tol for r in rows), rows
