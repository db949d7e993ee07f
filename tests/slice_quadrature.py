"""The slice identity's right side by pointwise quadrature: a cross-check
independent of the closed forms that ``fourier_slice_verify`` uses.

The slice T(f)(y, a) = I(f)(y; Fiber(A a, c)) integrates f over the affine
fiber {x : y x = a}, shifted from the fiber (A, c) of y.  For a real input
with n = 1 the a-integral of T(f)(y, a) chi(a) goes to ``integrate`` as an
``Evaluable``, under the slice family's Gaussian envelope, and comes back
with a two-order error estimate.
"""

import numpy as np

from radonfourier import Evaluable, Fiber, add_char, fiber_param, fourier, integrate, intertwine_I
from radonfourier.geometry import mmul
from radonfourier.transforms import slice_family


def slice_transform(f, y, a, fiber=None):
    """T(f)(y, a) over any field: I(f) on the fiber (A a, c) of {x : y x = a}."""
    fd, n = f.space.fd, f.space.cols
    fiber = fiber or fiber_param(y, n, fd)
    return intertwine_I(f, y, fiber=Fiber(A=mmul(fiber.A, a, fd), c=fiber.c, n=n, fd=fd))


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
