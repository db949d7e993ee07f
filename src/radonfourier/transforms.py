"""Fourier transform, slice/Radon integrals, the normalizing weight gamma_n,
and the verification operations tying them together.

The transform on the matrix space X is

    F f(y) = integral over X of f(x) chi(Tr(y x)) dx

with chi the field's additive character (archimedean kernel
exp(-2 pi i Re Tr(y x))).  The intertwining integral I integrates f over the
affine fiber {x : y x = I_n}, the slice T(f)(y, a) over {x : y x = a}.  The
Fourier-slice identity, with T(f)(y, .) taken as one function (a Gaussian by
Schur complement, a lattice-coset function by exact Fubini),

    F f(y) = integral over M_n of T(f)(y, a) chi(Tr a) da,

is the absolutely convergent, pointwise-true face of the statement that the
composition of I with convolution by

    gamma_n(a) = |det a|^((1-n)/2) chi(Tr(a^(-1)))

agrees with F.  The crux is the exact kernel identity

    |det a|^((1-n)/2) gamma_n(a^(-1)) = chi(Tr a),

checked here over every supported field.  A literal iterated composition
diverges pointwise for generic inputs (the fiber integrand decays like
1/||z||), so the composition is exposed only through the kernel and slice
reformulations, plus a p-adic shell-stabilized evaluation whose convergence
is certified by exact vanishing of character sums on successive shells.
The negative-control knobs (an exponent shift, a measure factor, a sign
flip) live in the verification functions, which apply each one where they
put the two sides together; the operators take none.

One rule, ``sides_agree``, decides every two-sided identity: |lhs - rhs| at
most tol over R and C, with the residual reported, and exact equality over
Q_p.  Each verifier states only the verdict and row of one sample; one loop,
``hilbert.judged_record``, folds the verdicts and keeps the rows.
``sampled_identity`` judges a plain two-sided identity (slice,
Fourier-equivariance, unitarity, the exact kernel identity).  The intertwine
laws (both laws per row) and the batched archimedean kernel rows, with the
kernel identity's relative magnitude and phase angle rule, write their own.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import exactlinalg as xl
from .cyclotomic import ExactValue
from .fields import FieldDescriptor, abs_norm, add_char, padic_valuation
from .functions import (
    GaussianForm,
    SBFunction,
    fiber_restrict,
    integrate,
    translate_group,
)
from .geometry import (
    MatrixSpace,
    det_power,
    fiber_param,
    meye,
    minv,
    mmul,
    mtrace,
    space_L,
)
from .hilbert import (
    _KERNEL_ROWS, _input_json, _mat_json, act_g, act_module_X, act_module_Xbar, inner_X,
    inner_Xbar, judged_record,
)


# ---------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def pairing_matrix(yspace: MatrixSpace, xspace: MatrixSpace):
    """Coordinate matrix P of (y, x) -> Re Tr(y x) (Tr(y x) over Q_p).

    Rows index y-coordinates, columns x-coordinates, so the pairing is
    coords(y)^T P coords(x).  Since Re Tr(y x) = sum Re(y_ij x_ji), P holds
    a 1 at each pair of matching coordinates of y_ij and x_ji, and -1 at the
    (im, im) pairs over C.  P is a signed permutation, hence the Lebesgue
    coordinate measure is self-dual for the associated Fourier kernel.
    Entries are Python integers on every field.
    """
    if yspace.cols != xspace.rows or yspace.rows != xspace.cols:
        raise ValueError("spaces do not pair")
    d = yspace.fd.d_F
    # entry i*cols + j of y is y_ij; entry xk[i*cols + j] of x is x_ji
    xk = np.arange(xspace.rows * xspace.cols).reshape(xspace.shape).T.reshape(-1)
    yc, xc = d * np.arange(len(xk)), d * xk
    P = np.zeros((yspace.dim, xspace.dim), dtype=int)
    P[yc, xc] = 1
    if d == 2:
        P[yc + 1, xc + 1] = -1
    return tuple(map(tuple, P.tolist()))


# ---------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------


def fourier(f):
    """Transform a function on X to one on Xbar, or on Xbar to one on X.

    Gaussians and Schwartz-Bruhat functions transform in closed form /
    exactly.  The coordinate measure is self-dual, so F(F f) = f(-.): the
    transform inverts itself up to the reflection.
    """
    space = f.space
    target = space.transpose_space()
    if isinstance(f, (GaussianForm, SBFunction)):
        return f.fourier(pairing_matrix(target, space), target)
    raise TypeError(f"cannot transform {type(f).__name__}")


# ---------------------------------------------------------------------
# Normalizing weight and the kernel identity
# ---------------------------------------------------------------------


def gamma_n(a, fd: FieldDescriptor):
    """gamma_n(a) = |det a|^((1-n)/2) chi(Tr(a^(-1))).

    Archimedean values are complex; p-adic values are exact (a formal q-power
    times a root of unity).
    """
    mag = det_power(a, Fraction(1 - len(a), 2), fd)
    return mag * add_char(mtrace(minv(a, fd), fd), fd)


def kernel_identity_check(
    fd: FieldDescriptor,
    n: int,
    samples,
    tol: float = 1e-12,
    exponent_shift: Fraction = Fraction(0),
) -> dict:
    """Verify |det a|^((1-n)/2) gamma_n(a^(-1)) = chi(Tr a) on given samples.

    Archimedean: batched linear algebra, magnitudes compared relatively and
    phases as angles, both at ``tol``; p-adic: exact equality of q-powers and
    roots of unity.  The report keeps the first ``_KERNEL_ROWS`` sample records
    and every failing record (failures always carry the discriminating input
    for replay).  The negative control ``exponent_shift`` s shifts gamma_n's
    exponent: over Q_p, the left side takes the factor |det a|^(-s).
    """
    if not fd.is_archimedean:
        def sides(a):
            lhs = det_power(a, Fraction(1 - n, 2) - exponent_shift, fd) * gamma_n(xl.inv(a), fd)
            return lhs, ExactValue.from_cyclo(fd.p, add_char(xl.trace(a), fd))

        return sampled_identity("gamma-kernel", fd, n, samples, sides, tol, keep=_KERNEL_ROWS)
    arr = np.stack([np.asarray(a) for a in samples])
    invs = np.linalg.inv(arr)
    # the left side goes through gamma at the numerical inverse: its own
    # determinant, its own inverse-of-the-inverse trace
    mags = np.array([abs_norm(d, fd) for d in np.linalg.det(arr)])
    mags_inv = np.array([abs_norm(d, fd) for d in np.linalg.det(invs)])
    shift = float(exponent_shift)
    gamma_vals = mags_inv ** ((1 - n) / 2.0 + shift) * np.exp(
        -2j * np.pi * np.real(np.trace(np.linalg.inv(invs), axis1=1, axis2=2))
    )
    lhs = mags ** ((1 - n) / 2.0) * gamma_vals
    rhs = np.exp(-2j * np.pi * np.real(np.trace(arr, axis1=1, axis2=2)))
    mag_err = np.abs(np.abs(lhs) - np.abs(rhs)) / np.abs(rhs)
    ang = np.abs(np.angle(lhs / rhs))
    good = (mag_err <= tol) & (ang <= tol)

    def judge(i):
        return bool(good[i]), {"input": _mat_json(samples[i], fd), "lhs": _re_im(lhs[i]),
                               "rhs": _re_im(rhs[i]), "abs_err": float(abs(lhs[i] - rhs[i])),
                               "pass": bool(good[i])}

    return judged_record("gamma-kernel", fd, n, range(len(samples)), judge, keep=_KERNEL_ROWS)


# ---------------------------------------------------------------------
# Slice family and intertwining integral
# ---------------------------------------------------------------------


def intertwine_I(f, y, fiber=None):
    """The standard intertwining integral I(f)(y) = T(f)(y, I_n): the integral
    of f(g [I_n; z]) dz over z in F^n, for the completion ``fiber`` = g of y
    (``fiber_param``'s deterministic one by default)."""
    if fiber is None:
        fiber = fiber_param(y, f.space.cols, f.space.fd)
    return integrate(fiber_restrict(f, fiber))


def slice_family(f, y):
    """T(f)(y, .) as a function on the n x n matrix space.

    The left translate of f by the completion g of y is [a; w] -> f(g [a; w])
    = f(A a + c w) on the (n+1) x n matrices; marginalizing the w block, the
    last coordinates, leaves T(f)(y, a): Gaussians by Schur complement,
    lattice-coset functions by exact Fubini.
    """
    fd, n = f.space.fd, f.space.cols
    Lsp = space_L(n, fd)
    fg = translate_group(f, fiber_param(y, n, fd), side="left")
    return fg.marginalize(list(range(Lsp.dim)), Lsp)


def trace_form_coords(n: int, fd: FieldDescriptor):
    """Vector lam with <lam, coords(a)> = Re Tr(a) on the n x n space."""
    return space_L(n, fd).coords(meye(n, fd))


def integrate_against_trace_character(g):
    """integral of g(a) chi(Tr a) da over g's space of n x n matrices.

    Gaussian g: closed form (the transform of g evaluated at the identity).
    Schwartz-Bruhat g: exact character sum.
    """
    Lsp = g.space
    n, fd = Lsp.cols, Lsp.fd
    if isinstance(g, GaussianForm):
        return g.fourier(pairing_matrix(Lsp, Lsp), Lsp).value(meye(n, fd))
    if isinstance(g, SBFunction):
        return g.integrate_against_character(trace_form_coords(n, fd))
    raise TypeError("need a Gaussian or Schwartz-Bruhat slice family")


# ---------------------------------------------------------------------
# Composition with the normalizing weight
# ---------------------------------------------------------------------


def compose_shell_stabilized(f: SBFunction, y, k_max: int):
    """p-adic composition I(C_gamma f)(y) over growing fiber balls.

    The fiber integral of z -> C_gamma f(A + c z) is accumulated over the
    balls ||z|| <= p^k.  With A + c z = g [I_n; z] for the completion g of y,
    (A + c z) b = g [b; z b]: f is translated along g once, and each shell
    point translates that along the unipotent [I_n; z].  Each shell is split
    into cosets fine enough that the inner character sum is constant on each
    (the modulus comes from an ultrametric bound on the support, so the
    decomposition is rigorous), and the shell contribution is an exact
    cyclotomic sum.  Once two consecutive shells vanish identically the value
    is declared stable; a caller compares it against the Fourier transform.
    Without two such shells by k_max the result is inconclusive: None, with
    the certificate of the shells that were summed.

    Returns (value or None, certificate dict).
    """
    space = f.space
    fd = space.fd
    if fd.is_archimedean:
        raise ValueError("shell stabilization is a p-adic operation")
    p = fd.p
    n = space.cols
    g = fiber_param(y, n, fd)
    fg = translate_group(f, g, side="left")

    # rigorous local-constancy modulus: perturbing z by p^s changes x b by
    # c dz b; bounding b through the left inverse y of x = A + c z keeps all
    # entries in p^-rho Z_p, so s >= g0 + rho - v(c) freezes every membership
    g0 = 0
    rf = 0
    for _, coset in f.terms:
        # the coset lies in p^(-R) Z_p^d, R = max(e, a), both in lowest terms
        g0 = max(g0, coset.lattice.granularity_exponent())
        rf = max(rf, coset.lattice.e, coset.a)
    ry = max(
        (max(0, -padic_valuation(e, p)) for row in y for e in row if e != 0),
        default=0,
    )
    vc = min(padic_valuation(row[n], p) for row in g if row[n] != 0)
    s = max(g0 + rf + ry - vc, 0)

    lam = trace_form_coords(n, fd)
    eye = meye(n, fd)

    def inner_value(z_vec):
        # C_gamma f(x) = integral over M_n of f(x b) chi(Tr b) db at x = A + c z
        return translate_group(fg, (*eye, z_vec), side="left").integrate_against_character(lam)

    total = ExactValue.from_cyclo(p, 0)
    shells = []
    consecutive_zero = 0
    stable_at = None
    coset_vol = Fraction(1, p ** (n * s))
    for k in range(0, k_max + 1):
        contrib = ExactValue.from_cyclo(p, 0)
        emptied = True
        for z_vec in _shell_points(p, n, k, s):
            val = inner_value(z_vec)
            if not val.is_zero():
                emptied = False
                contrib = contrib + val * coset_vol
        shells.append(
            {"k": k, "contribution": contrib.to_json(), "empty_support": emptied}
        )
        total = total + contrib
        if contrib.is_zero() and k > 0:
            consecutive_zero += 1
            if consecutive_zero >= 2:
                stable_at = k
                break
        elif k > 0:
            consecutive_zero = 0
    certificate = {
        "granularity_exponent": s,
        "shells": shells,
        "stabilization_radius": stable_at,
        "stabilized": stable_at is not None,
    }
    if stable_at is None:
        return None, certificate
    return total, certificate


def _shell_points(p: int, n: int, k: int, s: int):
    """Representatives modulo p^s Z_p^n of the shell {||z|| = p^k}, k >= 1,
    or of the unit ball Z_p^n for k = 0, as rational coordinate tuples.

    Points are d / p^k with digit vectors d in [0, p^(k+s))^n; for k >= 1 the
    shell keeps exactly those with some digit coprime to p.
    """
    denom = p**k
    for digits in itertools.product(range(p ** (k + s)), repeat=n):
        if k >= 1 and all(d % p == 0 for d in digits):
            continue
        yield tuple(Fraction(d, denom) for d in digits)


# ---------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------


def fourier_slice_verify(f, y_samples, tol: float = 1e-6, measure_factor=1) -> dict:
    """Check F f(y) = integral of T(f)(y, a) chi(Tr a) da at sampled y.

    The two sides are computed along independent routes: the left by the
    closed-form / exact transform of f, the right through the fiber
    parametrization, the slice family T(f)(y, .) (a Gaussian by Schur
    complement, a lattice-coset function by exact Fubini) and its closed-form
    / exact integral against chi(Tr a).  The negative control
    ``measure_factor`` scales the right side, as a rescaled fiber measure
    would.  Archimedean rows keep ``rhs_quadrature_error`` at 0.0: the right
    side is a closed form.  ``nonzero_lhs`` counts the samples where F f(y)
    is not 0, the ones that can tell a wrong right side from a right one.
    """
    fd, n = f.space.fd, f.space.cols
    fhat = fourier(f)
    nonzero = []

    def sides(y):
        lhs = fhat.value(y)
        nonzero.append(lhs != 0)
        rhs = integrate_against_trace_character(slice_family(f, y))
        return lhs, rhs if measure_factor == 1 else rhs * Fraction(measure_factor)

    record = sampled_identity("slice", fd, n, y_samples, sides, tol, rhs_quadrature_error=0.0)
    record["nonzero_lhs"] = sum(nonzero)
    return record


def fourier_equivariance_check(
    f, a, y_samples, tol: float = 1e-8, exponent_sign: int = +1
) -> dict:
    """Check F(f^(a^-1))(y) = |det a|^(+(n+1)) F f(a y) at sampled y.

    The positive exponent is deliberate and is pinned by the discriminating
    Gaussian example (see the tests); flipping ``exponent_sign`` to -1 is the
    negative control.  Also checks the module-level form F(f.a) = F(f).a.
    """
    fd, n = f.space.fd, f.space.cols
    lhs_fun = fourier(translate_group(f, minv(a, fd), side="right"))
    rhs_fun = fourier(f)
    mod_lhs = fourier(act_module_X(f, a))
    mod_rhs = act_module_Xbar(rhs_fun, a)
    scale = det_power(a, exponent_sign * (n + 1), fd)

    def sides(y):
        return (lhs_fun.value(y), scale * rhs_fun.value(mmul(a, y, fd)),
                ("module_form_err", mod_lhs.value(y), mod_rhs.value(y)))

    return sampled_identity("fourier-equivariance", fd, n, y_samples, sides, tol)


def intertwine_equivariance_check(f, g, a, y_samples, tol: float = 1e-6) -> dict:
    """Check I(g.f)(y) = I(f)(y g) and I(f.a)(y) = |det a|^((n+1)/2) I(f)(a y)."""
    fd, n = f.space.fd, f.space.cols
    gf = act_g(f, g)
    fa = act_module_X(f, a)
    scale = det_power(a, Fraction(n + 1, 2), fd)

    def judge(y):
        l1 = intertwine_I(gf, y)
        r1 = intertwine_I(f, mmul(y, g, fd))
        l2 = intertwine_I(fa, y)
        r2 = scale * intertwine_I(f, mmul(a, y, fd))
        g_good, g_err = sides_agree(fd, l1, r1, tol)
        a_good, a_err = sides_agree(fd, l2, r2, tol)
        if fd.is_archimedean:
            row = {"g_lhs": _re_im(l1), "g_rhs": _re_im(r1), "g_side_err": g_err,
                   "a_lhs": _re_im(l2), "a_rhs": _re_im(r2), "a_side_err": a_err}
        else:
            row = {"g_side_exact": g_good, "a_side_exact": a_good}
        return g_good and a_good, {"input": _input_json(y, fd), **row}

    return judged_record("intertwine-equivariance", fd, n, y_samples, judge)


def unitarity_verify(f, h, a_grid, tol: float = 1e-6) -> dict:
    """Check <F f, F h>_Xbar(a) = <f, h>_X(a) over a grid in GL(n)."""
    fd, n = f.space.fd, f.space.cols
    lhs_fun = inner_Xbar(fourier(f), fourier(h))
    rhs_fun = inner_X(f, h)
    return sampled_identity("unitarity", fd, n, a_grid, lambda a: (lhs_fun(a), rhs_fun(a)), tol)


def sampled_identity(name: str, fd: FieldDescriptor, n: int, samples, sides, tol: float,
                     keep=float("inf"), **row) -> dict:
    """Record of a two-sided identity judged at each sample m by ``sides_agree``.

    ``sides(m)`` gives the two sides at m, then any further identity at m as
    (key, lhs, rhs), whose verdict folds into the row's and whose residual the
    row keeps as ``key``; ``row`` holds entries that every row carries.
    ``judged_record`` keeps the rows, passing ones only up to ``keep``."""
    def judge(m):
        lhs, rhs, *more = sides(m)
        good, err = sides_agree(fd, lhs, rhs, tol)
        for key, more_lhs, more_rhs in more:
            more_good, row[key] = sides_agree(fd, more_lhs, more_rhs, tol)
            good = good and more_good
        return good, _sides_row(fd, m, lhs, rhs, good, err, **row)

    return judged_record(name, fd, n, samples, judge, keep)


def sides_agree(fd: FieldDescriptor, lhs, rhs, tol: float):
    """(verdict, residual) of a two-sided identity at one sample: over R and C
    |lhs - rhs| <= tol with the residual |lhs - rhs| as a float, over Q_p
    exact equality with None."""
    if fd.is_archimedean:
        err = float(abs(lhs - rhs))
        return err <= tol, err
    return bool(lhs == rhs), None


def _re_im(z) -> list:
    """An archimedean value as a report writes it: [re, im]."""
    z = complex(z)
    return [z.real, z.imag]


def _sides_row(fd: FieldDescriptor, m, lhs, rhs, good, err, **extra) -> dict:
    """Report record of one sample of a two-sided identity: the input and
    both sides, then over R and C the sides as [re, im], the residual and the
    check's ``extra`` entries, over Q_p the exact sides and the verdict."""
    if not fd.is_archimedean:
        return {"input": _input_json(m, fd), "lhs": lhs.to_json(), "rhs": rhs.to_json(),
                "exact_equal": bool(good)}
    return {"input": _input_json(m, fd), "lhs": _re_im(lhs), "rhs": _re_im(rhs),
            "abs_err": err, **extra}
