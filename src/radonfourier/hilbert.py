"""Module actions and GL(n)-valued inner products on the dense submodule.

Functions on the matrix space X (resp. the opposite space) carry a right
action of GL(n) by scaled translation and a pairing whose value at a group
element a is

    <f, h>_X(a)    = |det a|^((n+1)/2)  * integral of conj(f(x)) h(x a) dx,
    <f, h>_Xbar(a) = |det a|^(-(n+1)/2) * integral of conj(f(y)) h(a^-1 y) dy.

These pairings take values in functions on GL(n); here they are realized as
``LFunction`` evaluation objects (closed-form for Gaussian pairs, exact for
Schwartz-Bruhat pairs).  The decay diagnostics at the bottom (Schwartz
estimate with explicit constant, truncation sequence) are the computable
surrogates for membership of the pairings in the reduced group C*-algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import quadrature as quad
from .cyclotomic import ExactValue
from .fields import REAL, FieldDescriptor, abs_norm, padic_valuation
from .functions import (
    GaussianForm,
    SBFunction,
    cutoff_ramps,
    integrate,
    pointwise_mul,
    require_test_function,
    translate_group,
)
from .geometry import KAKFactors, det_power, minv

# relative roundoff slack of the archimedean decay-bound comparison
_DECAY_SLACK = 1e-9
# polar quadrature orders (radius, angle) of each truncation panel
_TRUNC_R_ORDER, _TRUNC_THETA_ORDER = 40, 48


@dataclass
class LFunction:
    """Evaluation object a -> value on GL(n), with provenance.

    Values are complex (archimedean) or ExactValue (p-adic): the pairings
    below are closed forms or exact sums.
    """

    _eval: object
    provenance: str = ""

    def __call__(self, a):
        return self._eval(a)


def inner_X(f, h) -> LFunction:
    """The X-side pairing <f,h>_X as a function on GL(n)."""
    for g in (f, h):
        require_test_function(g, "pair")
    space = f.space
    fd = space.fd
    n = space.cols
    fc = f.conjugate()

    def ev(a):
        ha = translate_group(h, a, side="right")
        return det_power(a, Fraction(n + 1, 2), fd) * integrate(pointwise_mul(fc, ha))

    return LFunction(ev, provenance=f"inner_X({f.kind},{h.kind})")


def inner_Xbar(f, h) -> LFunction:
    """The opposite-side pairing <f,h>_Xbar as a function on GL(n)."""
    for g in (f, h):
        require_test_function(g, "pair")
    space = f.space
    fd = space.fd
    n = space.rows
    fc = f.conjugate()

    def ev(a):
        ha = translate_group(h, minv(a, fd), side="left")
        return det_power(a, Fraction(-(n + 1), 2), fd) * integrate(pointwise_mul(fc, ha))

    return LFunction(ev, provenance=f"inner_Xbar({f.kind},{h.kind})")


# ---------------------------------------------------------------------
# Module actions
# ---------------------------------------------------------------------


def act_module_X(f, a):
    """f.a(x) = |det a|^(-(n+1)/2) f(x a^(-1)) on the X side."""
    fd = f.space.fd
    n = f.space.cols
    g = translate_group(f, minv(a, fd), side="right")
    return g.scale(det_power(a, Fraction(-(n + 1), 2), fd))


def act_module_Xbar(f, a):
    """f.a(y) = |det a|^((n+1)/2) f(a y) on the opposite side."""
    fd = f.space.fd
    n = f.space.rows
    g = translate_group(f, a, side="left")
    return g.scale(det_power(a, Fraction(n + 1, 2), fd))


def act_g(f, g):
    """Group translation on X: (g.f)(x) = f(g^(-1) x)."""
    return translate_group(f, minv(g, f.space.fd), side="left")


# ---------------------------------------------------------------------
# Decay diagnostics
# ---------------------------------------------------------------------


def column_product_constant(f):
    """The explicit constant C = prod_i ||f_i||_inf ||f_i||_1 over columns.

    Requires f(x) = prod_j f_0(x_j) over the columns x_j of x, with one f_0
    for every column, so that the compact group acting on the right fixes f,
    as the bound at k1 a k2 needs; then C = ||f||_inf ||f||_1.  For a
    Gaussian kappa exp(-pi x'Q x) this means no phase and Q one block
    repeated down the columns, and C = |kappa|^2 det(Q)^(-1/2).  For a
    Schwartz-Bruhat function it means a single origin coset c 1_L whose
    lattice basis is one block repeated down the columns, and C = c^2 vol(L).
    """
    if isinstance(f, GaussianForm):
        if np.any(f.ell):
            raise ValueError("phase factors break the column product envelope")
        form, C = f.Q, abs(f.kappa) ** 2 * float(np.linalg.det(f.Q)) ** -0.5
    elif isinstance(f, SBFunction):
        if len(f.terms) != 1:
            raise ValueError("need a single-coset function for the product envelope")
        coeff, coset = f.terms[0]
        if any(coset.c):
            raise ValueError("need an origin coset for the product envelope")
        if not coeff.cyc.is_rational() or coeff.qexp != 0:
            raise ValueError("need a rational coefficient")
        # the block test reads N: basis = N / p^e keeps its equalities and zeros
        form, C = coset.lattice.N, coeff.cyc.rational_value() ** 2 * coset.lattice.volume()
    else:
        raise ValueError("no product envelope for this function class")
    space = f.space
    per = space.fd.d_F
    # coordinate i belongs to matrix column column[i]; i - column[i] * per is
    # the same coordinate of column 0
    column = [i // per % space.cols for i in range(space.dim)]
    if not all(
        form[i][k] == (form[i - column[i] * per][k - column[k] * per] if column[i] == column[k] else 0)
        for i in range(space.dim)
        for k in range(space.dim)
    ):
        raise ValueError(
            "the estimate needs one block repeated down the columns of X and nothing "
            "across them, so that the compact group acting on the right fixes f"
        )
    return C


def exact_le(v1, v2) -> bool:
    """v1 <= v2 for positive exact values c * q^e.

    With k the denominator of e2 - e1, this is c1^k <= c2^k q^(k (e2 - e1)),
    an exact comparison of rationals for every rational exponent.
    """
    c1, e1 = v1.cyc.rational_value(), v1.qexp
    c2, e2 = v2.cyc.rational_value(), v2.qexp
    if c1 < 0 or c2 < 0:
        raise ValueError("comparison needs positive values")
    k = (e2 - e1).denominator
    return c1**k <= c2**k * Fraction(v1.p) ** int(k * (e2 - e1))


def decay_bound_check(f, samples) -> dict:
    """Check |<f,f>_X(k1 a k2)| <= C prod min(|a_i|,|a_i|^-1)^((n+1)/2).

    ``samples`` is a list of KAK triples (k1, diag, k2); the constant C is
    the explicit per-column product constant.  Archimedean comparisons allow
    the relative roundoff slack ``_DECAY_SLACK``; p-adic ones are exact.
    Returns the ``estimate`` record, with C.
    """
    space = f.space
    fd = space.fd
    n = space.cols
    C = column_product_constant(f)
    pairing = inner_X(f, f)

    def judge(kak):
        k1, diag, k2 = kak
        val = pairing(KAKFactors(k1, diag, k2, fd).reconstruct())
        if fd.is_archimedean:
            val = abs(val)
            bound = C
            for ai in diag:
                s = float(abs_norm(ai, fd))
                bound *= min(s, 1.0 / s) ** ((n + 1) / 2.0)
            good = val <= bound * (1.0 + _DECAY_SLACK) + 1e-300
        else:
            expo = Fraction(0)
            for ai in diag:
                v = padic_valuation(ai, fd.p)
                expo += Fraction(-abs(v) * (n + 1), 2)
            bound = ExactValue(fd.p, expo, 1) * C
            good = exact_le(val, bound)
            val, bound = val.to_complex().real, bound.to_complex().real
        row = {"diag": [str(d) for d in diag], "value": val, "bound": bound}
        # failures echo the full decomposition for replay
        return good, row if good else {**row, "k1": _mat_json(k1, fd), "k2": _mat_json(k2, fd)}

    return judged_record("estimate", fd, n, samples, judge, C=float(C))


def _input_json(m, fd: FieldDescriptor):
    """A sampled matrix as a report writes it: rows of numbers over R and C,
    rows of rational strings over Q_p."""
    if fd.is_archimedean:
        return np.asarray(m).tolist()
    return [[str(e) for e in row] for row in m]


def _mat_json(m, fd: FieldDescriptor):
    """``_input_json``, except that a complex matrix is one flat list of
    [re, im] pairs."""
    if fd.kind == "complex":
        return [[z.real, z.imag] for z in np.asarray(m).reshape(-1)]
    return _input_json(m, fd)


# passing sample rows a gamma-kernel or rho-chain record keeps (failing
# rows are all kept)
_KERNEL_ROWS = 10


def check_record(name: str, fd: FieldDescriptor, n: int, ok, samples, **extra) -> dict:
    """Report record of one check: the shared header, then the check's own entries."""
    return {"check": name, "field": str(fd), "n": n, "pass": ok, "samples": samples, **extra}


def judged_record(name: str, fd: FieldDescriptor, n: int, samples, judge,
                  keep=float("inf"), **extra) -> dict:
    """Record of a check judged sample by sample: ``judge(m)`` gives the
    verdict and the row of sample m, and the record passes when every sample
    does.  All failing rows are kept, passing rows only up to ``keep``."""
    rows, ok = [], True
    for good, row in map(judge, samples):
        ok = ok and good
        if not (good and len(rows) >= keep):
            rows.append(row)
    return check_record(name, fd, n, ok, rows, **extra)


def truncation_sequence(f: GaussianForm, m_max: int, a_grid) -> dict:
    """Sup over the grid of phi_m = <f - f chi_m, f - f chi_m>_X, m = 1..m_max.

    On the two-dimensional real space (n = 1) only.  The difference
    f - f chi_m concentrates near the singular set and in the far tail, so it
    integrates in polar panels with breakpoints at every cutoff feature
    radius; this keeps the quadrature honest at all scales down to 1/m^2.
    There chi_m depends on x through |x| alone, so the integrand
    conj(f(x)) f(x a) (1 - chi_m(x)) (1 - chi_m(x a)) is split: the Gaussian
    product, one closed-form Gaussian per a, is evaluated once per polar
    node and the cutoff factor, a function of the radius, once per radial node.
    Returns the ``truncation`` record: it passes when the sups do not increase
    in m and the last is below 1e-3.
    """
    space = f.space
    fd = space.fd
    if space.dim != 2 or fd.kind != REAL:
        raise ValueError("truncation diagnostics run on the two-dimensional real space")
    n = space.cols
    sups = []
    # right multiplication by the 1x1 matrix a scales the point
    products = [
        (float(a), f.conjugate().product(f.pullback_affine(float(a) * np.eye(2), space)))
        for a in a_grid
    ]
    for m in range(1, m_max + 1):
        vals = []
        for av, g in products:
            feat = [1.0 / (m + 1) ** 2, 1.0 / m**2, float(m), float(m + 1)]
            feat += [x / abs(av) for x in feat]
            r_tail = min(float(m + 1), 4.5 / min(1.0, abs(av)))
            breaks = sorted({0.0, r_tail, *[x for x in feat if 0 < x < r_tail]})

            def radial(r, m=m, s=abs(av)):
                # |x a| = |a| |x|: both cutoffs are functions of the radius r
                return (1.0 - cutoff_ramps(m, r, r)) * (1.0 - cutoff_ramps(m, s * r, s * r))

            val = quad.integrate_polar_2d(
                g.eval_coords, breaks, _TRUNC_R_ORDER, _TRUNC_THETA_ORDER, radial=radial
            )
            phi = float(abs_norm(av, fd)) ** ((n + 1) / 2.0) * val.real
            vals.append(abs(phi))
        sups.append(max(vals))
    monotone = all(b <= a * (1 + 1e-9) + 1e-15 for a, b in zip(sups, sups[1:]))
    per_m = [{"m": m, "sup": sup} for m, sup in enumerate(sups, 1)]
    return check_record("truncation", fd, n, monotone and sups[-1] < 1e-3, per_m,
                        monotone=monotone, final_sup=sups[-1])
