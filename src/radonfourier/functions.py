"""Test functions on matrix spaces: Gaussians and Schwartz-Bruhat sums,
plus the integrand class that feeds quadrature.

Two classes populate the dense submodule on which every transform and
inner product is computed:

* ``GaussianForm``: kappa * exp(-pi <xi, Q xi> + 2 pi i <ell, xi>) in the
  real coordinates xi of a matrix space, with Q symmetric positive definite
  and ell a (possibly complex) phase vector.  The class is closed under
  affine pullbacks, products, partial integration and the Fourier transform,
  all in closed form; this is what makes the archimedean oracles exact.
* ``SBFunction``: a finite combination of indicators of lattice cosets over
  Q_p with exact cyclotomic coefficients.  Closed under the same operations,
  with every result computed exactly on the lattice layer's integers: maps
  come as integer rows over p^k u (``flatten_linear``'s triple, the integer
  pairing matrix), never as ``Fraction`` matrices.

A third, ``Evaluable``, is an integrand for ``integrate``: a vectorized
function with declared decay (a Gaussian envelope and/or a support radius)
that picks the quadrature rule.

Free functions at the bottom (`translate_group`, `pointwise_mul`,
`fiber_restrict`, `integrate`, ...) dispatch on the class and are the
package-level vocabulary; the operators among them refuse an ``Evaluable``
with a TypeError.  Every class evaluates a point with ``f.value(x)``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactlinalg as xl
from . import quadrature as quad
from .cyclotomic import CyclotomicValue, ExactValue, _phi_prime_power, _power_of, as_exact
from .fields import add_char
from .geometry import MatrixSpace, b_map, flatten_linear, meye
from .lattices import Coset, Lattice, _dot


# ---------------------------------------------------------------------
# Gaussian forms
# ---------------------------------------------------------------------


class GaussianForm:
    """kappa * exp(-pi xi'Q xi + 2 pi i ell'xi) on a matrix space's coordinates."""

    kind = "gaussian"

    def __init__(self, space: MatrixSpace, Q=None, kappa=1.0, ell=None):
        if not space.fd.is_archimedean:
            raise ValueError("Gaussian forms live on archimedean spaces")
        d = space.dim
        self.space = space
        self.Q = Q = np.eye(d) if Q is None else np.asarray(Q, dtype=float)
        if Q.shape != (d, d):
            raise ValueError("quadratic form has wrong shape")
        if not np.all(np.isfinite(Q)):
            raise ValueError("quadratic form must be finite")
        # np.allclose(Q, Q.T) written out; its call overhead dominated here
        if not np.all(np.abs(Q - Q.T) <= 1e-8 + 1e-5 * np.abs(Q.T)):
            raise ValueError("quadratic form must be symmetric")
        if not np.linalg.eigvalsh(Q)[0] > 0:
            raise ValueError("quadratic form must be positive definite")
        self.kappa = complex(kappa)
        self.ell = np.zeros(d, dtype=complex) if ell is None else np.asarray(ell, dtype=complex)

    @classmethod
    def standard(cls, space: MatrixSpace) -> "GaussianForm":
        """The self-normalized Gaussian exp(-pi |xi|^2) with unit integral."""
        return cls(space)

    # -- evaluation ------------------------------------------------------

    def eval_coords(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        quad_part = _quadratic_form(pts, self.Q)
        lin = pts @ self.ell
        return self.kappa * np.exp(-np.pi * quad_part + 2j * np.pi * lin)

    def value(self, x):
        return complex(self.eval_coords(self.space.coords(x)[None, :])[0])

    # -- closed forms ------------------------------------------------------

    def integral(self) -> complex:
        """Closed form kappa * det(Q)^(-1/2) * exp(-pi ell' Q^(-1) ell)."""
        d = np.linalg.det(self.Q)
        expo = -np.pi * (self.ell @ np.linalg.solve(self.Q, self.ell))
        return self.kappa * d ** (-0.5) * cmath.exp(complex(expo))

    def pullback_affine(self, M, space: MatrixSpace, offset=None) -> "GaussianForm":
        """The Gaussian z -> f(offset + M z) on ``space``; M must be injective."""
        M = np.asarray(M, dtype=float)
        Qp = M.T @ self.Q @ M
        if np.linalg.eigvalsh((Qp + Qp.T) / 2)[0] <= 0:
            raise ValueError("pullback along a non-injective map loses positivity")
        if offset is None:
            return GaussianForm(space, (Qp + Qp.T) / 2, self.kappa, M.T @ self.ell)
        x0 = np.asarray(offset, dtype=float)
        ellp = M.T @ self.ell + 1j * (M.T @ (self.Q @ x0))
        kp = self.kappa * cmath.exp(
            complex(-np.pi * (x0 @ self.Q @ x0) + 2j * np.pi * (self.ell @ x0))
        )
        return GaussianForm(space, (Qp + Qp.T) / 2, kp, ellp)

    def conjugate(self) -> "GaussianForm":
        return GaussianForm(self.space, self.Q, self.kappa.conjugate(), -self.ell.conj())

    def scale(self, c) -> "GaussianForm":
        return GaussianForm(self.space, self.Q, self.kappa * complex(c), self.ell)

    def product(self, other: "GaussianForm") -> "GaussianForm":
        if other.space.dim != self.space.dim:
            raise ValueError("spaces do not match")
        return GaussianForm(
            self.space, self.Q + other.Q, self.kappa * other.kappa, self.ell + other.ell
        )

    def marginalize(self, keep, space: MatrixSpace) -> "GaussianForm":
        """Integrate out the coordinates not in ``keep`` (Schur complement),
        leaving a Gaussian on ``space``."""
        keep = list(keep)
        drop = [i for i in range(self.space.dim) if i not in keep]
        if not drop:
            return GaussianForm(space, self.Q, self.kappa, self.ell)
        Qkk = self.Q[np.ix_(keep, keep)]
        Qkd = self.Q[np.ix_(keep, drop)]
        Qdd = self.Q[np.ix_(drop, drop)]
        ell_k = self.ell[keep]
        ell_d = self.ell[drop]
        sol = np.linalg.solve(Qdd, ell_d)
        Qp = Qkk - Qkd @ np.linalg.solve(Qdd, Qkd.T)
        ellp = ell_k - Qkd @ sol
        kp = (
            self.kappa
            * np.linalg.det(Qdd) ** (-0.5)
            * cmath.exp(complex(-np.pi * (ell_d @ sol)))
        )
        return GaussianForm(space, (Qp + Qp.T) / 2, kp, ellp)

    def fourier(self, P, target: MatrixSpace) -> "GaussianForm":
        """Closed-form transform against the kernel with pairing y'P x.

        The kernel as a function of xi has coefficient vector P'y, so the
        transformed exponent carries P Q^(-1) P' (the orientation matters:
        the pairing permutation is symmetric for n = 1 but not beyond).
        """
        P = np.asarray(P, dtype=float)
        Qi = np.linalg.inv(self.Q)
        Qy = P @ Qi @ P.T
        elly = -1j * (P @ (Qi @ self.ell))
        ky = (
            self.kappa
            * np.linalg.det(self.Q) ** (-0.5)
            * cmath.exp(complex(-np.pi * (self.ell @ Qi @ self.ell)))
        )
        return GaussianForm(target, (Qy + Qy.T) / 2, ky, elly)

    def envelope(self) -> "Envelope":
        """Exact bound |f(xi)| = C exp(-pi (xi-c)'Q(xi-c))."""
        im = np.imag(self.ell)
        if np.any(im):
            u = np.linalg.solve(self.Q, im)
            C = abs(self.kappa) * float(np.exp(np.pi * (u @ self.Q @ u)))
            return Envelope(C=C, Q=self.Q, center=-u)
        return Envelope(C=abs(self.kappa), Q=self.Q, center=None)

    def __repr__(self):
        return f"GaussianForm(dim={self.space.dim}, kappa={self.kappa:.6g})"

    def to_json(self) -> dict:
        return {
            "type": "gaussian",
            "Q": self.Q.tolist(),
            "kappa": [self.kappa.real, self.kappa.imag],
            "ell": [[z.real, z.imag] for z in self.ell],
        }


def _quadratic_form(pts, Q) -> np.ndarray:
    """Row-wise x'Q x of an (N, d) array of points.

    Each row is summed as ``out = 0; for i: for j: out += (x_i * Q[i, j]) * x_j``,
    the products and summation order of numpy's ``einsum("ni,ij,nj->n")`` on
    most inputs, though not on all: at d = 2 with one or two points the two
    can differ in the last bit.  The golden reports pin residuals at
    roundoff level, so they pin this column-loop order itself, and a BLAS
    form ``((pts @ Q) * pts).sum(1)`` moves them.  Working on contiguous
    columns with one reused buffer skips the fixed per-call cost and the
    strided inner loop of the Einstein summation.
    """
    cols = np.ascontiguousarray(pts.T)
    out = np.zeros(len(pts))
    term = np.empty(len(pts))
    for i, xi in enumerate(cols):
        for j, xj in enumerate(cols):
            np.multiply(xi, Q[i, j], out=term)
            term *= xj
            out += term
    return out


# ---------------------------------------------------------------------
# Envelopes and evaluables
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Declared decay: |f(xi)| <= C exp(-pi (xi-center)'Q(xi-center)), and/or
    f = 0 outside the ball of the given radius."""

    C: float
    Q: object = None
    center: object = None
    radius: float = None

    def integrable(self) -> bool:
        return self.Q is not None or self.radius is not None


class Evaluable:
    """An integrand for ``integrate``: ``fn`` maps an (N, d) array of flat
    coordinates to N complex values, and the envelope picks the rule
    (Gauss-Hermite under a Gaussian bound, a box rule under a support
    radius).  It is not a test function: the operators refuse it."""

    def __init__(self, space: MatrixSpace, fn, envelope: Envelope, label: str = ""):
        self.space = space
        self.fn = fn
        self.env = envelope
        self.label = label

    def eval_coords(self, pts):
        return np.asarray(self.fn(np.atleast_2d(np.asarray(pts, dtype=float))), dtype=complex)

    def value(self, x):
        return complex(self.eval_coords(self.space.coords(x)[None, :])[0])

    def __repr__(self):
        return f"Evaluable({self.label or 'anonymous'}, dim={self.space.dim})"


# ---------------------------------------------------------------------
# Schwartz-Bruhat functions (p-adic)
# ---------------------------------------------------------------------


class SBFunction:
    """Finite sum of coefficient * indicator(lattice coset) over Q_p.

    Coefficients are ``ExactValue``s (a cyclotomic number times a formal
    q-power), cosets are canonical, and the term list is merged by coset, so
    equality of representations is meaningful and all operations are exact.
    """

    kind = "sb"

    def __init__(self, space: MatrixSpace, terms):
        if space.fd.is_archimedean:
            raise ValueError("Schwartz-Bruhat functions live on p-adic spaces")
        self.space = space
        p = space.fd.p
        merged: dict = {}
        for coeff, coset in terms:
            coeff = as_exact(coeff, p)
            if coeff.is_zero():
                continue
            if coset.dim != space.dim:
                raise ValueError("coset dimension does not match the space")
            if coset in merged:
                merged[coset] = merged[coset] + coeff
            else:
                merged[coset] = coeff
        self.terms = tuple(
            (c, k) for k, c in merged.items() if not c.is_zero()
        )

    @classmethod
    def indicator(cls, space: MatrixSpace, coset: Coset) -> "SBFunction":
        return cls(space, [(ExactValue.from_cyclo(space.fd.p, 1), coset)])

    @classmethod
    def standard_ball(cls, space: MatrixSpace) -> "SBFunction":
        """Indicator of Z_p^d."""
        p = space.fd.p
        lat = Lattice.scaled_standard(p, space.dim, 0)
        center = tuple(Fraction(0) for _ in range(space.dim))
        return cls.indicator(space, Coset(lat, center))

    @property
    def p(self) -> int:
        return self.space.fd.p

    # -- evaluation -------------------------------------------------------

    def value_coords(self, v) -> ExactValue:
        v = tuple(Fraction(x) for x in v)
        total = ExactValue.from_cyclo(self.p, 0)
        for coeff, coset in self.terms:
            if coset.contains(v):
                total = total + coeff
        return total

    def value(self, x) -> ExactValue:
        return self.value_coords(self.space.coords(x))

    # -- exact calculus ---------------------------------------------------

    def integral(self) -> ExactValue:
        total = ExactValue.from_cyclo(self.p, 0)
        for coeff, coset in self.terms:
            total = total + coeff * coset.volume()
        return total

    def conjugate(self) -> "SBFunction":
        return SBFunction(self.space, [(c.conjugate(), k) for c, k in self.terms])

    def scale(self, c) -> "SBFunction":
        c = as_exact(c, self.p)
        return SBFunction(self.space, [(coeff * c, k) for coeff, k in self.terms])

    def product(self, other: "SBFunction") -> "SBFunction":
        out = []
        for c1, k1 in self.terms:
            for c2, k2 in other.terms:
                inter = k1.intersect(k2)
                if inter is not None:
                    out.append((c1 * c2, inter))
        return SBFunction(self.space, out)

    def pullback_affine(self, M, space: MatrixSpace, offset=None) -> "SBFunction":
        """z -> f(offset + M z) on ``space``, M an injective map given as
        ``flatten_linear``'s triple (K, k, u), M = K / (p^k u)."""
        if offset is None:
            offset = (0,) * len(M[0])
        (R,), a, u = xl.p_scaled((offset,), self.p)
        out = []
        for coeff, coset in self.terms:
            pre = coset.affine_preimage((R, a, u), M)
            if pre is not None:
                out.append((coeff, pre))
        return SBFunction(space, out)

    def marginalize(self, keep, space: MatrixSpace) -> "SBFunction":
        """Integrate out the coordinates not in ``keep`` (exact Fubini),
        leaving a function on ``space``."""
        out = []
        for coeff, coset in self.terms:
            proj, vol = coset.project(keep)
            out.append((coeff * vol, proj))
        return SBFunction(space, out)

    def integrate_against_character(self, lam) -> ExactValue:
        """Exact value of integral f(v) chi(<lam, v>) dv for rational lam."""
        fd, p = self.space.fd, self.p
        (lam,), v, u = xl.p_scaled(xl.mat((lam,)), p)  # lam / (p^v u)
        total = ExactValue.from_cyclo(p, 0)
        for coeff, coset in self.terms:
            # a basis column of N / p^e pairs to <lam, col> / (p^(v + e) u)
            q = p ** (v + coset.lattice.e)
            if any(_dot(lam, col) % q for col in zip(*coset.lattice.N)):
                continue  # character nontrivial on the lattice: term integrates to 0
            phase = add_char(Fraction(_dot(lam, coset.c), u * p ** (v + coset.a)), fd)
            total = total + coeff * coset.volume() * phase
        return total

    def fourier(self, P, target: MatrixSpace) -> "SBFunction":
        """Exact transform against chi(<P y, x>) by lattice duality, for the
        integer pairing matrix P.

        Each indicator of c + L maps to vol(L) chi(<y, w>), w = P c, times the
        indicator of M = (P L)^dual.  The phase is constant exactly on the
        cosets of flat = (P L + Z_p w)^dual, the part of M on which <y, w>
        lies in Z_p, so the term splits into one coset of flat per element
        of M / flat, each with its exact root-of-unity coefficient; a
        trivial phase (w in P L) leaves the single coset M.  P L and w are
        integer columns over one power p^e, and both lattices are duals.
        """
        fd, p = self.space.fd, self.p
        out = []
        for coeff, coset in self.terms:
            L = coset.lattice
            e = max(L.e, coset.a)
            PN = [[_dot(row, col) * p ** (e - L.e) for row in P] for col in zip(*L.N)]
            w = [_dot(row, coset.c) * p ** (e - coset.a) for row in P]
            M = Lattice(p, PN, e).dual()
            flat = Lattice(p, PN + [w], e).dual()
            base = coeff * coset.volume()
            for R in M.quotient_representatives(flat):
                phase = add_char(Fraction(_dot(w, R), p ** (e + M.e)), fd)
                out.append((base * phase, Coset(flat, R, M.e)))
        return SBFunction(target, out)

    def __repr__(self):
        return f"SBFunction(p={self.p}, terms={len(self.terms)})"

    def to_json(self) -> dict:
        # canonical coset order, so equal functions serialize to equal bytes
        terms = sorted(self.terms, key=lambda t: (t[1].lattice.basis, t[1].center))
        return {
            "type": "sb",
            "terms": [
                {
                    "coeff": c.to_json(),
                    "center": [f"{x.numerator}/{x.denominator}" for x in k.center],
                    "basis": [
                        [f"{x.numerator}/{x.denominator}" for x in row]
                        for row in k.lattice.basis
                    ],
                }
                for c, k in terms
            ],
        }


# ---------------------------------------------------------------------
# Cutoffs
# ---------------------------------------------------------------------


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def cutoff_ramps(m: int, smin, norm):
    """The smooth truncation chi_m at points with smallest singular value
    smin and norm ``norm``: the inner ramp in smin times the outer in norm.

    chi_m is 1 where smin >= 1/m^2 and norm <= m, and 0 where
    smin <= 1/(m+1)^2 or norm >= m+1, with smoothstep ramps in between.  The
    neighborhoods {smin < 1/m^2} of the singular set shrink at the quadratic
    rate, so their measure falls like m^(-2 min(rows, cols)), fast enough
    for the truncation diagnostics' tolerance.

    On a row or column both are the radius, so ``cutoff_ramps(m, r, r)`` is
    the cutoff as a function of |x| alone.
    """
    lo_in, hi_in = 1.0 / (m + 1) ** 2, 1.0 / m**2
    lo_out, hi_out = float(m), float(m + 1)
    inner = _smoothstep((smin - lo_in) / (hi_in - lo_in))
    outer = 1.0 - _smoothstep((norm - lo_out) / (hi_out - lo_out))
    return inner * outer


# ---------------------------------------------------------------------
# Dispatching vocabulary
# ---------------------------------------------------------------------


def translate_group(f, m, side: str = "right"):
    """Right translate f^m : x -> f(x m), or left translate x -> f(m x).

    m may be non-square.  On an r x c space the right translate lives on
    r x len(m) matrices (m has c columns), the left one on len(m[0]) x c
    matrices (m has r rows).
    """
    require_test_function(f, "translate")
    space = f.space
    fd = space.fd
    if side == "right":
        M = flatten_linear(meye(space.rows, fd), m, fd)
        domain = MatrixSpace(fd, space.rows, len(m))
    elif side == "left":
        M = flatten_linear(m, meye(space.cols, fd), fd)
        domain = MatrixSpace(fd, len(m[0]), space.cols)
    else:
        raise ValueError("side must be 'right' or 'left'")
    return f.pullback_affine(M, domain)


def require_test_function(f, op: str):
    """Raise TypeError unless f is a Gaussian or Schwartz-Bruhat function."""
    if not isinstance(f, (GaussianForm, SBFunction)):
        raise TypeError(f"cannot {op} {type(f).__name__}: need a GaussianForm or SBFunction")


def pointwise_mul(f, g):
    """Pointwise product of two Gaussians or two Schwartz-Bruhat functions."""
    if isinstance(f, SBFunction) and isinstance(g, SBFunction):
        return f.product(g)
    if isinstance(f, GaussianForm) and isinstance(g, GaussianForm):
        return f.product(g)
    raise TypeError(f"cannot multiply {type(f).__name__} by {type(g).__name__}")


def fiber_restrict(f, g):
    """Restrict a function on X to the fiber z -> g [I_n; z] = A + c z of a
    completion g (``fiber_param``), A = b_map(g) and c the last column of g,
    as a function of z in F^n."""
    require_test_function(f, "restrict")
    fd, n = f.space.fd, f.space.cols
    M = flatten_linear([row[n:] for row in g], meye(n, fd), fd)
    return f.pullback_affine(M, MatrixSpace(fd, 1, n), f.space.coords(b_map(g, n, fd)))


def integrate(f, with_error: bool = False):
    """Total integral over the function's space.

    Gaussian and Schwartz-Bruhat inputs return their closed form or exact
    sum, which has no error to estimate.  Evaluables go through the
    envelope-driven quadrature engines at ``_DEFAULT_ORDERS``; ``with_error``
    also returns a two-order difference as the error estimate.  Like the
    rounding error, it leaves out the Gauss-Hermite pruning bound, 1e-14 * C
    * det(Q)^(-1/2), which is no larger than the sum's worst-case rounding.
    """
    if isinstance(f, (GaussianForm, SBFunction)):
        if with_error:
            raise TypeError(f"{type(f).__name__} integrates in closed form: no error estimate")
        return f.integral()
    if isinstance(f, Evaluable):
        v, e = _integrate_evaluable(f)
        return (v, e) if with_error else v
    raise TypeError(f"cannot integrate {type(f).__name__}")


_DEFAULT_ORDERS = {1: 80, 2: 60, 3: 28, 4: 20, 5: 14, 6: 12}


def _integrate_evaluable(f: Evaluable):
    env = f.env
    d = f.space.dim
    if not env.integrable():
        raise ValueError(
            f"evaluable {f.label!r} has no declared decay; refusing to integrate"
        )
    if d not in _DEFAULT_ORDERS:
        raise ValueError(f"no default order for d = {d} (order^d nodes); choose one with "
                         "quadrature.integrate_gauss_hermite(..., order=) or integrate_box")
    order = _DEFAULT_ORDERS[d]
    bump = 6 if d <= 4 else 2
    if env.Q is not None:
        v1 = quad.integrate_gauss_hermite(f.fn, env.Q, env.center, order=order)
        v2 = quad.integrate_gauss_hermite(f.fn, env.Q, env.center, order=order + bump)
        return v2, abs(v1 - v2)
    R = env.radius
    v1 = quad.integrate_box(f.fn, [-R] * d, [R] * d, order=order)
    v2 = quad.integrate_box(f.fn, [-R] * d, [R] * d, order=order + bump)
    return v2, abs(v1 - v2)


# ---------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------


def function_from_json(obj: dict, space: MatrixSpace):
    """Build a test function from its JSON description.

    Formats: {"type": "gaussian", "Q": [[...]], "kappa": ..., "ell": [...]},
    {"type": "sb", "terms": [{"coeff": ..., "center": [...], "basis": [[...]]}]},
    {"type": "product", "of": [...]}.  Every number is read by ``json_number``.
    """
    t = _json_of(dict, obj, "a function spec").get("type")
    if t == "gaussian":
        kappa = json_number(obj.get("kappa", 1.0), "kappa", complex)
        ell = [json_number(z, "ell", complex) for z in _json_of(list, obj.get("ell", []), "ell")]
        if ell and len(ell) != space.dim:
            raise ValueError(f"ell must have {space.dim} entries, got {len(ell)}")
        Q = obj.get("Q")
        Q = Q if Q is None else json_matrix(Q, "Q")
        if Q is not None and np.shape(Q) != (space.dim, space.dim):
            raise ValueError(f"Q must be a {space.dim}x{space.dim} matrix, got {obj['Q']!r}")
        return GaussianForm(space, Q, kappa, ell or None)
    if t == "sb":
        # a generator: SBFunction refuses an archimedean space before any term is read
        return SBFunction(space, _json_sb_terms(obj, space))
    if t == "product":
        parts = [function_from_json(o, space) for o in _json_of(list, obj["of"], "product of")]
        if not parts:
            raise ValueError("a product needs at least one factor")
        out = parts[0]
        for q in parts[1:]:
            out = pointwise_mul(out, q)
        return out
    raise ValueError(f"unknown function spec type {t!r}")


def json_number(v, name: str, kind=float):
    """The one parse of a number read from JSON, as ``kind`` (float, complex
    or Fraction): a finite int or float, or a rational string "num/den" with a
    nonzero denominator, never a boolean; a complex may also be an [re, im]
    pair of two such.  Anything else is a ValueError naming the field."""
    try:
        if kind is not complex or not isinstance(v, list):
            return kind(_json_scalar(v))
        if len(v) == 2:
            return complex(*(float(_json_scalar(x)) for x in v))
    except (TypeError, ValueError, ArithmeticError):
        pass
    pair = " or an [re, im] pair of them" if kind is complex else ""
    raise ValueError(f"{name} must be a finite number or a rational string{pair}, got {v!r}")


def _json_scalar(v):
    """A JSON number as itself, a rational string as its Fraction."""
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise TypeError(v)
    q = Fraction(v)  # raises on "1/0", "x", inf and nan
    return q if isinstance(v, str) else v


def json_matrix(obj, name: str, kind=float) -> list:
    """Equal-length rows of numbers, each read by ``json_number`` as a ``name`` entry."""
    if not (isinstance(obj, list) and all(isinstance(row, list) for row in obj)
            and len({len(row) for row in obj}) <= 1):
        raise ValueError(f"{name} must be a rectangular matrix (a list of equal-length rows), got {obj!r}")
    return [[json_number(x, f"{name} entry", kind) for x in row] for row in obj]


def _json_of(kind, v, name: str):
    """``v`` if it is a JSON array (``kind`` list) or object (dict)."""
    if not isinstance(v, kind):
        raise ValueError(f"{name} must be a JSON {'array' if kind is list else 'object'}, got {v!r}")
    return v


def _json_sb_terms(obj: dict, space: MatrixSpace):
    """The (coefficient, coset) pairs of an sb spec, parsed one at a time."""
    p = space.fd.p
    for term in _json_of(list, obj["terms"], "sb terms"):
        term = _json_of(dict, term, "sb term")
        coeff = _json_exact(term.get("coeff", "1"), p)
        center = [json_number(x, "sb center", Fraction) for x in _json_of(list, term["center"], "sb center")]
        if len(center) != space.dim:
            raise ValueError(f"sb center must have {space.dim} entries, got {len(center)}")
        basis = json_matrix(term["basis"], "sb basis", Fraction)
        if len(basis) != space.dim:
            raise ValueError(f"sb basis must be a rectangular matrix with {space.dim} rows, got {term['basis']!r}")
        try:
            lattice = Lattice(p, basis)
        except ValueError as exc:
            raise ValueError(f"sb basis must generate a full lattice: {exc}") from None
        yield coeff, Coset(lattice, center)


def _json_exact(v, p: int) -> ExactValue:
    """An sb coeff: a rational, a cyclotomic value, or {"qexp", "cyclotomic"}."""
    if not isinstance(v, dict):
        return ExactValue.from_cyclo(p, json_number(v, "sb coeff", Fraction))
    qexp = json_number(v.get("qexp", 0), "sb coeff qexp", Fraction) if "cyclotomic" in v else 0
    cyc = _json_of(dict, v.get("cyclotomic", v), "sb coeff cyclotomic")
    N = json_number(cyc.get("conductor"), "sb coeff conductor", Fraction)
    if N.denominator != 1 or N < 1:
        raise ValueError(f"sb coeff conductor must be an integer >= 1, got {cyc.get('conductor')!r}")
    coeffs = [json_number(c, "sb coeff", Fraction) for c in _json_of(list, cyc.get("coeffs"), "sb coeff coeffs")]
    M = _power_of(int(N), p)  # raises unless N is a power of p
    phi = _phi_prime_power(p, M)
    if len(coeffs) != phi:
        raise ValueError(f"sb coeff coeffs must have phi(conductor) = {phi} entries, got {len(coeffs)}")
    return ExactValue(p, qexp, CyclotomicValue(p, M, enumerate(coeffs)))
