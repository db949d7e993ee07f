"""Local field descriptors, normalized absolute values and additive characters.

Three base fields are supported: the real numbers, the complex numbers and
the p-adic rationals Q_p.  Archimedean scalars are plain ``float``/``complex``;
p-adic scalars are exact ``fractions.Fraction`` values (every rational embeds
in Q_p and all field operations stay rational, so the p-adic path is exact).

Conventions, fixed once for the whole package:

* the normalized absolute value is the module of the field: ``|x|`` on R,
  ``conj(z)*z`` (the squared modulus) on C, and ``q**(-v_p(x))`` on Q_p with
  ``q = p``;
* the additive character is ``x -> exp(-2*pi*i*Re(x))`` on R and C (the
  kernel used by the Fourier transform) and ``x -> exp(+2*pi*i*{x}_p)`` on
  Q_p, where ``{x}_p`` is the p-adic fractional part.  The p-adic character
  is trivial exactly on Z_p and is returned exactly as a root of unity.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CyclotomicValue

REAL = "real"
COMPLEX = "complex"
PADIC = "p-adic"

_KINDS = (REAL, COMPLEX, PADIC)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """Which local field we are working over.

    ``kind`` is one of ``"real"``, ``"complex"``, ``"p-adic"``; ``p`` is the
    prime of Q_p and must be ``None`` for archimedean fields.
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == PADIC:
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"p-adic field needs a prime, got {self.p!r}")
        elif self.p is not None:
            raise ValueError("archimedean fields take no prime")

    @property
    def is_archimedean(self) -> bool:
        return self.kind != PADIC

    @property
    def d_F(self) -> int:
        """Coordinates per scalar: 2 over C; 1 over R, and over Q_p, where a
        scalar is one exact rational."""
        return 2 if self.kind == COMPLEX else 1

    def __str__(self):
        return self.kind if self.is_archimedean else f"Q_{self.p}"


def real_field() -> FieldDescriptor:
    return FieldDescriptor(REAL)


def complex_field() -> FieldDescriptor:
    return FieldDescriptor(COMPLEX)


def padic_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(PADIC, p)


def p_split(x: int, p: int):
    """(v, u) with x = p^v u and p not dividing u, for a nonzero integer x."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v, x


def padic_valuation(x: Fraction | int, p: int) -> int:
    """v_p(x) for a nonzero rational x."""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("valuation of 0 is undefined")
    return p_split(x.numerator, p)[0] - p_split(x.denominator, p)[0]


def abs_norm(s, fd: FieldDescriptor):
    """Normalized absolute value of a scalar.

    Real: |x|.  Complex: conj(z)*z, the module (squared modulus).  p-adic:
    q**(-v_p(s)) as an exact Fraction, with |0| = 0 by convention.
    """
    if fd.kind == REAL:
        return abs(float(s))
    if fd.kind == COMPLEX:
        z = complex(s)
        return z.real * z.real + z.imag * z.imag
    s = Fraction(s)
    if s == 0:
        return Fraction(0)
    return Fraction(fd.p) ** (-padic_valuation(s, fd.p))


def padic_frac_part(s: Fraction | int, p: int) -> Fraction:
    """The p-adic fractional part {s}_p in [0,1) with s - {s}_p in Z_p.

    Writes s = sum_{i<0} c_i p^i + (unit part); the sum of the negative-power
    digits is a rational with p-power denominator.
    """
    s = Fraction(s)
    if s == 0:
        return Fraction(0)
    v = padic_valuation(s, p)
    if v >= 0:
        return Fraction(0)
    m = -v
    pm = p**m
    scaled = s * pm  # now a p-unit rational: num/den with den coprime to p
    num, den = scaled.numerator, scaled.denominator
    r = (num * pow(den, -1, pm)) % pm
    return Fraction(r, pm)


def add_char(s, fd: FieldDescriptor):
    """Additive character of the field at s.

    Archimedean: exp(-2*pi*i*Re(s)) as a complex float.  p-adic: the exact
    root of unity exp(2*pi*i*{s}_p) as a CyclotomicValue whose conductor is
    p**(-v_p(s)) when v_p(s) < 0 and 1 otherwise (so the character is trivial
    on Z_p).  The p-adic sign is a free convention; the archimedean sign is
    the Fourier kernel's.
    """
    if fd.kind == REAL:
        return cmath.exp(-2j * cmath.pi * float(s))
    if fd.kind == COMPLEX:
        return cmath.exp(-2j * cmath.pi * complex(s).real)
    frac = padic_frac_part(Fraction(s), fd.p)
    if frac == 0:
        return CyclotomicValue.one()
    # frac = r / p^m in lowest terms with m >= 1
    pm = frac.denominator
    return CyclotomicValue.root_of_unity(fd.p, pm, frac.numerator)
