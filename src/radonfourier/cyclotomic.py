"""Exact arithmetic in prime-power cyclotomic fields Q(zeta_{p^M}).

A value is a rational combination of powers of zeta_N, N = p^M, and keeps only
its nonzero terms: the p-adic character sums (transforms of Schwartz-Bruhat
functions, intertwiners, pairings) are short sums of roots of unity, so a
product costs nnz * nnz, not N^2.  The terms are written in the power basis
1, zeta, ..., zeta^(phi(N)-1).  The only relation needed to reach it is the
minimal polynomial of zeta_N,

    Phi_{p^M}(x) = sum_{j=0}^{p-1} x^{j*p^(M-1)},

so any exponent e in [phi(N), N) rewrites in one step as

    zeta^e = - sum_{j=0}^{p-2} zeta^(j*p^(M-1) + r),   r = e - (p-1)*p^(M-1).

Canonical form: the nonzero power-basis terms, sorted by exponent, *and* the
conductor minimized (a value whose exponents are all divisible by p lies in
the subfield Q(zeta_{p^(M-1)}) and is stored at the smaller conductor;
rationals end up at conductor 1).  Equality of canonical forms is therefore
exact equality of field elements.  ``to_json`` writes the dense power-basis
coefficient list.

``ExactValue`` augments a cyclotomic value with a formal positive factor
q**e for a rational exponent e; this is how half-integer powers of the
residue cardinality (which are irrational) are carried around exactly.
"""

from __future__ import annotations

import cmath
from fractions import Fraction


_F0 = Fraction(0)
_F1 = Fraction(1)


def _phi_prime_power(p: int, M: int) -> int:
    return 1 if M == 0 else (p - 1) * p ** (M - 1)


class CyclotomicValue:
    """An exact element of Q(zeta_{p^M}), canonically reduced.

    ``conductor`` is p**M (1 for rationals, in which case the prime is
    irrelevant and stored as None).  ``terms`` is the sorted tuple of the
    nonzero (exponent, Fraction) pairs in the power basis of zeta_{conductor}.
    """

    __slots__ = ("p", "M", "terms")

    def __init__(self, p, M, terms):
        """sum c * zeta_{p^M}^e over the (e, c) pairs ``terms``, any integer e."""
        self.p, self.M, self.terms = _canonicalize(p, M, terms)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, r) -> "CyclotomicValue":
        return cls(None, 0, [(0, Fraction(r))])

    @classmethod
    def one(cls) -> "CyclotomicValue":
        return cls.from_rational(1)

    @classmethod
    def root_of_unity(cls, p: int, conductor: int, exponent: int) -> "CyclotomicValue":
        """zeta_conductor ** exponent, conductor a power of p."""
        return cls(p, _power_of(conductor, p), [(exponent, _F1)])

    # -- canonical data ----------------------------------------------

    @property
    def conductor(self) -> int:
        return 1 if self.M == 0 else self.p**self.M

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return self.M == 0

    def rational_value(self) -> Fraction:
        if self.M != 0:
            raise ValueError("value is not rational")
        return self.terms[0][1] if self.terms else _F0

    # -- arithmetic ----------------------------------------------------

    def _terms_at(self, M: int):
        """The terms as powers of zeta_{p^M}, M >= self.M."""
        if M == self.M or self.M == 0:
            return self.terms
        step = self.p ** (M - self.M)
        return [(e * step, c) for e, c in self.terms]

    @staticmethod
    def _common(a: "CyclotomicValue", b: "CyclotomicValue"):
        if a.M == 0:
            return b.p, b.M
        if b.M == 0:
            return a.p, a.M
        if a.p != b.p:
            raise ValueError(f"mixed cyclotomic primes {a.p} and {b.p}")
        return a.p, max(a.M, b.M)

    def __add__(self, other):
        other = _coerce(other)
        p, M = self._common(self, other)
        return CyclotomicValue(p, M, [*self._terms_at(M), *other._terms_at(M)])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return CyclotomicValue(self.p, self.M, [(e, -c) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicValue(self.p, self.M, [(e, c * other) for e, c in self.terms])
        other = _coerce(other)
        p, M = self._common(self, other)
        right = other._terms_at(M)
        return CyclotomicValue(p, M, [(i + j, a * b) for i, a in self._terms_at(M) for j, b in right])

    def __rmul__(self, other):
        return self.__mul__(other)

    def conjugate(self) -> "CyclotomicValue":
        """Complex conjugation, zeta -> zeta^(-1)."""
        return CyclotomicValue(self.p, self.M, [(-e, c) for e, c in self.terms])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.M == 0 and self.rational_value() == other
        if not isinstance(other, CyclotomicValue):
            return NotImplemented
        return self.M == other.M and self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.M, self.terms))

    # -- numeric embedding --------------------------------------------

    def to_complex(self) -> complex:
        """Embedding sending zeta_N to exp(2*pi*i/N)."""
        if self.M == 0:
            return complex(self.rational_value())
        N = self.conductor
        return sum(float(c) * cmath.exp(2j * cmath.pi * e / N) for e, c in self.terms)

    def __repr__(self):
        if self.M == 0:
            return f"CyclotomicValue({self.rational_value()})"
        terms = [f"{c}*z{self.conductor}^{e}" for e, c in self.terms]
        return "CyclotomicValue(" + " + ".join(terms) + ")"

    def to_json(self) -> dict:
        dense = [_F0] * _phi_prime_power(self.p, self.M)
        for e, c in self.terms:
            dense[e] = c
        return {
            "conductor": self.conductor,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in dense],
        }


def _coerce(x) -> CyclotomicValue:
    if isinstance(x, CyclotomicValue):
        return x
    if isinstance(x, (int, Fraction)):
        return CyclotomicValue.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CyclotomicValue")


def _power_of(N: int, p: int) -> int:
    M = 0
    n = N
    while n > 1:
        if n % p:
            raise ValueError(f"conductor {N} is not a power of {p}")
        n //= p
        M += 1
    return M


def _canonicalize(p, M, terms):
    """(p, M, terms) of sum c * zeta_{p^M}^e over (e, c) pairs, canonically.

    Exponents are reduced mod N and those in [phi(N), N) rewritten by the
    Phi_{p^M} relation; terms with equal exponents are summed, zero terms
    dropped and the conductor lowered while every exponent is divisible by p.
    """
    N = p**M if M else 1
    phi = N - N // p if M else 1
    acc = {}
    for e, c in terms:
        e %= N
        if e < phi:
            acc[e] = acc[e] + c if e in acc else c
        else:  # zeta^e = -sum_j zeta^(j*N/p + e - phi), j = 0 .. p-2
            for k in range(e - phi, phi, N // p):
                acc[k] = acc[k] - c if k in acc else -c
    terms = [t for t in acc.items() if t[1]]
    terms.sort()
    while M and all(e % p == 0 for e, _ in terms):
        terms = [(e // p, c) for e, c in terms]
        M -= 1
    return (p if M else None), M, tuple(terms)


class ExactValue:
    """q**e * c with e a rational exponent and c a cyclotomic value.

    Canonical form keeps the fractional part of the exponent in [0,1) and
    folds its integer part into c (q is rational).  Equality compares the
    canonical pair componentwise, which is what the verified identities need:
    both sides of every p-adic identity are assembled with matching q-powers,
    so componentwise equality decides them.
    """

    __slots__ = ("p", "qexp", "cyc")

    def __init__(self, p: int, qexp, cyc):
        qexp = Fraction(qexp)
        if not isinstance(cyc, CyclotomicValue):
            cyc = CyclotomicValue.from_rational(cyc)
        if cyc.is_zero():
            qexp = Fraction(0)
        else:
            k = qexp.numerator // qexp.denominator  # floor
            if k:
                cyc = cyc * (Fraction(p) ** k)
                qexp = qexp - k
        self.p = p
        self.qexp = qexp
        self.cyc = cyc

    @classmethod
    def from_cyclo(cls, p: int, cyc) -> "ExactValue":
        return cls(p, 0, cyc)

    def is_zero(self) -> bool:
        return self.cyc.is_zero()

    def __mul__(self, other):
        if isinstance(other, ExactValue):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return ExactValue(self.p, self.qexp + other.qexp, self.cyc * other.cyc)
        if isinstance(other, (int, Fraction, CyclotomicValue)):
            return ExactValue(self.p, self.qexp, self.cyc * other)
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __add__(self, other):
        other = as_exact(other, self.p)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.qexp != other.qexp:
            raise ValueError(
                "cannot add exact values with incommensurable q-power parts "
                f"(q^{self.qexp} vs q^{other.qexp})"
            )
        return ExactValue(self.p, self.qexp, self.cyc + other.cyc)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return ExactValue(self.p, self.qexp, -self.cyc)

    def __sub__(self, other):
        return self + (-as_exact(other, self.p))

    def conjugate(self) -> "ExactValue":
        return ExactValue(self.p, self.qexp, self.cyc.conjugate())

    def __eq__(self, other):
        try:
            other = as_exact(other, self.p)
        except (TypeError, ValueError):  # another type or prime: never equal
            return NotImplemented
        return self.qexp == other.qexp and self.cyc == other.cyc

    def __hash__(self):
        return hash((self.p, self.qexp, self.cyc))

    def to_complex(self) -> complex:
        return float(self.p) ** float(self.qexp) * self.cyc.to_complex()

    __complex__ = to_complex

    def to_json(self) -> dict:
        return {
            "qexp": f"{self.qexp.numerator}/{self.qexp.denominator}",
            "cyclotomic": self.cyc.to_json(),
        }

    def __repr__(self):
        if self.qexp == 0:
            return f"ExactValue({self.cyc!r})"
        return f"ExactValue(q^{self.qexp} * {self.cyc!r})"


def as_exact(x, p: int) -> ExactValue:
    """x as an ExactValue over p; rationals and cyclotomic values get q^0."""
    if isinstance(x, ExactValue):
        if x.p != p:
            raise ValueError("mixed primes")
        return x
    if isinstance(x, (int, Fraction, CyclotomicValue)):
        return ExactValue.from_cyclo(p, x)
    raise TypeError(f"bad coefficient type {type(x).__name__}")
