"""Exact arithmetic in prime-power cyclotomic fields Q(zeta_{p^M}).

Values live in the power basis 1, zeta, ..., zeta^(phi(N)-1) with N = p^M and
rational coefficients.  The only relation needed for reduction is the minimal
polynomial of zeta_N,

    Phi_{p^M}(x) = sum_{j=0}^{p-1} x^{j*p^(M-1)},

so any exponent e in [phi(N), N) rewrites in one step as

    zeta^e = - sum_{j=0}^{p-2} zeta^(j*p^(M-1) + r),   r = e - (p-1)*p^(M-1).

Canonical form: coefficients reduced to the power basis *and* the conductor
minimized (a value lying in the subfield Q(zeta_{p^(M-1)}) is detected by its
support sitting on exponents divisible by p and is stored at the smaller
conductor; rationals end up at conductor 1).  Equality of canonical forms is
therefore exact equality of field elements.

``ExactValue`` augments a cyclotomic value with a formal positive factor
q**e for a rational exponent e; this is how half-integer powers of the
residue cardinality (which are irrational) are carried around exactly.
"""

from __future__ import annotations

import cmath
from fractions import Fraction


_F0 = Fraction(0)
_F1 = Fraction(1)
_FM1 = Fraction(-1)


def _phi_prime_power(p: int, M: int) -> int:
    return 1 if M == 0 else (p - 1) * p ** (M - 1)


class CyclotomicValue:
    """An exact element of Q(zeta_{p^M}), canonically reduced.

    ``conductor`` is p**M (1 for rationals, in which case the prime is
    irrelevant and stored as None).  ``coeffs`` is a tuple of Fractions of
    length phi(conductor) in the power basis of zeta_{conductor}.
    """

    __slots__ = ("p", "M", "coeffs")

    def __init__(self, p, M, coeffs, _reduce=True):
        if _reduce:
            p, M, coeffs = _canonicalize(p, M, list(coeffs))
        self.p = p
        self.M = M
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, r) -> "CyclotomicValue":
        return cls(None, 0, (Fraction(r),), _reduce=False)

    @classmethod
    def zero(cls) -> "CyclotomicValue":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "CyclotomicValue":
        return cls.from_rational(1)

    @classmethod
    def root_of_unity(cls, p: int, conductor: int, exponent: int) -> "CyclotomicValue":
        """zeta_conductor ** exponent, conductor a power of p."""
        M = _power_of(conductor, p)
        e = exponent % conductor
        if e == 0 or M == 0:
            return cls.one()
        while e % p == 0:  # zeta_{p^M}^(p u) = zeta_{p^(M-1)}^u
            e //= p
            M -= 1
        phi = _phi_prime_power(p, M)
        if e < phi:
            coeffs = [_F0] * phi
            coeffs[e] = _F1
            # e is prime to p, so the conductor is already minimal
            return cls(p, M, coeffs, _reduce=False)
        block = p ** (M - 1)
        r = e - (p - 1) * block
        coeffs = [_F0] * phi
        for j in range(p - 1):
            coeffs[j * block + r] = _FM1
        pc, Mc, cc = _canonicalize(p, M, coeffs)
        return cls(pc, Mc, cc, _reduce=False)

    # -- canonical data ----------------------------------------------

    @property
    def conductor(self) -> int:
        return 1 if self.M == 0 else self.p**self.M

    def is_zero(self) -> bool:
        return self.M == 0 and self.coeffs[0] == 0

    def is_one(self) -> bool:
        return self.M == 0 and self.coeffs[0] == 1

    def is_rational(self) -> bool:
        return self.M == 0

    def rational_value(self) -> Fraction:
        if self.M != 0:
            raise ValueError("value is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------

    def _lift_dense(self, p: int, M: int) -> list:
        """Coefficients as a dense vector of length p**M (M >= self.M)."""
        N = p**M
        dense = [Fraction(0)] * N
        step = p ** (M - self.M)
        for j, c in enumerate(self.coeffs):
            dense[j * step] = c
        return dense

    @staticmethod
    def _common(a: "CyclotomicValue", b: "CyclotomicValue"):
        if a.M == 0 and b.M == 0:
            return None, 0
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
        if M == 0:
            return CyclotomicValue.from_rational(self.coeffs[0] + other.coeffs[0])
        da = self._lift_dense(p, M)
        db = other._lift_dense(p, M)
        return CyclotomicValue(p, M, _reduce_dense(p, M, [x + y for x, y in zip(da, db)]))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return CyclotomicValue(self.p, self.M, tuple(-c for c in self.coeffs), _reduce=True)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return CyclotomicValue.zero()
            return CyclotomicValue(
                self.p, self.M, tuple(c * other for c in self.coeffs), _reduce=True
            )
        other = _coerce(other)
        p, M = self._common(self, other)
        if M == 0:
            return CyclotomicValue.from_rational(self.coeffs[0] * other.coeffs[0])
        N = p**M
        da = self._lift_dense(p, M)
        db = other._lift_dense(p, M)
        dense = [Fraction(0)] * N
        for i, ci in enumerate(da):
            if ci == 0:
                continue
            for j, cj in enumerate(db):
                if cj == 0:
                    continue
                dense[(i + j) % N] += ci * cj
        return CyclotomicValue(p, M, _reduce_dense(p, M, dense))

    def __rmul__(self, other):
        return self.__mul__(other)

    def conjugate(self) -> "CyclotomicValue":
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.M == 0:
            return self
        N = self.conductor
        dense = [Fraction(0)] * N
        for j, c in enumerate(self.coeffs):
            dense[(-j) % N] += c
        return CyclotomicValue(self.p, self.M, _reduce_dense(self.p, self.M, dense))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.M == 0 and self.coeffs[0] == other
        if not isinstance(other, CyclotomicValue):
            return NotImplemented
        return self.M == other.M and self.coeffs == other.coeffs and (
            self.M == 0 or self.p == other.p
        )

    def __hash__(self):
        return hash((self.M if self.M == 0 else (self.p, self.M), self.coeffs))

    # -- numeric embedding --------------------------------------------

    def to_complex(self) -> complex:
        """Embedding sending zeta_N to exp(2*pi*i/N)."""
        if self.M == 0:
            return complex(self.coeffs[0])
        N = self.conductor
        return sum(
            float(c) * cmath.exp(2j * cmath.pi * j / N)
            for j, c in enumerate(self.coeffs)
            if c != 0
        )

    def __repr__(self):
        if self.M == 0:
            return f"CyclotomicValue({self.coeffs[0]})"
        terms = [f"{c}*z{self.conductor}^{j}" for j, c in enumerate(self.coeffs) if c != 0]
        return "CyclotomicValue(" + (" + ".join(terms) or "0") + ")"

    def to_json(self) -> dict:
        return {
            "conductor": self.conductor,
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self.coeffs],
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


def _reduce_dense(p: int, M: int, dense: list) -> list:
    """Reduce a dense exponent vector (length p**M) to the power basis."""
    phi = _phi_prime_power(p, M)
    block = p ** (M - 1)
    for e in range(len(dense) - 1, phi - 1, -1):
        c = dense[e]
        if c == 0:
            continue
        dense[e] = Fraction(0)
        r = e - (p - 1) * block
        for j in range(p - 1):
            dense[j * block + r] -= c
    return dense[:phi]


def _canonicalize(p, M, coeffs):
    """Minimize the conductor of a reduced coefficient vector."""
    while M > 0:
        if any(c != 0 for j, c in enumerate(coeffs) if j % p):
            break
        coeffs = coeffs[::p]
        M -= 1
    if M == 0:
        p = None
        coeffs = [Fraction(coeffs[0])]
    return p, M, coeffs


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
        if isinstance(other, (int, Fraction, CyclotomicValue)):
            other = ExactValue.from_cyclo(self.p, other)
        if not isinstance(other, ExactValue):
            return NotImplemented
        if other.p != self.p:
            raise ValueError("mixed primes")
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
        if isinstance(other, (int, Fraction, CyclotomicValue)):
            other = ExactValue.from_cyclo(self.p, other)
        return self + (-other)

    def conjugate(self) -> "ExactValue":
        return ExactValue(self.p, self.qexp, self.cyc.conjugate())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicValue)):
            other = ExactValue.from_cyclo(self.p, other)
        if not isinstance(other, ExactValue):
            return NotImplemented
        return self.p == other.p and self.qexp == other.qexp and self.cyc == other.cyc

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
