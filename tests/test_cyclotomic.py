from fractions import Fraction

import pytest

from radonfourier import CyclotomicValue, ExactValue
from radonfourier.functions import _json_exact


def zeta(p, M, e=1):
    return CyclotomicValue.root_of_unity(p, p**M, e)


def test_root_relations():
    z3 = zeta(3, 1)
    assert z3 * z3 * z3 == CyclotomicValue.one()
    assert (1 + z3) + z3 * z3 == 0
    z5 = zeta(5, 1)
    assert z5.conjugate() == zeta(5, 1, 4)


def test_canonical_conductor_reduction():
    # zeta_9^3 is a primitive cube root: stored at conductor 3
    z = zeta(3, 2, 3)
    assert z.conductor == 3
    assert z == zeta(3, 1, 1)
    # zeta_4^2 = -1 is rational
    m1 = zeta(2, 2, 2)
    assert m1.is_rational() and m1.rational_value() == -1
    # and rationals compare across primes
    assert zeta(2, 1, 1) == zeta(3, 1, 0) * Fraction(-1)


def test_mixed_primes_rejected():
    with pytest.raises(ValueError):
        zeta(3, 1) * zeta(5, 1)
    # rational values lift into any prime
    assert (zeta(3, 1) * Fraction(2)) * CyclotomicValue.from_rational(Fraction(1, 2)) == zeta(3, 1)


def test_algebra_properties(rng):
    for _ in range(100):
        p = int(rng.choice([2, 3, 5]))
        M = int(rng.integers(1, 3))
        def rand_val():
            phi = (p - 1) * p ** (M - 1)
            coeffs = [Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for _ in range(phi)]
            out = CyclotomicValue.from_rational(0)
            for j, c in enumerate(coeffs):
                out = out + zeta(p, M, j) * c
            return out
        u, v, w = rand_val(), rand_val(), rand_val()
        assert (u * v) * w == u * (v * w)
        assert (u * v).conjugate() == u.conjugate() * v.conjugate()
        assert u * (v + w) == u * v + u * w


def dense_oracle(p, M, poly):
    """to_json of sum poly[k] x^k in Q(zeta_{p^M}), from dense polynomials:
    long division by Phi_{p^M}(x) = sum_j x^(j p^(M-1)), then the least
    conductor."""
    b, poly = p ** (M - 1), list(poly)
    phi = (p - 1) * b
    for k in range(len(poly) - 1, phi - 1, -1):  # subtract poly[k] x^(k-phi) Phi(x)
        c = poly[k]
        for j in range(p):
            poly[k - phi + j * b] -= c
    poly = (poly + [Fraction(0)] * phi)[:phi]
    while M and all(c == 0 for k, c in enumerate(poly) if k % p):
        poly, M = poly[::p], M - 1
    return {"conductor": p**M, "coeffs": [f"{c.numerator}/{c.denominator}" for c in poly]}


def test_arithmetic_matches_dense_oracle(rng):
    for _ in range(300):
        p, M = int(rng.choice([2, 3, 5])), int(rng.integers(1, 4))
        N = p**M
        e = int(rng.integers(-2 * N, 2 * N))  # negative and >= N
        assert zeta(p, M, e).to_json() == dense_oracle(p, M, [Fraction(k == e % N) for k in range(N)])
        vals = []
        for _ in range(2):
            # a few terms, some on the exponent grid of a subfield
            step = p ** int(rng.integers(0, M + 1))
            terms = [
                (int(rng.integers(-2 * N, 2 * N)) * step, Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))
                for _ in range(int(rng.integers(0, 6)))
            ]
            poly = [Fraction(0)] * N
            for e, c in terms:
                poly[e % N] += c
            vals.append((sum((zeta(p, M, e) * c for e, c in terms), CyclotomicValue.from_rational(0)), poly))
        (u, f), (v, g) = vals
        prod = [Fraction(0)] * (2 * N - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g if a else ()):
                prod[i + j] += a * b
        assert u.to_json() == dense_oracle(p, M, f)
        assert (u + v).to_json() == dense_oracle(p, M, [a + b for a, b in zip(f, g)])
        assert (u * v).to_json() == dense_oracle(p, M, prod)
        assert u.conjugate().to_json() == dense_oracle(p, M, [f[-k % N] for k in range(N)])


def test_complex_embedding_consistency(rng):
    for _ in range(50):
        p, M = 3, 2
        a = zeta(p, M, int(rng.integers(0, 9)))
        b = zeta(p, M, int(rng.integers(0, 9)))
        prod = a * b
        assert abs(prod.to_complex() - a.to_complex() * b.to_complex()) < 1e-12
        s = a + b
        assert abs(s.to_complex() - (a.to_complex() + b.to_complex())) < 1e-12


def test_json_round_trip():
    # to_json is read back by the sb coeff parser of function specs
    v = zeta(3, 2, 4) * Fraction(2, 7) + Fraction(1, 3)
    w = _json_exact({"qexp": "0", "cyclotomic": v.to_json()}, 3)
    assert w == ExactValue.from_cyclo(3, v)
    for u in (zeta(3, 2, 3), CyclotomicValue.from_rational(Fraction(-5, 4)), zeta(2, 3, 5)):
        p = u.p or 3
        assert _json_exact(u.to_json(), p) == ExactValue.from_cyclo(p, u)


def test_exact_value_normalization():
    v = ExactValue(3, Fraction(3, 2), CyclotomicValue.one())
    assert v.qexp == Fraction(1, 2)
    assert v.cyc.rational_value() == 3
    w = ExactValue(3, Fraction(1, 2), CyclotomicValue.from_rational(3))
    assert v == w
    assert (v * w).qexp == 0  # q^(1/2) * q^(1/2) = q folds into the rational part
    assert (v * w).cyc.rational_value() == 27
    # zero wipes the exponent
    z = ExactValue(3, Fraction(1, 2), CyclotomicValue.from_rational(0))
    assert z.is_zero() and z.qexp == 0


def test_exact_value_add_requires_matching_power():
    a = ExactValue(3, Fraction(1, 2), 1)
    b = ExactValue(3, 0, 1)
    with pytest.raises(ValueError):
        a + b
    assert (a + a).cyc.rational_value() == 2
