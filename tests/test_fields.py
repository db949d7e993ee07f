from fractions import Fraction

import pytest

from radonfourier import (
    CyclotomicValue,
    FieldDescriptor,
    abs_norm,
    add_char,
    padic_field,
    padic_frac_part,
    padic_valuation,
)
from radonfourier.sampling import rand_fraction


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FieldDescriptor("p-adic", 4)
    with pytest.raises(ValueError):
        FieldDescriptor("real", 3)
    with pytest.raises(ValueError):
        FieldDescriptor("quaternion")
    # coordinates per scalar: a Q_p scalar is one exact rational
    assert [FieldDescriptor(kind).d_F for kind in ("real", "complex")] == [1, 2]
    assert padic_field(2).d_F == padic_field(3).d_F == 1


def test_abs_norm_examples(fr, fc, f3):
    assert abs_norm(-2.0, fr) == 2.0
    assert abs(abs_norm(1 + 1j, fc) - 2.0) < 1e-15  # the module conj(z)*z
    assert abs_norm(Fraction(12), f3) == Fraction(1, 3)
    assert abs_norm(Fraction(0), f3) == 0


def test_abs_norm_multiplicative(rng, fr, fc, f3):
    for _ in range(1000):
        s, t = rng.standard_normal(2)
        assert abs(abs_norm(s * t, fr) - abs_norm(s, fr) * abs_norm(t, fr)) <= (
            1e-12 * abs_norm(s * t, fr) + 1e-300
        )
    for _ in range(1000):
        z = complex(*rng.standard_normal(2))
        w = complex(*rng.standard_normal(2))
        assert abs(abs_norm(z * w, fc) - abs_norm(z, fc) * abs_norm(w, fc)) <= (
            1e-12 * abs_norm(z * w, fc)
        )
    for _ in range(1000):
        s = rand_fraction(rng, 3)
        t = rand_fraction(rng, 3)
        assert abs_norm(s * t, f3) == abs_norm(s, f3) * abs_norm(t, f3)


def test_valuation_rules(rng, f3):
    p = 3
    for _ in range(300):
        s = rand_fraction(rng, p)
        t = rand_fraction(rng, p)
        assert padic_valuation(s * t, p) == padic_valuation(s, p) + padic_valuation(t, p)
        assert abs_norm(s, f3) * abs_norm(1 / s, f3) == 1
    with pytest.raises(ZeroDivisionError):
        padic_valuation(0, p)


def test_frac_part(f3):
    assert padic_frac_part(Fraction(1, 3), 3) == Fraction(1, 3)
    assert padic_frac_part(Fraction(5), 3) == 0
    # s - {s}_p lands in Z_p
    for s in [Fraction(7, 9), Fraction(-2, 27), Fraction(5, 6), Fraction(22, 45)]:
        r = padic_frac_part(s, 3)
        assert 0 <= r < 1
        diff = s - r
        assert diff == 0 or padic_valuation(diff, 3) >= 0


def test_add_char_examples(fr, f3):
    assert abs(add_char(0.5, fr) - (-1.0)) < 1e-14
    z = add_char(Fraction(1, 3), f3)
    assert z == CyclotomicValue.root_of_unity(3, 3, 1)
    assert add_char(Fraction(5), f3) == CyclotomicValue.one()
    assert add_char(Fraction(6, 5), f3) == CyclotomicValue.one()  # 6/5 in Z_3


def test_add_char_homomorphism(rng, f3, f2):
    for fd in (f3, f2):
        p = fd.p
        for _ in range(200):
            s = rand_fraction(rng, p, -3, 2)
            t = rand_fraction(rng, p, -3, 2)
            assert add_char(s + t, fd) == add_char(s, fd) * add_char(t, fd)


def test_add_char_archimedean_homomorphism(rng, fr, fc):
    for _ in range(100):
        s, t = rng.standard_normal(2) * 3
        assert abs(add_char(s + t, fr) - add_char(s, fr) * add_char(t, fr)) < 1e-12
        z = complex(*rng.standard_normal(2))
        w = complex(*rng.standard_normal(2))
        assert abs(add_char(z + w, fc) - add_char(z, fc) * add_char(w, fc)) < 1e-12
