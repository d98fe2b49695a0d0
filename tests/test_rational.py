"""Field arithmetic in Q(i)."""

import random
import sys
from fractions import Fraction

import pytest

from projconn.errors import RangeError
from projconn.rational import GaussianRational, I, ONE, ZERO, as_gaussian

from helpers import rand_gaussian


def test_construction_normalizes_fractions():
    x = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
    assert x.re == Fraction(1, 2)
    assert x.im == Fraction(1, 2)


def test_structural_equality_and_hash():
    assert GaussianRational(1, 2) == GaussianRational(1, 2)
    assert GaussianRational(1, 2) != GaussianRational(1, 3)
    assert hash(GaussianRational(3)) == hash(Fraction(3))
    assert GaussianRational(3) == 3
    assert GaussianRational(0, 1) != 0


def test_i_squared_is_minus_one():
    assert I * I == -ONE
    assert I**2 == GaussianRational(-1)


def test_inverse_and_division():
    x = GaussianRational(Fraction(3, 4), Fraction(-1, 2))
    assert x * x.inverse() == ONE
    assert (x / x) == ONE
    assert ONE / I == -I
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_power_negative_exponent():
    x = GaussianRational(2, 1)
    assert x**-2 == (x * x).inverse()
    assert x**0 == ONE


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (5, 3)])
def test_power_multiplies_by_repeated_squaring(monkeypatch, n, products):
    calls = []
    mul = GaussianRational.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(GaussianRational, "__mul__", counting)
    x = GaussianRational(Fraction(2, 3), 1)
    value = x**n
    assert len(calls) == products
    monkeypatch.undo()
    expected = ONE
    for _ in range(n):
        expected = expected * x
    assert value == expected


def test_field_axioms_random():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (rand_gaussian(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == ONE


def test_conjugate_norm():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_gaussian(rng)
        n = a * GaussianRational(a.re, -a.im)
        assert not n.im
        assert n.re >= 0


def test_display_forms():
    assert str(GaussianRational(Fraction(3, 4))) == "3/4"
    assert str(GaussianRational(0, Fraction(1, 4))) == "1/4*i"
    assert str(GaussianRational(Fraction(3, 4), Fraction(1, 4))) == "3/4 + 1/4*i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(ZERO) == "0"


def test_coercion_rejects_floats():
    with pytest.raises(TypeError):
        as_gaussian(0.5)


def test_complex_conversion_range():
    # 2^1024 - 2^970 is the first value that rounds past the largest float
    largest = 2**1024 - 2**970 - 1
    assert complex(GaussianRational(largest, -largest)) == complex(
        sys.float_info.max, -sys.float_info.max)
    assert complex(GaussianRational(Fraction(1, 3), Fraction(1, 2**1100))) == complex(1 / 3, 0.0)
    for value in (GaussianRational(2**1024 - 2**970), GaussianRational(0, -(2**1024 - 1)),
                  GaussianRational(Fraction(2**1030, 3))):
        with pytest.raises(RangeError, match="too large for floating point"):
            complex(value)
