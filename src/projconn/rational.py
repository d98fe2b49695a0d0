"""Exact arithmetic in Q(i), the coefficient field of the whole engine.

A GaussianRational is (a + b*i)/d stored as three Python ints in canonical
form: d > 0 and gcd(a, b, d) == 1, so zero is (0, 0, 1).  Equality of the
triples is field equality.  Every field operation is int arithmetic plus
one three-argument gcd, and its result is built without __init__ and its
coercion.  The real and imaginary parts are exposed as Fractions (.re, .im)
for display and export.  Like Fraction, the class keeps its state in private
slots that nothing rebinds after construction; `DiffPoly` keeps its term map
the same way.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import RangeError


def _parts(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction, reduced."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"not a rational value: {x!r}")


class GaussianRational:
    """Immutable element of Q(i)."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        ra, rd = _parts(re)
        ia, id_ = _parts(im)
        d = lcm(rd, id_)
        # both parts are reduced, so scaling them to the common
        # denominator leaves gcd(a, b, d) == 1
        self._a = ra * (d // rd)
        self._b = ia * (d // id_)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def bit_height(self) -> int:
        """Bit length of the largest of |a|, |b| and d."""
        return max(self._a.bit_length(), self._b.bit_length(), self._d.bit_length())

    # -- ring / field operations --------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = as_gaussian(other)
        d, f = self._d, other._d
        if d == f:
            a, b = self._a + other._a, self._b + other._b
            if d == 1:
                return _make(a, b, 1)
        else:
            a = self._a * f + other._a * d
            b = self._b * f + other._b * d
            d *= f
        return _reduced(a, b, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -as_gaussian(other)

    def __rsub__(self, other):
        return as_gaussian(other) + -self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = as_gaussian(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if not b and not e:
            re, im = a * c, 0
        else:
            re, im = a * c - b * e, a * e + b * c
        if d == 1:
            return _make(re, im, 1)
        return _reduced(re, im, d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _reduced(a * d, -b * d, n)

    def __truediv__(self, other):
        return self * as_gaussian(other).inverse()

    def __rtruediv__(self, other):
        return as_gaussian(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, ONE, GaussianRational.__mul__)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if not self._b:
            # equal to the hash of the int or Fraction of the same value
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return not self.is_zero()

    # -- conversion / display -------------------------------------------------

    def __complex__(self):
        try:
            return complex(self._a / self._d, self._b / self._d)
        except OverflowError:
            raise RangeError(
                "a number is too large for floating point: its magnitude rounds to 2^1024 or more"
            ) from None

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        im_text = "i" if abs(im) == 1 else f"{abs(im)}*i"
        if not re:
            return im_text if im > 0 else f"-{im_text}"
        sign = "+" if im > 0 else "-"
        return f"{re} {sign} {im_text}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple already in canonical form."""
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """A GaussianRational from a triple with d > 0, brought to canonical form."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def _power(base, n: int, one, mul):
    """base ** n, n >= 0, by square-and-multiply; forms no product the result does not use."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return one if result is None else result
        base = mul(base, base)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_gaussian(x) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational into Q(i)."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)")
