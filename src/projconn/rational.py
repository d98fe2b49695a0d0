"""Exact arithmetic in Q(i), the coefficient field of the whole engine.

A GaussianRational is re + im*i with both parts arbitrary-precision
rationals.  Fraction already stores reduced form with positive denominator,
so structural equality of the two parts is field equality.
"""

from __future__ import annotations

from fractions import Fraction

_RationalLike = (int, Fraction)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


class GaussianRational:
    """Immutable element of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    # -- ring / field operations --------------------------------------------

    def __add__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_gaussian(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = as_gaussian(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return GaussianRational(a * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * as_gaussian(other).inverse()

    def __rtruediv__(self, other):
        return as_gaussian(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RationalLike):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    # -- conversion / display -------------------------------------------------

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = "i" if abs(self.im) == 1 else f"{abs(self.im)}*i"
        if not self.re:
            return im if self.im > 0 else f"-{im}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {im}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_gaussian(x) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational into Q(i)."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, _RationalLike):
        return GaussianRational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(i)")
