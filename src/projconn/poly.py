"""Sparse differential polynomials over Q(i).

A DiffPoly is a canonical-form term map: monomial -> coefficient, where a
monomial is a sorted tuple of (Symbol, exponent) pairs with positive
exponents and the coefficient is a nonzero GaussianRational.  Two
polynomials are equal exactly when their term maps are identical.

The ring knows formal partial derivatives: parameters are constants, a
coordinate differentiates to 1 against itself, and function symbols pick up
an entry in their derivative multi-index.  Division exists only by nonzero
constants of Q(i); there is no rational-function field here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EvalError, KindError, SubstError
from .rational import GaussianRational, ZERO, ONE, as_gaussian
from .symbols import COORDINATE, PARAMETER, Symbol

Monomial = tuple  # tuple[(Symbol, int), ...], sorted by Symbol.sort_key

_EMPTY: Monomial = ()


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted monomials, adding exponents."""
    if not a:
        return b
    if not b:
        return a
    out = []
    ia = ib = 0
    while ia < len(a) and ib < len(b):
        sa, ea = a[ia]
        sb, eb = b[ib]
        if sa is sb or sa == sb:
            out.append((sa, ea + eb))
            ia += 1
            ib += 1
        elif sa.sort_key < sb.sort_key:
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


_LAST = ((float("inf"),),)  # sorts after every (sort_key, -exponent) pair


def _monomial_key(mono: Monomial):
    """Lexicographic order on symbols with exponents descending.

    The constant monomial sorts last; absent symbols count as exponent 0,
    which the sentinel after the last pair encodes.
    """
    return tuple((sym.sort_key, -exp) for sym, exp in mono) + (_LAST,)


class DiffPoly:
    """Immutable canonical-form polynomial."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[Monomial, GaussianRational] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = as_gaussian(coeff)
                if not coeff.is_zero():
                    clean[mono] = coeff
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("DiffPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "DiffPoly":
        return cls({_EMPTY: as_gaussian(value)})

    @classmethod
    def of(cls, symbol: Symbol) -> "DiffPoly":
        return cls({((symbol, 1),): ONE})

    # -- structure ------------------------------------------------------------

    def terms(self) -> dict:
        return dict(self._terms)

    def sorted_terms(self):
        """Terms in the canonical display order."""
        return sorted(self._terms.items(), key=lambda kv: _monomial_key(kv[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _EMPTY in self._terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get(_EMPTY, ZERO)

    def symbols(self):
        seen = set()
        for mono in self._terms:
            for sym, _ in mono:
                if sym not in seen:
                    seen.add(sym)
                    yield sym

    def leading(self):
        """(monomial, coefficient) of the canonically first term."""
        if not self._terms:
            return _EMPTY, ZERO
        mono = min(self._terms, key=_monomial_key)
        return mono, self._terms[mono]

    def monic(self) -> "DiffPoly":
        """Scale so the leading coefficient is 1; zero stays zero."""
        if not self._terms:
            return self
        _, lead = self.leading()
        return self * lead.inverse()

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        other = as_poly(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            cur = terms.get(mono)
            if cur is None:
                terms[mono] = coeff
            else:
                s = cur + coeff
                if s.is_zero():
                    del terms[mono]
                else:
                    terms[mono] = s
        out = DiffPoly.__new__(DiffPoly)
        object.__setattr__(out, "_terms", terms)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = DiffPoly.__new__(DiffPoly)
        object.__setattr__(out, "_terms", {m: -c for m, c in self._terms.items()})
        return out

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            scalar = as_gaussian(other)
            if scalar.is_zero():
                return ZERO_POLY
            out = DiffPoly.__new__(DiffPoly)
            object.__setattr__(
                out, "_terms", {m: c * scalar for m, c in self._terms.items()}
            )
            return out
        other = as_poly(other)
        if not self._terms or not other._terms:
            return ZERO_POLY
        terms: dict[Monomial, GaussianRational] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = _mul_monomials(ma, mb)
                c = ca * cb
                cur = terms.get(mono)
                if cur is None:
                    terms[mono] = c
                else:
                    s = cur + c
                    if s.is_zero():
                        del terms[mono]
                    else:
                        terms[mono] = s
        out = DiffPoly.__new__(DiffPoly)
        object.__setattr__(out, "_terms", terms)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DiffPoly):
            if not other.is_constant():
                raise TypeError("division only by constants of Q(i)")
            other = other.constant_value()
        return self * as_gaussian(other).inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return ONE_POLY if result is None else result
            base = base * base

    def __eq__(self, other):
        if isinstance(other, DiffPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == as_poly(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- calculus ---------------------------------------------------------------

    def diff(self, x: Symbol) -> "DiffPoly":
        """Formal partial derivative by the coordinate x (Leibniz rule)."""
        if x.kind != COORDINATE:
            raise KindError(f"cannot differentiate by non-coordinate {x!r}")
        result = ZERO_POLY
        for mono, coeff in self._terms.items():
            for pos, (sym, exp) in enumerate(mono):
                if sym.kind == PARAMETER:
                    continue
                if exp > 1:
                    rest = mono[:pos] + ((sym, exp - 1),) + mono[pos + 1 :]
                else:
                    rest = mono[:pos] + mono[pos + 1 :]
                if sym.kind == COORDINATE:
                    if sym != x:
                        continue
                    result = result + DiffPoly({rest: coeff * exp})
                    continue
                derived = sym.derivative(x.name)
                if derived is None:
                    continue
                piece = DiffPoly({rest: coeff * exp}) * DiffPoly.of(derived)
                result = result + piece
        return result

    def subst(self, bindings: dict) -> "DiffPoly":
        """Simultaneous substitution of symbols by polynomials.

        Derived function symbols may not be bound directly; binding a base
        function symbol induces the matching derivatives of the replacement
        on every derived occurrence.
        """
        for key in bindings:
            if key.is_derived():
                raise SubstError(
                    f"cannot bind derivative {key} independently of its base {key.name}"
                )
        replacements: dict[Symbol, DiffPoly] = {
            k: as_poly(v) for k, v in bindings.items()
        }
        cache: dict[Symbol, DiffPoly] = {}

        def replacement(sym: Symbol) -> DiffPoly | None:
            direct = replacements.get(sym)
            if direct is not None:
                return direct
            if not sym.is_derived():
                return None
            base_repl = replacements.get(sym.base())
            if base_repl is None:
                return None
            got = cache.get(sym)
            if got is None:
                got = base_repl
                for coord_name, order in sym.deriv:
                    coord = Symbol(coord_name, COORDINATE)
                    for _ in range(order):
                        got = got.diff(coord)
                cache[sym] = got
            return got

        result = ZERO_POLY
        for mono, coeff in self._terms.items():
            term = DiffPoly.constant(coeff)
            for sym, exp in mono:
                repl = replacement(sym)
                if repl is None:
                    term = term * DiffPoly({((sym, exp),): ONE})
                else:
                    term = term * repl**exp
            result = result + term
        return result

    def evaluate(self, point: dict) -> GaussianRational:
        """Exact value at a point binding every occurring symbol."""
        total = ZERO
        for mono, coeff in self._terms.items():
            value = coeff
            for sym, exp in mono:
                try:
                    bound = point[sym]
                except KeyError:
                    raise EvalError(f"unbound symbol {sym} in evaluation") from None
                value = value * as_gaussian(bound) ** exp
            total = total + value
        return total

    # -- display ------------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            text, negative = _render_term(mono, coeff)
            if not parts:
                parts.append(f"-{text}" if negative else text)
            else:
                parts.append(f"- {text}" if negative else f"+ {text}")
        return " ".join(parts)

    def __repr__(self):
        return f"DiffPoly({str(self)})"


def _render_term(mono: Monomial, coeff: GaussianRational):
    """One display term; returns (text without sign, sign extracted?)."""
    factors = []
    for sym, exp in mono:
        factors.append(str(sym) if exp == 1 else f"{sym}^{exp}")
    body = "*".join(factors)
    if not coeff.im:
        mag, neg = abs(coeff.re), coeff.re < 0
        if body and mag == 1:
            return body, neg
        coeff_text = str(mag)
    elif not coeff.re:
        mag, neg = abs(coeff.im), coeff.im < 0
        coeff_text = "i" if mag == 1 else f"{mag}*i"
    else:
        return (f"({coeff})*{body}" if body else f"({coeff})"), False
    if body:
        return f"{coeff_text}*{body}", neg
    return coeff_text, neg


ZERO_POLY = DiffPoly()
ONE_POLY = DiffPoly.constant(1)


def as_poly(value) -> DiffPoly:
    """Coerce a scalar, Symbol or DiffPoly into the ring."""
    if isinstance(value, DiffPoly):
        return value
    if isinstance(value, Symbol):
        return DiffPoly.of(value)
    if isinstance(value, (int, Fraction, GaussianRational)):
        return DiffPoly.constant(value)
    raise TypeError(f"cannot coerce {type(value).__name__} into the ring")
