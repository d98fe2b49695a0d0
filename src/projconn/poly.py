"""Sparse differential polynomials over Q(i).

A DiffPoly is a canonical-form term map: monomial -> coefficient, where the
coefficient is a nonzero GaussianRational and the monomial is packed into
one int.  A symbol gets a slot the first time a polynomial mentions it, from
a process-wide append-only intern table, and its exponent sits in the 16-bit
field at bit 16*slot.  A product of monomials is therefore one integer add,
and a term lookup hashes an int.  Exponents are at most MAX_DEGREE =
2**15 - 1, so the top bit of every field is a guard bit: an add of two
monomials never carries into the next field, and one test of the guard bits
per polynomial product raises DegreeError on an exponent beyond the bound.
Two polynomials are equal exactly when their term maps are identical.

Outside this module a monomial is a tuple of (Symbol, exponent) pairs with
positive exponents, sorted by Symbol.sort_key: the constructor takes such
keys, and terms(), sorted_terms() and leading() decode to them, so display,
equality and every output are independent of the slot order, which is
local to one process.

The ring knows formal partial derivatives: parameters are constants, a
coordinate differentiates to 1 against itself, and function symbols pick up
an entry in their derivative multi-index.  Division exists only by nonzero
constants of Q(i); there is no rational-function field here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from operator import or_

from .errors import DegreeError, EvalError, KindError, SubstError
from .rational import GaussianRational, ZERO, ONE, as_gaussian
from .symbols import COORDINATE, FUNCTION, Symbol

MAX_DEGREE = 2**15 - 1
_WIDTH = 16
_MASK = (1 << _WIDTH) - 1

_SLOTS: dict[Symbol, int] = {}  # the intern table: Symbol -> slot
_SYMBOLS: list[Symbol] = []  # slot -> Symbol
_guard = 0  # the guard bit of every slot in use


def _unit(sym: Symbol) -> int:
    """The packed monomial sym**1; interns sym on its first use."""
    global _guard
    slot = _SLOTS.get(sym)
    if slot is None:
        slot = _SLOTS[sym] = len(_SYMBOLS)
        _SYMBOLS.append(sym)
        _guard |= (MAX_DEGREE + 1) << (slot * _WIDTH)
    return 1 << (slot * _WIDTH)


@lru_cache(maxsize=4096)
def _fields(mono: int) -> tuple:
    """(slot, exponent) of each nonzero field of a packed monomial."""
    out = []
    while mono:
        shift = ((mono & -mono).bit_length() - 1) & -_WIDTH
        exp = (mono >> shift) & _MASK
        mono -= exp << shift
        out.append((shift // _WIDTH, exp))
    return tuple(out)


def _pack(mono) -> int:
    """The packed form of a tuple of (Symbol, exponent) pairs."""
    packed = 0
    for sym, exp in mono:
        if not 0 <= exp <= MAX_DEGREE:
            raise DegreeError(f"exponent {exp} of {sym} outside 0..{MAX_DEGREE}")
        packed += exp * _unit(sym)
    if packed & _guard:
        raise DegreeError(f"an exponent exceeds the bound of {MAX_DEGREE}")
    return packed


def _sym_key(pair):
    return pair[0].sort_key


@lru_cache(maxsize=4096)
def _decode(mono: int) -> tuple:
    """The (Symbol, exponent) tuple of a packed monomial, sorted by sort_key."""
    pairs = [(_SYMBOLS[slot], exp) for slot, exp in _fields(mono)]
    if len(pairs) > 1:
        pairs.sort(key=_sym_key)
    return tuple(pairs)


_LAST = ((float("inf"),),)  # sorts after every (sort_key, -exponent) pair


def _term_key(term):
    """Lexicographic order on symbols with exponents descending.

    The constant monomial sorts last; absent symbols count as exponent 0,
    which the sentinel after the last pair encodes.
    """
    return tuple((sym.sort_key, -exp) for sym, exp in term[0]) + (_LAST,)


def _add_term(terms: dict, mono: int, coeff: GaussianRational) -> None:
    cur = terms.get(mono)
    if cur is None:
        terms[mono] = coeff
    else:
        s = cur + coeff
        if s.is_zero():
            del terms[mono]
        else:
            terms[mono] = s


class DiffPoly:
    """Immutable canonical-form polynomial."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[int, GaussianRational] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = as_gaussian(coeff)
                if not coeff.is_zero():
                    _add_term(clean, _pack(mono), coeff)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("DiffPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def constant(cls, value) -> "DiffPoly":
        value = as_gaussian(value)
        return _wrap({0: value} if value else {})

    @classmethod
    def of(cls, symbol: Symbol) -> "DiffPoly":
        return _wrap({_unit(symbol): ONE})

    # -- structure ------------------------------------------------------------

    def terms(self) -> dict:
        return {_decode(m): c for m, c in self._terms.items()}

    def sorted_terms(self):
        """Terms in the canonical display order."""
        return sorted(((_decode(m), c) for m, c in self._terms.items()), key=_term_key)

    def coefficients(self):
        return self._terms.values()

    def __len__(self):
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self._terms.get(0, ZERO)

    def symbols(self) -> list:
        """The symbols that occur, sorted by Symbol.sort_key."""
        return symbols_of((self,))

    def leading(self):
        """(monomial, coefficient) of the canonically first term."""
        if not self._terms:
            return (), ZERO
        return min(((_decode(m), c) for m, c in self._terms.items()), key=_term_key)

    def monic(self) -> "DiffPoly":
        """Scale so the leading coefficient is 1; zero stays zero."""
        if not self._terms:
            return self
        _, lead = self.leading()
        return self * lead.inverse()

    # -- ring operations --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not DiffPoly:
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
        return _wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not DiffPoly:
            other = as_poly(other)
        if not other._terms:
            return self
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            cur = terms.get(mono)
            if cur is None:
                terms[mono] = -coeff
            else:
                s = cur - coeff
                if s.is_zero():
                    del terms[mono]
                else:
                    terms[mono] = s
        return _wrap(terms)

    def __rsub__(self, other):
        return as_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            scalar = as_gaussian(other)
            if scalar.is_zero():
                return ZERO_POLY
            return _wrap({m: c * scalar for m, c in self._terms.items()})
        other = as_poly(other)
        if not self._terms or not other._terms:
            return ZERO_POLY
        terms: dict[int, GaussianRational] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = ma + mb
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
        return _checked(terms)

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
        x_slot = _SLOTS.get(x)
        terms: dict[int, GaussianRational] = {}
        for mono, coeff in self._terms.items():
            for slot, exp in _fields(mono):
                sym = _SYMBOLS[slot]
                if sym.kind == COORDINATE:
                    if slot != x_slot:
                        continue
                    rest = mono - (1 << slot * _WIDTH)
                elif sym.kind == FUNCTION:
                    derived = sym.derivative(x.name)
                    if derived is None:
                        continue
                    rest = mono - (1 << slot * _WIDTH) + _unit(derived)
                else:  # a parameter
                    continue
                _add_term(terms, rest, coeff * exp)
        return _checked(terms)

    def subst(self, bindings: dict) -> "DiffPoly":
        """Simultaneous substitution of symbols by polynomials.

        Derived function symbols may not be bound directly; binding a base
        function symbol induces the matching derivatives of the replacement
        on every derived occurrence.  A constant replacement is folded into
        the coefficient.
        """
        for key in bindings:
            if key.is_derived():
                raise SubstError(
                    f"cannot bind derivative {key} independently of its base {key.name}"
                )
        replacements: dict[Symbol, DiffPoly] = {
            k: as_poly(v) for k, v in bindings.items()
        }
        cache: dict[int, DiffPoly | None] = {}  # slot -> its replacement

        def replacement(slot: int) -> DiffPoly | None:
            sym = _SYMBOLS[slot]
            got = replacements.get(sym)
            if got is None and sym.is_derived():
                got = replacements.get(sym.base())
                if got is not None:
                    for coord_name, order in sym.deriv:
                        coord = Symbol(coord_name, COORDINATE)
                        for _ in range(order):
                            got = got.diff(coord)
            cache[slot] = got
            return got

        terms: dict[int, GaussianRational] = {}
        for mono, coeff in self._terms.items():
            kept, factors = mono, []
            for slot, exp in _fields(mono):
                repl = cache[slot] if slot in cache else replacement(slot)
                if repl is None:
                    continue
                kept -= exp << (slot * _WIDTH)
                if repl.is_constant():
                    coeff = coeff * repl.constant_value() ** exp
                else:
                    factors.append(repl**exp)
            if coeff.is_zero():
                continue
            if not factors:
                _add_term(terms, kept, coeff)
                continue
            term = _wrap({kept: coeff})
            for factor in factors:
                term = term * factor
            for m, c in term._terms.items():
                _add_term(terms, m, c)
        return _wrap(terms)

    def evaluate(self, point: dict) -> GaussianRational:
        """Exact value at a point binding every occurring symbol."""
        values: dict[int, GaussianRational] = {}  # slot -> bound value
        total = ZERO
        for mono, coeff in self._terms.items():
            value = coeff
            for slot, exp in _fields(mono):
                bound = values.get(slot)
                if bound is None:
                    sym = _SYMBOLS[slot]
                    if sym not in point:
                        missing = self._first_unbound(point)
                        raise EvalError(f"unbound symbol {missing} in evaluation")
                    bound = values[slot] = as_gaussian(point[sym])
                value = value * bound**exp
            total = total + value
        return total

    def _first_unbound(self, point: dict) -> Symbol:
        """The first unbound symbol in term order, then in sort_key order."""
        return next(
            sym for mono in self._terms for sym, _ in _decode(mono) if sym not in point
        )

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


_new = object.__new__
_get_terms = DiffPoly._terms.__get__
_set_terms = DiffPoly._terms.__set__


def _wrap(terms: dict) -> DiffPoly:
    """A DiffPoly owning a canonical packed term map."""
    out = _new(DiffPoly)
    _set_terms(out, terms)
    return out


def _checked(terms: dict) -> DiffPoly:
    """_wrap(terms), unless an exponent exceeds MAX_DEGREE."""
    if reduce(or_, terms, 0) & _guard:
        raise DegreeError(f"an exponent exceeds the bound of {MAX_DEGREE}")
    return _wrap(terms)


def symbols_of(polys) -> list:
    """The symbols that occur in any of the polynomials, sorted by Symbol.sort_key."""
    # the OR of all monomials has a nonzero field exactly where one occurs
    mono = reduce(or_, chain.from_iterable(map(_get_terms, polys)), 0)
    return [sym for sym, _ in _decode(mono)]


def _render_term(mono: tuple, coeff: GaussianRational):
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
