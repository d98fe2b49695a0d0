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
`_merge` is the one place a term map is built by summing: the constructor,
+, *, diff and subst all add (monomial, coefficient) pairs through it, and
it deletes a monomial whose sum cancels; p - q is p + (-q).

Outside this module a monomial is a tuple of (Symbol, exponent) pairs with
positive exponents, sorted by Symbol.sort_key: the constructor takes such
keys, and terms(), sorted_terms() and leading() decode to them, so display,
equality and every output are independent of the slot order, which is
local to one process.

The ring knows formal partial derivatives: parameters are constants, a
coordinate differentiates to 1 against itself, and function symbols pick up
an entry in their derivative multi-index.  Division exists only by nonzero
constants of Q(i); there is no rational-function field here.

The kernels of `connection` and `projective` sum into accumulators instead
of DiffPolys: dicts from packed monomial to an (a, b) pair of ints, a
Gaussian integer a + b*i, over inputs scaled once to a common denominator D,
so that every add is int arithmetic and each distinct sum is reduced once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm
from operator import or_

from .errors import DegreeError, EvalError, KindError, SubstError
from .rational import GaussianRational, ZERO, ONE, _make, _power, _reduced, as_gaussian
from .symbols import COORDINATE, FUNCTION, Symbol

MAX_DEGREE = 2**15 - 1
_WIDTH = 16
_MASK = (1 << _WIDTH) - 1

_SLOTS: dict[Symbol, int] = {}  # the intern table: Symbol -> slot
_SYMBOLS: list[Symbol] = []  # slot -> Symbol
_guard = 0  # the guard bit of every slot in use
_coordinates = _functions = 0  # the fields of every coordinate and function slot


def _unit(sym: Symbol) -> int:
    """The packed monomial sym**1; interns sym on its first use."""
    global _guard, _coordinates, _functions
    slot = _SLOTS.get(sym)
    if slot is None:
        slot = _SLOTS[sym] = len(_SYMBOLS)
        _SYMBOLS.append(sym)
        _guard |= (MAX_DEGREE + 1) << (slot * _WIDTH)
        if sym.kind == COORDINATE:
            _coordinates |= _MASK << (slot * _WIDTH)
        elif sym.kind == FUNCTION:
            _functions |= _MASK << (slot * _WIDTH)
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


def _merge(terms: dict, pairs) -> dict:
    """terms, after adding each (packed monomial, coefficient) pair into it;
    a monomial whose sum cancels is deleted."""
    get = terms.get
    for mono, coeff in pairs:
        cur = get(mono)
        if cur is None:
            terms[mono] = coeff
        elif (s := cur + coeff).is_zero():
            del terms[mono]
        else:
            terms[mono] = s
    return terms


class DiffPoly:
    """Immutable canonical-form polynomial."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        coeffs = ((mono, as_gaussian(c)) for mono, c in (terms or {}).items())
        clean = _merge({}, ((_pack(mono), c) for mono, c in coeffs if not c.is_zero()))
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
        return _wrap(_merge(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + -as_poly(other)

    def __rsub__(self, other):
        return as_poly(other) + -self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            scalar = as_gaussian(other)
            if scalar.is_zero():
                return ZERO_POLY
            return _wrap({m: c * scalar for m, c in self._terms.items()})
        other = as_poly(other)
        if not self._terms or not other._terms:
            return ZERO_POLY
        return _checked(_merge({}, ((ma + mb, ca * cb) for ma, ca in self._terms.items()
                                    for mb, cb in other._terms.items())))

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
        return _power(self, n, ONE_POLY, DiffPoly.__mul__)

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

        def pairs():
            for mono, coeff in self._terms.items():
                for slot, exp in _fields(mono):
                    sym = _SYMBOLS[slot]
                    if slot == x_slot:
                        rest = mono - (1 << slot * _WIDTH)
                    elif sym.kind == FUNCTION and (derived := sym.derivative(x.name)) is not None:
                        rest = mono - (1 << slot * _WIDTH) + _unit(derived)
                    else:  # a parameter, another coordinate, or a function not of x
                        continue
                    yield rest, _reduced(coeff._a * exp, coeff._b * exp, coeff._d)

        return _checked(_merge({}, pairs()))

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
            term = {kept: coeff}
            if factors:
                term = reduce(DiffPoly.__mul__, factors, _wrap(term))._terms
            _merge(terms, term.items())
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


def _check_degrees(monos) -> None:
    """Raise DegreeError when a packed monomial has an exponent beyond MAX_DEGREE."""
    if reduce(or_, monos, 0) & _guard:
        raise DegreeError(f"an exponent exceeds the bound of {MAX_DEGREE}")


def _checked(terms: dict) -> DiffPoly:
    """_wrap(terms), unless an exponent exceeds MAX_DEGREE."""
    _check_degrees(terms)
    return _wrap(terms)


# -- accumulators ---------------------------------------------------------------
#
# A kernel that sums many products into one output entry builds it in an
# accumulator: a plain dict from packed monomial to a Gaussian integer, an
# (a, b) pair of ints standing for a + b*i.  The kernel first scales its inputs
# by D, the lcm of their coefficient denominators (_scaled, which also sums
# them by key), so that every input is itself such a dict and no accumulator
# holds a denominator: adding a term is int arithmetic only, with no gcd and
# no intermediate GaussianRational or DiffPoly.  The kernel knows the power of
# D, times any int weights, that its sums carry, and _quotient divides it out
# once per entry.  A monomial stays in the map once added, even where its sum
# cancels to zero, so a guard-bit check over the accumulators covers every
# product monomial ever formed.


def _scaled(items) -> tuple:
    """(D, {key: D * the sum of k * p over the items with that key}) for items
    (key, p, k), p a DiffPoly and k an int, D the lcm of every coefficient
    denominator of the p's; each sum an accumulator."""
    items = list(items)
    D = lcm(*{c._d for _, p, _ in items for c in p._terms.values()})
    sums = {}
    for key, p, k in items:
        acc = sums.setdefault(key, {})
        for mono, c in p._terms.items():
            f = k * (D // c._d)
            cur = acc.get(mono)
            if cur is None:
                acc[mono] = (c._a * f, c._b * f)
            else:
                acc[mono] = (cur[0] + c._a * f, cur[1] + c._b * f)
    return D, sums


def _add_multiple(acc: dict, src: dict, k: int) -> None:
    """acc += k * src, for accumulators acc and src and an int k."""
    if not acc:
        acc.update(src if k == 1 else {mono: (a * k, b * k) for mono, (a, b) in src.items()})
        return
    get = acc.get
    for mono, (a, b) in src.items():
        cur = get(mono)
        if cur is None:
            acc[mono] = (a * k, b * k)
        else:
            acc[mono] = (cur[0] + a * k, cur[1] + b * k)


def _add_product(targets, g: dict, h: dict) -> None:
    """acc += sign * g * h for each (acc, sign) in targets, sign = 1 or -1, for
    accumulators g and h.

    With no target the product lands nowhere, but its monomials are still
    held to MAX_DEGREE.
    """
    if not targets:
        _check_degrees([ma + mb for ma in g for mb in h])
        return
    for ma, (a1, b1) in g.items():
        for mb, (a2, b2) in h.items():
            mono = ma + mb
            re, im = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            for acc, sign in targets:
                cur = acc.get(mono)
                if sign > 0:
                    acc[mono] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
                else:
                    acc[mono] = (-re, -im) if cur is None else (cur[0] - re, cur[1] - im)


def _partials(p: DiffPoly, scaled: dict, D: int, coords: tuple) -> list:
    """[(i, D * d_i(scaled))] over the coordinates coords[i] that p may depend on,
    for scaled = D * p from _scaled, each D * d_i(scaled) an accumulator.

    The OR of p's monomials has a nonzero field exactly for the symbols that
    occur.  Without a formal function, d_i multiplies each coefficient by the
    exponent of coords[i] and lowers that exponent by one; a formal function
    takes the Leibniz rule of DiffPoly.diff.
    """
    present = reduce(or_, p._terms, 0)
    if present & _functions:
        return [(i, {m: (c._a * (D // c._d) * D, c._b * (D // c._d) * D)
                     for m, c in d._terms.items()})
                for i, x in enumerate(coords) if (d := p.diff(x))._terms]
    out = []
    if present & _coordinates:
        for i, x in enumerate(coords):
            unit = _unit(x)
            shift = unit.bit_length() - 1
            if present >> shift & _MASK:
                out.append((i, {m - unit: (a * e * D, b * e * D) for m, (a, b) in scaled.items()
                                if (e := m >> shift & _MASK)}))
    return out


def _quotient(acc: dict, den: int, memo: dict):
    """(p, -p) for p = acc / den, den > 0, reducing each distinct (a, b) once.

    memo maps (a, b) to the pair (c, -c) of canonical GaussianRationals for
    (a + b*i)/den; it may be shared by every accumulator settled over den,
    since a GaussianRational is immutable.  Checks no degree.
    """
    pos, neg = {}, {}
    for mono, ab in acc.items():
        got = memo.get(ab)
        if got is None:
            a, b = ab
            if not a and not b:
                continue
            g = gcd(a, b, den)
            c = _make(a // g, b // g, den // g)
            got = memo[ab] = (c, _make(-c._a, -c._b, c._d))
        pos[mono], neg[mono] = got
    return _wrap(pos), _wrap(neg)


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
