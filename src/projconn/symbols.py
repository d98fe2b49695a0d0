"""Symbols of the differential polynomial ring.

Three kinds exist: parameters (constants under every derivative),
coordinates, and formal function symbols carrying a dependency list and a
derivative multi-index.  Symbols are named tuples, so they are immutable and
compare structurally: independently constructed tables interoperate as long
as names agree.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import ConstructionError, KindError

PARAMETER = "parameter"
COORDINATE = "coordinate"
FUNCTION = "function"

_KIND_RANK = {PARAMETER: 0, FUNCTION: 1, COORDINATE: 2}

RESERVED_NAMES = frozenset({"i"})


class Symbol(namedtuple("Symbol", "name kind depends_on deriv")):
    """One symbol: (name, kind, depends_on, deriv), a named tuple.

    ``deriv`` is a multi-index over coordinate names, stored as a sorted
    tuple of (coordinate, order) pairs; it is empty except on derived
    function symbols.  Mixed partials commute, so the multi-index is the
    canonical form of a derivative.
    """

    __slots__ = ()

    def __new__(cls, name, kind, depends_on=(), deriv=()):
        if kind not in _KIND_RANK:
            raise KindError(f"unknown symbol kind {kind!r}")
        if name in RESERVED_NAMES:
            raise ConstructionError(f"{name!r} is reserved for the imaginary unit")
        depends_on = tuple(sorted(set(depends_on)))
        deriv = dict(deriv)
        for c, o in deriv.items():
            if not isinstance(o, int) or o < 0:
                raise KindError(f"order {o!r} of the derivative of {name!r} in {c!r} "
                                "is not a non-negative int")
        deriv = tuple(sorted((c, o) for c, o in deriv.items() if o))
        if kind != FUNCTION:
            if depends_on:
                raise KindError(f"{kind} symbol {name!r} cannot carry dependencies")
            if deriv:
                raise KindError(f"{kind} symbol {name!r} cannot carry derivatives")
        else:
            if not depends_on:
                raise ConstructionError(f"function symbol {name!r} needs dependencies")
            bad = [c for c, _ in deriv if c not in depends_on]
            if bad:
                raise KindError(
                    f"derivative of {name!r} in {bad[0]!r} outside its dependencies"
                )
        return super().__new__(cls, name, kind, depends_on, deriv)

    @property
    def sort_key(self):
        return _KIND_RANK[self.kind], self.name, self.deriv

    def is_derived(self) -> bool:
        return bool(self.deriv)

    def base(self) -> "Symbol":
        """The underived symbol this one is a derivative of."""
        if not self.deriv:
            return self
        return Symbol(self.name, self.kind, self.depends_on)

    def derivative(self, coord_name: str) -> "Symbol | None":
        """Formal partial derivative by one coordinate; None when it vanishes."""
        if self.kind == PARAMETER:
            return None
        if self.kind == COORDINATE:
            raise KindError("coordinate derivatives are handled by the ring")
        if coord_name not in self.depends_on:
            return None
        index = dict(self.deriv)
        index[coord_name] = index.get(coord_name, 0) + 1
        return Symbol(self.name, self.kind, self.depends_on, tuple(index.items()))

    def __str__(self):
        if not self.deriv:
            return self.name
        coords = []
        for c, o in self.deriv:
            coords.extend([c] * o)
        order = len(coords)
        marker = "d" if order == 1 else f"d{order}"
        return f"{marker}({self.name}, {', '.join(coords)})"

    def __repr__(self):
        return f"Symbol({str(self)!r}, {self.kind})"


def parameter(name: str) -> Symbol:
    return Symbol(name, PARAMETER)


def coordinate(name: str) -> Symbol:
    return Symbol(name, COORDINATE)


def function(name: str, depends_on) -> Symbol:
    return Symbol(name, FUNCTION, tuple(depends_on))


class SymbolTable:
    """Declared identifiers of one connection spec file.

    The expression parser resolves names through a table; redeclaration with
    a different kind is rejected so a name means one thing per document.
    """

    def __init__(self):
        self._by_name: dict[str, Symbol] = {}

    def _declare(self, sym: Symbol) -> Symbol:
        existing = self._by_name.get(sym.name)
        if existing is not None:
            if existing != sym:
                raise ConstructionError(
                    f"identifier {sym.name!r} redeclared with a different role"
                )
            return existing
        self._by_name[sym.name] = sym
        return sym

    def parameter(self, name: str) -> Symbol:
        return self._declare(parameter(name))

    def coordinate(self, name: str) -> Symbol:
        return self._declare(coordinate(name))

    def function(self, name: str, depends_on) -> Symbol:
        sym = function(name, depends_on)
        for c in sym.depends_on:
            declared = self._by_name.get(c)
            if declared is None or declared.kind != COORDINATE:
                raise ConstructionError(
                    f"function {name!r} depends on undeclared coordinate {c!r}"
                )
        return self._declare(sym)

    def lookup(self, name: str) -> Symbol | None:
        return self._by_name.get(name)
