"""Torsionfree affine connections as symmetric Christoffel tables.

A `Connection` is its coordinates plus one (up, down, down) `Tensor`,
`table`, with table[k, i, j] = G^k_{ij}; `gamma` is a read-only view of it
as nested tuples gamma[k][i][j], sliced from `table.entries` when read.

Component conventions, fixed once and pinned by the golden tests:

    R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik}
                + sum_m (G^l_{im} G^m_{jk} - G^l_{jm} G^m_{ik})

    Ricci_{jk} = sum_i R^i_{ijk}        (trace over the first argument)
    TrR_{ij}   = sum_k R^k_{ijk}        (trace of Z -> R(X,Y)Z)

so R(X,Y)Z has components R^l_{XYZ}, TrR(X,Y) = Ricci(Y,X) - Ricci(X,Y)
holds identically, and a connection is equiaffine exactly when Ricci is
symmetric.  `curvature` evaluates R as S^l_{ijk} - S^l_{jik} with

    S^l_{ijk} = d_i G^l_{jk} + sum_m G^l_{im} G^m_{jk},

built in one pass over the nonzero Christoffel entries, so every derivative
and every product is formed once and an empty entry costs nothing.  The
dimension-3 Weyl projective tensor is evaluated in its TrR form; the tests
check it against the Ricci-only form.  Curvature, Ricci,
Weyl and Lie derivatives are `Tensor`s, and a vector field is a `Tensor` of
variance (up,).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import ConstructionError, DimensionError, ShapeError
from .poly import ZERO_POLY, as_poly, symbols_of
from .symbols import COORDINATE, FUNCTION, PARAMETER
from .tensor import DOWN, Tensor, UP, contract, symmetry_check


FIELD = (UP, DOWN, DOWN)


class Connection:
    """Ordered coordinates and the symmetric Christoffel table G^k_{ij}."""

    __slots__ = ("coords", "table")

    def __init__(self, coords, table):
        coords = tuple(coords)
        for pos, c in enumerate(coords):
            if c.kind != COORDINATE:
                raise ConstructionError(f"{c!r} is not a coordinate symbol")
            if c in coords[:pos]:
                raise ConstructionError(f"coordinate {c.name!r} is declared twice")
        shape = (len(coords), FIELD)
        if not isinstance(table, Tensor) or (table.dim, table.variance) != shape:
            raise ConstructionError("Christoffel table must be an n-dim (up, down, down) Tensor")
        if not symmetry_check(table, (1, 2), "symmetric"):
            raise ConstructionError(
                "Christoffel table not symmetric in its lower indices"
            )
        declared = {c.name for c in coords}
        for sym in symbols_of(table.entries):
            if sym.kind == COORDINATE and sym.name not in declared:
                raise ConstructionError(f"entry mentions undeclared coordinate {sym.name!r}")
            if sym.kind == FUNCTION and not declared.issuperset(sym.depends_on):
                raise ConstructionError(
                    f"function {sym.name!r} depends on coordinates outside this chart"
                )
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("Connection is immutable")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def gamma(self):
        """Read-only nested view of the table: gamma[k][i][j] is G^k_{ij}."""
        n, e = self.dim, self.table.entries
        rows = [e[r:r + n] for r in range(0, n**3, n)]
        return tuple(tuple(rows[k * n:(k + 1) * n]) for k in range(n))

    def coord_names(self):
        return [c.name for c in self.coords]

    def __eq__(self, other):
        if not isinstance(other, Connection):
            return NotImplemented
        return self.coords == other.coords and self.table == other.table

    def __hash__(self):
        return hash((self.coords, self.table))

    def nonzero_entries(self):
        """Nonzero (k, i, j) entries with i <= j."""
        for (k, i, j), g in zip(self.table.indices(), self.table.entries):
            if i <= j and g._terms:  # bool(g) would cost a Python call per entry
                yield (k, i, j), g


def from_table(coords, entries) -> Connection:
    """Build a connection from a partial table keyed by (k, i, j) indices.

    Missing entries are zero; an entry may be given in either lower-index
    order but conflicting values for (i, j) and (j, i) are rejected, and so
    is an index outside range(n).
    """
    coords = tuple(coords)
    n = len(coords)
    table = [None] * n**3
    for (k, i, j), value in entries.items():
        if not {k, i, j} <= set(range(n)):
            raise ConstructionError(f"index ({k}, {i}, {j}) outside range({n})")
        value = as_poly(value)
        for a, b in ((i, j), (j, i)):
            flat = (k * n + a) * n + b
            if table[flat] is not None and table[flat] != value:
                raise ConstructionError(
                    f"conflicting symmetric entries for ({k}, {i}, {j})"
                )
            table[flat] = value
    return Connection(
        coords, Tensor(n, FIELD, [ZERO_POLY if e is None else e for e in table])
    )


def from_named_table(coords, entries) -> Connection:
    """Same as from_table with 'k.i.j' coordinate-name keys."""
    coords = tuple(coords)
    index = {c.name: pos for pos, c in enumerate(coords)}
    resolved = {}
    for key, value in entries.items():
        parts = key.split(".")
        if len(parts) != 3:
            raise ConstructionError(f"gamma key {key!r} must look like k.i.j")
        try:
            resolved[tuple(index[p] for p in parts)] = value
        except KeyError:
            raise ConstructionError(f"unknown coordinate in gamma key {key!r}") from None
    return from_table(coords, resolved)


def curvature(c: Connection) -> Tensor:
    """Curvature tensor R^l_{ijk}, antisymmetric in (i, j)."""
    n = c.dim
    coords = c.coords
    # rows[m]: the nonzero G^m_{jk} with j <= k
    rows = [[] for _ in range(n)]
    for (m, j, k), g in c.nonzero_entries():
        rows[m].append((j, k, g))
    s = {}  # S^l_{ijk} for i != j; S^l_{iik} drops out of R

    def accumulate(l, i, j, k, value):
        # G^m_{jk} = G^m_{kj}, so each term lands on both lower orders
        for a, b in ((j, k), (k, j)) if j != k else ((j, k),):
            if a != i:
                cur = s.get((l, i, a, b))
                s[l, i, a, b] = value if cur is None else cur + value

    for l, row in enumerate(rows):
        for j, k, g in row:
            # d_i g vanishes unless g mentions x_i or a function of x_i
            reach = {name for sym in g.symbols() if sym.kind != PARAMETER
                     for name in sym.depends_on or (sym.name,)}
            for i, x in enumerate(coords):
                if x.name in reach:
                    d = g.diff(x)
                    if d._terms:  # see nonzero_entries
                        accumulate(l, i, j, k, d)
        for a, b, g in row:
            for i, m in ((a, b), (b, a)) if a != b else ((a, b),):
                for j, k, h in rows[m]:
                    accumulate(l, i, j, k, g * h)

    entries = [ZERO_POLY] * n**4
    for l, i, j, k in {(l, min(i, j), max(i, j), k) for l, i, j, k in s}:
        value = s.get((l, i, j, k), ZERO_POLY) - s.get((l, j, i, k), ZERO_POLY)
        if value._terms:  # see nonzero_entries
            entries[((l * n + i) * n + j) * n + k] = value
            entries[((l * n + j) * n + i) * n + k] = -value
    return Tensor(n, (UP, DOWN, DOWN, DOWN), entries)


def ricci(c: Connection) -> Tensor:
    """Ricci_{jk}: trace of xi -> R(xi, eta) nu."""
    return contract(curvature(c), 0, 1)


def trace_r(c: Connection) -> Tensor:
    """TrR_{ij}: trace of xi -> R(eta, nu) xi."""
    return contract(curvature(c), 0, 3)


def _weyl3_from(r: Tensor, ric: Tensor, trr: Tensor) -> Tensor:
    """W^l_{ijk} = R^l_{ijk} - d^l_k TrR_{ij}/4 - d^l_i H_{jk} + d^l_j H_{ik},
    with H = Ricci/2 + TrR/8, on flat offsets."""
    n = r.dim
    quarter = [x * Fraction(1, 4) for x in trr.entries]
    half = [a * Fraction(1, 2) + b * Fraction(1, 8) for a, b in zip(ric.entries, trr.entries)]
    entries = list(r.entries)
    for l, a, b in product(range(n), repeat=3):
        pair = a * n + b
        if quarter[pair]:  # l == k: (l, a, b, l)
            f = ((l * n + a) * n + b) * n + l
            entries[f] = entries[f] - quarter[pair]
        if half[pair]:  # l == i: (l, l, a, b), and l == j: (l, a, l, b)
            f = ((l * n + l) * n + a) * n + b
            entries[f] = entries[f] - half[pair]
            f = ((l * n + a) * n + l) * n + b
            entries[f] = entries[f] + half[pair]
    return Tensor(n, (UP, DOWN, DOWN, DOWN), entries)


def weyl3(c: Connection) -> Tensor:
    """Weyl projective tensor in dimension three, in its TrR form.

    The Ricci-only form agrees identically, since TrR(X,Y) = Ricci(Y,X) -
    Ricci(X,Y); the test suite recomputes it as a check on this one.
    """
    if c.dim != 3:
        raise DimensionError("the Weyl projective formula here is dimension 3 only")
    r = curvature(c)
    ric = contract(r, 0, 1)
    trr = contract(r, 0, 3)
    return _weyl3_from(r, ric, trr)


def lie_derivative(c: Connection, field: Tensor) -> Tensor:
    """Lie derivative of the connection along a vector field.

    Standard coordinate formula:

        (L_X G)^k_{ij} = d_i d_j X^k + X^m d_m G^k_{ij}
                         + G^k_{mj} d_i X^m + G^k_{im} d_j X^m
                         - G^m_{ij} d_m X^k

    It vanishes exactly when the field is an affine Killing field.
    """
    if field.dim != c.dim or field.variance != (UP,):
        raise ShapeError("vector field shape mismatch")
    n = c.dim
    g = c.table
    coords = c.coords
    dX = [
        [field[m].diff(coords[i]) for m in range(n)] for i in range(n)
    ]  # dX[i][m] = d_i X^m

    def entry(idx):
        k, i, j = idx
        value = field[k].diff(coords[j]).diff(coords[i])
        for m in range(n):
            value = value + field[m] * g[k, i, j].diff(coords[m])
            value = value + g[k, m, j] * dX[i][m] + g[k, i, m] * dX[j][m]
            value = value - g[m, i, j] * dX[m][k]
        return value

    return Tensor.from_function(n, FIELD, entry)
