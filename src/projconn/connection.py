"""Torsionfree affine connections as symmetric Christoffel tables.

A `Connection` is its coordinates, at most `MAX_DIM` of them, plus one
(up, down, down) `Tensor`, `table`, with table[k, i, j] = G^k_{ij}; `gamma`
is a read-only view of it as nested tuples gamma[k][i][j], sliced from the
dense `table.entries` view when read, the one reader of that view in `src/`.

Component conventions, fixed once and pinned by the golden tests:

    R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik}
                + sum_m (G^l_{im} G^m_{jk} - G^l_{jm} G^m_{ik})

    Ricci_{jk} = sum_i R^i_{ijk}        (trace over the first argument)
    TrR_{ij}   = sum_k R^k_{ijk}        (trace of Z -> R(X,Y)Z)

so R(X,Y)Z has components R^l_{XYZ}, TrR(X,Y) = Ricci(Y,X) - Ricci(X,Y)
holds identically, and a connection is equiaffine exactly when Ricci is
symmetric.  `curvature` evaluates R as S^l_{ijk} - S^l_{jik} with

    S^l_{ijk} = d_i G^l_{jk} + sum_m G^l_{im} G^m_{jk},

in one pass over the nonzero Christoffel entries, so every derivative and
every product is formed once and an empty entry costs nothing.  Each term of
D^2 S, D the lcm of the table's coefficient denominators, goes straight into
the Gaussian-integer accumulator (see `poly`) of R^l_{ijk} (with +) or of
R^l_{jik} (with -), whichever has its first two lower indices ascending, by a
plan of n^3 target lists cached per dimension; `curvature` settles each once
into R^l_{ijk} and R^l_{jik} = -R^l_{ijk}.  TrR = d(tr G) comes with the R
accumulators, from the derivative terms alone, since the products cancel
from it.  Neither `trace_r`, which settles those sums, nor `weyl3`, the Weyl
projective tensor for any n >= 3 in its TrR form, settles R: each W^l_{ijk},
i < j, is summed from the accumulators by one int-weighted plan per
dimension, P written out into every target, and only W is settled; the
tests check it against the Ricci-only form.
Curvature, Ricci, Weyl and Lie derivatives are `Tensor`s, and a vector field
is a `Tensor` of variance (up,).
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations, product

from .errors import ConstructionError, DimensionError, ShapeError
from .poly import (
    _add_multiple, _add_product, _check_degrees, _partials, _quotient, _scaled, as_poly, symbols_of)
from .symbols import COORDINATE, FUNCTION
from .tensor import DOWN, Tensor, UP, _flat, contract, symmetry_check


FIELD = (UP, DOWN, DOWN)
MAX_DIM = 12  # the offset maps cached by contract and symmetry_check hold up to n^4 entries


class Connection:
    """Ordered coordinates and the symmetric Christoffel table G^k_{ij}."""

    __slots__ = ("coords", "table")

    def __init__(self, coords, table):
        coords = tuple(coords)
        for c in coords:
            if c.kind != COORDINATE:
                raise ConstructionError(f"{c!r} is not a coordinate symbol")
        if len(set(coords)) != len(coords):
            twice = next(c for pos, c in enumerate(coords) if c in coords[:pos])
            raise ConstructionError(f"coordinate {twice.name!r} is declared twice")
        shape = (len(coords), FIELD)
        if not isinstance(table, Tensor) or (table.dim, table.variance) != shape:
            raise ConstructionError("Christoffel table must be an n-dim (up, down, down) Tensor")
        if table.dim > MAX_DIM:
            raise ConstructionError(f"a connection takes n <= {MAX_DIM}, got n = {table.dim}")
        if not symmetry_check(table, (1, 2)):
            raise ConstructionError(
                "Christoffel table not symmetric in its lower indices"
            )
        _check_chart({c.name for c in coords}, table._stored.values())
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


def _check_chart(declared, polys) -> None:
    """Refuse a coordinate, or a function of a coordinate, outside declared."""
    for sym in symbols_of(polys):
        if sym.kind == COORDINATE and sym.name not in declared:
            raise ConstructionError(f"entry mentions undeclared coordinate {sym.name!r}")
        if sym.kind == FUNCTION and not declared.issuperset(sym.depends_on):
            raise ConstructionError(
                f"function {sym.name!r} depends on coordinates outside this chart"
            )


def from_table(coords, entries) -> Connection:
    """Build a connection from a partial table keyed by (k, i, j) indices.

    Missing entries are zero; an entry may be given in either lower-index
    order but conflicting values for (i, j) and (j, i) are rejected, and so
    is an index outside range(n).
    """
    coords = tuple(coords)
    n = len(coords)
    table = {}  # flat offset -> value; Tensor drops the zero ones
    indices = range(n)
    for (k, i, j), value in entries.items():
        if k not in indices or i not in indices or j not in indices:
            raise ConstructionError(f"index ({k}, {i}, {j}) outside range({n})")
        value = as_poly(value)
        for flat in ((k * n + i) * n + j, (k * n + j) * n + i):
            held = table.setdefault(flat, value)
            if held is not value and held != value:
                raise ConstructionError(
                    f"conflicting symmetric entries for ({k}, {i}, {j})"
                )
    return Connection(coords, Tensor(n, FIELD, table))


@lru_cache(maxsize=MAX_DIM)  # one plan per dimension, n^3 entries
def _curvature_targets(n) -> tuple:
    """plan[(i n + j) n + k]: the (offset, sign) pairs, offset that of R^0_{abc} to be
    raised by l n^3, that a term of S^l_{ijk} adds to.  It is a term of S^l_{ikj}
    too, as G^m_{jk} = G^m_{kj}; S^l_{iab} adds to R^l_{iab} when i < a, subtracts
    from R^l_{aib} when a < i, and drops out when a == i."""
    plan = []
    for i, j, k in product(range(n), repeat=3):
        pairs = ((j, k), (k, j)) if j != k else ((j, k),)
        plan.append(tuple(((i * n + a) * n + b, 1) if i < a else ((a * n + i) * n + b, -1)
                          for a, b in pairs if a != i))
    return tuple(plan)


def _curvature_accumulators(c: Connection, trace=False) -> tuple:
    """(D, acc): D the lcm of the table's coefficient denominators, and acc a
    defaultdict from the offset of each R^l_{ijk}, i < j, to the accumulator of
    D^2 R^l_{ijk}, and, with trace, from ("T", i, j), i < j, to that of
    D^2 TrR_{ij}.  A derivative term of S is D d_i (D G), a product term
    (D G)(D G); TrR = d(tr G) takes the derivative terms alone, since the
    products cancel from it identically.  Every product monomial formed is held
    to MAX_DEGREE, also where it cancels or lands on no entry."""
    n = c.dim
    plan = _curvature_targets(n)
    stored = [(f, g) for f, g in c.table._stored.items() if f // n % n <= f % n]
    D, scaled = _scaled((f, g, 1) for f, g in stored)
    # rows[m]: the nonzero G^m_{jk} with j <= k, each with D G^m_{jk}
    rows = [[] for _ in range(n)]
    for f, g in stored:
        rows[f // (n * n)].append((f // n % n, f % n, g, scaled[f]))
    acc = defaultdict(dict)
    for l, row in enumerate(rows):
        base, lists = l * n**3, {}  # lists: f -> the accumulators, with signs, of plan[f]
        for j, k, g, dg in row:
            for i, d in _partials(g, dg, D, c.coords):
                for r, sign in plan[(i * n + j) * n + k]:
                    _add_multiple(acc[base + r], d, sign)
                    if trace and r % n == l:  # a term of TrR, which no product reaches
                        _add_multiple(acc["T", r // (n * n), r // n % n], d, sign)
        for a, b, _, dg in row:
            for i, m in ((a, b), (b, a)) if a != b else ((a, b),):
                for j, k, _, dh in rows[m]:
                    f = (i * n + j) * n + k
                    targets = lists.get(f)
                    if targets is None:
                        targets = lists[f] = [(acc[base + r], sign) for r, sign in plan[f]]
                    _add_product(targets, dg, dh)
    _check_degrees(chain.from_iterable(acc.values()))
    return D, acc


def _settled(n, acc, den, corrected=frozenset(), m=1) -> Tensor:
    """The tensor with entry (l, i, j, k), i < j, settled from acc at its flat offset
    over den, or over m * den for an offset in corrected, and entry (l, j, i, k) its
    negation; keys that are not ints are skipped."""
    memo, memo_m = {}, {}  # one per denominator, shared by every entry
    entries = {}  # flat offset -> entry; Tensor drops the zero ones
    for f, terms in acc.items():
        if terms and type(f) is int:
            i, j = f // (n * n) % n, f // n % n
            entries[f], entries[f + (j - i) * (n * n - n)] = (
                _quotient(terms, m * den, memo_m) if f in corrected else _quotient(terms, den, memo))
    return Tensor(n, (UP, DOWN, DOWN, DOWN), entries)


def curvature(c: Connection) -> Tensor:
    """Curvature tensor R^l_{ijk}, antisymmetric in (i, j)."""
    D, acc = _curvature_accumulators(c)
    return _settled(c.dim, acc, D * D)


def ricci(c: Connection) -> Tensor:
    """Ricci_{jk}: trace of xi -> R(xi, eta) nu."""
    return contract(curvature(c), 0, 1)


def trace_r(c: Connection) -> Tensor:
    """TrR_{ij}: trace of xi -> R(eta, nu) xi, settled from the D^2 TrR sums
    that come with the R accumulators, TrR_{ji} = -TrR_{ij}."""
    n = c.dim
    D, acc = _curvature_accumulators(c, trace=True)
    memo, entries = {}, {}  # entries: flat offset -> entry; Tensor drops the zero ones
    for i, j in combinations(range(n), 2):
        if terms := acc.get(("T", i, j)):
            entries[i * n + j], entries[j * n + i] = _quotient(terms, D * D, memo)
    return Tensor(n, (DOWN, DOWN), entries)


@lru_cache(maxsize=MAX_DIM)  # one plan per dimension
def _weyl_corrections(n) -> tuple:
    """((target, addends), ...): for each W^l_{ijk} with i < j and l in {i, j, k},
    the flat offset of (l, i, j, k) and the (source, weight) pairs, int
    weights, whose weighted sum over the accumulators is m D^2 W^l_{ijk},
    m = (n-1)(n+1).  A source is the offset of D^2 R^l_{ijk}, i < j, or
    ("T", i, j), i < j, for D^2 TrR_{ij}; m P_{jk} = (n+1) Ricci_{jk} + TrR_{jk}
    is written out into each target that reads it, coincident sources merged.
    Every other W^l_{ijk} is R^l_{ijk}."""
    m = (n - 1) * (n + 1)
    pairs = list(combinations(range(n), 2))
    P = {}  # (j, k) -> the addends of m P_{jk}
    for j, k in product(range(n), repeat=2):
        # Ricci_{jk} = sum_i R^i_{ijk}, and R^i_{ijk} = -R^i_{jik}
        addends = [(_flat(n, (i, i, j, k)), n + 1) if i < j
                   else (_flat(n, (i, j, i, k)), -n - 1) for i in range(n) if i != j]
        if j != k:
            addends.append((("T", j, k), 1) if j < k else (("T", k, j), -1))
        P[j, k] = addends
    steps = []
    for l, k, (i, j) in product(range(n), range(n), pairs):
        # m W^l_{ijk} = m R^l_{ijk} - (n-1) d^l_k TrR_{ij} - d^l_i m P_{jk} + d^l_j m P_{ik}
        if l not in (i, j, k):
            continue
        f = _flat(n, (l, i, j, k))
        weights = defaultdict(int, {f: m})  # source -> weight
        if l == k:
            weights["T", i, j] = 1 - n
        if l == i:
            for source, w in P[j, k]:
                weights[source] -= w
        if l == j:
            for source, w in P[i, k]:
                weights[source] += w
        steps.append((f, list(weights.items())))
    return tuple(steps)


def weyl3(c: Connection) -> Tensor:
    """Weyl projective tensor in any dimension n >= 3, in its TrR form.

    One pass: TrR comes with the unsettled R accumulators, from the
    derivative terms alone; each W^l_{ijk} with i < j that differs from
    R^l_{ijk} is summed from them by `_weyl_corrections` with int weights, P
    written out, and each W entry is settled once.  The Ricci-only form, with
    P = Ricci_sym/(n-1) + Ricci_alt/(n+1), agrees identically, since
    TrR(X,Y) = Ricci(Y,X) - Ricci(X,Y); the test suite recomputes it as a
    check on this one.  W = 0 is projective flatness for n >= 3; in dimension
    2 W vanishes identically, so n < 3 is refused.
    """
    n = c.dim
    if n < 3:
        raise DimensionError(f"the projective Weyl tensor needs dimension n >= 3, got n = {n}")
    D, acc = _curvature_accumulators(c, trace=True)
    W = {}  # apart from acc: a target reads R entries that other targets replace
    for target, addends in _weyl_corrections(n):
        terms = W[target] = {}
        for source, weight in addends:
            if src := acc.get(source):
                _add_multiple(terms, src, weight)
    acc.update(W)
    return _settled(n, acc, D * D, W, (n - 1) * (n + 1))


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

    entries = {}  # flat offset -> entry; Tensor drops the zero ones
    for f, (k, i, j) in enumerate(product(range(n), repeat=3)):
        value = field[k].diff(coords[j]).diff(coords[i])
        for m in range(n):
            value = value + field[m] * g[k, i, j].diff(coords[m])
            value = value + g[k, m, j] * dX[i][m] + g[k, i, m] * dX[j][m]
            value = value - g[m, i, j] * dX[m][k]
        entries[f] = value
    return Tensor(n, FIELD, entries)
