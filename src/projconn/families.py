"""Named connection families and the abelian-fibration group action.

Families
--------
torus3          three-dimensional translation-invariant family with constant
                parameters A..E in coordinates (tau, z1, z2)
torus_n         its n-dimensional extension (4 <= n <= connection.MAX_DIM) whose
                restriction to {tau, z1, z2} is totally geodesic and equals
                torus3
kuga_shimura    the fibered family over a curve: coefficients are formal
                functions A(tau), B(tau) and, when the trace part is kept,
                C(tau)

Modular weights
---------------
The tau-dependent coefficients transform under gamma = (a b; c d) acting by
tau -> (a tau + b)/(c tau + d) with an automorphy factor fixed here as

    value(gamma tau) = (c tau + d)^(2w) * value(tau)

with weight w = 3/2 for A and B and w = 1 for C (_KUGA_SHIMURA_WEIGHTS);
invariance_check derives every value at an image point from this rule.
The exponent convention (2w, not w) is pinned by the golden checks: the
order-4 element (0,-1,1,0) leaves the family invariant exactly for the
cube factor on A and B.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .connection import MAX_DIM, Connection, _check_chart, from_table
from .errors import ConsistencyError, ConstructionError, PoleError, ShapeError
from .poly import as_poly
from .rational import GaussianRational, ONE, ZERO, as_gaussian
from .symbols import FUNCTION, coordinate, function, parameter
from .tensor import Tensor

_KUGA_SHIMURA_WEIGHTS = {"A": Fraction(3, 2), "B": Fraction(3, 2), "C": Fraction(1)}
SPAN, MAX_DEN = 6, 4  # the sample lattice of random_rational: 33 values, 1,089 candidate tau


@lru_cache(maxsize=1)
def _torus_symbols() -> tuple:
    """The coordinates tau, z1, z2, z4..z{MAX_DIM} and the parameters A..E as
    polynomials, built once per process for every torus family to share."""
    names = ("tau", "z1", "z2", *(f"z{i}" for i in range(4, MAX_DIM + 1)))
    return tuple(map(coordinate, names)), tuple(as_poly(parameter(p)) for p in "ABCDE")


def torus_coords():
    return _torus_symbols()[0][:3]


def _torus_table(*values) -> dict:
    """The torus3 table of A..E (None: the parameter), with tau, z1, z2 = 0, 1, 2."""
    A, B, C, D, E = (p if v is None else as_poly(v) for p, v in zip(_torus_symbols()[1], values))
    half = Fraction(1, 2)
    return {
        (1, 0, 0): A,
        (2, 0, 0): B,
        (1, 1, 1): C,
        (0, 0, 1): C * half,
        (1, 1, 2): C * half,
        (2, 2, 2): D,
        (0, 0, 2): D * half,
        (2, 1, 2): D * half,
        (0, 0, 0): E,
        (1, 1, 0): E * half,
        (2, 2, 0): E * half,
    }


def torus3(A=None, B=None, C=None, D=None, E=None) -> Connection:
    """The constant-coefficient family on coordinates (tau, z1, z2).

    Arguments default to the parameter symbols A..E; passing constants or
    polynomials specializes the family.  Nonzero symmetric entries:

        G^z1_{tt} = A     G^z2_{tt} = B
        G^z1_{z1 z1} = C  G^t_{t z1} = C/2  G^z1_{z1 z2} = C/2
        G^z2_{z2 z2} = D  G^t_{t z2} = D/2  G^z2_{z1 z2} = D/2
        G^t_{tt} = E      G^z1_{z1 t} = E/2 G^z2_{z2 t} = E/2
    """
    return from_table(torus_coords(), _torus_table(A, B, C, D, E))


def torus_n(n: int, A=None, B=None, C=None, D=None, E=None) -> Connection:
    """The n-dimensional extension, 4 <= n <= MAX_DIM; extra coordinates
    z4..zn carry only trivial symbols, so {tau, z1, z2} is totally geodesic."""
    if n < 4:
        raise ConstructionError("torus_n needs n >= 4; use torus3 below that")
    if n > MAX_DIM:  # before any symbol is built
        raise ConstructionError(f"torus_n takes n <= {MAX_DIM}")
    table = _torus_table(A, B, C, D, E)
    _check_chart({"tau", "z1", "z2"}, table.values())  # as torus3 would: nothing on z4..zn
    return from_table(_torus_symbols()[0][:n], table)


def kuga_shimura(with_trace: bool) -> Connection:
    """Fibered family on (tau, z1, z2) = (0, 1, 2) with formal coefficients
    A(tau), B(tau) and optionally the trace part C(tau)."""
    A, B, C = (as_poly(function(n, ("tau",))) for n in "ABC")
    entries = {(1, 0, 0): A, (2, 0, 0): B}
    if with_trace:
        half = Fraction(1, 2)
        entries[0, 0, 0] = C
        entries[1, 1, 0] = C * half
        entries[2, 2, 0] = C * half
    return from_table(torus_coords(), entries)


class GroupElement(namedtuple("GroupElement", "a b c d m n k l")):
    """Pair (gamma, lambda): gamma = (a b; c d) with ad - bc = 1 and a
    translation part lambda = (m, n, k, l), acting on points (tau, z1, z2) by

        (tau, z1, z2) -> ((a tau + b)/(c tau + d),
                          (z1 + m tau + n)/(c tau + d),
                          (z2 + k tau + l)/(c tau + d))
    """

    __slots__ = ()

    def __new__(cls, a, b, c, d, m=0, n=0, k=0, l=0):
        values = [as_gaussian(v) for v in (a, b, c, d, m, n, k, l)]
        a, b, c, d = values[:4]
        if a * d - b * c != ONE:
            raise ConstructionError("determinant ad - bc must equal 1")
        return super().__new__(cls, *values)

    def __repr__(self):
        return (
            f"GroupElement(gamma=({self.a},{self.b},{self.c},{self.d}), "
            f"lambda=({self.m},{self.n},{self.k},{self.l}))"
        )

    def moebius(self, tau) -> tuple:
        """(c tau + d, gamma tau); PoleError where c tau + d vanishes."""
        tau = as_gaussian(tau)
        den = self.c * tau + self.d
        if den.is_zero():
            raise PoleError(f"pole of the action at tau = {tau}")
        return den, (self.a * tau + self.b) / den

    def apply(self, point):
        """Exact image of one point (tau, z1, z2)."""
        tau, z1, z2 = (as_gaussian(p) for p in point)
        den, image = self.moebius(tau)
        return (
            image,
            (z1 + self.m * tau + self.n) / den,
            (z2 + self.k * tau + self.l) / den,
        )

    def jacobian(self, point):
        """(J, J^-1) at one point.  Rows of J are differentials of the image
        coordinates, with u = c z1 - m d + n c and v = c z2 - k d + l c:

            d tau' = d tau / (c tau + d)^2
            d z1'  = d z1 / (c tau + d) - u/(c tau + d)^2 d tau
            d z2'  = d z2 / (c tau + d) - v/(c tau + d)^2 d tau

        J is lower triangular, so J^-1 has the closed form below.
        """
        tau, z1, z2 = (as_gaussian(p) for p in point)
        den, _ = self.moebius(tau)
        u = self.c * z1 - self.m * self.d + self.n * self.c
        v = self.c * z2 - self.k * self.d + self.l * self.c
        inv1 = den.inverse()
        inv2 = inv1 * inv1
        jac = ((inv2, ZERO, ZERO), (-u * inv2, inv1, ZERO), (-v * inv2, ZERO, inv1))
        jac_inv = ((den * den, ZERO, ZERO), (u * den, den, ZERO), (v * den, ZERO, den))
        return jac, jac_inv


def _field_values(field: Tensor, bindings) -> dict:
    """The field's nonzero values under bindings, keyed by index."""
    found = {idx: entry.evaluate(bindings) for idx, entry in field.items()}
    return {idx: value for idx, value in found.items() if not value.is_zero()}


def invariance_check(field: Tensor, g: GroupElement, points, coeff_values) -> bool:
    """Exact pointwise invariance of the field under one group element.

    coeff_values maps a coefficient name to {tau value: coefficient value}
    at the tau of each point; the value at the image gamma tau follows from
    the weight rule value(gamma tau) = (c tau + d)^(2w) value(tau), with w
    read from _KUGA_SHIMURA_WEIGHTS.  Returns True when the pullback of the
    field through the action equals the field at every point.
    """
    if field.dim != 3:
        raise ShapeError("the action is defined on three coordinates")
    coords = torus_coords()
    exponents = {}  # function symbol -> 2w; evaluate refuses any other symbol
    for _, entry in field.items():
        for sym in entry.symbols():
            if sym.kind == FUNCTION and not sym.is_derived() and sym not in exponents:
                weight = _KUGA_SHIMURA_WEIGHTS.get(sym.name)
                if weight is None:
                    raise ConsistencyError(f"no weight declared for {sym.name}")
                exponents[sym] = int(2 * weight)
    for point in points:
        point = tuple(as_gaussian(p) for p in point)
        tau = point[0]
        den, _ = g.moebius(tau)
        here = dict(zip(coords, point))
        there = dict(zip(coords, g.apply(point)))
        for sym, exponent in exponents.items():
            value = coeff_values.get(sym.name, {}).get(tau)
            if value is None:
                raise ConsistencyError(f"no value supplied for {sym.name} at tau = {tau}")
            here[sym] = as_gaussian(value)
            there[sym] = den ** exponent * here[sym]
        jac, jac_inv = g.jacobian(point)
        # J and J^-1 are lower triangular: skip their zero factors
        inv_rows = [[(kp, a) for kp, a in enumerate(row) if not a.is_zero()] for row in jac_inv]
        jac_cols = [
            [(ip, row[i]) for ip, row in enumerate(jac) if not row[i].is_zero()] for i in range(3)
        ]
        at_image = _field_values(field, there)
        at_point = _field_values(field, here)
        for k, i, j in field.indices():
            pulled = ZERO
            for kp, a in inv_rows[k]:
                for ip, b in jac_cols[i]:
                    for jp, c in jac_cols[j]:
                        value = at_image.get((kp, ip, jp))
                        if value is not None:
                            pulled = pulled + a * value * b * c
            if pulled != at_point.get((k, i, j), ZERO):
                return False
    return True


def random_rational(rng) -> Fraction:
    """A random rational num/den with |num| <= SPAN and 1 <= den <= MAX_DEN."""
    return Fraction(rng.randint(-SPAN, SPAN), rng.randint(1, MAX_DEN))


def orbit_safe_points(g: GroupElement, count: int, rng):
    """count random exact points (tau, z1, z2) with distinct tau, none at a
    pole of the action.

    The real and imaginary part of each coordinate is a random_rational.
    Distinct tau give each point its own coefficient values.  A rejected
    tau stays rejected, so once every candidate tau has been drawn and
    fewer than count are accepted, ConsistencyError is raised.
    """

    def draw():
        return GaussianRational(random_rational(rng), random_rational(rng))

    rationals = {Fraction(a, b) for a in range(-SPAN, SPAN + 1) for b in range(1, MAX_DEN + 1)}
    candidates = len(rationals) ** 2
    points = []
    tried = set()
    while len(points) < count:
        if len(tried) == candidates:
            raise ConsistencyError(
                f"only {len(points)} of {count} points: every one of the "
                f"{candidates} candidate tau values has been tried"
            )
        tau = draw()
        if tau in tried:
            continue
        tried.add(tau)
        try:
            g.moebius(tau)
        except PoleError:
            continue
        points.append((tau, draw(), draw()))
    return points
