"""Named connection families and the abelian-fibration group action.

Families
--------
torus3          three-dimensional translation-invariant family with constant
                parameters A..E in coordinates (tau, z1, z2)
torus_n         its n-dimensional extension (n >= 4) whose restriction to
                {tau, z1, z2} is totally geodesic and equals torus3
kuga_shimura    the fibered family over a curve: coefficients are formal
                functions A(tau), B(tau) and, when the trace part is kept,
                C(tau)

Modular weights
---------------
The tau-dependent coefficients transform under gamma = (a b; c d) acting by
tau -> (a tau + b)/(c tau + d) with an automorphy factor fixed here as

    value(gamma tau) = (c tau + d)^(2w) * value(tau)

with weight w = 3/2 for A and B and w = 1 for C.  The exponent convention
(2w, not w) is pinned by the golden checks: the order-4 element (0,-1,1,0)
leaves the family invariant exactly for the cube factor on A and B.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .connection import Connection, from_named_table, totally_geodesic_restrict
from .errors import ConsistencyError, ConstructionError, PoleError, ShapeError
from .poly import as_poly
from .projective import theta_of
from .rational import GaussianRational, ONE, ZERO, as_gaussian
from .symbols import FUNCTION, PARAMETER, SymbolTable, Symbol, parameter
from .tensor import Tensor

_ALLOWED_WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))


def _torus_symbols(names=("A", "B", "C", "D", "E")):
    return {n: parameter(n) for n in names}


def torus_coords():
    table = SymbolTable()
    return tuple(table.coordinate(n) for n in ("tau", "z1", "z2"))


def torus3(A=None, B=None, C=None, D=None, E=None) -> Connection:
    """The constant-coefficient family on coordinates (tau, z1, z2).

    Arguments default to the parameter symbols A..E; passing constants or
    polynomials specializes the family.  Nonzero symmetric entries:

        G^z1_{tt} = A     G^z2_{tt} = B
        G^z1_{z1 z1} = C  G^t_{t z1} = C/2  G^z1_{z1 z2} = C/2
        G^z2_{z2 z2} = D  G^t_{t z2} = D/2  G^z2_{z1 z2} = D/2
        G^t_{tt} = E      G^z1_{z1 t} = E/2 G^z2_{z2 t} = E/2
    """
    syms = _torus_symbols()
    A = as_poly(syms["A"] if A is None else A)
    B = as_poly(syms["B"] if B is None else B)
    C = as_poly(syms["C"] if C is None else C)
    D = as_poly(syms["D"] if D is None else D)
    E = as_poly(syms["E"] if E is None else E)
    coords = torus_coords()
    half = Fraction(1, 2)
    return from_named_table(
        coords,
        {
            "z1.tau.tau": A,
            "z2.tau.tau": B,
            "z1.z1.z1": C,
            "tau.tau.z1": C * half,
            "z1.z1.z2": C * half,
            "z2.z2.z2": D,
            "tau.tau.z2": D * half,
            "z2.z1.z2": D * half,
            "tau.tau.tau": E,
            "z1.z1.tau": E * half,
            "z2.z2.tau": E * half,
        },
    )


def torus_n(n: int, A=None, B=None, C=None, D=None, E=None) -> Connection:
    """The n-dimensional extension, n >= 4; extra coordinates z4..zn carry
    only trivial symbols, so {tau, z1, z2} is totally geodesic."""
    if n < 4:
        raise ConstructionError("torus_n needs n >= 4; use torus3 below that")
    base = torus3(A, B, C, D, E)
    table = SymbolTable()
    names = ["tau", "z1", "z2"] + [f"z{i}" for i in range(4, n + 1)]
    coords = tuple(table.coordinate(name) for name in names)
    entries = {}
    for (k, i, j), value in base.nonzero_entries():
        key = f"{base.coords[k].name}.{base.coords[i].name}.{base.coords[j].name}"
        entries[key] = value
    return from_named_table(coords, entries)


def restrict_to_torus3(c: Connection) -> Connection:
    return totally_geodesic_restrict(c, ("tau", "z1", "z2"))


def kuga_shimura(with_trace: bool) -> Connection:
    """Fibered family with formal coefficients A(tau), B(tau) and optionally
    the trace part C(tau)."""
    table = SymbolTable()
    coords = tuple(table.coordinate(name) for name in ("tau", "z1", "z2"))
    A = table.function("A", ("tau",))
    B = table.function("B", ("tau",))
    entries = {"z1.tau.tau": as_poly(A), "z2.tau.tau": as_poly(B)}
    if with_trace:
        C = as_poly(table.function("C", ("tau",)))
        half = Fraction(1, 2)
        entries["tau.tau.tau"] = C
        entries["z1.z1.tau"] = C * half
        entries["z2.z2.tau"] = C * half
    return from_named_table(coords, entries)


def kuga_shimura_theta(with_trace: bool) -> Tensor:
    return theta_of(kuga_shimura(with_trace))


class WeightedCoefficient:
    """A tau-dependent coefficient together with its modular weight."""

    __slots__ = ("symbol", "weight")

    def __init__(self, symbol: Symbol, weight):
        weight = Fraction(weight)
        if weight not in _ALLOWED_WEIGHTS:
            raise ConstructionError(f"unsupported weight {weight}")
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, name, value):
        raise AttributeError("WeightedCoefficient is immutable")

    def automorphy_exponent(self) -> int:
        """Integer exponent 2w of the factor (c tau + d)."""
        return int(self.weight * 2)


def kuga_shimura_coefficients(with_trace: bool = True):
    """The weighted coefficients of the fibered family."""
    conn = kuga_shimura(with_trace)
    by_name = {}
    for (_, _, _), value in conn.nonzero_entries():
        for sym in value.symbols():
            by_name.setdefault(sym.name, sym.base())
    weights = {"A": Fraction(3, 2), "B": Fraction(3, 2), "C": Fraction(1)}
    return tuple(
        WeightedCoefficient(by_name[n], weights[n]) for n in sorted(by_name)
    )


class GroupElement:
    """Pair (gamma, lambda): gamma = (a b; c d) with ad - bc = 1 and a
    translation part lambda = (m, n, k, l)."""

    __slots__ = ("a", "b", "c", "d", "m", "n", "k", "l")

    def __init__(self, a, b, c, d, m=0, n=0, k=0, l=0):
        values = [as_gaussian(v) for v in (a, b, c, d, m, n, k, l)]
        a, b, c, d = values[:4]
        if a * d - b * c != ONE:
            raise ConstructionError("determinant ad - bc must equal 1")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def is_identity(self) -> bool:
        return (
            self.a.is_one()
            and self.d.is_one()
            and all(v.is_zero() for v in (self.b, self.c, self.m, self.n, self.k, self.l))
        )

    def __repr__(self):
        return (
            f"GroupElement(gamma=({self.a},{self.b},{self.c},{self.d}), "
            f"lambda=({self.m},{self.n},{self.k},{self.l}))"
        )


class ActionMap:
    """Action of one group element on points (tau, z1, z2):

        (tau, z1, z2) -> ((a tau + b)/(c tau + d),
                          (z1 + m tau + n)/(c tau + d),
                          (z2 + k tau + l)/(c tau + d))

    Supports exact point evaluation and the exact Jacobian matrix."""

    __slots__ = ("g",)

    def __init__(self, g: GroupElement):
        object.__setattr__(self, "g", g)

    def __setattr__(self, name, value):
        raise AttributeError("ActionMap is immutable")

    def _denominator(self, tau: GaussianRational) -> GaussianRational:
        den = self.g.c * tau + self.g.d
        if den.is_zero():
            raise PoleError(f"pole of the action at tau = {tau}")
        return den

    def apply(self, point):
        tau, z1, z2 = (as_gaussian(p) for p in point)
        g = self.g
        den = self._denominator(tau)
        return (
            (g.a * tau + g.b) / den,
            (z1 + g.m * tau + g.n) / den,
            (z2 + g.k * tau + g.l) / den,
        )

    def jacobian(self, point):
        """Rows are differentials of the image coordinates:

            d tau' = d tau / (c tau + d)^2
            d z1'  = d z1 / (c tau + d) - (c z1 - m d + n c)/(c tau + d)^2 d tau
            d z2'  = d z2 / (c tau + d) - (c z2 - k d + l c)/(c tau + d)^2 d tau
        """
        tau, z1, z2 = (as_gaussian(p) for p in point)
        g = self.g
        den = self._denominator(tau)
        den2 = den * den
        inv2 = den2.inverse()
        inv1 = den.inverse()
        row_tau = (inv2, ZERO, ZERO)
        row_z1 = (-(g.c * z1 - g.m * g.d + g.n * g.c) * inv2, inv1, ZERO)
        row_z2 = (-(g.c * z2 - g.k * g.d + g.l * g.c) * inv2, ZERO, inv1)
        return (row_tau, row_z1, row_z2)


def action_map(g: GroupElement) -> ActionMap:
    return ActionMap(g)


def _invert3(m):
    """Exact inverse of a 3x3 matrix over Q(i) (adjugate / determinant)."""
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det.is_zero():
        raise ShapeError("singular Jacobian")
    inv_det = det.inverse()
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(x * inv_det for x in row) for row in adj)


def _field_value_bindings(field: Tensor, point, coeff_values, tau):
    """Point bindings for every symbol occurring in the field's entries."""
    bindings = {}
    for c, v in zip(torus_coords(), point):
        bindings[c] = as_gaussian(v)
    for entry in field.entries:
        for sym in entry.symbols():
            if sym in bindings:
                continue
            if sym.kind == FUNCTION:
                if sym.is_derived():
                    raise ConsistencyError(
                        f"field entries may not contain derivatives ({sym})"
                    )
                values = coeff_values.get(sym.name)
                if values is None or tau not in values:
                    raise ConsistencyError(
                        f"no value supplied for {sym.name} at tau = {tau}"
                    )
                bindings[sym] = as_gaussian(values[tau])
            elif sym.kind == PARAMETER:
                raise ConsistencyError(f"parameter {sym.name} has no assigned value")
    return bindings


def _evaluate_field(field: Tensor, point, coeff_values, tau):
    bindings = _field_value_bindings(field, point, coeff_values, tau)
    n = field.dim
    return [
        [[field[k, i, j].evaluate(bindings) for j in range(n)] for i in range(n)]
        for k in range(n)
    ]


def check_weight_rule(g: GroupElement, tau, coeff_values, weights) -> None:
    """Validate value(gamma tau) = (c tau + d)^(2w) value(tau) at one point."""
    tau = as_gaussian(tau)
    den = g.c * tau + g.d
    if den.is_zero():
        raise PoleError(f"pole of the action at tau = {tau}")
    image = (g.a * tau + g.b) / den
    for coeff in weights:
        values = coeff_values.get(coeff.symbol.name)
        if values is None:
            raise ConsistencyError(f"no values supplied for {coeff.symbol.name}")
        if tau not in values or image not in values:
            raise ConsistencyError(
                f"{coeff.symbol.name} needs values at both tau = {tau} and its image"
            )
        expected = den ** coeff.automorphy_exponent() * as_gaussian(values[tau])
        if as_gaussian(values[image]) != expected:
            raise ConsistencyError(
                f"{coeff.symbol.name} violates the weight-{coeff.weight} rule at tau = {tau}"
            )


def invariance_check(
    field: Tensor,
    g: GroupElement,
    points,
    coeff_values,
    weights=None,
) -> bool:
    """Exact pointwise invariance of the field under one group element.

    coeff_values maps a coefficient name to {tau value: coefficient value},
    supplying each weighted coefficient at both tau and its image; the
    weight rule is validated first.  Returns True when the pullback of the
    field through the action equals the field at every supplied point.
    """
    if weights is None:
        weights = kuga_shimura_coefficients()
        weights = tuple(
            w for w in weights if any(w.symbol.name == n for n in coeff_values)
        )
    amap = action_map(g)
    n = field.dim
    if n != 3:
        raise ShapeError("the action is defined on three coordinates")
    for point in points:
        point = tuple(as_gaussian(p) for p in point)
        tau = point[0]
        check_weight_rule(g, tau, coeff_values, weights)
        image = amap.apply(point)
        jac = amap.jacobian(point)
        jac_inv = _invert3(jac)
        at_image = _evaluate_field(field, image, coeff_values, image[0])
        at_point = _evaluate_field(field, point, coeff_values, tau)
        for k, i, j in product(range(n), repeat=3):
            pulled = ZERO
            for kp, ip, jp in product(range(n), repeat=3):
                value = at_image[kp][ip][jp]
                if value.is_zero():
                    continue
                pulled = pulled + jac_inv[k][kp] * value * jac[ip][i] * jac[jp][j]
            if pulled != at_point[k][i][j]:
                return False
    return True


def orbit_safe_points(g: GroupElement, count: int, rng, span=6, max_den=4):
    """Random exact points whose tau values leave the weight rule free.

    Skips poles, tau values fixed by the action with a nontrivial
    automorphy factor, and tau values colliding with another sample's
    image (both would constrain otherwise arbitrary coefficient values).
    """
    from fractions import Fraction as _F

    def draw():
        return _F(rng.randint(-span, span), rng.randint(1, max_den))

    points = []
    taus = set()
    images = set()
    while len(points) < count:
        tau = GaussianRational(draw(), draw())
        if tau in taus:
            continue
        den = g.c * tau + g.d
        if den.is_zero():
            continue
        image = (g.a * tau + g.b) / den
        if image == tau and den != ONE:
            continue
        if image != tau and (image in taus or tau in images):
            continue
        images.add(image)
        taus.add(tau)
        points.append(
            (tau, GaussianRational(draw(), draw()), GaussianRational(draw(), draw()))
        )
    return points


def transported_values(g: GroupElement, points, base_values, weights=None):
    """Build a coefficient assignment satisfying the weight rule.

    base_values maps coefficient name -> {tau: value at tau}; the value at
    each image point gamma(tau) is filled in by the transport rule."""
    if weights is None:
        weights = kuga_shimura_coefficients()
    by_name = {w.symbol.name: w for w in weights}
    out = {name: dict(vals) for name, vals in base_values.items()}
    for point in points:
        tau = as_gaussian(point[0])
        den = g.c * tau + g.d
        if den.is_zero():
            raise PoleError(f"pole of the action at tau = {tau}")
        image = (g.a * tau + g.b) / den
        for name, values in out.items():
            if tau not in values:
                raise ConsistencyError(f"missing base value of {name} at tau = {tau}")
            coeff = by_name.get(name)
            if coeff is None:
                raise ConsistencyError(f"no weight declared for {name}")
            transported = den ** coeff.automorphy_exponent() * as_gaussian(values[tau])
            existing = values.get(image)
            if existing is not None and as_gaussian(existing) != transported:
                raise ConsistencyError(
                    f"conflicting value for {name} at tau = {image}"
                )
            values[image] = transported
    return out
