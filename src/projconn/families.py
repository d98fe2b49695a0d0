"""Named connection families and the abelian-fibration group action.

Families
--------
torus3          three-dimensional translation-invariant family with constant
                parameters A..E in coordinates (tau, z1, z2)
torus_n         its n-dimensional extension (4 <= n <= MAX_TORUS_DIM) whose
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

with weight w = 3/2 for A and B and w = 1 for C.  The exponent convention
(2w, not w) is pinned by the golden checks: the order-4 element (0,-1,1,0)
leaves the family invariant exactly for the cube factor on A and B.
"""

from __future__ import annotations

from fractions import Fraction

from .connection import Connection, from_named_table, from_table
from .errors import ConsistencyError, ConstructionError, PoleError, ShapeError
from .poly import as_poly
from .rational import GaussianRational, ONE, ZERO, as_gaussian
from .symbols import FUNCTION, Symbol, coordinate, function, parameter
from .tensor import Tensor

_ALLOWED_WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
_KUGA_SHIMURA_WEIGHTS = {"A": Fraction(3, 2), "B": Fraction(3, 2), "C": Fraction(1)}

MAX_TORUS_DIM = 12  # curvature has n^4 entries: about 1.1 ms at n = 12


def torus_coords():
    return tuple(coordinate(n) for n in ("tau", "z1", "z2"))


def torus3(A=None, B=None, C=None, D=None, E=None) -> Connection:
    """The constant-coefficient family on coordinates (tau, z1, z2).

    Arguments default to the parameter symbols A..E; passing constants or
    polynomials specializes the family.  Nonzero symmetric entries:

        G^z1_{tt} = A     G^z2_{tt} = B
        G^z1_{z1 z1} = C  G^t_{t z1} = C/2  G^z1_{z1 z2} = C/2
        G^z2_{z2 z2} = D  G^t_{t z2} = D/2  G^z2_{z1 z2} = D/2
        G^t_{tt} = E      G^z1_{z1 t} = E/2 G^z2_{z2 t} = E/2
    """
    A = as_poly(parameter("A") if A is None else A)
    B = as_poly(parameter("B") if B is None else B)
    C = as_poly(parameter("C") if C is None else C)
    D = as_poly(parameter("D") if D is None else D)
    E = as_poly(parameter("E") if E is None else E)
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
    """The n-dimensional extension, 4 <= n <= MAX_TORUS_DIM; extra coordinates
    z4..zn carry only trivial symbols, so {tau, z1, z2} is totally geodesic."""
    if n < 4:
        raise ConstructionError("torus_n needs n >= 4; use torus3 below that")
    if n > MAX_TORUS_DIM:
        raise ConstructionError(f"torus_n takes n <= {MAX_TORUS_DIM}")
    base = torus3(A, B, C, D, E)
    names = ["tau", "z1", "z2"] + [f"z{i}" for i in range(4, n + 1)]
    coords = tuple(coordinate(name) for name in names)
    return from_table(coords, dict(base.nonzero_entries()))


def kuga_shimura(with_trace: bool) -> Connection:
    """Fibered family with formal coefficients A(tau), B(tau) and optionally
    the trace part C(tau)."""
    A, B, C = (as_poly(function(n, ("tau",))) for n in "ABC")
    entries = {"z1.tau.tau": A, "z2.tau.tau": B}
    if with_trace:
        half = Fraction(1, 2)
        entries["tau.tau.tau"] = C
        entries["z1.z1.tau"] = C * half
        entries["z2.z2.tau"] = C * half
    return from_named_table(torus_coords(), entries)


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

    def transport(self, den: GaussianRational, value) -> GaussianRational:
        """The value at gamma tau: (c tau + d)^(2w) * value(tau)."""
        return den ** int(self.weight * 2) * as_gaussian(value)


def kuga_shimura_coefficients(with_trace: bool = True):
    """The weighted coefficients of the fibered family."""
    names = "ABC" if with_trace else "AB"
    return tuple(
        WeightedCoefficient(function(n, ("tau",)), _KUGA_SHIMURA_WEIGHTS[n]) for n in names
    )


class GroupElement:
    """Pair (gamma, lambda): gamma = (a b; c d) with ad - bc = 1 and a
    translation part lambda = (m, n, k, l), acting on points (tau, z1, z2) by

        (tau, z1, z2) -> ((a tau + b)/(c tau + d),
                          (z1 + m tau + n)/(c tau + d),
                          (z2 + k tau + l)/(c tau + d))
    """

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


def _field_values(field: Tensor, coords, functions, point, coeff_values):
    """The field's entries at one point (tau, z1, z2), flat in
    field.indices() order; function symbols take their values at tau."""
    tau = point[0]
    bindings = dict(zip(coords, point))
    for sym in functions:
        values = coeff_values.get(sym.name)
        if values is None or tau not in values:
            raise ConsistencyError(f"no value supplied for {sym.name} at tau = {tau}")
        bindings[sym] = as_gaussian(values[tau])
    return [entry.evaluate(bindings) for entry in field.entries]


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
    weight rule value(gamma tau) = (c tau + d)^(2w) value(tau) is validated
    first.  Returns True when the pullback of the field through the action
    equals the field at every supplied point.
    """
    if weights is None:
        weights = tuple(
            w for w in kuga_shimura_coefficients() if w.symbol.name in coeff_values
        )
    if field.dim != 3:
        raise ShapeError("the action is defined on three coordinates")
    coords = torus_coords()
    functions = []  # bound at each point; evaluate refuses any other symbol
    for entry in field.entries:
        for sym in entry.symbols():
            if sym.kind == FUNCTION and not sym.is_derived() and sym not in functions:
                functions.append(sym)
    indices = list(field.indices())
    for point in points:
        point = tuple(as_gaussian(p) for p in point)
        tau = point[0]
        den, image_tau = g.moebius(tau)
        for coeff in weights:
            name = coeff.symbol.name
            values = coeff_values.get(name)
            if values is None:
                raise ConsistencyError(f"no values supplied for {name}")
            if tau not in values or image_tau not in values:
                raise ConsistencyError(
                    f"{name} needs values at both tau = {tau} and its image"
                )
            if as_gaussian(values[image_tau]) != coeff.transport(den, values[tau]):
                raise ConsistencyError(
                    f"{name} violates the weight-{coeff.weight} rule at tau = {tau}"
                )
        jac, jac_inv = g.jacobian(point)
        # J and J^-1 are lower triangular: skip their zero factors
        inv_rows = [[(kp, a) for kp, a in enumerate(row) if not a.is_zero()] for row in jac_inv]
        jac_cols = [
            [(ip, row[i]) for ip, row in enumerate(jac) if not row[i].is_zero()] for i in range(3)
        ]
        at_image = _field_values(field, coords, functions, g.apply(point), coeff_values)
        at_point = _field_values(field, coords, functions, point, coeff_values)
        for expected, (k, i, j) in zip(at_point, indices):
            pulled = ZERO
            for kp, a in inv_rows[k]:
                for ip, b in jac_cols[i]:
                    for jp, c in jac_cols[j]:
                        value = at_image[9 * kp + 3 * ip + jp]
                        if value.is_zero():
                            continue
                        pulled = pulled + a * value * b * c
            if pulled != expected:
                return False
    return True


def random_rational(rng, span=6, max_den=4) -> Fraction:
    """A random rational num/den with |num| <= span and 1 <= den <= max_den."""
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def orbit_safe_points(g: GroupElement, count: int, rng, span=6, max_den=4):
    """Random exact points whose tau values leave the weight rule free.

    Skips poles, tau values fixed by the action with a nontrivial
    automorphy factor, and tau values colliding with another sample's
    image (both would constrain otherwise arbitrary coefficient values).
    A rejected tau stays rejected, so once every candidate tau has been
    drawn and fewer than count are accepted, ConsistencyError is raised.
    """

    def draw():
        return GaussianRational(
            random_rational(rng, span, max_den), random_rational(rng, span, max_den)
        )

    rationals = {Fraction(a, b) for a in range(-span, span + 1) for b in range(1, max_den + 1)}
    candidates = len(rationals) ** 2
    points = []
    taus = set()
    images = set()
    tried = set()
    while len(points) < count:
        if len(tried) == candidates:
            raise ConsistencyError(
                f"only {len(points)} of {count} points: every one of the "
                f"{candidates} candidate tau values has been tried"
            )
        tau = draw()
        tried.add(tau)
        if tau in taus:
            continue
        try:
            den, image = g.moebius(tau)
        except PoleError:
            continue
        if image == tau and den != ONE:
            continue
        if image != tau and (image in taus or tau in images):
            continue
        images.add(image)
        taus.add(tau)
        points.append((tau, draw(), draw()))
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
        den, image = g.moebius(tau)
        for name, values in out.items():
            if tau not in values:
                raise ConsistencyError(f"missing base value of {name} at tau = {tau}")
            coeff = by_name.get(name)
            if coeff is None:
                raise ConsistencyError(f"no weight declared for {name}")
            transported = coeff.transport(den, values[tau])
            existing = values.get(image)
            if existing is not None and as_gaussian(existing) != transported:
                raise ConsistencyError(
                    f"conflicting value for {name} at tau = {image}"
                )
            values[image] = transported
    return out
