"""Numeric geodesic tracing for constant-coefficient connections.

Projectively equivalent connections share unparametrized geodesics; this
module integrates the geodesic equation

    x''^k + G^k_{ij} x'^i x'^j = 0

along real time with a fixed-step classical 4th-order scheme and compares
position traces as point sets.  Complex time is restricted to real rays,
which is all the trace comparison needs.  Everything runs on Python lists
of `complex` and `float`; the numpy forms of the step and of the all-pairs
match are kept in the tests as oracles, and both kernels reproduce them
bit for bit.

The RK4 step runs over the nonzero G^k_{ij} only.  It performs the
floating-point operations of the numpy form of the step in the same order
(a real scalar enters as a complex one, and G^k_{ij} v^i v^j is summed
over i, then j, from 0j), and skipping a zero entry adds a zero to a sum
that cannot be -0.0, so every sample is bit-identical to that form.

The trace match is the max over samples p of the min over segments s of
one formula, t = clip(sum((p - s) * d) / |d|^2, 0, 1) and then
sqrt(sum((p - (s + t * d))^2)), with a zero |d|^2 read as 1.0.  `_kernel`
writes that formula out for each width and compiles it once.  It keeps
numpy's operations and their order, sums included: numpy sums left to
right below 8 terms, in eight interleaved accumulators up to 128, and by
halves above.  So each computed distance equals numpy's bit for bit.  The
max-min then needs no rounding margin, because it only ever compares two
computed distances:
  1. Descent: each sample walks from the previous sample's segment to a
     local minimum along the polyline.  That gives an upper bound u, a
     computed distance, on the sample's min.
  2. Settle: samples are taken in descending u with a running max D.  Once
     u <= D, no later sample can raise D.  Otherwise the segments are
     scanned outward from the sample's own.  The first distance <= D
     settles it.  A sample with none has its full min > D, which becomes D.
So the result is one computed distance, the all-pairs maximum.  On traces
a sample costs a few distances, and few samples need a full scan.  Without
overflow every distance is finite (a t that overflows is clipped to 1), so
the blocks in which the numpy form takes its maxima cannot change the
result.  `_may_overflow` rules overflow out from the traces' bounding box;
where it cannot, the match raises RangeError before it computes any
distance, since an overflowing distance is no answer.  A reference of one
sample is one segment of length zero, whose distance formula reduces to
|p - s| bit for bit.

Bounds, each a ShapeError: a path takes at most MAX_STEPS steps over a
horizon step * count of at most MAX_HORIZON, with a finite step.
"""

from __future__ import annotations

import cmath
import csv
import math
from functools import lru_cache
from itertools import chain, islice, zip_longest
from operator import itemgetter

from .errors import DivergenceError, RangeError, ShapeError
from .rational import as_gaussian

MAX_HORIZON = 10
MAX_STEPS = 20_000  # --compare then matches 10,001 against 20,001 samples


class NumericConnection:
    """Constant complex Christoffel coefficients, symmetric in (i, j)."""

    __slots__ = ("gamma",)

    def __init__(self, gamma):
        gamma = [[[complex(g) for g in row] for row in plane] for plane in gamma]
        n = len(gamma)
        if any(len(plane) != n or any(len(row) != n for row in plane) for plane in gamma):
            raise ShapeError("gamma must be an n x n x n array")
        if any(t[i][j] != t[j][i] for t in gamma for i in range(n) for j in range(i)):
            raise ShapeError("gamma must be symmetric in its lower indices")
        if not all(cmath.isfinite(g) for plane in gamma for row in plane for g in row):
            raise ShapeError("gamma entries must be finite")
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, name, value):
        raise AttributeError("NumericConnection is immutable")

    @property
    def dim(self):
        return len(self.gamma)

    @classmethod
    def from_connection(cls, conn, assignment) -> "NumericConnection":
        """Evaluate a symbolic connection exactly, then convert to complex.

        The assignment must bind every symbol the table mentions, so the
        result is constant-coefficient by construction.
        """
        point = {sym: as_gaussian(v) for sym, v in assignment.items()}
        values = [complex(e.evaluate(point)) for e in conn.table.entries]
        n = conn.dim
        return cls([[values[(k * n + i) * n:(k * n + i + 1) * n] for i in range(n)]
                    for k in range(n)])


class GeodesicPath:
    """Sampled trajectory: strictly increasing times, finite states."""

    __slots__ = ("times", "positions", "velocities")

    def __init__(self, times, positions, velocities):
        times = [float(t) for t in times]
        positions = [[complex(z) for z in row] for row in positions]
        velocities = [[complex(z) for z in row] for row in velocities]
        if not (len(times) == len(positions) == len(velocities)):
            raise ShapeError("sample arrays must share a length")
        rows = positions + velocities
        dim = len(positions[0]) if positions else 0
        if any(len(row) != dim for row in rows):
            raise ShapeError("samples must share a dimension")
        if not all(a < b for a, b in zip(times, times[1:])):
            raise ShapeError("sample times must strictly increase")
        if not (all(map(math.isfinite, times)) and all(all(map(cmath.isfinite, r)) for r in rows)):
            raise ShapeError("samples must be finite")
        _fill(self, times, positions, velocities)

    def __setattr__(self, name, value):
        raise AttributeError("GeodesicPath is immutable")

    def __len__(self):
        return len(self.times)

    @property
    def dim(self):
        return len(self.positions[0]) if self.positions else 0


def _fill(path, *samples) -> GeodesicPath:
    """path with its slots set to the sample lists as given; the callers,
    GeodesicPath.__init__ and integrate, have checked them."""
    for name, value in zip(GeodesicPath.__slots__, samples):
        object.__setattr__(path, name, value)
    return path


def integrate(c: NumericConnection, x0, v0, step: float, count: int) -> GeodesicPath:
    """Classical fixed-step RK4 over the horizon step * count (<= MAX_HORIZON)
    in at most MAX_STEPS steps."""
    if not 0 < step < math.inf:
        raise ShapeError("step must be a positive finite number")
    if count < 1:
        raise ShapeError("count must be a positive integer")
    if count > MAX_STEPS:
        raise ShapeError(f"count exceeds the bound of {MAX_STEPS} steps")
    if step * count > MAX_HORIZON:
        raise ShapeError(f"horizon step * count exceeds the bound of {MAX_HORIZON}")
    x = [complex(z) for z in x0]
    v = [complex(z) for z in v0]
    if len(x) != c.dim or len(v) != c.dim:
        raise ShapeError("initial state does not match the dimension")
    # the nonzero G^k_ij of each row k, in the i-then-j order einsum sums them
    rows = [
        [(g, i, j) for i, plane in enumerate(table) for j, g in enumerate(plane) if g]
        for table in c.gamma
    ]

    def acceleration(w):
        out = []
        for row in rows:
            total = 0j
            for g, i, j in row:
                total = total + g * w[i] * w[j]
            out.append(-total)
        return out

    # numpy scales a complex array by a real scalar as by the complex scalar
    h = complex(step)
    half, sixth, two = complex(0.5 * step), complex(step / 6.0), 2 + 0j

    def advance(base, k1, k2, k3, k4):
        return [y + sixth * (a + two * b + two * c + d)
                for y, a, b, c, d in zip(base, k1, k2, k3, k4)]

    xs = [x]
    vs = [v]
    for n in range(count):
        k1v = acceleration(v)
        k2x = [y + half * a for y, a in zip(v, k1v)]
        k2v = acceleration(k2x)
        k3x = [y + half * a for y, a in zip(v, k2v)]
        k3v = acceleration(k3x)
        k4x = [y + h * a for y, a in zip(v, k3v)]
        k4v = acceleration(k4x)
        x = advance(x, v, k2x, k3x, k4x)
        v = advance(v, k1v, k2v, k3v, k4v)
        if not (all(map(cmath.isfinite, x)) and all(map(cmath.isfinite, v))):
            raise DivergenceError("geodesic integration diverged", n * step)
        xs.append(x)
        vs.append(v)
    # the loop checked every sample (a start that is not finite diverges at once)
    return _fill(object.__new__(GeodesicPath), [float(n * step) for n in range(count + 1)], xs, vs)


def _pairwise(terms: list[str]) -> str:
    """The expression summing `terms` in numpy's pairwise order for float64."""
    n = len(terms)
    if n < 8:
        return "(" + " + ".join(terms) + ")"
    if n > 128:
        half = n // 2 - n // 2 % 8
        return f"({_pairwise(terms[:half])} + {_pairwise(terms[half:])})"
    tail = n - n % 8
    acc = terms[:8]
    for i in range(8, tail, 8):
        acc = [f"({a} + {b})" for a, b in zip(acc, terms[i:i + 8])]
    head = "((({} + {}) + ({} + {})) + (({} + {}) + ({} + {})))".format(*acc)
    return "(" + " + ".join([head, *terms[tail:]]) + ")"


@lru_cache(maxsize=None)
def _kernel(width: int):
    """(segment, distance) for points of R^width, unrolled.

    segment(a, b) is the tuple (a, b - a, |b - a|^2 or 1.0) for the segment
    from a to b; distance(p, segment) is the point-to-segment formula, with
    numpy's operations in numpy's order.  distance hands its second half to
    a function of its own: under tracemalloc, CPython looks up the source
    line of every object created, at a cost that grows with the creating
    instruction's offset in its function, and the split cuts the traced
    match time by a third.
    """
    c = range(width)

    def names(x):
        return ", ".join(f"{x}{i}" for i in c) + ","

    source = f"""
def segment(a, b):
    {names("a")} = a
    {names("b")} = b
    {names("d")} = {", ".join(f"b{i} - a{i}" for i in c)}
    return ({names("a")} {names("d")} {_pairwise([f"d{i} * d{i}" for i in c])} or 1.0)

def distance(p, segment):
    {names("p")} = p
    {names("s")} {names("d")} length_sq = segment
    t = {_pairwise([f"(p{i} - s{i}) * d{i}" for i in c])} / length_sq
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return to_nearest({names("p")} {names("s")} {names("d")} t)

def to_nearest({names("p")} {names("s")} {names("d")} t):
    {names("e")} = {", ".join(f"p{i} - (s{i} + t * d{i})" for i in c)}
    return sqrt({_pairwise([f"e{i} * e{i}" for i in c])})
"""
    namespace = {"sqrt": math.sqrt}
    exec(source, namespace)
    return namespace["segment"], namespace["distance"]


def _real_points(positions) -> list[tuple]:
    """Complex n-vectors as points of R^(2n): real parts, then imaginary."""
    return [(*[z.real for z in row], *[z.imag for z in row]) for row in positions]


def _may_overflow(pp, qq) -> bool:
    """Whether an intermediate of the distance formula may leave the float
    range, judged from the bounding box of both traces in O(n + m).

    Every difference of two coordinates is at most the box's largest side
    E, so every product and sum of squares is at most about width * E^2,
    and s + t * d stays within the box up to rounding.
    """
    width = len(pp[0])
    extent = magnitude = 0.0
    for c in range(width):
        low = min(min(map(itemgetter(c), pp)), min(map(itemgetter(c), qq)))
        high = max(max(map(itemgetter(c), pp)), max(map(itemgetter(c), qq)))
        extent = max(extent, high - low)
        magnitude = max(magnitude, -low, high)
    return not (width * extent * extent < 2.0**1020 and magnitude < 2.0**1023)


def _outward(segments: list, j: int):
    """Segments j - 1, j + 1, j - 2, j + 2, ..., while they last (filter
    drops the None that pads the shorter side; a segment is a nonempty
    tuple)."""
    before = islice(reversed(segments), len(segments) - j, None)
    after = islice(segments, j + 1, None)
    return filter(None, chain.from_iterable(zip_longest(before, after)))


def _max_min(distance, points, segments) -> float:
    """Max over points of the min over segments, by descent and settling
    (see the module docstring)."""
    last = len(segments) - 1
    uppers, homes = [], []
    j = 0
    for x in points:
        u = distance(x, segments[j])
        for step in (1, -1):
            while 0 <= j + step <= last and (v := distance(x, segments[j + step])) < u:
                u, j = v, j + step
        uppers.append(u)
        homes.append(j)
    deviation = 0.0
    for i in sorted(range(len(points)), key=uppers.__getitem__, reverse=True):
        nearest = uppers[i]
        if nearest <= deviation:
            break
        x = points[i]
        for segment in _outward(segments, homes[i]):
            v = distance(x, segment)
            if v <= deviation:
                break
            if v < nearest:
                nearest = v
        else:
            deviation = nearest
    return deviation


def unparametrized_match(p: GeodesicPath, q: GeodesicPath) -> float:
    """Max over samples of p of the distance to q's piecewise-linear trace.

    Distances are Euclidean after identifying C^n with R^(2n), computed as
    the numpy all-pairs form computes them.  The caller compares the
    returned deviation to its tolerance.  RangeError where a squared
    coordinate difference may overflow.
    """
    if len(p) == 0 or len(q) == 0:
        raise ShapeError("paths must contain samples")
    if p.dim != q.dim:
        raise ShapeError("paths live in different dimensions")
    if p.dim == 0:
        return 0.0  # every distance in R^0
    pp, qq = _real_points(p.positions), _real_points(q.positions)
    if _may_overflow(pp, qq):
        raise RangeError(
            "the traces are too large for an exact match without overflow: "
            "squared differences of their coordinates may leave the float range"
        )
    segment, distance = _kernel(2 * p.dim)
    segments = list(map(segment, qq, qq[1:])) or [segment(qq[0], qq[0])]
    return _max_min(distance, pp, segments)


def write_csv(fileobj, path: GeodesicPath, coord_names) -> None:
    """Dump t plus re/im of every position and velocity component."""
    coord_names = list(coord_names)
    if len(coord_names) != path.dim:
        raise ShapeError("coordinate names must match the dimension")
    writer = csv.writer(fileobj, lineterminator="\n")
    header = ["t"]
    for name in coord_names:
        header += [f"{name}_re", f"{name}_im"]
    for name in coord_names:
        header += [f"v_{name}_re", f"v_{name}_im"]
    writer.writerow(header)
    for t, x, v in zip(path.times, path.positions, path.velocities):
        row = [repr(float(t))]
        for value in x:
            row += [repr(float(value.real)), repr(float(value.imag))]
        for value in v:
            row += [repr(float(value.real)), repr(float(value.imag))]
        writer.writerow(row)
