"""Numeric geodesic tracing for constant-coefficient connections.

Projectively equivalent connections share unparametrized geodesics; this
module integrates the geodesic equation

    x''^k + G^k_{ij} x'^i x'^j = 0

along real time with a fixed-step classical 4th-order scheme and compares
position traces as point sets.  Complex time is restricted to real rays,
which is all the trace comparison needs.

The RK4 step runs on Python complex numbers over the nonzero G^k_{ij}
only.  It performs the floating-point operations of the numpy form of the
step in the same order (a real scalar enters as a complex one, and
G^k_{ij} v^i v^j is summed over i, then j, from 0j), and skipping a zero
entry adds a zero to a sum that cannot be -0.0, so every sample is
bit-identical to that form.

The trace match computes the point-to-segment formula only where it can
matter.  The distance from p to segment s is at least
(|p - q_s| + |p - q_s+1| - |q_s+1 - q_s|) / 2 by the triangle inequality,
and the nearest segment is no farther than the nearest vertex.  A segment
whose lower bound exceeds that upper bound by more than the rounding
margin has a computed distance above the computed minimum, so dropping it
leaves every minimum, and the returned maximum, bit-identical to the
all-pairs computation.

Bounds, each a ShapeError: a path takes at most MAX_STEPS steps over a
horizon step * count of at most MAX_HORIZON, with a finite step.
"""

from __future__ import annotations

import cmath
import csv
import math

import numpy as np

from .errors import DivergenceError, ShapeError
from .rational import as_gaussian

MAX_HORIZON = 10
MAX_STEPS = 20_000  # --compare then matches 10,001 against 20,001 samples: about 3 s
_MATCH_PAIRS = 2**16  # point-segment pairs held by one temporary of the match


class NumericConnection:
    """Constant complex Christoffel coefficients, symmetric in (i, j)."""

    __slots__ = ("gamma",)

    def __init__(self, gamma):
        gamma = np.asarray(gamma, dtype=complex)
        if gamma.ndim != 3 or len(set(gamma.shape)) != 1:
            raise ShapeError("gamma must be an n x n x n array")
        if not np.allclose(gamma, np.swapaxes(gamma, 1, 2), rtol=0, atol=0):
            raise ShapeError("gamma must be symmetric in its lower indices")
        if not np.all(np.isfinite(gamma.view(float))):
            raise ShapeError("gamma entries must be finite")
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, name, value):
        raise AttributeError("NumericConnection is immutable")

    @property
    def dim(self):
        return self.gamma.shape[0]

    @classmethod
    def from_connection(cls, conn, assignment) -> "NumericConnection":
        """Evaluate a symbolic connection exactly, then convert to complex.

        The assignment must bind every symbol the table mentions, so the
        result is constant-coefficient by construction.
        """
        point = {sym: as_gaussian(v) for sym, v in assignment.items()}
        values = [complex(e.evaluate(point)) for e in conn.table.entries]
        return cls(np.array(values, dtype=complex).reshape((conn.dim,) * 3))


class GeodesicPath:
    """Sampled trajectory: strictly increasing times, finite states."""

    __slots__ = ("times", "positions", "velocities")

    def __init__(self, times, positions, velocities):
        times = np.asarray(times, dtype=float)
        positions = np.asarray(positions, dtype=complex)
        velocities = np.asarray(velocities, dtype=complex)
        if not (len(times) == len(positions) == len(velocities)):
            raise ShapeError("sample arrays must share a length")
        if len(times) and np.any(np.diff(times) <= 0):
            raise ShapeError("sample times must strictly increase")
        for arr in (times, positions.view(float), velocities.view(float)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ShapeError("samples must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "velocities", velocities)

    def __setattr__(self, name, value):
        raise AttributeError("GeodesicPath is immutable")

    def __len__(self):
        return len(self.times)

    @property
    def dim(self):
        return self.positions.shape[1]


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
    x = np.asarray(x0, dtype=complex)
    v = np.asarray(v0, dtype=complex)
    if x.shape != (c.dim,) or v.shape != (c.dim,):
        raise ShapeError("initial state does not match the dimension")
    # the nonzero G^k_ij of each row k, in the i-then-j order einsum sums them
    rows = [
        [(g, i, j) for i, plane in enumerate(table) for j, g in enumerate(plane) if g]
        for table in c.gamma.tolist()
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

    xs = [x.tolist()]
    vs = [v.tolist()]
    for n in range(count):
        x, v = xs[-1], vs[-1]
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
    return GeodesicPath(np.arange(count + 1) * step, xs, vs)


def _as_real_points(z: np.ndarray) -> np.ndarray:
    """Complex n-vectors viewed as points of R^(2n)."""
    return np.concatenate([z.real, z.imag], axis=-1)


def unparametrized_match(p: GeodesicPath, q: GeodesicPath) -> float:
    """Max over samples of p of the distance to q's piecewise-linear trace.

    Distances are Euclidean after identifying C^n with R^(2n).  Samples of p
    are processed in blocks, so memory stays bounded for long paths.  The
    caller compares the returned deviation to its tolerance.
    """
    if len(p) == 0 or len(q) == 0:
        raise ShapeError("paths must contain samples")
    pp = _as_real_points(p.positions)
    qq = _as_real_points(q.positions)
    if pp.shape[1] != qq.shape[1]:
        raise ShapeError("paths live in different dimensions")
    if len(q) == 1:
        return float(np.max(np.linalg.norm(pp - qq[0], axis=1)))
    starts = qq[:-1]
    deltas = qq[1:] - starts
    lengths_sq = np.sum(deltas * deltas, axis=1)
    lengths = np.sqrt(lengths_sq)
    lengths_sq[lengths_sq == 0] = 1.0
    # Every computed distance, length and bound below lies within
    # 8 * (m + 6) * 2^-53 * scale of its exact value in R^m, 2^-500 more
    # where it underflows; the margin is 64 times that.  Past 2^500 squares
    # may overflow, and an infinite margin keeps every segment.
    scale = float(np.max(np.linalg.norm(pp, axis=1)) + np.max(np.linalg.norm(qq, axis=1)))
    margin = (pp.shape[1] + 6) * 2.0**-44 * scale + 2.0**-500 if scale < 2.0**500 else math.inf
    columns = starts.T.copy()
    block = max(1, _MATCH_PAIRS // len(starts))
    deviation = 0.0
    for lo in range(0, len(pp), block):
        chunk = pp[lo:lo + block]
        # vertex distances bound every segment (see the module docstring)
        to_start = np.zeros((len(chunk), len(starts)))
        square = np.empty_like(to_start)
        for a, b in zip(chunk.T, columns):
            np.subtract.outer(a, b, out=square)
            square *= square
            to_start += square
        np.sqrt(to_start, out=to_start)
        to_last = np.linalg.norm(chunk - qq[-1], axis=1)
        to_end = np.concatenate([to_start[:, 1:], to_last[:, None]], axis=1)
        upper = np.minimum(np.min(to_start, axis=1), to_last) + margin
        lower = (to_start + to_end - lengths) / 2
        rows, cols = np.nonzero(~(lower > upper[:, None]))  # a NaN bound keeps its pair
        # the point-to-segment distance of the kept pairs, as for all pairs
        d = deltas[cols]
        t = np.sum((chunk[rows] - starts[cols]) * d, axis=1) / lengths_sq[cols]
        t = np.clip(t, 0.0, 1.0)
        nearest = starts[cols] + t[:, None] * d
        dist = np.full(to_start.shape, np.inf)
        dist[rows, cols] = np.linalg.norm(chunk[rows] - nearest, axis=1)
        deviation = max(deviation, float(np.max(np.min(dist, axis=1))))
    return deviation


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
