"""Numeric geodesic tracing for constant-coefficient connections.

Projectively equivalent connections share unparametrized geodesics; this
module integrates the geodesic equation

    x''^k + G^k_{ij} x'^i x'^j = 0

along real time with a fixed-step classical 4th-order scheme and compares
position traces as point sets.  Complex time is restricted to real rays,
which is all the trace comparison needs.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import DivergenceError, ShapeError
from .rational import as_gaussian

MAX_HORIZON = 10
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


def _acceleration(gamma, v):
    return -np.einsum("kij,i,j->k", gamma, v, v)


def integrate(c: NumericConnection, x0, v0, step: float, count: int) -> GeodesicPath:
    """Classical fixed-step RK4 over the horizon step * count (<= MAX_HORIZON)."""
    if step <= 0:
        raise ShapeError("step must be positive")
    if count < 1:
        raise ShapeError("count must be a positive integer")
    if step * count > MAX_HORIZON:
        raise ShapeError(f"horizon step * count exceeds the bound of {MAX_HORIZON}")
    x = np.asarray(x0, dtype=complex)
    v = np.asarray(v0, dtype=complex)
    if x.shape != (c.dim,) or v.shape != (c.dim,):
        raise ShapeError("initial state does not match the dimension")
    gamma = c.gamma
    times = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    h = step
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(count):
            k1x, k1v = v, _acceleration(gamma, v)
            k2x = v + 0.5 * h * k1v
            k2v = _acceleration(gamma, v + 0.5 * h * k1v)
            k3x = v + 0.5 * h * k2v
            k3v = _acceleration(gamma, v + 0.5 * h * k2v)
            k4x = v + h * k3v
            k4v = _acceleration(gamma, v + h * k3v)
            x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            state = np.concatenate([x, v])
            if not np.all(np.isfinite(state.view(float))):
                raise DivergenceError("geodesic integration diverged", times[-1])
            times.append((n + 1) * h)
            xs.append(x.copy())
            vs.append(v.copy())
    return GeodesicPath(times, xs, vs)


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
    lengths_sq[lengths_sq == 0] = 1.0
    block = max(1, _MATCH_PAIRS // len(starts))
    deviation = 0.0
    for lo in range(0, len(pp), block):
        # point-to-segment distances, all pairs of one block at once
        chunk = pp[lo:lo + block, None, :]
        diff = chunk - starts[None, :, :]
        t = np.sum(diff * deltas[None, :, :], axis=2) / lengths_sq[None, :]
        t = np.clip(t, 0.0, 1.0)
        nearest = starts[None, :, :] + t[:, :, None] * deltas[None, :, :]
        dist = np.linalg.norm(chunk - nearest, axis=2)
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
