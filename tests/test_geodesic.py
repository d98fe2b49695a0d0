"""Numeric geodesic integration and unparametrized trace comparison."""

import io
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from projconn.errors import DivergenceError, EvalError, RangeError, ShapeError
from projconn.families import torus3
from projconn.geodesic import GeodesicPath, integrate, unparametrized_match, write_csv

from helpers import exact_connection


def random_path(count, seed):
    """A path through random points of C^3; only its positions matter here."""
    rng = np.random.default_rng(seed)
    positions = rng.standard_normal((count, 3)) + 1j * rng.standard_normal((count, 3))
    return GeodesicPath(np.arange(count, dtype=float), positions, np.zeros((count, 3), complex))


SAMPLE = dict(
    A=Fraction(1, 2),
    B=Fraction(-1, 3),
    C=Fraction(1, 4),
    D=Fraction(-1, 5),
    E=Fraction(1, 2),
)


class TestIntegrate:
    def test_flat_straight_line_to_roundoff(self):
        c = exact_connection(np.zeros((3, 3, 3)))
        path = integrate(c, np.zeros(3), np.array([1.0, 0, 0]), 1e-2, 100)
        for t, x in zip(path.times, path.positions):
            assert abs(x[0] - t) < 1e-12
            assert abs(x[1]) < 1e-12 and abs(x[2]) < 1e-12

    def test_dim1_closed_form(self):
        # x'' = -x'^2 with x(0)=0, x'(0)=1 solves to x(t) = log(1 + t)
        c = exact_connection(np.ones((1, 1, 1)))
        path = integrate(c, np.zeros(1), np.ones(1), 1e-3, 500)
        exact = math.log(1.5)
        rel = abs(path.positions[-1][0] - exact) / exact
        assert rel < 1e-8

    def test_fourth_order_convergence(self):
        c = exact_connection(np.ones((1, 1, 1)))

        def max_error(step, count):
            path = integrate(c, np.zeros(1), np.ones(1), step, count)
            errors = [
                abs(x[0] - math.log(1 + t)) for t, x in zip(path.times, path.positions)
            ]
            return max(errors)

        coarse = max_error(0.0125, 40)
        fine = max_error(0.00625, 80)
        ratio = coarse / fine
        assert 10 < ratio < 24, f"expected ~16x error reduction, got {ratio:.2f}"

    def test_horizon_bound(self):
        c = exact_connection(np.zeros((2, 2, 2)))
        with pytest.raises(ShapeError):
            integrate(c, np.zeros(2), np.ones(2), 1.0, 11)

    def test_divergence_reported_with_last_time(self):
        c = exact_connection(np.ones((1, 1, 1)) * -1)
        with pytest.raises(DivergenceError) as err:
            integrate(c, np.zeros(1), np.array([1e160]), 1e-2, 100)
        assert err.value.last_time >= 0.0

    def test_symbolic_table_is_refused(self):
        # the CLI refuses an unbound table first; the library call still ends in an EngineError
        with pytest.raises(EvalError, match="unbound symbol"):
            integrate(torus3(**dict(SAMPLE, E=None)), np.zeros(3), np.ones(3), 1e-2, 5)

    def test_table_beyond_float_range_is_refused(self):
        beyond = Fraction(2**1024 - 1)
        with pytest.raises(RangeError, match="too large for floating point"):
            integrate(torus3(**dict(SAMPLE, A=beyond)), np.zeros(3), np.ones(3), 1e-2, 5)

    def test_samples_are_checked(self):
        with pytest.raises(ShapeError, match="share a dimension"):
            GeodesicPath([0.0, 1.0], [[0j, 0j], [0j]], [[0j, 0j], [0j, 0j]])
        with pytest.raises(ShapeError, match="strictly increase"):
            GeodesicPath([1.0, 1.0], [[0j], [1j]], [[0j], [0j]])
        with pytest.raises(ShapeError, match="finite"):
            GeodesicPath([0.0], [[complex(math.nan, 0)]], [[0j]])


class TestMatch:
    def test_identical_paths(self):
        c = torus3(**SAMPLE)
        p = integrate(c, np.zeros(3), np.ones(3), 1e-3, 300)
        assert unparametrized_match(p, p) == 0.0

    def test_equivalent_pair_shares_trace(self):
        probe = torus3(**SAMPLE)
        reference = torus3(**dict(SAMPLE, E=0))
        p = integrate(probe, np.zeros(3), np.ones(3), 1e-3, 300)
        q = integrate(reference, np.zeros(3), np.ones(3), 1e-3, 600)
        assert unparametrized_match(p, q) < 1e-6

    def test_control_pair_diverges(self):
        probe = torus3(0, 0, 1, 0, 0)
        flat = exact_connection(np.zeros((3, 3, 3)))
        p = integrate(probe, np.zeros(3), np.ones(3), 1e-3, 300)
        q = integrate(flat, np.zeros(3), np.ones(3), 1e-3, 600)
        assert unparametrized_match(p, q) > 1e-2

    def test_time_reversal_retraces(self):
        c = torus3(**SAMPLE)
        p = integrate(c, np.zeros(3), np.ones(3), 1e-3, 300)
        q = integrate(c, p.positions[-1], [-z for z in p.velocities[-1]], 1e-3, 300)
        assert unparametrized_match(q, p) < 1e-6

    def test_random_equivalent_constant_pairs(self):
        # moderate entries: the 1e-6 tolerance at step 1e-3 needs the trace
        # curvature times squared speed to stay of order one
        rng = random.Random(20240901)
        hits = 0
        while hits < 20:
            gamma = np.zeros((3, 3, 3), dtype=complex)
            for k in range(3):
                for i in range(3):
                    for j in range(i, 3):
                        if rng.random() < 0.5:
                            value = complex(Fraction(rng.randint(-1, 1), 8))
                            gamma[k, i, j] = value
                            gamma[k, j, i] = value
            theta_values = [Fraction(rng.randint(-1, 1), 8) for _ in range(3)]
            jtheta = np.zeros((3, 3, 3), dtype=complex)
            for k in range(3):
                for i in range(3):
                    for j in range(3):
                        if k == j:
                            jtheta[k, i, j] += complex(theta_values[i])
                        if k == i:
                            jtheta[k, i, j] += complex(theta_values[j])
            probe = exact_connection(gamma + jtheta)
            reference = exact_connection(gamma)
            p = integrate(probe, np.zeros(3), np.ones(3), 1e-3, 300)
            q = integrate(reference, np.zeros(3), np.ones(3), 1e-3, 600)
            assert unparametrized_match(p, q) < 1e-6
            hits += 1

    def test_blocked_match_equals_all_pairs(self):
        # 1,000 reference samples: the probe is matched in five blocks
        p, q = random_path(300, 11), random_path(1000, 12)
        p_positions, q_positions = np.array(p.positions), np.array(q.positions)
        pp = np.concatenate([p_positions.real, p_positions.imag], axis=1)
        qq = np.concatenate([q_positions.real, q_positions.imag], axis=1)
        starts, deltas = qq[:-1], qq[1:] - qq[:-1]
        diff = pp[:, None, :] - starts[None, :, :]
        t = np.sum(diff * deltas[None, :, :], axis=2) / np.sum(deltas * deltas, axis=1)
        nearest = starts[None, :, :] + np.clip(t, 0.0, 1.0)[:, :, None] * deltas[None, :, :]
        dist = np.linalg.norm(pp[:, None, :] - nearest, axis=2)
        assert unparametrized_match(p, q) == float(np.max(np.min(dist, axis=1)))

    def test_match_memory_is_bounded(self):
        p, q = random_path(2000, 13), random_path(4000, 14)
        tracemalloc.start()
        try:
            unparametrized_match(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_overflowing_match_is_bounded(self):
        # squares of coordinate differences may overflow, for a small pair or a large one
        for p_count, q_count in ((3, 3), (1100, 1000)):
            p, q = random_path(p_count, 15), random_path(q_count, 16)
            far = GeodesicPath(q.times, [[z * 1e200 for z in row] for row in q.positions],
                               q.velocities)
            with pytest.raises(RangeError, match="too large for an exact match"):
                unparametrized_match(p, far)

    def test_empty_path_rejected(self):
        empty = GeodesicPath(
            np.zeros(0), np.zeros((0, 2), complex), np.zeros((0, 2), complex)
        )
        c = exact_connection(np.zeros((2, 2, 2)))
        p = integrate(c, np.zeros(2), np.ones(2), 1e-2, 10)
        with pytest.raises(ShapeError):
            unparametrized_match(p, empty)

    def test_paths_of_different_dimensions_rejected(self):
        p = integrate(exact_connection(np.zeros((2, 2, 2))), np.zeros(2), np.ones(2), 1e-2, 10)
        q = integrate(exact_connection(np.zeros((3, 3, 3))), np.zeros(3), np.ones(3), 1e-2, 10)
        with pytest.raises(ShapeError, match="^paths live in different dimensions$"):
            unparametrized_match(p, q)


class TestCsv:
    def test_dump_columns_and_rows(self):
        c = torus3(**SAMPLE)
        path = integrate(c, np.zeros(3), np.ones(3), 1e-2, 5)
        buffer = io.StringIO()
        write_csv(buffer, path, ["tau", "z1", "z2"])
        lines = buffer.getvalue().splitlines()
        assert lines[0].split(",")[:3] == ["t", "tau_re", "tau_im"]
        assert len(lines) == 1 + 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.0

    def test_one_name_per_coordinate(self):
        path = integrate(torus3(**SAMPLE), np.zeros(3), np.ones(3), 1e-2, 5)
        with pytest.raises(ShapeError, match="^coordinate names must match the dimension$"):
            write_csv(io.StringIO(), path, ["tau", "z1"])
