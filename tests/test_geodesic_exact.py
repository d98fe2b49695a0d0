"""The geodesic kernels against their numpy reference formulas, bit for bit.

`integrate` and `unparametrized_match` must give exactly what the numpy
RK4 step and the all-pairs match of tests/helpers.py give, so the checks
compare raw bytes (signed zeros included), not values within a tolerance.
"""

import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from projconn.errors import DivergenceError, RangeError
from projconn.families import torus3
from projconn.geodesic import GeodesicPath, integrate, unparametrized_match

from helpers import exact_connection, naive_integrate, naive_match

README_PARAMS = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4), Fraction(-1, 5))


def raw_bytes(path):
    """The IEEE bit patterns of every sample, so -0.0 and 0.0 differ."""
    values = list(path.times)
    for row in path.positions + path.velocities:
        for z in row:
            values += (z.real, z.imag)
    return struct.pack(f"<{len(values)}d", *values)


def same_bytes(a, b):
    return a.dim == b.dim and raw_bytes(a) == raw_bytes(b)


def rand_complex(rng, real, span=2.0):
    if rng.random() < 0.2:
        return complex(Fraction(rng.randint(-3, 3), 8))
    return complex(rng.uniform(-span, span), 0.0 if real else rng.uniform(-span, span))


def rand_gamma(rng, n, real):
    gamma = np.zeros((n, n, n), dtype=complex)
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.5:
                    gamma[k, i, j] = gamma[k, j, i] = rand_complex(rng, real)
    return gamma


def outcome(run, *args):
    try:
        return run(*args)
    except DivergenceError as exc:
        return str(exc)


def cloud(count, dim, seed, scale=1.0, walk=False):
    """Random points of C^dim, or a random walk through them."""
    rng = np.random.default_rng(seed)
    positions = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    if walk:
        positions = np.cumsum(positions, axis=0) * 1e-2
    positions = positions * scale
    return GeodesicPath(np.arange(count, dtype=float), positions, np.zeros((count, dim), complex))


def readme_pair(x0=(0, 0, 0), step=1e-3, count=300):
    probe = torus3(*README_PARAMS, Fraction(1, 2))
    reference = torus3(*README_PARAMS, 0)
    p = integrate(probe, x0, np.ones(3), step, count)
    q = integrate(reference, x0, np.ones(3), step, 2 * count)
    return p, q


def reversed_path(path):
    return GeodesicPath(path.times, path.positions[::-1], path.velocities[::-1])


class TestIntegrateOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_seeded_tables_bit_identical(self, dim):
        rng = random.Random(7100 + dim)
        diverged = 0
        for _ in range(20):
            real = rng.random() < 0.4
            c = exact_connection(rand_gamma(rng, dim, real))
            x0 = [rand_complex(rng, real, 1.0) if rng.random() < 0.5 else 0j for _ in range(dim)]
            v0 = [rand_complex(rng, real, 3.0) for _ in range(dim)]
            step, count = rng.choice([1e-3, 1e-2, 5e-2]), rng.randint(1, 80)
            ours = outcome(integrate, c, x0, v0, step, count)
            reference = outcome(naive_integrate, c, x0, v0, step, count)
            if isinstance(reference, str):
                diverged += 1
                assert ours == reference
            else:
                assert same_bytes(ours, reference)
        assert diverged < 20

    def test_readme_paths_bit_identical(self):
        p, q = readme_pair()
        for path, e, count in ((p, Fraction(1, 2), 300), (q, 0, 600)):
            c = torus3(*README_PARAMS, e)
            assert same_bytes(path, naive_integrate(c, np.zeros(3), np.ones(3), 1e-3, count))

    @pytest.mark.parametrize("speed", [1e100, 1e154, 1e160])
    def test_divergence_time_matches(self, speed):
        c = exact_connection(-np.ones((1, 1, 1)))
        ours = outcome(integrate, c, [0], [speed], 1e-2, 100)
        assert isinstance(ours, str)
        assert ours == outcome(naive_integrate, c, [0], [speed], 1e-2, 100)


class TestMatchOracle:
    def test_geodesic_pairs(self):
        p, q = readme_pair()
        assert unparametrized_match(p, q) == naive_match(p, q)
        assert unparametrized_match(q, p) == naive_match(q, p)
        control = torus3(0, 0, 1, 0, 0)
        flat = exact_connection(np.zeros((3, 3, 3)))
        a = integrate(control, np.zeros(3), np.ones(3), 1e-3, 300)
        b = integrate(flat, np.zeros(3), np.ones(3), 1e-3, 600)
        assert unparametrized_match(a, b) == naive_match(a, b)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("walk", [False, True])
    def test_random_clouds(self, dim, walk):
        rng = random.Random(7200 + dim)
        for trial in range(8):
            p = cloud(rng.randint(1, 250), dim, 2 * trial, walk=walk)
            q = cloud(rng.randint(2, 350), dim, 2 * trial + 1, walk=walk)
            assert unparametrized_match(p, q) == naive_match(p, q)

    @pytest.mark.parametrize("dim", range(5, 13))
    def test_wide_clouds(self, dim):
        # widths 10-24: numpy sums eight interleaved accumulators, not left to right
        rng = random.Random(7300 + dim)
        for trial in range(8):
            p = cloud(rng.randint(1, 80), dim, 2 * trial, walk=trial % 2 == 1)
            q = cloud(rng.randint(2, 120), dim, 2 * trial + 1, walk=trial % 2 == 1)
            assert unparametrized_match(p, q) == naive_match(p, q)

    @pytest.mark.parametrize("dim", range(65, 71))
    def test_widest_clouds(self, dim):
        # widths 130-140: numpy sums by halves above 128 terms
        rng = random.Random(7400 + dim)
        for trial in range(3):
            p = cloud(rng.randint(1, 30), dim, 2 * trial, walk=trial % 2 == 1)
            q = cloud(rng.randint(2, 40), dim, 2 * trial + 1, walk=trial % 2 == 1)
            assert unparametrized_match(p, q) == naive_match(p, q)

    def test_reversed_traces(self):
        p, q = readme_pair()
        for a, b in ((reversed_path(p), q), (p, reversed_path(q)), (reversed_path(p), p)):
            assert unparametrized_match(a, b) == naive_match(a, b)

    def test_start_translated_to_1e200(self):
        # each position is about 1e200, but the traces' bounding box is small
        p, q = readme_pair(x0=(float(10**200), 0, 0))
        assert unparametrized_match(p, q) == naive_match(p, q)
        assert unparametrized_match(q, p) == naive_match(q, p)

    def test_long_trace_pair(self):
        p, q = readme_pair(step=5e-4, count=2000)
        assert (len(p), len(q)) == (2001, 4001)
        assert unparametrized_match(p, q) == naive_match(p, q)

    @pytest.mark.parametrize("scale", [1e-170, 1e-8, 1e8, 1e150, 1e155, 1e200])
    def test_extreme_scales(self, scale):
        # past about 1e154 squares may overflow, where numpy answers inf or a
        # NaN-hidden 0.0 for a true deviation near 0.313 * scale
        p, q = cloud(120, 3, 31, scale, walk=True), cloud(300, 3, 32, scale, walk=True)
        if scale > 1e154:
            with pytest.raises(RangeError, match="too large for an exact match without overflow"):
                unparametrized_match(p, q)
            return
        ours = unparametrized_match(p, q)
        assert np.float64(ours).tobytes() == np.float64(naive_match(p, q)).tobytes()

    def test_zero_length_segments(self):
        q = cloud(200, 3, 41, walk=True)
        positions = np.repeat(q.positions[::2], 2, axis=0)
        q = GeodesicPath(np.arange(len(positions), dtype=float), positions,
                         np.zeros_like(positions))
        p = cloud(150, 3, 42, walk=True)
        assert unparametrized_match(p, q) == naive_match(p, q)
        assert unparametrized_match(q, q) == naive_match(q, q)

    def test_tight_bounds_need_the_rounding_margin(self):
        # beyond the end of a segment, on its line, the lower bound equals the
        # distance to the end vertex, so rounding alone decides the comparison
        rng = np.random.default_rng(81)
        for _ in range(50):
            start = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            delta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            q = np.array([start, start + delta])
            p = start + (1 + rng.uniform(0.1, 3.0, 20))[:, None] * delta
            p = GeodesicPath(np.arange(20.0), p, np.zeros_like(p))
            q = GeodesicPath(np.arange(2.0), q, np.zeros_like(q))
            assert unparametrized_match(p, q) == naive_match(p, q)

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_one_sample_reference(self, dim):
        # widths 8-12 sum the squares in numpy's eight accumulators
        p, q = cloud(50, dim, 51), cloud(1, dim, 52)
        assert unparametrized_match(p, q) == naive_match(p, q)

    def test_dimension_zero(self):
        p, q = cloud(3, 0, 53), cloud(2, 0, 54)
        assert unparametrized_match(p, q) == naive_match(p, q) == 0.0

    def test_path_against_itself(self):
        p, _ = readme_pair()
        assert unparametrized_match(p, p) == naive_match(p, p)
        walk = cloud(400, 2, 61, walk=True)
        assert unparametrized_match(walk, walk) == naive_match(walk, walk)

    def test_blocked_like_the_reference(self):
        # 2,000 reference samples: the probe is matched in many blocks
        p, q = cloud(700, 3, 71, walk=True), cloud(2000, 3, 72, walk=True)
        assert unparametrized_match(p, q) == naive_match(p, q)
