"""Connections: construction, curvature conventions, Weyl, Lie derivative."""

import random
from itertools import product

import pytest

import golden
from projconn.connection import (
    Connection,
    curvature,
    from_named_table,
    from_table,
    lie_derivative,
    ricci,
    trace_r,
    weyl3,
)
from projconn.errors import ConstructionError, DimensionError
from projconn.families import kuga_shimura, torus3, torus_n
from projconn.poly import ZERO_POLY, as_poly
from projconn.symbols import function, parameter
from projconn.tensor import DOWN, Tensor, UP

from helpers import (
    bianchi_holds,
    coords_named,
    naive_curvature,
    rand_deg2_table,
    rand_torsionfree,
)


@pytest.fixture(scope="module")
def family():
    return torus3()


# Tables on which weyl3 is checked against the Ricci-only form: both
# families plus random tables shaped like acceptance criterion 06.
WEYL_CASES = {
    "torus3": torus3,
    "kuga-shimura": lambda: kuga_shimura(with_trace=True),
    "kuga-shimura-no-trace": lambda: kuga_shimura(with_trace=False),
    **{
        f"random-{seed}": lambda seed=seed: rand_deg2_table(
            random.Random(seed), coords_named("x", "y", "z")
        )
        for seed in range(20240960, 20240984)
    },
}


@pytest.fixture(scope="module")
def family_curvature(family):
    return curvature(family)


class TestConstruction:
    def test_empty_table_is_flat(self):
        coords = coords_named("x", "y", "z")
        conn = from_table(coords, {})
        assert conn == Connection(coords, Tensor(3, (UP, DOWN, DOWN), [0] * 27))
        assert curvature(conn).is_zero()

    def test_symmetry_completion(self):
        coords = coords_named("x", "y")
        A = parameter("A")
        conn = from_table(coords, {(0, 0, 1): as_poly(A)})
        assert conn.gamma[0][1][0] == as_poly(A)

    def test_conflicting_symmetric_entries(self):
        coords = coords_named("x", "y")
        with pytest.raises(ConstructionError):
            from_table(coords, {(0, 0, 1): as_poly(1), (0, 1, 0): as_poly(2)})

    def test_named_single_entry(self):
        coords = coords_named("tau", "z1", "z2")
        A = parameter("A")
        conn = from_named_table(coords, {"z1.tau.tau": A})
        assert conn.gamma[1][0][0] == as_poly(A)
        nonzero = list(conn.nonzero_entries())
        assert nonzero == [((1, 0, 0), as_poly(A))]

    @pytest.mark.parametrize("key", [(-1, 0, 0), (3, 0, 0), (0, 0, 5), (0, -1, 2)])
    def test_index_outside_range_rejected(self, key):
        with pytest.raises(ConstructionError, match="outside range"):
            from_table(coords_named("x", "y", "z"), {key: as_poly(1)})

    def test_equal_tables_equal_hashes(self):
        coords = coords_named("x", "y", "z")
        A = as_poly(parameter("A"))
        built = [
            from_table(coords, {(2, 0, 1): A, (1, 1, 1): 3}),
            from_table(coords, {(2, 1, 0): A, (1, 1, 1): 3}),
            from_named_table(coords, {"z.y.x": A, "y.y.y": 3}),
        ]
        assert built[0] == built[1] == built[2]
        assert len({hash(c) for c in built}) == 1
        assert built[0].gamma[2][1][0] == A


class TestConstructorChecks:
    """Each rejection of Connection(coords, table)."""

    coords = coords_named("x", "y", "z")

    def field(self, dim=3, variance=(UP, DOWN, DOWN), entries=None):
        return Tensor(dim, variance, [0] * dim ** len(variance) if entries is None else entries)

    def test_accepts_a_symmetric_field(self):
        conn = Connection(self.coords, self.field())
        assert conn == from_table(self.coords, {})
        assert conn.table == self.field()

    @pytest.mark.parametrize(
        "dim, variance",
        [(2, (UP, DOWN, DOWN)), (4, (UP, DOWN, DOWN)), (3, (DOWN, DOWN, DOWN)),
         (3, (UP, DOWN, UP)), (3, (UP, DOWN)), (3, (UP, DOWN, DOWN, DOWN))],
    )
    def test_wrong_shape_rejected(self, dim, variance):
        with pytest.raises(ConstructionError, match="Tensor"):
            Connection(self.coords, self.field(dim, variance))

    def test_nested_tuples_rejected(self):
        with pytest.raises(ConstructionError, match="Tensor"):
            Connection(self.coords, from_table(self.coords, {}).gamma)

    def test_asymmetric_lower_indices_rejected(self):
        entries = [0] * 27
        entries[(0 * 3 + 1) * 3 + 2] = 1  # G^x_{yz} = 1 but G^x_{zy} = 0
        with pytest.raises(ConstructionError, match="symmetric"):
            Connection(self.coords, self.field(entries=entries))

    def test_non_coordinate_symbol_rejected(self):
        coords = (self.coords[0], parameter("y"), self.coords[2])
        with pytest.raises(ConstructionError, match="not a coordinate"):
            Connection(coords, self.field())

    def test_repeated_coordinate_rejected(self):
        # R(x,x)x would read 1 for x.x.x = x, though R is antisymmetric
        (x,) = coords_named("x")
        with pytest.raises(ConstructionError, match="coordinate 'x' is declared twice"):
            from_table((x, x), {(0, 0, 0): as_poly(x)})

    def test_undeclared_coordinate_rejected(self):
        (w,) = coords_named("w")
        with pytest.raises(ConstructionError, match="undeclared coordinate 'w'"):
            Connection(self.coords, self.field(entries=[w] + [0] * 26))

    def test_function_outside_chart_rejected(self):
        f = function("f", ("x", "w"))
        with pytest.raises(ConstructionError, match="outside this chart"):
            Connection(self.coords, self.field(entries=[f] + [0] * 26))

    def test_function_inside_chart_accepted(self):
        f = as_poly(function("f", ("x", "z")))
        conn = Connection(self.coords, self.field(entries=[f] + [0] * 26))
        assert conn.gamma[0][0][0] == f


class TestGoldenCurvature:
    def test_displayed_components(self, family_curvature):
        R = family_curvature
        for (i, j, k), expected in golden.curvature_components().items():
            for l in range(3):
                assert R[l, i, j, k] == expected[l], (
                    f"R({i},{j}){k} component {l}"
                )

    def test_antisymmetry_pins_the_rest(self, family_curvature):
        R = family_curvature
        for l, i, j, k in R.indices():
            assert R[l, i, j, k] == -R[l, j, i, k]

    def test_antisymmetry_via_symmetry_check(self, family_curvature):
        from projconn.tensor import symmetry_check

        assert symmetry_check(family_curvature, (1, 2), "antisymmetric")

    def test_flat_connection_curvature_zero(self):
        conn = from_table(coords_named("x", "y", "z"), {})
        assert curvature(conn).is_zero()


class TestGoldenRicci:
    def test_displayed_entries(self, family):
        ric = ricci(family)
        for (j, k), expected in golden.ricci_components().items():
            assert ric[j, k] == expected, f"Ricci({j},{k})"

    def test_trace_r_vanishes(self, family):
        assert trace_r(family).is_zero()

    def test_ricci_symmetric_via_symmetry_check(self, family):
        from projconn.tensor import symmetry_check

        assert symmetry_check(ricci(family), (0, 1), "symmetric")

    def test_flat_ricci_zero(self):
        assert ricci(from_table(coords_named("x", "y"), {})).is_zero()


class TestTraceIdentity:
    def test_trace_r_is_ricci_transpose_difference(self):
        """TrR = Ricci^T - Ricci, both sides computed independently."""
        rng = random.Random(20240816)
        for dim in (2, 3, 4):
            coords = coords_named(*(f"x{i}" for i in range(dim)))
            for _ in range(8):
                conn = rand_torsionfree(rng, coords)
                trr = trace_r(conn)
                ric = ricci(conn)
                for i, j in trr.indices():
                    assert trr[i, j] == ric[j, i] - ric[i, j]

    def test_equiaffine_examples(self, family):
        assert trace_r(family).is_zero()
        assert trace_r(from_table(coords_named("x", "y", "z"), {})).is_zero()

    def test_non_equiaffine_table(self):
        coords = coords_named("x", "y")
        x, y = coords
        conn = from_table(coords, {(0, 0, 0): as_poly(y)})
        # oracle: Ricci asymmetry computed from the raw curvature loops
        ric = ricci(conn)
        asym = any(ric[i, j] != ric[j, i] for i, j in ric.indices())
        assert asym == (not trace_r(conn).is_zero())
        assert not trace_r(conn).is_zero()


class TestGoldenWeyl:
    def test_displayed_components(self, family):
        W = weyl3(family)
        for (i, j, k), expected in golden.weyl_components().items():
            for l in range(3):
                assert W[l, i, j, k] == expected[l], f"W({i},{j}){k} component {l}"

    def test_weyl_antisymmetric_in_arguments(self, family):
        W = weyl3(family)
        for l, i, j, k in W.indices():
            assert W[l, i, j, k] == -W[l, j, i, k]

    @pytest.mark.parametrize("case", list(WEYL_CASES))
    def test_ricci_only_form_recomputed_independently(self, case):
        """Cross-check against an in-test transcription of the Ricci form."""
        conn = WEYL_CASES[case]()
        R = curvature(conn)
        ric = ricci(conn)
        W = weyl3(conn)
        from fractions import Fraction

        for l, i, j, k in W.indices():
            value = R[l, i, j, k]
            if l == k:
                value = value + (ric[i, j] - ric[j, i]) * Fraction(1, 4)
            if l == j:
                value = value + (ric[i, k] * 3 + ric[k, i]) * Fraction(1, 8)
            if l == i:
                value = value - (ric[j, k] * 3 + ric[k, j]) * Fraction(1, 8)
            assert W[l, i, j, k] == value

    def test_weyl_requires_dimension_three(self):
        with pytest.raises(DimensionError):
            weyl3(from_table(coords_named("x", "y"), {}))

    def test_weyl_endomorphism_trace_free_random_tables(self):
        rng = random.Random(20240817)
        coords = coords_named("x", "y", "z")
        for _ in range(10):
            conn = rand_torsionfree(rng, coords)
            W = weyl3(conn)
            for i, j in product(range(3), repeat=2):
                total = ZERO_POLY
                for k in range(3):
                    total = total + W[k, i, j, k]
                assert total.is_zero()


ORACLE_FAMILIES = {
    **{f"torus_n-{n}": lambda n=n: torus_n(n) for n in range(4, 9)},
    "torus3": torus3,
    "kuga-shimura": lambda: kuga_shimura(with_trace=True),
    "kuga-shimura-no-trace": lambda: kuga_shimura(with_trace=False),
    "flat": lambda: from_table(coords_named("x", "y", "z"), {}),
}


def assert_matches_dense_oracle(conn):
    R = curvature(conn)
    assert R == naive_curvature(conn)
    for l, i, j, k in R.indices():
        assert R[l, i, j, k] == -R[l, j, i, k]
    return R


class TestCurvatureOracle:
    """The sparse kernel against the dense n^5 formula, entry by entry."""

    @pytest.mark.parametrize("fill", [0.1, 0.4, 1.0])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_random_tables(self, dim, fill):
        rng = random.Random(f"{dim}:{fill}")
        coords = coords_named(*(f"x{i}" for i in range(dim)))
        for _ in range(3):
            assert_matches_dense_oracle(rand_torsionfree(rng, coords, fill=fill))

    def test_function_symbols(self):
        # d_i of f(x0, x1) yields the derived symbols f_x0, f_x1; d_x2 of
        # f_x0 vanishes, which curvature skips and the dense oracle computes
        rng = random.Random(20241007)
        coords = coords_named("x0", "x1", "x2")
        pool = [
            *coords,
            function("f", ("x0", "x1")),
            function("h", ("x2",)),
            function("f", ("x0", "x1")).derivative("x0"),
            parameter("A"),
        ]
        for fill in (0.4, 1.0):
            for _ in range(4):
                conn = rand_torsionfree(rng, coords, symbols=pool, fill=fill)
                assert_matches_dense_oracle(conn)

    def test_cancelling_products(self):
        # every G^l_{jk} = A + x0: S^l_{ijk} = d_i(A + x0) + 3 (A + x0)^2, so
        # R^l_{ijk} = [i = 0] - [j = 0] and the products cancel wherever
        # i and j are both nonzero
        coords = coords_named("x0", "x1", "x2")
        p = as_poly(parameter("A")) + as_poly(coords[0])
        conn = from_table(coords, {idx: p for idx in product(range(3), repeat=3)})
        R = assert_matches_dense_oracle(conn)
        for l, i, j, k in R.indices():
            assert R[l, i, j, k] == as_poly(int(i == 0) - int(j == 0))

    @pytest.mark.parametrize("case", list(ORACLE_FAMILIES))
    def test_families(self, case):
        assert_matches_dense_oracle(ORACLE_FAMILIES[case]())


class TestBianchi:
    def test_family_weyl_satisfies_bianchi(self, family):
        assert bianchi_holds(weyl3(family))

    def test_random_torsionfree_curvature(self):
        rng = random.Random(20240818)
        cases = 0
        for dim in (2, 3, 4):
            coords = coords_named(*(f"x{i}" for i in range(dim)))
            for _ in range(17):
                conn = rand_torsionfree(rng, coords)
                assert bianchi_holds(curvature(conn))
                cases += 1
        assert cases >= 50

    def test_counterexample(self):
        # the oracle must be able to fail
        entries = {(0, 0, 1, 0): as_poly(1)}
        t = Tensor.from_function(
            2,
            (UP, DOWN, DOWN, DOWN),
            lambda idx: entries.get(idx, ZERO_POLY),
        )
        assert not bianchi_holds(t)


class TestLieDerivative:
    def test_constant_field_on_constant_table(self, family):
        X = Tensor(3, (UP,), [0, 1, 0])  # d/dz1
        assert lie_derivative(family, X).is_zero()

    def test_linear_field_on_flat(self):
        coords = coords_named("x", "y")
        x, y = coords
        conn = from_table(coords, {})
        X = Tensor(2, (UP,), [as_poly(x), 0])
        assert lie_derivative(conn, X).is_zero()

    def test_fiber_coefficient_derivative(self):
        # expanded by hand: only the transport term X^m d_m G^k_{ij} survives
        conn = kuga_shimura(with_trace=False)
        X = Tensor(3, (UP,), [1, 0, 0])  # d/dtau
        L = lie_derivative(conn, X)
        A = conn.gamma[1][0][0]  # the formal A(tau)
        (a_sym,) = A.symbols()
        expected = as_poly(a_sym.derivative("tau"))
        assert L[1, 0, 0] == expected
        assert L[2, 0, 0] == as_poly(next(iter(conn.gamma[2][0][0].symbols())).derivative("tau"))

    def test_output_symmetric(self):
        rng = random.Random(20240819)
        coords = coords_named("x", "y", "z")
        for _ in range(5):
            conn = rand_torsionfree(rng, coords)
            X = Tensor(
                3, (UP,), [as_poly(coords[0]) ** 2, as_poly(coords[1]), as_poly(1)]
            )
            L = lie_derivative(conn, X)
            for k, i, j in L.indices():
                assert L[k, i, j] == L[k, j, i]
