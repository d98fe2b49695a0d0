"""Connections: construction, curvature conventions, Weyl, Lie derivative."""

import random
from fractions import Fraction
from itertools import product

import pytest

import golden
from projconn import connection
from projconn.connection import (
    MAX_DIM,
    Connection,
    _curvature_targets,
    _weyl_corrections,
    curvature,
    from_table,
    lie_derivative,
    ricci,
    trace_r,
    weyl3,
)
from projconn.errors import ConstructionError, DegreeError, DimensionError, ShapeError
from projconn.families import kuga_shimura, torus3, torus_n
from projconn.projective import with_one_form
from projconn.specfile import parse_spec
from projconn.poly import MAX_DEGREE, ZERO_POLY, as_poly
from projconn.symbols import function, parameter
from projconn.tensor import DOWN, Tensor, UP, contract

from helpers import (
    assert_matches_sympy,
    bianchi_holds,
    coords_named,
    dense_contract,
    dense_swap_slots,
    naive_curvature,
    rand_deg2_table,
    rand_one_form,
    rand_torsionfree,
    trr_weyl,
)


@pytest.fixture(scope="module")
def family():
    return torus3()


def _shifted_deg2_table(seed):
    # a criterion-06 table moved by a one-form with Gaussian coefficients,
    # as the weyl-random benchmark workload does
    rng = random.Random(seed)
    coords = coords_named("x", "y", "z")
    return with_one_form(rand_deg2_table(rng, coords), rand_one_form(rng, coords))


# Tables on which weyl3 is checked against the Ricci-only form: both
# families, random real tables shaped like acceptance criterion 06, and two
# groups with Gaussian coefficients (imaginary parts, denominators up to 4):
# random polynomial tables, and criterion-06 tables shifted by a one-form.
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
    **{
        f"gaussian-{seed}": lambda seed=seed: rand_torsionfree(
            random.Random(seed), coords_named("x", "y", "z")
        )
        for seed in range(20241020, 20241032)
    },
    **{
        f"shifted-{seed}": lambda seed=seed: _shifted_deg2_table(seed)
        for seed in range(20241040, 20241052)
    },
}
GAUSSIAN_GROUPS = ("gaussian-", "shifted-")


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
        assert conn.table[0, 1, 0] == as_poly(A)

    def test_conflicting_symmetric_entries(self):
        coords = coords_named("x", "y")
        with pytest.raises(ConstructionError):
            from_table(coords, {(0, 0, 1): as_poly(1), (0, 1, 0): as_poly(2)})

    def test_named_single_entry(self):
        coords = coords_named("tau", "z1", "z2")
        A = parameter("A")
        conn = parse_spec("dim = 3\ncoords = tau, z1, z2\nparams = A\n[gamma]\n"
                          "z1.tau.tau = A\n")
        assert conn.coords == coords
        assert conn.table[1, 0, 0] == as_poly(A)
        nonzero = [(idx, g) for idx, g in conn.table.items() if idx[1] <= idx[2]]
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
            parse_spec("dim = 3\ncoords = x, y, z\nparams = A\n[gamma]\n"
                       "z.y.x = A\ny.y.y = 3\n"),
        ]
        assert built[0] == built[1] == built[2]
        assert len({hash(c) for c in built}) == 1
        assert built[0].table[2, 1, 0] == A


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
            Connection(self.coords, (((0,) * 3,) * 3,) * 3)

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
        x, y, z = coords_named("x", "y", "z")
        with pytest.raises(ConstructionError, match="coordinate 'y' is declared twice"):
            from_table((x, y, z, y), {})

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
        assert conn.table[0, 0, 0] == f


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
        R = family_curvature
        assert dense_swap_slots(R, 1, 2) == tuple(-e for e in R.entries)

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

        assert symmetry_check(ricci(family), (0, 1))

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
        """Cross-check against an in-test transcription of the Ricci form,
        on the dense curvature oracle, so that no kernel of the engine's
        curvature, Ricci or Weyl code enters the expected value."""
        conn = WEYL_CASES[case]()
        R = naive_curvature(conn)
        ric = {
            (j, k): sum((R[i, i, j, k] for i in range(3)), ZERO_POLY)
            for j, k in product(range(3), repeat=2)
        }
        W = weyl3(conn)

        for l, i, j, k in W.indices():
            value = R[l, i, j, k]
            if l == k:
                value = value + (ric[i, j] - ric[j, i]) * Fraction(1, 4)
            if l == j:
                value = value + (ric[i, k] * 3 + ric[k, i]) * Fraction(1, 8)
            if l == i:
                value = value - (ric[j, k] * 3 + ric[k, j]) * Fraction(1, 8)
            assert W[l, i, j, k] == value

    @pytest.mark.parametrize("group", GAUSSIAN_GROUPS)
    def test_gaussian_groups_reach_imaginary_cross_terms(self, group):
        # most tables of the group give a curvature with nonreal
        # coefficients; the Weyl tensor of a shifted table is that of the
        # real table it was shifted from
        cases = [c for c in WEYL_CASES if c.startswith(group)]
        nonreal = sum(
            any(c.im for e in curvature(WEYL_CASES[case]()).entries for c in e.coefficients())
            for case in cases
        )
        assert nonreal > len(cases) // 2

    def test_weyl_requires_dimension_three(self):
        with pytest.raises(DimensionError):
            weyl3(from_table(coords_named("x", "y"), {}))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_weyl_endomorphism_trace_free_random_tables(self, n):
        # both traces of W vanish: over its last argument and over its first
        rng = random.Random(20240817 + n - 3)
        coords = coords_named(*"xyzuvw"[:n])
        for _ in range(10):
            W = weyl3(rand_torsionfree(rng, coords))
            assert contract(W, 0, 1).is_zero() and contract(W, 0, 3).is_zero()


# Tables on which projconn's curvature, Ricci and Weyl tensors are checked
# against the sympy engine: criterion-06 tables in dims 3-5, both families of
# dimension 3 and torus_n in dims 4-6.
SYMPY_CASES = {
    **{
        f"criterion-06-dim{n}-{seed}": lambda n=n, seed=seed: rand_deg2_table(
            random.Random(seed), coords_named(*(f"x{i}" for i in range(n)))
        )
        for n in (3, 4, 5)
        for seed in range(20241060, 20241064)
    },
    "torus3": torus3,
    "kuga-shimura": lambda: kuga_shimura(with_trace=True),
    "kuga-shimura-no-trace": lambda: kuga_shimura(with_trace=False),
    **{f"torus_n-{n}": lambda n=n: torus_n(n) for n in (4, 5, 6)},
}


@pytest.mark.parametrize("case", list(SYMPY_CASES))
def test_engine_matches_sympy(case):
    assert_matches_sympy(SYMPY_CASES[case]())


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

    def test_trace_r_is_settled_from_its_own_sums(self, monkeypatch):
        # TrR comes from the derivative terms alone: no curvature is settled
        # and nothing is contracted
        def refuse(*args):
            raise AssertionError("trace_r settled or contracted R")

        rng = random.Random(20261020)
        conns = [kuga_shimura(with_trace=True), kuga_shimura(with_trace=False)]
        for dim, fill in product((2, 3, 4, 5), (0.3, 1.0)):
            coords = coords_named(*(f"x{i}" for i in range(dim)))
            conns.append(rand_torsionfree(rng, coords, [*coords, parameter("A")], fill=fill))
        expected = [dense_contract(naive_curvature(conn), 0, 3) for conn in conns]
        monkeypatch.setattr(connection, "curvature", refuse)
        monkeypatch.setattr(connection, "contract", refuse)
        for conn, dense in zip(conns, expected):
            assert trace_r(conn).entries == dense
        assert any(not e.is_zero() for dense in expected for e in dense)

    def test_sparse_table_at_max_dim(self):
        # the largest target plan: curvature against the dense formula and
        # weyl3 against the settle-then-correct path, with Gaussian coefficients
        rng = random.Random(20261019)
        coords = coords_named(*(f"x{i}" for i in range(MAX_DIM)))
        conn = rand_torsionfree(rng, coords, [*coords, parameter("A")], fill=0.04)
        assert len(conn.table._stored) > MAX_DIM
        assert not assert_matches_dense_oracle(conn).is_zero()
        assert weyl3(conn) == trr_weyl(conn)

    def test_target_plan_is_cubic(self):
        # cached for the life of the process, one plan per dimension: n^3 entries, not n^4
        plan = _curvature_targets(MAX_DIM)
        assert len(plan) <= MAX_DIM**3 and all(len(targets) <= 2 for targets in plan)

    @pytest.mark.parametrize("n, addends", [(3, 54), (4, 204), (5, 540), (6, 1170), (12, 20196)])
    def test_weyl_plan_size(self, n, addends):
        # one plan at every n: a step per W^l_{ijk}, i < j, l in {i, j, k}, that
        # is 3n - 2 per pair (21, 60, 130, 240, 2,244 steps), with P written into
        # it; TrR comes from the derivative terms, never from R
        steps = _weyl_corrections(n)
        assert len(steps) == n * (n - 1) // 2 * (3 * n - 2)
        assert sum(len(a) for _, a in steps) == addends
        assert all(type(t) is int for t, _ in steps)


def _power_tables(exp, n=None):
    """Tables whose Christoffel products have x0 at exponent 2 * exp, on their
    first one, two or three coordinates, or on the first n for every table."""
    x = coords_named("x0", "x1", "x2")
    p = as_poly(x[0]) ** exp
    return {
        # dimension 1: every product is G^0_{00} G^0_{00} and lands on no
        # entry of R
        "lands-nowhere": from_table(x[:n or 1], {(0, 0, 0): p}),
        # G^0_{01} G^1_{11} is a term of R^0_{011}
        "lands": from_table(x[:n or 2], {(0, 0, 1): p, (1, 1, 1): p}),
        # every entry p: the products of S^l_{ijk} and S^l_{jik} cancel in R
        "cancels-in-R": from_table(x[:n or 2], {idx: p for idx in product(range(2), repeat=3)}),
        # G^2 = -G^0, so S^l_{ijk} = (G^l_{i0} - G^l_{i2}) G^0_{jk} = 0: every
        # product lands on an entry of R and cancels inside S, so only the
        # derivative terms, of exponent exp - 1, survive
        "cancels-in-S": from_table(
            x, {(0, 0, 1): p, (0, 1, 2): p, (2, 0, 1): -p, (2, 1, 2): -p}
        ),
    }


def _outcome(kernel, conn):
    """The kernel's result on conn, or DegreeError when it refuses it."""
    try:
        return kernel(conn)
    except DegreeError as exc:
        assert str(exc) == f"an exponent exceeds the bound of {MAX_DEGREE}"
        return DegreeError


class TestDegreeBound:
    """A Christoffel product with an exponent above MAX_DEGREE raises
    DegreeError, also where the product lands on no entry or cancels."""

    @pytest.mark.parametrize("case", list(_power_tables(1)))
    def test_overflowing_product_rejected(self, case):
        conn = _power_tables(MAX_DEGREE // 2 + 1)[case]
        with pytest.raises(DegreeError, match=f"^an exponent exceeds the bound of {MAX_DEGREE}$"):
            curvature(conn)

    @pytest.mark.parametrize("case", list(_power_tables(1)))
    def test_products_at_the_bound_accepted(self, case):
        R = assert_matches_dense_oracle(_power_tables(MAX_DEGREE // 2)[case])
        if case.startswith("cancels"):
            # only derivative terms survive: no exponent above exp - 1
            assert all(exp < MAX_DEGREE // 2 for e in R.entries
                       for mono in e.terms() for _, exp in mono)

    @pytest.mark.parametrize("case", list(_power_tables(1)))
    @pytest.mark.parametrize("exp", [MAX_DEGREE // 2 + 1, MAX_DEGREE // 2])
    def test_weyl_refuses_exactly_where_curvature_does(self, case, exp):
        # weyl3 and trace_r never settle R, so their accumulators must still
        # hold every monomial of the R accumulators up to the guard-bit check
        conn = _power_tables(exp, n=3)[case]
        refused = exp > MAX_DEGREE // 2
        assert (_outcome(curvature, conn) is DegreeError) == refused
        W, TrR = _outcome(weyl3, conn), _outcome(trace_r, conn)
        assert (W is DegreeError) == (TrR is DegreeError) == refused
        if not refused:
            assert W == trr_weyl(conn)
            assert TrR == contract(curvature(conn), 0, 3)


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
        t = Tensor(2, (UP, DOWN, DOWN, DOWN),
                   [1 if idx == (0, 0, 1, 0) else 0 for idx in product(range(2), repeat=4)])
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

    def test_field_must_be_a_vector_field_on_the_chart(self, family):
        for field in (Tensor(3, (DOWN,), [0, 1, 0]), Tensor(2, (UP,), [0, 1])):
            with pytest.raises(ShapeError, match="^vector field shape mismatch$"):
                lie_derivative(family, field)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_linear_fields_on_constant_tables(self, n):
        """Along X = x_a d_b a constant table moves by the gl(n) action
        (L_X G)^k_{ij} = d_{ia} G^k_{bj} + d_{ja} G^k_{ib} - d^k_b G^a_{ij},
        and along every constant field d_a it does not move."""
        rng = random.Random(20261019 + n)
        coords = coords_named(*(f"x{i}" for i in range(n)))
        conn = rand_torsionfree(rng, coords, symbols=[], fill=0.6)  # Gaussian constants
        G, moved = conn.table, 0
        for a, b in product(range(n), repeat=2):
            L = lie_derivative(conn, Tensor(n, (UP,), [coords[a] if m == b else 0 for m in range(n)]))
            assert L.entries == tuple(
                (G[k, b, j] if i == a else ZERO_POLY) + (G[k, i, b] if j == a else ZERO_POLY)
                - (G[a, i, j] if k == b else ZERO_POLY) for k, i, j in product(range(n), repeat=3))
            moved += not L.is_zero()
        assert moved == n * n
        for a in range(n):
            assert lie_derivative(conn, Tensor(n, (UP,), [int(m == a) for m in range(n)])).is_zero()

    def test_fiber_coefficient_derivative(self):
        # expanded by hand: only the transport term X^m d_m G^k_{ij} survives
        conn = kuga_shimura(with_trace=False)
        X = Tensor(3, (UP,), [1, 0, 0])  # d/dtau
        L = lie_derivative(conn, X)
        A = conn.table[1, 0, 0]  # the formal A(tau)
        (a_sym,) = A.symbols()
        expected = as_poly(a_sym.derivative("tau"))
        assert L[1, 0, 0] == expected
        assert L[2, 0, 0] == as_poly(next(iter(conn.table[2, 0, 0].symbols())).derivative("tau"))

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
