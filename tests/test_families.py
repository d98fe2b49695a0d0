"""Named families and the exact group-action equivariance checks."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

from projconn.connection import MAX_DIM, curvature, from_table, weyl3
from projconn.errors import ConsistencyError, ConstructionError, EvalError, PoleError, ShapeError
from projconn.families import (
    _KUGA_SHIMURA_WEIGHTS,
    GroupElement,
    invariance_check,
    kuga_shimura,
    orbit_safe_points,
    torus3,
    torus_n,
    torus_coords,
)
from projconn.cli import main
from projconn.poly import DiffPoly, as_poly
from projconn.projective import (
    divergence,
    is_projectively_flat,
    projective_equiv,
)
from projconn.rational import GaussianRational, I, ONE, ZERO
from projconn.symbols import coordinate, function, parameter
from projconn.tensor import DOWN, Tensor, UP

from helpers import rand_fraction, restrict, run_python


def rational(num, den=1):
    return GaussianRational(Fraction(num, den))


class TestTorus3:
    def test_zero_parameters_give_flat(self):
        assert torus3(0, 0, 0, 0, 0) == from_table(torus_coords(), {})

    def test_half_coefficient_slots(self):
        conn = torus3()
        C = as_poly(parameter("C"))
        assert conn.table[0, 0, 1] == C / 2  # G^tau_{tau z1}
        assert conn.table[0, 1, 0] == C / 2

    def test_exact_nonzero_pattern(self):
        conn = torus3()
        A, B, C, D, E = (as_poly(parameter(n)) for n in "ABCDE")
        half = Fraction(1, 2)
        expected = {
            (1, 0, 0): A,
            (2, 0, 0): B,
            (1, 1, 1): C,
            (0, 0, 1): C * half,
            (1, 1, 2): C * half,
            (2, 2, 2): D,
            (0, 0, 2): D * half,
            (2, 1, 2): D * half,
            (0, 0, 0): E,
            (1, 0, 1): E * half,
            (2, 0, 2): E * half,
        }
        assert {idx: g for idx, g in conn.table.items() if idx[1] <= idx[2]} == expected


class TestTorusN:
    def test_restriction_recovers_torus3(self):
        conn = torus_n(4)
        assert restrict(conn, ("tau", "z1", "z2")) == torus3()

    def test_restriction_of_nonflat_sample_is_nonflat(self):
        conn = torus_n(4, A=1, B=2, C=5, D=6, E=0)
        sub = restrict(conn, ("tau", "z1", "z2"))
        assert not is_projectively_flat(sub)

    def test_zero_parameters_flat_in_dim5(self):
        conn = torus_n(5, 0, 0, 0, 0, 0)
        assert curvature(conn).is_zero()

    def test_small_n_rejected(self):
        with pytest.raises(ConstructionError):
            torus_n(3)

    def test_repeated_calls_share_their_symbols(self):
        first, second = torus_n(8), torus_n(8)
        assert first == second
        assert all(a is b for a, b in zip(first.coords, second.coords, strict=True))
        assert torus_n(4).coords == first.coords[:4] and torus3().coords == first.coords[:3]

    def test_large_n_rejected_before_any_symbol_is_built(self):
        code = (
            "from projconn.connection import MAX_DIM\n"
            "from projconn.errors import ConstructionError\n"
            "from projconn import families\n"
            "try:\n"
            "    families.torus_n(MAX_DIM + 1)\n"
            "except ConstructionError as exc:\n"
            "    print(exc, families._torus_symbols.cache_info().currsize)\n"
        )
        out = run_python(code, timeout=60)
        assert out.stdout == f"torus_n takes n <= {MAX_DIM} 0\n", out.stderr

    @pytest.mark.parametrize("coefficient", [coordinate("z4"), function("f", ("z4",))])
    def test_coefficient_off_the_torus3_chart_rejected(self, coefficient):
        # z4 is a coordinate of torus_n(4), but a coefficient in it would
        # break the restriction to {tau, z1, z2}; torus3 refuses it too
        for build in (torus3, lambda A: torus_n(4, A)):
            with pytest.raises(ConstructionError, match="z4|outside this chart"):
                build(A=coefficient)


class TestKugaShimura:
    def test_divergence_is_twice_trace_coefficient(self):
        div = divergence(kuga_shimura(True).table)
        c_sym = function("C", ("tau",))
        assert div[0] == 2 * as_poly(c_sym)
        assert div[1].is_zero() and div[2].is_zero()

    def test_tracefree_curvature_vanishes_without_derivatives(self):
        conn = kuga_shimura(with_trace=False)
        R = curvature(conn)
        assert R.is_zero()
        # the derivative part cancels before any derivative symbol survives:
        # d_i G^l_{jk} - d_j G^l_{ik} summed over the index pattern
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        part = (conn.table[l, j, k].diff(conn.coords[i])
                                - conn.table[l, i, k].diff(conn.coords[j]))
                        for sym in part.symbols():
                            assert not sym.is_derived()

    def test_full_family_weyl_vanishes(self):
        conn = kuga_shimura(with_trace=True)
        assert not curvature(conn).is_zero()  # R itself feels C(tau)
        assert weyl3(conn).is_zero()

    def test_projective_equivalence_of_trace_pair(self):
        theta = projective_equiv(kuga_shimura(True), kuga_shimura(False))
        assert theta is not None
        c_sym = function("C", ("tau",))
        assert theta[0] == as_poly(c_sym) / 2
        assert theta[1].is_zero()
        assert theta[2].is_zero()

    def test_weights(self):
        assert _KUGA_SHIMURA_WEIGHTS == {
            "A": Fraction(3, 2),
            "B": Fraction(3, 2),
            "C": Fraction(1),
        }


class TestGroupElement:
    def test_determinant_enforced(self):
        with pytest.raises(ConstructionError):
            GroupElement(1, 1, 1, 1)

    def test_identity_map(self):
        g = GroupElement(1, 0, 0, 1)
        point = (rational(2), rational(1, 3), rational(-1))
        assert g.apply(point) == point
        jac, _ = g.jacobian(point)
        for r in range(3):
            for c in range(3):
                assert jac[r][c] == (ONE if r == c else ZERO)

    def test_unipotent_translation(self):
        g = GroupElement(1, 1, 0, 1)
        image = g.apply((I, ZERO, ZERO))
        assert image == (I + ONE, ZERO, ZERO)
        jac, _ = g.jacobian((I, ZERO, ZERO))
        assert jac[0][0] == ONE  # d tau pullback coefficient

    def test_order_four_element(self):
        g = GroupElement(0, -1, 1, 0)
        tau_image = g.apply((I, ZERO, ZERO))[0]
        assert tau_image == I  # -1/i = i
        jac, _ = g.jacobian((I, ZERO, ZERO))
        # d tau factor 1/(c tau + d)^2 = 1/i^2 = -1
        assert jac[0][0] == GaussianRational(-1)

    def test_pole_detected(self):
        g = GroupElement(0, -1, 1, 0)
        with pytest.raises(PoleError):
            g.apply((ZERO, ZERO, ZERO))

    def test_closed_form_inverse_jacobian(self):
        rng = random.Random(20240832)
        elements = [
            GroupElement(0, -1, 1, 0, 1, 2, 3, 4),
            GroupElement(2, 1, 1, 1, Fraction(1, 2), -1, 0, 3),
            GroupElement(1, 0, I, 1, 0, Fraction(-2, 3), I, 1),
        ]
        for g in elements:
            for point in orbit_safe_points(g, 5, rng):
                jac, jac_inv = g.jacobian(point)
                for r in range(3):
                    for c in range(3):
                        product = sum((jac_inv[r][m] * jac[m][c] for m in range(3)), ZERO)
                        assert product == (ONE if r == c else ZERO)


class TestOrbitSafePoints:
    def test_seeded_draws_are_pinned(self):
        points = orbit_safe_points(GroupElement(0, -1, 1, 0), 3, random.Random(7))
        assert [tuple(str(x) for x in p) for p in points] == [
            ("-1/2", "-5 - i", "1 - 6*i"),
            ("-5/2*i", "-5/4 - 6*i", "-3 + 3/4*i"),
            ("-3 - 3*i", "-1/2 - 4*i", "1 + i"),
        ]

    def test_exhausted_candidates_raise(self):
        # the identity has no pole, so every one of the 33^2 candidate tau is
        # accepted and one more point exhausts them; a fresh interpreter with a
        # timeout, since a missing check loops forever
        cli = "import sys; from projconn.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["pullback-check", "--gamma", "1,0,0,1", "--points"]
        done = run_python(cli, *argv, "1089", timeout=30)
        assert done.returncode == 0, done.stderr
        assert "checked 1089 exact rational points" in done.stdout
        done = run_python(cli, *argv, "1090", timeout=30)
        assert done.returncode == 2
        assert done.stdout == ""
        assert ("error: only 1089 of 1090 points: every one of the 1089 candidate tau values "
                "has been tried\n") in done.stderr


def _random_points(rng, count, g):
    return orbit_safe_points(g, count, rng)


def _random_values(rng, points, names=("A", "B", "C")):
    return {
        name: {p[0]: GaussianRational(rand_fraction(rng), rand_fraction(rng)) for p in points}
        for name in names
    }


def _wrong_slot_field():
    """A moved to G^z1_{z1 z1}, a half-weight slot."""
    a_sym = function("A", ("tau",))
    return Tensor(3, (UP, DOWN, DOWN),
                  [a_sym if idx == (1, 1, 1) else 0 for idx in product(range(3), repeat=3)])


class TestInvariance:
    def test_zero_field_invariant(self):
        rng = random.Random(20240827)
        g = GroupElement(0, -1, 1, 0, 1, 2, 3, 4)
        field = kuga_shimura(True).table
        points = _random_points(rng, 5, g)
        values = {name: {p[0]: ZERO for p in points} for name in ("A", "B", "C")}
        assert invariance_check(field, g, points, values)

    def test_field_must_live_on_three_coordinates(self):
        g = GroupElement(0, -1, 1, 0)
        with pytest.raises(ShapeError, match="^the action is defined on three coordinates$"):
            invariance_check(torus_n(4).table, g, [], {})

    def test_lattice_part_any_values(self):
        rng = random.Random(20240828)
        field = kuga_shimura(True).table
        for _ in range(10):
            lam = [rand_fraction(rng) for _ in range(4)]
            g = GroupElement(1, 0, 0, 1, *lam)
            points = _random_points(rng, 6, g)
            assert invariance_check(field, g, points, _random_values(rng, points))

    def test_unipotent_any_values(self):
        rng = random.Random(20240829)
        field = kuga_shimura(True).table
        for _ in range(5):
            g = GroupElement(1, rand_fraction(rng), 0, 1)
            points = _random_points(rng, 6, g)
            assert invariance_check(field, g, points, _random_values(rng, points))

    def test_order_four_with_transported_values(self):
        rng = random.Random(20240830)
        field = kuga_shimura(True).table
        g = GroupElement(0, -1, 1, 0)
        points = _random_points(rng, 10, g)
        assert invariance_check(field, g, points, _random_values(rng, points))

    def test_hand_computed_cube_factor(self):
        # A at tau = 2i becomes (2i)^3 v at the image -1/(2i); J^-1 and J
        # scale G^z1_{tt} by (2i) (2i)^-4, which gives v back
        g = GroupElement(0, -1, 1, 0)
        tau = GaussianRational(0, 2)
        v = GaussianRational(Fraction(1, 3))
        values = {"A": {tau: v}, "B": {tau: ZERO}, "C": {tau: ZERO}}
        assert invariance_check(kuga_shimura(True).table, g, [(tau, ZERO, ZERO)], values)

    def test_fixed_point_and_colliding_pair_any_values(self):
        # i is fixed by (0,-1,1,0) with factor c tau + d = i; 2i and i/2 swap
        rng = random.Random(20240833)
        g = GroupElement(0, -1, 1, 0)
        field = kuga_shimura(True).table
        points = [(tau, GaussianRational(1, -2), GaussianRational(Fraction(1, 3), 1))
                  for tau in (I, GaussianRational(0, 2), GaussianRational(0, Fraction(1, 2)))]
        values = _random_values(rng, points)
        assert all(not v.is_zero() for by_tau in values.values() for v in by_tau.values())
        assert invariance_check(field, g, points, values)

    def test_wrong_slot_fails_at_a_fixed_point(self):
        g = GroupElement(0, -1, 1, 0)
        assert not invariance_check(_wrong_slot_field(), g, [(I, ONE, ZERO)], {"A": {I: ONE}})

    def test_missing_value_rejected(self):
        g = GroupElement(0, -1, 1, 0)
        tau = GaussianRational(0, 2)
        values = {"A": {tau: ONE}, "B": {tau: ONE}, "C": {tau + ONE: ONE}}
        with pytest.raises(ConsistencyError, match="no value supplied for C"):
            invariance_check(kuga_shimura(True).table, g, [(tau, ZERO, ZERO)], values)
        del values["C"]
        with pytest.raises(ConsistencyError, match="no value supplied for C"):
            invariance_check(kuga_shimura(True).table, g, [(tau, ZERO, ZERO)], values)

    def test_undeclared_weight_rejected(self):
        f_sym = function("F", ("tau",))
        field = Tensor(3, (UP, DOWN, DOWN),
                       [f_sym if idx == (1, 0, 0) else 0 for idx in product(range(3), repeat=3)])
        tau = GaussianRational(0, 2)
        with pytest.raises(ConsistencyError, match="no weight declared for F"):
            invariance_check(field, GroupElement(1, 1, 0, 1), [(tau, ZERO, ZERO)], {"F": {tau: ONE}})

    @pytest.mark.parametrize("entry", ["parameter", "derivative"])
    def test_unbindable_field_symbol_rejected(self, entry):
        a_sym = function("A", ("tau",))
        sym = parameter("P") if entry == "parameter" else a_sym.derivative("tau")
        field = Tensor(3, (UP, DOWN, DOWN), [as_poly(a_sym) + sym if idx == (1, 0, 0) else 0
                                             for idx in product(range(3), repeat=3)])
        tau = GaussianRational(0, 2)
        values = {"A": {tau: ONE, tau + ONE: ONE}}
        with pytest.raises(EvalError, match=re.escape(f"unbound symbol {sym} ")):
            invariance_check(field, GroupElement(1, 1, 0, 1), [(tau, ZERO, ZERO)], values)

    def test_wrong_slot_not_invariant(self):
        """A coefficient moved to a half-weight slot fails under inversion."""
        rng = random.Random(20240831)
        g = GroupElement(0, -1, 1, 0)
        points = _random_points(rng, 4, g)
        values = {"A": {p[0]: GaussianRational(rand_fraction(rng, 3), 1) for p in points}}
        assert not invariance_check(_wrong_slot_field(), g, points, values)

    def test_field_symbols_collected_once_per_check(self, monkeypatch, capsys):
        calls = []
        symbols = DiffPoly.symbols

        def counted(self):
            calls.append(1)
            return symbols(self)

        monkeypatch.setattr(DiffPoly, "symbols", counted)
        counts = []
        for points in ("2", "12"):
            calls.clear()
            assert main(["pullback-check", "--gamma", "0,-1,1,0", "--points", points]) == 0
            assert "invariance: true" in capsys.readouterr().out
            counts.append(len(calls))
        assert counts[0] == counts[1]
