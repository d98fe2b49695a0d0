"""Divergence, injection, trace-free projection, equivalence, flatness."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from projconn.connection import from_table, weyl3
from projconn.errors import ConstructionError, DimensionError, ShapeError
from projconn.families import kuga_shimura, torus3, torus_n
from projconn.poly import as_poly
from projconn.projective import (
    OneForm,
    divergence,
    flatness_conditions,
    inject,
    is_projectively_flat,
    projective_equiv,
    trace_free_project,
    volume_normalize,
    with_one_form,
)
from projconn.symbols import coordinate, function, parameter
from projconn.tensor import UP, Tensor

from helpers import (
    coords_named, dense_add, dense_sub, rand_one_form, rand_torsionfree, sympy_weyl, to_poly)


class TestDivergenceInjection:
    def test_div_of_injection_is_scaled_identity(self):
        rng = random.Random(20240820)
        for n in (2, 3, 4, 5):
            coords = coords_named(*(f"x{i}" for i in range(n)))
            for _ in range(13):
                theta = rand_one_form(rng, coords)
                scaled = tuple(e * (n + 1) for e in theta.entries)
                assert divergence(inject(theta)).entries == scaled

    def test_divergence_of_zero(self):
        coords = coords_named("x", "y")
        assert divergence(inject(OneForm(coords, [0, 0]))).is_zero()

    def test_one_form_component_count_is_checked(self):
        with pytest.raises(ShapeError, match="^one-form component count mismatch$"):
            OneForm(coords_named("x", "y"), [0, 0, 0])

    def test_fibered_family_divergence(self):
        field = kuga_shimura(with_trace=True).table
        div = divergence(field)
        c_sym = next(s for s in div[0].symbols())
        assert div[0] == 2 * as_poly(c_sym)
        assert c_sym.name == "C"
        assert div[1].is_zero() and div[2].is_zero()

    def test_tracefree_family_divergence_zero(self):
        assert divergence(kuga_shimura(with_trace=False).table).is_zero()

    def test_vector_field_is_not_injected(self):
        vector = Tensor(3, (UP,), [as_poly(parameter("A")), 0, 0])
        with pytest.raises(ShapeError, match=r"expected variance \('down',\)"):
            inject(vector)


class TestProjection:
    def test_projection_kills_injection_image(self):
        rng = random.Random(20240821)
        coords = coords_named("x", "y", "z")
        for _ in range(10):
            theta = rand_one_form(rng, coords)
            assert trace_free_project(inject(theta)).is_zero()

    def test_idempotence_by_recomputation(self):
        rng = random.Random(20240822)
        for n in (2, 3, 4):
            coords = coords_named(*(f"x{i}" for i in range(n)))
            for _ in range(8):
                t = rand_torsionfree(rng, coords).table
                once = trace_free_project(t)
                assert trace_free_project(once) == once
                assert divergence(once).is_zero()

    def test_direct_sum_decomposition(self):
        rng = random.Random(20240823)
        coords = coords_named("x", "y", "z")
        for _ in range(10):
            t = rand_torsionfree(rng, coords).table
            n = len(coords)
            scaled = [e * Fraction(1, n + 1) for e in inject(divergence(t)).entries]
            assert dense_add(trace_free_project(t), Tensor(n, t.variance, scaled)) == t.entries

    def test_fibered_family_projection_drops_trace(self):
        with_trace = kuga_shimura(True).table
        trace_free = kuga_shimura(False).table
        assert trace_free_project(with_trace) == trace_free


class TestEquivalence:
    def test_trace_elimination_witness(self):
        raw = torus3()
        killed = torus3(E=0)
        theta = projective_equiv(raw, killed)
        assert theta is not None
        E = as_poly(parameter("E"))
        assert theta[0] == E / 2
        assert theta[1].is_zero()
        assert theta[2].is_zero()

    def test_reflexive(self):
        c = torus3()
        theta = projective_equiv(c, c)
        assert theta is not None and theta.is_zero()

    def test_injection_reproduces_trace_difference(self):
        # J applied to the one-form (E/2) d tau is exactly the difference
        # of the two family members
        raw = torus3()
        E = as_poly(parameter("E"))
        phi = OneForm(raw.coords, [E / 2, 0, 0])
        assert inject(phi).entries == dense_sub(raw.table, torus3(E=0).table)

    def test_inequivalent_pair(self):
        probe = torus3(A=0, B=0, C=1, D=0, E=0)
        flat = torus3(A=0, B=0, C=0, D=0, E=0)
        assert projective_equiv(probe, flat) is None

    def test_symmetric_and_transitive(self):
        rng = random.Random(20240824)
        coords = coords_named("x", "y", "z")
        base = rand_torsionfree(rng, coords)
        t1 = rand_one_form(rng, coords)
        t2 = rand_one_form(rng, coords)
        c1 = with_one_form(base, t1)
        c2 = with_one_form(c1, t2)
        w12 = projective_equiv(c1, base)
        assert w12 == t1
        back = projective_equiv(base, c1)
        assert back.entries == tuple(-e for e in t1.entries)
        total = projective_equiv(c2, base)
        assert total.entries == dense_add(t1, t2)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            projective_equiv(torus3(), from_table(coords_named("x", "y"), {}))

    def test_shift_takes_only_a_one_form_on_the_chart(self):
        A = as_poly(parameter("A"))
        for theta in (Tensor(3, (UP,), [A, 0, 0]), OneForm(coords_named("x", "y"), [A, 0])):
            with pytest.raises(ShapeError, match="expected variance"):
                with_one_form(torus3(), theta)


    @pytest.mark.parametrize(
        "stray, message",
        [
            (coordinate("w"), "undeclared coordinate 'w'"),
            (function("f", ("x", "w")), "function 'f' depends on coordinates outside"),
            (function("f", ("x", "w")).derivative("w"), "function 'f' depends on coordinates"),
        ],
    )
    def test_one_form_outside_the_chart_rejected(self, stray, message):
        coords = coords_named("x", "y", "z")
        c = from_table(coords, {(0, 1, 2): parameter("A")})
        for slot in range(3):
            components = [as_poly(coords[0]), 1, 0]
            components[slot] = as_poly(stray) + components[slot]
            with pytest.raises(ConstructionError, match=message):
                with_one_form(c, OneForm(coords, components))
        assert with_one_form(c, OneForm(coords, [coords[0], 1, 0])) != c


class TestVolumeNormalize:
    def test_family_traces_removed(self):
        raw = torus3()
        normalized = volume_normalize(raw)
        n = raw.dim
        # raw tau-trace is 2E, normalized traces vanish for every direction
        E = as_poly(parameter("E"))
        raw_trace = sum((raw.table[k, 0, k] for k in range(n)), as_poly(0))
        assert raw_trace == 2 * E
        for i in range(n):
            total = as_poly(0)
            for k in range(n):
                total = total + normalized.table[k, i, k]
            assert total.is_zero()

    def test_witness_tau_component_is_half_E(self):
        raw = torus3()
        normalized = volume_normalize(raw)
        theta = projective_equiv(raw, normalized)
        E = as_poly(parameter("E"))
        assert theta is not None
        assert theta[0] == E / 2

    def test_e_part_factors_through_normalization(self):
        # the two family members normalize to the same connection
        assert volume_normalize(torus3()) == volume_normalize(torus3(E=0))

    def test_flat_fixed_point(self):
        c = from_table(coords_named("x", "y", "z"), {})
        assert volume_normalize(c) == c

    def test_idempotent_on_random_tables(self):
        rng = random.Random(20240825)
        for n in (2, 3, 4):
            coords = coords_named(*(f"x{i}" for i in range(n)))
            for _ in range(6):
                c = rand_torsionfree(rng, coords)
                once = volume_normalize(c)
                assert volume_normalize(once) == once
                assert projective_equiv(c, once) is not None


class TestFlatness:
    def test_flat_iff_parameters_agree(self):
        assert is_projectively_flat(torus3(A=1, B=2, C=5, D=5, E=7))
        assert not is_projectively_flat(torus3(A=1, B=2, C=5, D=6, E=0))
        assert is_projectively_flat(from_table(coords_named("x", "y", "z"), {}))

    def test_weyl_zero_predicate_instances(self):
        assert not weyl3(torus3(A=1, B=1, C=2, D=3, E=0)).is_zero()
        C, D = parameter("C"), parameter("D")
        W = weyl3(torus3())
        assert all(p.subst({C: as_poly(D)}).is_zero() for p in W.entries)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            is_projectively_flat(from_table(coords_named("x", "y"), {}))

    def test_conditions_of_the_family(self):
        conds = flatness_conditions(torus3())
        C = as_poly(parameter("C"))
        D = as_poly(parameter("D"))
        # every condition is divisible by C - D: substituting C := D kills it
        for poly in conds:
            assert poly.subst({parameter("C"): D}).is_zero()
        assert (C - D) ** 2 in conds
        # collectively they vanish exactly on C = D
        sample = {
            parameter("A"): as_poly(1),
            parameter("B"): as_poly(2),
            parameter("C"): as_poly(5),
            parameter("D"): as_poly(6),
            parameter("E"): as_poly(0),
        }
        assert any(not p.subst(sample).is_zero() for p in conds)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_torus_n_flat_exactly_where_c_d_e_vanish(self, n):
        """The conditions of torus_n are the sympy engine's nonzero Weyl
        entries up to scale, and they cut out C = D = E = 0 with A and B
        free: each of C, D and E lies in the radical of their ideal (adjoining
        1 - t*v puts 1 in it), and every entry vanishes on C = D = E = 0."""
        conn = torus_n(n)
        _, _, W, gens = sympy_weyl(conn)
        ideal = [w for w in W.values() if not w.is_zero]
        conds = flatness_conditions(conn)
        assert {to_poly(p, gens).monic() for p in conds} == {w.monic() for w in ideal}
        assert len(conds) == 16
        A, B, C, D, E, t = sp.symbols("A B C D E t")
        for v in (C, D, E):
            basis = sp.groebner([*(w.as_expr() for w in ideal), 1 - t * v], t, A, B, C, D, E)
            assert list(basis.exprs) == [1]
        assert all(w.as_expr().subs({C: 0, D: 0, E: 0}) == 0 for w in ideal)
        zero = {parameter(name): as_poly(0) for name in "CDE"}
        assert all(p.subst(zero).is_zero() for p in conds)
        assert is_projectively_flat(torus_n(n, A=1, B=2, C=0, D=0, E=0))
        assert not is_projectively_flat(torus_n(n, A=1, B=2, C=0, D=0, E=3))

    def test_conditions_empty_for_flat(self):
        assert flatness_conditions(from_table(coords_named("x", "y", "z"), {})) == []

    def test_conditions_depend_only_on_difference(self):
        # shifting C and D together leaves every condition unchanged
        t = parameter("t")
        C = parameter("C")
        D = parameter("D")
        conds = flatness_conditions(torus3())
        shift = {C: as_poly(C) + as_poly(t), D: as_poly(D) + as_poly(t)}
        for poly in conds:
            assert poly.subst(shift) == poly

    def test_generic_constant_table_snapshot(self):
        """Frozen shape of the conditions for the fully generic table."""
        coords = coords_named("x", "y", "z")
        entries = {}
        pos = 0
        for k in range(3):
            for i in range(3):
                for j in range(i, 3):
                    entries[(k, i, j)] = as_poly(parameter(f"g{pos}"))
                    pos += 1
        generic = from_table(coords, entries)
        conds = flatness_conditions(generic)
        # snapshot established by the first correct run, then frozen
        assert len(conds) == 18
        assert {sum(e for _, e in m) for p in conds for m in p.terms()} == {2}


class TestWeylInvariance:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_weyl_unchanged_by_one_form_shift(self, n):
        rng = random.Random(20240826 + n - 3)
        coords = coords_named(*"xyzuvw"[:n])
        for _ in range(20):
            c = rand_torsionfree(rng, coords)
            theta = rand_one_form(rng, coords)
            assert weyl3(with_one_form(c, theta)) == weyl3(c)
