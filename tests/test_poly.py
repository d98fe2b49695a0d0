"""Differential polynomial ring: arithmetic, calculus, canonical form."""

import random
from fractions import Fraction

import pytest

from projconn.errors import DegreeError, EvalError, KindError, SubstError
from projconn.poly import MAX_DEGREE, DiffPoly, as_poly
from projconn.rational import GaussianRational, I
from projconn.symbols import coordinate, function, parameter

from helpers import rand_gaussian, rand_poly

A = parameter("A")
B = parameter("B")
C = parameter("C")
D = parameter("D")
TAU = coordinate("tau")
Z1 = coordinate("z1")
F = function("A", ("tau",))  # formal A(tau), distinct from the parameter A


def P(x):
    return as_poly(x)


class TestArithmetic:
    @pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (5, 3)])
    def test_power_multiplies_by_repeated_squaring(self, monkeypatch, n, products):
        p = P(C) + P(D) * I
        calls = []
        mul = DiffPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(DiffPoly, "__mul__", counting)
        value = p**n
        assert len(calls) == products
        monkeypatch.undo()
        expected = P(1)
        for _ in range(n):
            expected = expected * p
        assert value == expected

    def test_binomial_square(self):
        lhs = (P(C) + P(D)) * (P(C) + P(D))
        rhs = P(C) ** 2 + 2 * P(C) * P(D) + P(D) ** 2
        assert lhs == rhs

    def test_difference_square(self):
        lhs = (P(C) - P(D)) * (P(C) - P(D))
        rhs = P(C) ** 2 - 2 * P(C) * P(D) + P(D) ** 2
        assert lhs == rhs

    def test_scalar_division(self):
        p = (P(C) ** 2 + P(D) ** 2) / 4
        # oracle: direct rational arithmetic at C = D = 2
        expected = (Fraction(2) ** 2 + Fraction(2) ** 2) / 4
        assert p.evaluate({C: 2, D: 2}) == GaussianRational(expected)

    def test_division_by_a_non_constant_is_refused(self):
        with pytest.raises(TypeError, match=r"^division only by constants of Q\(i\)$"):
            P(C) / (P(C) + P(D))

    def test_zero_annihilates(self):
        p = rand_poly(random.Random(3), [A, B, TAU])
        assert (p * 0).is_zero()
        assert (p - p).is_zero()

    def test_ring_axioms_random(self):
        rng = random.Random(20240812)
        syms = [A, B, C, TAU, Z1, F]
        for _ in range(60):
            p, q, r = (rand_poly(rng, syms) for _ in range(3))
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_canonical_form_from_rebracketings(self):
        rng = random.Random(99)
        syms = [A, B, C, D, TAU, Z1]
        for _ in range(100):
            parts = [rand_poly(rng, syms, max_terms=2) for _ in range(4)]
            left = ((parts[0] + parts[1]) + parts[2]) + parts[3]
            shuffled = parts[:]
            rng.shuffle(shuffled)
            right = shuffled[0] + (shuffled[1] + (shuffled[2] + shuffled[3]))
            assert left.terms() == right.terms()
            prod_left = (parts[0] * parts[1]) * (parts[2] * parts[3])
            rng.shuffle(parts)
            prod_right = parts[0] * (parts[1] * (parts[2] * parts[3]))
            assert prod_left.terms() == prod_right.terms()


class TestDiff:
    def test_parameter_is_constant(self):
        assert P(A).diff(TAU).is_zero()

    def test_formal_function_leibniz(self):
        p = P(F) * P(Z1)
        d = p.diff(TAU)
        derived = F.derivative("tau")
        assert d == P(derived) * P(Z1)
        assert str(d) == "d(A, tau)*z1"

    def test_coordinate_power(self):
        p = P(TAU) ** 2 * P(C)
        assert p.diff(TAU) == 2 * P(TAU) * P(C)

    def test_partials_commute(self):
        rng = random.Random(5)
        g = function("g", ("tau", "z1"))
        syms = [A, TAU, Z1, g]
        for _ in range(50):
            p = rand_poly(rng, syms, max_terms=4)
            assert p.diff(TAU).diff(Z1) == p.diff(Z1).diff(TAU)

    def test_product_rule_random(self):
        rng = random.Random(6)
        syms = [A, TAU, Z1, F]
        for _ in range(50):
            p = rand_poly(rng, syms)
            q = rand_poly(rng, syms)
            assert (p * q).diff(TAU) == p.diff(TAU) * q + p * q.diff(TAU)

    def test_non_coordinate_rejected(self):
        with pytest.raises(KindError):
            P(C).diff(A)


class TestSubst:
    def test_flatness_substitution(self):
        p = (P(C) - P(D)) ** 2
        assert p.subst({C: P(D)}).is_zero()

    def test_subst_to_zero(self):
        assert (P(C) ** 2).subst({C: P(0)}).is_zero()

    def test_numeric_oracle(self):
        # oracle: (1 + 2) * (4 - 1) = 9 by direct rational arithmetic
        p = (P(A) + P(B)) * (P(D) - P(C))
        out = p.subst({A: P(1), B: P(2), C: P(1), D: P(4)})
        assert out == P(9)

    def test_base_binding_drives_derivatives(self):
        # substituting A(tau) := tau^2 turns d(A, tau) into 2 tau
        p = P(F.derivative("tau"))
        out = p.subst({F: P(TAU) ** 2})
        assert out == 2 * P(TAU)

    def test_derivative_key_rejected(self):
        with pytest.raises(SubstError):
            P(F).subst({F.derivative("tau"): P(0)})

    def test_simultaneous(self):
        p = P(C) * P(D)
        out = p.subst({C: P(D), D: P(C)})
        assert out == P(D) * P(C)


class TestEval:
    def test_zero(self):
        assert DiffPoly().evaluate({}) == GaussianRational(0)

    def test_rational_oracle(self):
        p = (P(C) ** 2 + P(D) ** 2) / 4
        # oracle: (1 + 9)/4 = 5/2
        assert p.evaluate({C: 1, D: 3}) == GaussianRational(Fraction(5, 2))

    def test_imaginary_point(self):
        p = P(TAU) * I
        assert p.evaluate({TAU: I}) == GaussianRational(-1)

    def test_unbound_symbol(self):
        with pytest.raises(EvalError):
            (P(C) + P(D)).evaluate({C: 1})

    def test_derivative_symbols_bound_explicitly(self):
        p = P(F) + P(F.derivative("tau"))
        value = p.evaluate({F: 2, F.derivative("tau"): 3})
        assert value == GaussianRational(5)

    def test_ring_homomorphism(self):
        rng = random.Random(20240813)
        syms = [A, B, C, TAU, Z1]
        for _ in range(200):
            p = rand_poly(rng, syms)
            q = rand_poly(rng, syms)
            point = {s: rand_gaussian(rng) for s in syms}
            assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
            assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


class TestDisplay:
    def test_zero_prints_zero(self):
        assert str(DiffPoly()) == "0"

    def test_term_order_deterministic(self):
        p = (P(C) - P(D)) ** 2 / 8
        assert str(p) == "1/8*C^2 - 1/4*C*D + 1/8*D^2"

    def test_mixed_coefficient_parenthesized(self):
        p = P(C) * GaussianRational(Fraction(3, 4), Fraction(1, 4))
        assert str(p) == "(3/4 + 1/4*i)*C"

    def test_monic_and_leading(self):
        p = (P(C) - P(D)) ** 2 / 8
        mono, lead = p.leading()
        assert lead == GaussianRational(Fraction(1, 8))
        assert p.monic() == (P(C) - P(D)) ** 2


class TestPackedMonomials:
    def test_keys_are_ints(self):
        p = (P(C) + P(F) * P(TAU)) ** 2 + 1
        assert all(type(mono) is int for mono in p._terms)
        assert p.terms() == {
            ((C, 2),): 1, ((C, 1), (F, 1), (TAU, 1)): 2, ((F, 2), (TAU, 2)): 1, (): 1,
        }

    def test_degree_bound(self):
        assert MAX_DEGREE == 2**15 - 1
        assert (P(A) ** MAX_DEGREE).terms() == {((A, MAX_DEGREE),): 1}
        assert (P(A) ** MAX_DEGREE * P(B) ** MAX_DEGREE).leading()[0] == (
            (A, MAX_DEGREE), (B, MAX_DEGREE))
        with pytest.raises(DegreeError):
            P(A) ** (MAX_DEGREE + 1)
        with pytest.raises(DegreeError):
            (P(A) + 1) * P(A) ** MAX_DEGREE
        with pytest.raises(DegreeError):
            DiffPoly({((A, MAX_DEGREE + 1),): 1})
        with pytest.raises(DegreeError):
            DiffPoly({((A, MAX_DEGREE), (A, 1)): 1})

    def test_diff_of_function_respects_bound(self):
        dF = as_poly(F.derivative("tau"))
        assert (P(F) * dF ** (MAX_DEGREE - 1)).diff(TAU) == (
            dF**MAX_DEGREE + (MAX_DEGREE - 1) * P(F) * dF ** (MAX_DEGREE - 2) * P(
                F.derivative("tau").derivative("tau")))
        with pytest.raises(DegreeError):
            (P(F) * dF**MAX_DEGREE).diff(TAU)

    def test_tuple_keys_in_any_order(self):
        p = DiffPoly({((B, 1), (A, 1)): 1, ((A, 1), (B, 1)): 2, ((A, 0), (C, 1)): 3})
        assert p == 3 * P(A) * P(B) + 3 * P(C)
