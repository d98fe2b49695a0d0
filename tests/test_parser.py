"""Expression parsing, round trips and error reporting."""

import random
import time
from fractions import Fraction

import pytest

from projconn.errors import ParseError
from projconn.parser import (
    MAX_COEFF_BITS,
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_TERMS,
    parse_constant,
    parse_expr,
)
from projconn.poly import as_poly
from projconn.rational import GaussianRational
from projconn.symbols import SymbolTable

from helpers import rand_poly


@pytest.fixture
def table():
    t = SymbolTable()
    for name in ("tau", "z1", "z2"):
        t.coordinate(name)
    for name in ("A", "B", "C", "D", "E"):
        t.parameter(name)
    t.function("f", ("tau",))
    t.function("g", ("tau", "z1"))
    return t


def test_difference_square_expansion(table):
    p = parse_expr("(C - D)^2 / 8", table)
    C = table.lookup("C")
    D = table.lookup("D")
    expected = {
        ((C, 2),): GaussianRational(Fraction(1, 8)),
        ((C, 1), (D, 1)): GaussianRational(Fraction(-1, 4)),
        ((D, 2),): GaussianRational(Fraction(1, 8)),
    }
    assert p.terms() == expected


def test_derivative_marker(table):
    p = parse_expr("d(f, tau) * z1", table)
    f1 = table.lookup("f").derivative("tau")
    assert p == as_poly(f1) * as_poly(table.lookup("z1"))


def test_second_derivative_markers(table):
    assert parse_expr("d2(f, tau, tau)", table) == parse_expr("d(f, tau, tau)", table)
    mixed = parse_expr("d2(g, tau, z1)", table)
    g = table.lookup("g")
    assert mixed == as_poly(g.derivative("tau").derivative("z1"))


def test_gaussian_constant(table):
    value = parse_constant("3/4 + 1/4*i")
    assert value == GaussianRational(Fraction(3, 4), Fraction(1, 4))


def test_leading_sign(table):
    assert parse_expr("-C + D", table) == parse_expr("D - C", table)


def test_power_of_parenthesized(table):
    assert parse_expr("(C + D)^0", table) == as_poly(1)


def test_round_trip_random(table):
    rng = random.Random(20240814)
    syms = [table.lookup(n) for n in ("A", "B", "C", "tau", "z1")]
    syms.append(table.lookup("f"))
    syms.append(table.lookup("f").derivative("tau"))
    for _ in range(200):
        p = rand_poly(rng, syms, max_terms=4, max_exp=3)
        assert parse_expr(str(p), table) == p


class TestErrors:
    def test_syntax_error_offset(self, table):
        with pytest.raises(ParseError) as err:
            parse_expr("C + ", table)
        assert err.value.offset == 4

    def test_undeclared_identifier(self, table):
        with pytest.raises(ParseError) as err:
            parse_expr("C + Q", table)
        assert "Q" in str(err.value)
        assert err.value.offset == 4

    def test_unexpected_character_utf8_offset(self, table):
        with pytest.raises(ParseError) as err:
            parse_expr("C + é", table)
        assert err.value.offset == 4

    @pytest.mark.parametrize("text, offset", [
        ("$C", 0),  # the first character
        ("C   $", 4),  # after trailing spaces
        ("C *\u00a0$", 5),  # after a no-break space, two bytes of whitespace
    ], ids=["first", "after-spaces", "after-no-break-space"])
    def test_unexpected_character_offsets(self, table, text, offset):
        with pytest.raises(ParseError) as err:
            parse_expr(text, table)
        assert str(err.value) == f"unexpected character '$' (byte offset {offset})"

    def test_whitespace_only_input_fails_at_its_end(self, table):
        text = " \t "
        with pytest.raises(ParseError) as err:
            parse_expr(text, table)
        assert err.value.offset == len(text)
        assert "expected a number, identifier or parenthesized expression" in str(err.value)

    def test_division_by_zero(self, table):
        with pytest.raises(ParseError):
            parse_expr("C / 0", table)

    def test_division_by_expression(self, table):
        with pytest.raises(ParseError):
            parse_expr("C / D", table)

    def test_negative_exponent(self, table):
        with pytest.raises(ParseError):
            parse_expr("C ^ -1", table)

    def test_derivative_of_non_function(self, table):
        with pytest.raises(ParseError):
            parse_expr("d(C, tau)", table)

    def test_derivative_wrong_coordinate(self, table):
        with pytest.raises(ParseError):
            parse_expr("d(f, z1)", table)

    def test_marker_arity_mismatch(self, table):
        with pytest.raises(ParseError):
            parse_expr("d2(f, tau)", table)

    def test_trailing_input(self, table):
        with pytest.raises(ParseError):
            parse_expr("C D", table)

    def test_empty_input(self, table):
        with pytest.raises(ParseError):
            parse_expr("", table)

    def test_constant_with_free_symbol(self, table):
        with pytest.raises(ParseError):
            parse_constant("C + 1")

    def test_nesting_limit(self, table):
        ok = "(" * MAX_DEPTH + "C" + ")" * MAX_DEPTH
        assert parse_expr(ok, table) == parse_expr("C", table)
        with pytest.raises(ParseError) as info:
            parse_expr("1 + " + "(" * (MAX_DEPTH + 1) + "C" + ")" * (MAX_DEPTH + 1), table)
        assert info.value.offset == 4 + MAX_DEPTH

    def test_exponent_limit(self, table):
        C = parse_expr("C", table)
        assert parse_expr(f"C^{MAX_EXPONENT}", table) == C ** MAX_EXPONENT
        with pytest.raises(ParseError) as info:
            parse_expr(f"C * C^{MAX_EXPONENT + 1}", table)
        assert info.value.offset == 6
        assert "exponent exceeds" in str(info.value)

    def test_expansion_budget_checked_before_the_product(self, table):
        started = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_expr("(A+B+C+D+E)^40", table)
        assert time.perf_counter() - started < 1
        assert info.value.offset == 11
        assert f"bound of {MAX_TERMS} terms" in str(info.value)

    def test_product_pairs_at_most_max_terms(self, table):
        # 40 * 25 == MAX_TERMS term pairs is allowed, 40 * 26 is not
        a_sum = "+".join(f"C^{k}" for k in range(1, 41))
        b_sum = "+".join(f"D^{k}" for k in range(1, 26))
        assert len(parse_expr(f"({a_sum})*({b_sum})", table).terms()) == MAX_TERMS
        with pytest.raises(ParseError) as info:
            parse_expr(f"({a_sum})*({b_sum}+E)", table)
        assert info.value.offset == len(a_sum) + 2

    def test_sum_bound(self, table):
        terms = [f"C^{j}*D^{k}" for j in range(1, 33) for k in range(1, 33)]
        ok = "+".join(terms[:MAX_TERMS])
        assert len(parse_expr(ok, table).terms()) == MAX_TERMS
        with pytest.raises(ParseError) as info:
            parse_expr(ok + "+E", table)
        assert info.value.offset == len(ok)
        assert "sum exceeds" in str(info.value)

    def test_literal_bound(self, table):
        largest = str(2**MAX_COEFF_BITS - 1)
        assert parse_constant(largest) == GaussianRational(2**MAX_COEFF_BITS - 1)
        for text in (str(2**MAX_COEFF_BITS), "1" * 5000):
            with pytest.raises(ParseError) as info:
                parse_expr("C + " + text, table)
            assert info.value.offset == 4
            assert f"bound of {MAX_COEFF_BITS} bits" in str(info.value)
        for op in "^/":
            with pytest.raises(ParseError) as info:
                parse_expr(f"C{op}" + "9" * 5000, table)
            assert info.value.offset == 2

    def test_coefficient_bits_bound(self, table):
        with pytest.raises(ParseError) as info:
            parse_expr("10^64^64^2", table)
        assert info.value.offset == 5
        assert f"bound of {MAX_COEFF_BITS} bits" in str(info.value)
        # a sum of unit fractions grows the denominator past the cap
        primes = [p for p in range(2, 2000) if all(p % q for q in range(2, int(p**0.5) + 1))]
        with pytest.raises(ParseError) as info:
            parse_expr("C + " + "+".join(f"1/{p}" for p in primes), table)
        assert info.value.offset == 0
