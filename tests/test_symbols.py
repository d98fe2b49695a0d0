"""The value types `Symbol` and `GroupElement`: checks, equality, hashing, display."""

import re

import pytest

from projconn.errors import ConstructionError, KindError
from projconn.families import GroupElement
from projconn.rational import ONE
from projconn.symbols import COORDINATE, FUNCTION, PARAMETER, Symbol, coordinate, function, parameter

DA = Symbol("A", FUNCTION, ("tau",), {"tau": 1})  # d(A, tau)
D2A = Symbol("A", FUNCTION, ("tau",), {"tau": 2})  # d2(A, tau, tau)


class TestSymbolRefusals:
    @pytest.mark.parametrize("build, error, message", [
        (lambda: Symbol("A", "constant"), KindError, "unknown symbol kind 'constant'"),
        (lambda: Symbol("i", PARAMETER), ConstructionError, "'i' is reserved for the imaginary unit"),
        (lambda: Symbol("A", PARAMETER, ("tau",)), KindError,
         "parameter symbol 'A' cannot carry dependencies"),
        (lambda: Symbol("z", COORDINATE, ("tau",)), KindError,
         "coordinate symbol 'z' cannot carry dependencies"),
        (lambda: Symbol("A", PARAMETER, (), {"tau": 1}), KindError,
         "parameter symbol 'A' cannot carry derivatives"),
        (lambda: Symbol("z", COORDINATE, (), {"tau": 1}), KindError,
         "coordinate symbol 'z' cannot carry derivatives"),
        (lambda: Symbol("A", FUNCTION), ConstructionError, "function symbol 'A' needs dependencies"),
        (lambda: Symbol("A", FUNCTION, ("tau",), {"z1": 1}), KindError,
         "derivative of 'A' in 'z1' outside its dependencies"),
        (lambda: coordinate("tau").derivative("tau"), KindError,
         "coordinate derivatives are handled by the ring"),
    ], ids=["unknown-kind", "reserved-name", "parameter-dependencies", "coordinate-dependencies",
            "parameter-derivatives", "coordinate-derivatives", "function-without-dependencies",
            "derivative-outside-dependencies", "derivative-of-a-coordinate"])
    def test_refusal_message(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("order", [-1, 1.5, "2"])
    def test_derivative_order_must_be_a_non_negative_int(self, order):
        with pytest.raises(KindError, match=r"derivative of 'A' in 'tau'.*non-negative int"):
            Symbol("A", FUNCTION, ("tau",), {"tau": order})

    def test_zero_orders_are_dropped(self):
        assert Symbol("A", FUNCTION, ("tau", "z1"), {"tau": 0, "z1": 1}) == Symbol(
            "A", FUNCTION, ("tau", "z1"), {"z1": 1})
        assert Symbol("A", FUNCTION, ("tau",), {"tau": 0}) == function("A", ("tau",))


class TestSymbolValue:
    def test_independently_built_symbols_are_equal(self):
        a = Symbol("A", FUNCTION, ("z1", "tau"), {"z1": 1, "tau": 2})
        b = Symbol("A", FUNCTION, ["tau", "z1", "tau"], (("tau", 2), ("z1", 1)))
        assert a == b and hash(a) == hash(b)
        assert parameter("A") == Symbol("A", PARAMETER)

    @pytest.mark.parametrize("other", [
        Symbol("B", FUNCTION, ("tau", "z1"), {"tau": 1}),
        Symbol("A", FUNCTION, ("tau",), {"tau": 1}),
        Symbol("A", FUNCTION, ("tau", "z1"), {"tau": 2}),
        Symbol("A", FUNCTION, ("tau", "z1"), {"z1": 1}),
    ], ids=["name", "depends_on", "order", "coordinate"])
    def test_one_differing_field_makes_symbols_unequal(self, other):
        assert Symbol("A", FUNCTION, ("tau", "z1"), {"tau": 1}) != other

    def test_kind_alone_makes_symbols_unequal(self):
        assert parameter("x") != coordinate("x")

    @pytest.mark.parametrize("s", [parameter("A"), coordinate("tau"), function("A", ("tau", "z1")),
                                   DA, Symbol("A", FUNCTION, ("tau", "z1"), {"z1": 2, "tau": 1})])
    def test_hash_is_that_of_its_fields(self, s):
        assert hash(s) == hash((s.name, s.kind, s.depends_on, s.deriv))

    def test_sort_key_orders_kind_then_name_then_multi_index(self):
        expected = [parameter("B"), parameter("C"), function("A", ("tau",)), DA, D2A,
                    function("B", ("tau",)), coordinate("tau"), coordinate("z1")]
        shuffled = expected[::-1][1::2] + expected[::-1][::2]
        assert sorted(shuffled, key=lambda s: s.sort_key) == expected
        assert DA.sort_key == (1, "A", (("tau", 1),))

    def test_str_and_repr(self):
        assert str(DA) == "d(A, tau)"
        assert repr(DA) == "Symbol('d(A, tau)', function)"
        assert str(D2A) == "d2(A, tau, tau)"
        assert repr(D2A) == "Symbol('d2(A, tau, tau)', function)"
        assert str(Symbol("A", FUNCTION, ("tau", "z1"), {"z1": 1, "tau": 1})) == "d2(A, tau, z1)"
        assert repr(parameter("A")) == "Symbol('A', parameter)"

    def test_base(self):
        assert D2A.base() == function("A", ("tau",))
        assert not D2A.base().is_derived() and D2A.is_derived()
        plain = function("A", ("tau",))
        assert plain.base() is plain

    def test_derivative(self):
        plain = function("A", ("tau", "z1"))
        assert plain.derivative("tau") == Symbol("A", FUNCTION, ("tau", "z1"), {"tau": 1})
        assert plain.derivative("tau").derivative("z1").derivative("tau") == Symbol(
            "A", FUNCTION, ("tau", "z1"), {"tau": 2, "z1": 1})
        assert DA.derivative("tau") == D2A

    def test_derivative_vanishes(self):
        assert parameter("A").derivative("tau") is None
        assert function("A", ("tau",)).derivative("z1") is None


class TestImmutability:
    @pytest.mark.parametrize("value, field", [
        (parameter("A"), "name"),
        (DA, "deriv"),
        (GroupElement(0, -1, 1, 0), "a"),
        (GroupElement(0, -1, 1, 0, 1, 2, 3, 4), "l"),
    ], ids=["symbol-name", "symbol-deriv", "group-a", "group-l"])
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, ONE)
        with pytest.raises(AttributeError):
            value.extra = ONE


class TestGroupElementValue:
    def test_determinant_refusal_message(self):
        with pytest.raises(ConstructionError, match=re.escape("determinant ad - bc must equal 1")):
            GroupElement(1, 1, 1, 1)

    def test_repr(self):
        assert repr(GroupElement(0, -1, 1, 0, 1, 2, 3, 4)) == (
            "GroupElement(gamma=(0,-1,1,0), lambda=(1,2,3,4))")
        assert repr(GroupElement(1, 0, 0, 1)) == "GroupElement(gamma=(1,0,0,1), lambda=(0,0,0,0))"

    def test_equal_fields_give_equal_elements(self):
        assert GroupElement(0, -1, 1, 0, 1) == GroupElement(0, -1, 1, 0, 1, 0, 0, 0)
        assert GroupElement(0, -1, 1, 0) != GroupElement(0, -1, 1, 0, 1)
