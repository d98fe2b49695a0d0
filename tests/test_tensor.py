"""Dense tensor container: contraction, symmetry, JSON round trip."""

import random
from fractions import Fraction
from itertools import product

import pytest

from projconn.errors import ShapeError
from projconn.poly import ZERO_POLY, DiffPoly, as_poly
from projconn.rational import GaussianRational
from projconn.symbols import SymbolTable, coordinate, parameter
from projconn.tensor import (
    DOWN,
    Tensor,
    UP,
    contract,
    symmetry_check,
    tensor_to_json,
)

from helpers import rand_poly


def naive_contract(t, up, down):
    """Independent index-loop oracle for the contraction."""
    keep = [s for s in range(t.arity) if s not in (up, down)]
    entries = {}
    for idx in product(range(t.dim), repeat=len(keep)):
        total = as_poly(0)
        for k in range(t.dim):
            full = [0] * t.arity
            for slot, v in zip(keep, idx):
                full[slot] = v
            full[up] = k
            full[down] = k
            total = total + t[tuple(full)]
        entries[idx] = total
    return entries


def rand_tensor(rng, dim, variance, symbols):
    return Tensor.from_function(
        dim, variance, lambda idx: rand_poly(rng, symbols, max_terms=2)
    )


def test_identity_trace_is_dimension():
    for n in (0, 2, 3, 4):
        ident = Tensor.from_function(
            n, (UP, DOWN), lambda idx: as_poly(1 if idx[0] == idx[1] else 0)
        )
        scalar = contract(ident, 0, 1)
        assert scalar.arity == 0
        assert scalar[()] == as_poly(n)


def test_contract_matches_index_loop_oracle():
    rng = random.Random(20240815)
    syms = [parameter(n) for n in "ABC"]
    for dim in (2, 3, 4):
        t = rand_tensor(rng, dim, (UP, DOWN, DOWN, DOWN), syms)
        got = contract(t, 0, 2)
        expected = naive_contract(t, 0, 2)
        for idx in got.indices():
            assert got[idx] == expected[idx]


def test_contract_linearity():
    rng = random.Random(11)
    syms = [parameter(n) for n in "AB"]
    for _ in range(10):
        s = rand_tensor(rng, 3, (UP, DOWN, DOWN), syms)
        t = rand_tensor(rng, 3, (UP, DOWN, DOWN), syms)
        lhs = contract(s * 3 + t * -2, 0, 1)
        rhs = contract(s, 0, 1) * 3 + contract(t, 0, 1) * -2
        assert lhs == rhs


def test_contract_variance_errors():
    t = Tensor(2, (UP, DOWN), [0] * 2**2)
    with pytest.raises(ShapeError):
        contract(t, 1, 0)
    with pytest.raises(ShapeError):
        contract(t, 0, 0)


def test_symmetry_check_modes():
    A = parameter("A")
    sym = Tensor.from_function(
        2, (DOWN, DOWN), lambda idx: as_poly(A) if idx[0] != idx[1] else as_poly(1)
    )
    assert symmetry_check(sym, (0, 1), "symmetric")
    anti = Tensor.from_function(
        2,
        (DOWN, DOWN),
        lambda idx: as_poly(A) * (idx[1] - idx[0]),
    )
    assert symmetry_check(anti, (0, 1), "antisymmetric")
    assert not symmetry_check(anti, (0, 1), "symmetric")


def test_nonsymmetric_counterexample():
    entries = {(0, 1): as_poly(1)}
    t = Tensor.from_function(
        2, (DOWN, DOWN), lambda idx: entries.get(idx, ZERO_POLY)
    )
    assert not symmetry_check(t, (0, 1), "symmetric")
    assert not symmetry_check(t, (0, 1), "antisymmetric")


def test_flat_kernels_match_index_oracles():
    """contract, swap_slots and symmetry_check against their index definitions."""
    rng = random.Random(20261018)
    syms = [parameter(n) for n in "AB"]
    for dim in (1, 2, 3):
        t = rand_tensor(rng, dim, (UP, DOWN, UP, DOWN), syms)
        for up, down in product((0, 2), (1, 3)):
            got = contract(t, up, down)
            assert got.variance == tuple(t.variance[s] for s in range(4) if s not in (up, down))
            assert {idx: got[idx] for idx in got.indices()} == naive_contract(t, up, down)
        for s1, s2 in ((0, 2), (1, 3), (3, 1)):
            swapped = t.swap_slots(s1, s2)
            for idx in t.indices():
                moved = list(idx)
                moved[s1], moved[s2] = moved[s2], moved[s1]
                assert swapped[idx] == t[tuple(moved)]
            assert symmetry_check(t + swapped, (s1, s2), "symmetric")
            assert symmetry_check(t - swapped, (s1, s2), "antisymmetric")
            if dim > 1:
                assert not symmetry_check(t, (s1, s2), "symmetric")
                assert not symmetry_check(t, (s1, s2), "antisymmetric")


def test_double_swap_is_identity():
    rng = random.Random(12)
    syms = [parameter(n) for n in "AB"]
    t = rand_tensor(rng, 3, (UP, DOWN, DOWN, DOWN), syms)
    assert t.swap_slots(1, 2).swap_slots(1, 2) == t


def test_is_zero():
    assert Tensor(3, (UP, DOWN), [0] * 3**2).is_zero()
    t = Tensor.from_function(
        2, (DOWN,), lambda idx: as_poly(1) if idx[0] == 0 else ZERO_POLY
    )
    assert not t.is_zero()


def test_mixed_entries_are_coerced():
    x, A = coordinate("x"), parameter("A")
    mixed = [0, 3, Fraction(-1, 2), GaussianRational(1, 2), x, as_poly(A) * 2]
    polys = [
        ZERO_POLY,
        DiffPoly.constant(3),
        DiffPoly.constant(Fraction(-1, 2)),
        DiffPoly.constant(GaussianRational(1, 2)),
        DiffPoly.of(x),
        mixed[5],
    ]
    for order in (slice(None), slice(None, None, -1)):
        t = Tensor(6, (DOWN,), mixed[order])
        expected = Tensor(6, (DOWN,), polys[order])
        assert all(type(e) is DiffPoly for e in t.entries)
        assert t == expected and hash(t) == hash(expected)
    assert Tensor(6, (DOWN,), mixed).entries[5] is mixed[5]


@pytest.mark.parametrize("position", [0, 2, 3])
def test_uncoercible_entry_rejected(position):
    entries = [as_poly(1), 2, ZERO_POLY, Fraction(1, 3)]
    entries[position] = "x"
    with pytest.raises(TypeError, match="cannot coerce str"):
        Tensor(2, (DOWN, DOWN), entries)


def test_json_round_trip_omits_zeros():
    table = SymbolTable()
    for name in ("x", "y"):
        table.coordinate(name)
    table.parameter("A")
    A = table.lookup("A")
    t = Tensor.from_function(
        2,
        (UP, DOWN, DOWN),
        lambda idx: as_poly(A) ** 2 if idx == (0, 0, 1) else ZERO_POLY,
    )
    data = tensor_to_json(t, ["x", "y"])
    assert data["variance"] == ["up", "down", "down"]
    assert data["entries"] == {"x.x.y": "A^2"}
