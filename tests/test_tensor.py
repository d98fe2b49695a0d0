"""Sparse tensor container: contraction, symmetry, JSON round trip, and
kernels that never walk the dense view."""

import random
from fractions import Fraction
from itertools import product

import pytest

from projconn.cli import main
from projconn.connection import curvature, weyl3
from projconn.errors import ShapeError
from projconn.families import (
    GroupElement,
    invariance_check,
    kuga_shimura,
    orbit_safe_points,
    torus3,
    torus_n,
)
from projconn.geodesic import integrate
from projconn.projective import (
    flatness_conditions,
    is_projectively_flat,
    projective_equiv,
    volume_normalize,
)
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

from helpers import naive_integrate, rand_poly


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
    return Tensor(dim, variance, [rand_poly(rng, symbols, max_terms=2)
                                  for _ in product(range(dim), repeat=len(variance))])


def test_identity_trace_is_dimension():
    for n in (0, 2, 3, 4):
        ident = Tensor(n, (UP, DOWN), [int(i == j) for i, j in product(range(n), repeat=2)])
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
        combined = Tensor(3, (UP, DOWN, DOWN),
                          [a * 3 + b * -2 for a, b in zip(s.entries, t.entries)])
        pairs = zip(contract(s, 0, 1).entries, contract(t, 0, 1).entries)
        assert contract(combined, 0, 1).entries == tuple(a * 3 + b * -2 for a, b in pairs)


def test_contract_variance_errors():
    t = Tensor(2, (UP, DOWN), [0] * 2**2)
    with pytest.raises(ShapeError):
        contract(t, 1, 0)
    with pytest.raises(ShapeError):
        contract(t, 0, 0)


def test_symmetry_check_tells_symmetric_from_antisymmetric():
    A = as_poly(parameter("A"))
    sym = Tensor(2, (DOWN, DOWN), [1, A, A, 1])
    assert symmetry_check(sym, (0, 1))
    anti = Tensor(2, (DOWN, DOWN), [0, A, -A, 0])
    assert not symmetry_check(anti, (0, 1))


def test_nonsymmetric_counterexample():
    t = Tensor(2, (DOWN, DOWN), [0, 1, 0, 0])
    assert not symmetry_check(t, (0, 1))


def test_flat_kernels_match_index_oracles():
    """contract and symmetry_check against their index definitions."""
    rng = random.Random(20261018)
    syms = [parameter(n) for n in "AB"]
    for dim in (1, 2, 3):
        t = rand_tensor(rng, dim, (UP, DOWN, UP, DOWN), syms)
        for up, down in product((0, 2), (1, 3)):
            got = contract(t, up, down)
            assert got.variance == tuple(t.variance[s] for s in range(4) if s not in (up, down))
            assert {idx: got[idx] for idx in got.indices()} == naive_contract(t, up, down)
        for s1, s2 in ((0, 2), (1, 3), (3, 1)):
            swapped = []  # the entries of t with slots s1 and s2 swapped, in row-major order
            for idx in t.indices():
                moved = list(idx)
                moved[s1], moved[s2] = moved[s2], moved[s1]
                swapped.append(t[tuple(moved)])
            sym = Tensor(dim, t.variance, [a + b for a, b in zip(t.entries, swapped)])
            anti = Tensor(dim, t.variance, [a - b for a, b in zip(t.entries, swapped)])
            assert symmetry_check(sym, (s1, s2))
            assert symmetry_check(anti, (s1, s2)) == (dim == 1)
            if dim > 1:
                assert not symmetry_check(t, (s1, s2))


def test_is_zero():
    assert Tensor(3, (UP, DOWN), [0] * 3**2).is_zero()
    assert not Tensor(2, (DOWN,), [1, 0]).is_zero()


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


@pytest.mark.parametrize("idx", [(0, 0, 3), (0, 0, -1), (3, 0, 0), (0, -3, 1)])
def test_index_outside_range_rejected(idx):
    # row-major offsets would alias: (0, 0, 3) is where G^0_{10} sits, and
    # (0, 0, -1) would read G^2_{22} from the end of the entries
    t = torus3().table
    with pytest.raises(ShapeError, match=r"outside range\(3\)"):
        t[idx]


def test_single_index_outside_range_rejected():
    form = Tensor(2, (DOWN,), [1, 2])
    assert form[1] == as_poly(2)
    for idx in (2, -1):
        with pytest.raises(ShapeError, match=r"outside range\(2\)"):
            form[idx]


@pytest.mark.parametrize("idx", [(1.0, 0, 0), (1, 0, 0.0), (True, 0, 0.5), ("1", 0, 0)])
def test_non_int_index_rejected(idx):
    # offset 9.0 would find G^1_{00} in a dict keyed by int offsets
    t = torus3().table
    with pytest.raises(ShapeError, match=r"outside range\(3\)"):
        t[idx]


@pytest.mark.parametrize("idx", [1.0, 0.5, "1", None])
def test_non_int_single_index_rejected(idx):
    with pytest.raises(ShapeError, match=r"outside range\(2\)"):
        Tensor(2, (DOWN,), [1, 2])[idx]


@pytest.mark.parametrize("build, message", [
    (lambda: Tensor(2, (UP, "sideways"), [0] * 4), "bad variance slot 'sideways'"),
    (lambda: Tensor(2, (UP, DOWN), [0] * 3), "expected 4 entries, got 3"),
    (lambda: torus3().table[0, 0], "expected 3 indices, got 2"),
], ids=["variance-slot", "dense-entry-count", "index-arity"])
def test_shape_is_checked(build, message):
    with pytest.raises(ShapeError) as err:
        build()
    assert str(err.value) == message


def test_offset_map_is_checked():
    assert Tensor(2, (DOWN,), {1: 2, 0: ZERO_POLY}) == Tensor(2, (DOWN,), [0, 2])
    for bad in ({2: 1}, {-1: 1}, {1.0: 1}, {True: 1}):
        with pytest.raises(ShapeError, match=r"offsets must be ints in range\(2\)"):
            Tensor(2, (DOWN,), bad)
    with pytest.raises(TypeError, match="cannot coerce str"):
        Tensor(2, (DOWN,), {0: "x"})


def test_kernels_never_read_the_dense_view(monkeypatch, capsys):
    """Curvature, contraction, normalization, equivalence and the Weyl tensor
    work on the stored entries: only 40 of the 12^4 curvature entries of
    torus_n(12) are nonzero, and no step builds the other 20,696.  The CLI
    reports, the geodesic integration and the pullback check walk Tensor.items()."""
    constant = torus3(*range(1, 6))
    expected = naive_integrate(constant, [0] * 3, [1] * 3, 1e-2, 10)  # reads the dense view

    def dense(self):
        raise AssertionError("a kernel read Tensor.entries")

    monkeypatch.setattr(Tensor, "entries", property(dense))
    conn = torus_n(12)
    r = curvature(conn)
    assert len(r._stored) == 40
    assert contract(r, 0, 1).arity == contract(r, 0, 3).arity == 2
    assert projective_equiv(conn, volume_normalize(conn)) is not None
    assert projective_equiv(conn, torus_n(12, E=0)) is None
    t3 = torus3()
    assert not weyl3(t3).is_zero() and not is_projectively_flat(t3)
    assert len(flatness_conditions(t3)) == 4

    for command in ("curvature", "ricci", "conditions"):
        assert main([command, "--family", "torus3"]) == 0
    capsys.readouterr()
    reads = []
    getitem = Tensor.__getitem__
    monkeypatch.setattr(Tensor, "__getitem__", lambda t, idx: reads.append(idx) or getitem(t, idx))
    assert main(["curvature", "--family", "torus_n", "--n", "12"]) == 0
    out = capsys.readouterr().out
    assert "(dim 12," in out and "R(tau,z1)z1 = (1/4*C^2) d_tau + (-1/4*C*E) d_z1\n" in out
    assert reads == []  # the report reads no entry by index

    path = integrate(constant, [0] * 3, [1] * 3, 1e-2, 10)
    assert path.positions == expected.positions and path.velocities == expected.velocities

    g = GroupElement(0, -1, 1, 0, 1, 2, 3, 4)
    points = orbit_safe_points(g, 3, random.Random(5))
    values = {name: {p[0]: GaussianRational(1, 2) for p in points} for name in "ABC"}
    assert invariance_check(kuga_shimura(True).table, g, points, values)


def test_json_round_trip_omits_zeros():
    table = SymbolTable()
    for name in ("x", "y"):
        table.coordinate(name)
    table.parameter("A")
    A = table.lookup("A")
    t = Tensor(2, (UP, DOWN, DOWN),
               [as_poly(A) ** 2 if idx == (0, 0, 1) else 0 for idx in product(range(2), repeat=3)])
    data = tensor_to_json(t, ["x", "y"])
    assert data["variance"] == ["up", "down", "down"]
    assert data["entries"] == {"x.x.y": "A^2"}
