"""Sparse multi-index tensors of polynomials with variance-aware contraction.

A tensor stores only its nonzero entries, as a dict from flat row-major
offset over index tuples in {0..n-1}^arity to a nonzero `DiffPoly`; reports
and the JSON form use coordinate names instead of numbers.  Every kernel but
`lie_derivative`, which reads through `__getitem__`, walks the stored entries
only, so its cost follows the nonzeros and not n^arity.  Slot swaps and
traces read where each offset goes from a map cached per (dim, arity, slots),
which also places the mirror of each settled R, W and TrR entry.
`Tensor.__init__` is the one way a tensor is built: it takes a dense sequence
of entries or an offset -> entry dict, coerces entries outside the ring and
drops empty ones, so equal tensors store equal dicts.  Readers outside the
kernels walk `items()`, the nonzero entries by index tuple.  The dense view
`entries` and `indices()` stay: `Connection.gamma` reads `entries`,
`families.invariance_check` reads `indices()`, and the benchmark harness
reads both.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product

from .errors import ShapeError
from .poly import DiffPoly, ZERO_POLY, _get_terms, as_poly

UP = "up"
DOWN = "down"


def _flat(dim, idx):
    flat = 0
    for i in idx:
        if not isinstance(i, int) or not 0 <= i < dim:
            raise ShapeError(f"index {tuple(idx)} outside range({dim})")
        flat = flat * dim + i
    return flat


def _strides(dim, arity):
    """Flat-offset step of each slot in row-major storage."""
    return [dim ** (arity - 1 - s) for s in range(arity)]


def _offsets(dim, strides) -> list:
    """Flat offsets met by a row-major walk whose slot s steps strides[s]."""
    offsets = [0]
    for step in strides:
        offsets = [base + i * step for base in offsets for i in range(dim)]
    return offsets


@lru_cache(maxsize=32)
def _swapped_offsets(dim, arity, s1, s2) -> tuple:
    """offsets[f]: where entry f with slots s1 and s2 swapped sits.

    A swap is an involution, so the map is its own inverse.
    """
    strides = _strides(dim, arity)
    strides[s1], strides[s2] = strides[s2], strides[s1]
    return tuple(_offsets(dim, strides))


@lru_cache(maxsize=32)
def _diagonal_targets(dim, arity, up, down) -> dict:
    """{f: g} for each entry f with equal indices in slots up and down, g the
    offset of its remaining indices in the contracted tensor."""
    strides = _strides(dim, arity)
    keep = [strides[s] for s in range(arity) if s not in (up, down)]
    diagonal = _offsets(dim, (*keep, strides[up] + strides[down]))
    return {f: pos // dim for pos, f in enumerate(diagonal)}


class Tensor:
    """Immutable sparse tensor; variance lists one 'up'/'down' per slot."""

    __slots__ = ("dim", "variance", "_stored")

    def __init__(self, dim, variance, entries):
        """entries: all dim**arity entries in row-major order, or a dict from
        flat offset to entry whose missing offsets are zero."""
        variance = tuple(variance)
        for slot in variance:
            if slot not in (UP, DOWN):
                raise ShapeError(f"bad variance slot {slot!r}")
        size = dim ** len(variance)
        if isinstance(entries, dict):
            if entries and not ({int}.issuperset(map(type, entries))
                                and min(entries) >= 0 and max(entries) < size):
                raise ShapeError(f"entry offsets must be ints in range({size})")
        else:
            dense = tuple(entries)
            if len(dense) != size:
                raise ShapeError(f"expected {size} entries, got {len(dense)}")
            entries = dict(enumerate(dense))
        values = entries.values()
        if not {DiffPoly}.issuperset(map(type, values)):
            entries = {f: e if type(e) is DiffPoly else as_poly(e) for f, e in entries.items()}
            values = entries.values()
        if all(map(_get_terms, values)):  # the usual kernel output: a plain copy
            stored = dict(entries)
        else:
            stored = dict(compress(entries.items(), map(_get_terms, values)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "_stored", stored)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def arity(self) -> int:
        return len(self.variance)

    @property
    def entries(self) -> tuple:
        """All dim**arity entries in row-major order, zeros included."""
        out = [ZERO_POLY] * self.dim ** self.arity
        for f, p in self._stored.items():
            out[f] = p
        return tuple(out)

    def __getitem__(self, idx) -> DiffPoly:
        if not isinstance(idx, tuple):
            idx = (idx,)
        if len(idx) != self.arity:
            raise ShapeError(f"expected {self.arity} indices, got {len(idx)}")
        return self._stored.get(_flat(self.dim, idx), ZERO_POLY)

    def indices(self):
        return product(range(self.dim), repeat=self.arity)

    def items(self) -> list:
        """(index tuple, entry) pairs of the nonzero entries, in row-major order."""
        dim, steps = self.dim, _strides(self.dim, self.arity)
        return [(tuple(f // step % dim for step in steps), p)
                for f, p in sorted(self._stored.items())]

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.variance == other.variance
            and self._stored == other._stored
        )

    def __hash__(self):
        return hash((self.dim, self.variance, frozenset(self._stored.items())))

    def is_zero(self) -> bool:
        return not self._stored


def contract(t: Tensor, up: int, down: int) -> Tensor:
    """Trace one contravariant slot against one covariant slot."""
    if up == down:
        raise ShapeError("cannot contract a slot with itself")
    if t.variance[up] != UP:
        raise ShapeError(f"slot {up} is not contravariant")
    if t.variance[down] != DOWN:
        raise ShapeError(f"slot {down} is not covariant")
    targets = _diagonal_targets(t.dim, t.arity, up, down)
    out = {}
    for f, p in t._stored.items():
        g = targets.get(f)
        if g is not None:
            out[g] = out.get(g, ZERO_POLY) + p
    return Tensor(t.dim, [t.variance[s] for s in range(t.arity) if s not in (up, down)], out)


def symmetry_check(t: Tensor, slots) -> bool:
    """True when swapping the two slots gives t back."""
    s1, s2 = slots
    if t.variance[s1] != t.variance[s2]:
        raise ShapeError("symmetry slots must share variance")
    moved = _swapped_offsets(t.dim, t.arity, s1, s2)
    stored = t._stored
    # a dict comparison tries identity before DiffPoly.__eq__, entry by entry
    return {moved[f]: p for f, p in stored.items()} == stored


def tensor_to_json(t: Tensor, coord_names) -> dict:
    """JSON form with zero entries omitted; keys join coordinate names by '.'."""
    coord_names = list(coord_names)
    if len(coord_names) != t.dim:
        raise ShapeError("coordinate names must match the dimension")
    entries = {".".join(coord_names[i] for i in idx): str(value) for idx, value in t.items()}
    return {"variance": list(t.variance), "entries": entries}
