"""Dense multi-index tensors of polynomials with variance-aware contraction.

Entries are stored row-major over index tuples in {0..n-1}^arity; reports
and the JSON form use coordinate names instead of numbers.  Storage stays
dense, so indexing is plain arithmetic, and the kernels (`contract`,
`swap_slots`, `symmetry_check`) walk precomputed flat offsets instead of
building index tuples.  Nearly every entry of a high-dimensional tensor is
empty, and an empty entry costs no Python call: loops read emptiness off the
term map, `contract` adds only nonzero addends, `+` and `-` keep an entry
where the other operand's entry is empty, and `curvature` iterates only over
the nonzero Christoffel entries.  `Tensor.__init__` is the one way a tensor
is built; it finds in one pass whether any entry needs coercing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, product
from operator import add, attrgetter, sub

from .errors import ShapeError
from .poly import DiffPoly, ZERO_POLY, as_poly

UP = "up"
DOWN = "down"


def _flat(dim, idx):
    flat = 0
    for i in idx:
        if not 0 <= i < dim:
            raise ShapeError(f"index {tuple(idx)} outside range({dim})")
        flat = flat * dim + i
    return flat


def _strides(dim, arity):
    """Flat-offset step of each slot in row-major storage."""
    return [dim ** (arity - 1 - s) for s in range(arity)]


@lru_cache(maxsize=16)
def _offsets(dim, strides: tuple) -> tuple:
    """Flat offsets met by a row-major walk whose slot s steps strides[s]."""
    offsets = [0]
    for step in strides:
        offsets = [base + i * step for base in offsets for i in range(dim)]
    return tuple(offsets)


def _swapped_offsets(dim, arity, s1, s2) -> tuple:
    """offsets[f]: where entry f with slots s1 and s2 swapped sits."""
    strides = _strides(dim, arity)
    strides[s1], strides[s2] = strides[s2], strides[s1]
    return _offsets(dim, tuple(strides))


_terms_of = attrgetter("_terms")  # emptiness without a DiffPoly.__bool__ call per entry


class Tensor:
    """Immutable dense tensor; variance lists one 'up'/'down' per slot."""

    __slots__ = ("dim", "variance", "entries")

    def __init__(self, dim, variance, entries):
        variance = tuple(variance)
        for slot in variance:
            if slot not in (UP, DOWN):
                raise ShapeError(f"bad variance slot {slot!r}")
        entries = tuple(entries)
        if not {DiffPoly}.issuperset(map(type, entries)):
            entries = tuple([e if type(e) is DiffPoly else as_poly(e) for e in entries])
        if len(entries) != dim ** len(variance):
            raise ShapeError(
                f"expected {dim ** len(variance)} entries, got {len(entries)}"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def from_function(cls, dim, variance, fn) -> "Tensor":
        variance = tuple(variance)
        entries = [fn(idx) for idx in product(range(dim), repeat=len(variance))]
        return cls(dim, variance, entries)

    @property
    def arity(self) -> int:
        return len(self.variance)

    def __getitem__(self, idx) -> DiffPoly:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.arity:
            raise ShapeError(f"expected {self.arity} indices, got {len(idx)}")
        return self.entries[_flat(self.dim, idx)]

    def indices(self):
        return product(range(self.dim), repeat=self.arity)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.variance == other.variance
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, self.variance, self.entries))

    def is_zero(self) -> bool:
        return not any(map(_terms_of, self.entries))

    def map(self, fn) -> "Tensor":
        return Tensor(self.dim, self.variance, [fn(e) for e in self.entries])

    def _zip(self, other, op) -> "Tensor":
        if self.dim != other.dim or self.variance != other.variance:
            raise ShapeError("tensor shape mismatch")
        out, e = list(self.entries), other.entries
        for f in compress(range(len(e)), map(_terms_of, e)):  # see _terms_of
            out[f] = op(out[f], e[f])
        return Tensor(self.dim, self.variance, out)

    def __add__(self, other):
        return self._zip(other, add)

    def __sub__(self, other):
        return self._zip(other, sub)

    def __mul__(self, scalar):
        return self.map(lambda e: e * scalar)

    __rmul__ = __mul__

    def swap_slots(self, s1, s2) -> "Tensor":
        """Transpose two index positions."""
        offsets = _swapped_offsets(self.dim, self.arity, s1, s2)
        return Tensor(self.dim, self.variance, list(map(self.entries.__getitem__, offsets)))


def contract(t: Tensor, up: int, down: int) -> Tensor:
    """Trace one contravariant slot against one covariant slot."""
    if up == down:
        raise ShapeError("cannot contract a slot with itself")
    if t.variance[up] != UP:
        raise ShapeError(f"slot {up} is not contravariant")
    if t.variance[down] != DOWN:
        raise ShapeError(f"slot {down} is not covariant")
    keep = [s for s in range(t.arity) if s not in (up, down)]
    strides = _strides(t.dim, t.arity)
    # per output entry, in output order, the t.dim entries on its diagonal
    diagonal = _offsets(t.dim, (*[strides[s] for s in keep], strides[up] + strides[down]))
    addends = list(map(t.entries.__getitem__, diagonal))
    out = [ZERO_POLY] * t.dim ** len(keep)
    for f in compress(range(len(addends)), map(_terms_of, addends)):  # see _terms_of
        out[f // t.dim] += addends[f]
    return Tensor(t.dim, [t.variance[s] for s in keep], out)


def symmetry_check(t: Tensor, slots, mode: str) -> bool:
    """True when swapping the two slots gives +t (symmetric) or -t."""
    s1, s2 = slots
    if t.variance[s1] != t.variance[s2]:
        raise ShapeError("symmetry slots must share variance")
    if mode not in ("symmetric", "antisymmetric"):
        raise ShapeError(f"unknown symmetry mode {mode!r}")
    e = t.entries
    mirrored = tuple(map(e.__getitem__, _swapped_offsets(t.dim, t.arity, s1, s2)))
    if mode == "antisymmetric":
        mirrored = tuple([-x for x in mirrored])
    # a tuple comparison tries identity before DiffPoly.__eq__, entry by entry
    return mirrored == e


def tensor_to_json(t: Tensor, coord_names) -> dict:
    """JSON form with zero entries omitted; keys join coordinate names by '.'."""
    coord_names = list(coord_names)
    if len(coord_names) != t.dim:
        raise ShapeError("coordinate names must match the dimension")
    entries = {}
    for idx in t.indices():
        value = t[idx]
        if value.is_zero():
            continue
        entries[".".join(coord_names[i] for i in idx)] = str(value)
    return {"variance": list(t.variance), "entries": entries}
