"""Projective equivalence calculus on symmetric (1,2) fields.

A field T^k_{ij} is a `Tensor` of variance (up, down, down), a one-form a
`Tensor` of variance (down,).  The divergence trace, the one-form injection
J with div o J = (n+1) Id, the induced trace-free projection, and the
resulting constructive equivalence test: two torsionfree connections are
projectively equivalent exactly when their difference lies in the image of
J, and the only candidate witness is theta = div(difference) / (n+1), so
membership reduces to one exact residual check.  Volume normalization
picks, inside a projective class, the unique representative whose traces
sum(GG^k_{ik}) all vanish; on the standard chart that is the connection
making dz1 ^ ... ^ dzn parallel: the trace-free projection of the table.
`_trace` (summed, then settled by `poly._settled`) and `_shift` (T + J(theta))
read each result off the stored entries, building only the `Tensor` returned.
"""

from __future__ import annotations

from .connection import FIELD, Connection, weyl3
from .errors import ShapeError
from .poly import DiffPoly, ZERO_POLY, _scaled, _settled
from .tensor import DOWN, Tensor


def OneForm(coords, components) -> Tensor:
    """The one-form sum_i components[i] dx^i on the given coordinates."""
    components = list(components)
    if len(components) != len(tuple(coords)):
        raise ShapeError("one-form component count mismatch")
    return Tensor(len(components), (DOWN,), components)


def _entries(t: Tensor, variance, n) -> dict:
    """The stored entries of t, refused unless t has this variance and dimension n."""
    if t.variance != variance or t.dim != n:
        raise ShapeError(f"expected variance {variance}, dim {n}; got {t.variance}, dim {t.dim}")
    return t._stored


def _trace(n, stored, num, den, minus=None) -> dict:
    """{j: num/den * theta_j} for the nonzero theta_j = sum_k (T - S)^k_{kj}, T and S
    the stored entries of n-dim fields (S empty if not given), settled once each."""
    # sums: j -> the accumulator of D * num * theta_j; f is the offset of (k, k, j)
    D, sums = _scaled((f % n, p, sign) for entries, sign in ((stored, num), (minus or {}, -num))
                      for f, p in entries.items() if not f // n % (n + 1))
    return _settled(sums, D * den)


def _shift(n, stored, theta) -> dict:
    """T + J(theta), T the stored entries of an n-dim field and theta those of a
    one-form; entries that cancel are left out."""
    out = dict(stored)
    for m, t in theta.items():
        for k in range(n):
            # (k, m, k) and (k, k, m) take theta_m, so (m, m, m) takes it twice
            for f in ((k * n + m) * n + k, (k * n + k) * n + m):
                if (s := out.get(f, ZERO_POLY) + t)._terms:
                    out[f] = s
                else:
                    del out[f]
    return out


def divergence(t: Tensor) -> Tensor:
    """(div T)_j = sum_k T^k_{kj}."""
    return Tensor(t.dim, (DOWN,), _trace(t.dim, _entries(t, FIELD, t.dim), 1, 1))


def inject(f: Tensor) -> Tensor:
    """J(theta)^k_{ij} = theta_i delta^k_j + theta_j delta^k_i."""
    return Tensor(f.dim, FIELD, _shift(f.dim, {}, _entries(f, (DOWN,), f.dim)))


def trace_free_project(t: Tensor) -> Tensor:
    """Projection onto kernel(div) along image(J); idempotent."""
    n, stored = t.dim, _entries(t, FIELD, t.dim)
    return Tensor(n, FIELD, _shift(n, stored, _trace(n, stored, -1, n + 1)))


def with_one_form(c: Connection, f: Tensor) -> Connection:
    """The projectively equivalent connection c + J(theta)."""
    shifted = _shift(c.dim, c.table._stored, _entries(f, (DOWN,), c.dim))
    return Connection(c.coords, Tensor(c.dim, FIELD, shifted))


def projective_equiv(c1: Connection, c2: Connection):
    """Witness one-form theta with c1 = c2 + J(theta), or None.

    The candidate is forced: theta = div(c1 - c2)/(n+1); the difference is
    in the image of J exactly when c1 - J(theta) stores what c2 stores.
    """
    if c1.coords != c2.coords:
        raise ShapeError("connections live on different coordinates")
    n, s1, s2 = c1.dim, c1.table._stored, c2.table._stored
    theta = _trace(n, s1, 1, n + 1, s2)
    minus = {j: -p for j, p in theta.items()}
    return Tensor(n, (DOWN,), theta) if _shift(n, s1, minus) == s2 else None


def volume_normalize(c: Connection) -> Connection:
    """The projectively equivalent connection with all traces removed.

    The result satisfies sum_k G^k_{ik} = 0 for every i, which on the
    standard chart says the coordinate volume form is parallel; applied
    twice it is the identity.
    """
    return Connection(c.coords, trace_free_project(c.table))


def is_projectively_flat(c: Connection) -> bool:
    """Flatness in dimension n >= 3: the Weyl projective tensor vanishes."""
    return weyl3(c).is_zero()


def flatness_conditions(c: Connection) -> list[DiffPoly]:
    """Distinct nonzero Weyl components, deduplicated up to constant scale.

    Each survivor is normalized monic; the connection is projectively flat
    exactly when every listed polynomial vanishes.
    """
    return list(dict.fromkeys(entry.monic() for _, entry in weyl3(c).items()))
