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
making dz1 ^ ... ^ dzn parallel.
"""

from __future__ import annotations

from fractions import Fraction

from .connection import FIELD, Connection, weyl3
from .errors import ShapeError
from .poly import DiffPoly
from .tensor import DOWN, Tensor, contract


def OneForm(coords, components) -> Tensor:
    """The one-form sum_i components[i] dx^i on the given coordinates."""
    components = list(components)
    if len(components) != len(tuple(coords)):
        raise ShapeError("one-form component count mismatch")
    return Tensor(len(components), (DOWN,), components)


def divergence(t: Tensor) -> Tensor:
    """(div T)_j = sum_k T^k_{kj}."""
    return contract(t, 0, 1)


def inject(f: Tensor) -> Tensor:
    """J(theta)^k_{ij} = theta_i delta^k_j + theta_j delta^k_i."""
    n = f.dim
    entries = {}
    for m, theta in f._stored.items():
        for k in range(n):
            # (k, m, k) and (k, k, m) hold theta_m; both are (m, m, m) when k == m
            entries[(k * n + m) * n + k] = entries[(k * n + k) * n + m] = theta
        entries[(m * n + m) * n + m] = theta + theta
    return Tensor(n, FIELD, entries)


def trace_free_project(t: Tensor) -> Tensor:
    """Projection onto kernel(div) along image(J); idempotent."""
    return t - inject(divergence(t) * Fraction(1, t.dim + 1))


def with_one_form(c: Connection, f: Tensor) -> Connection:
    """The projectively equivalent connection c + J(theta)."""
    return Connection(c.coords, c.table + inject(f))


def projective_equiv(c1: Connection, c2: Connection):
    """Witness one-form theta with c1 = c2 + J(theta), or None.

    The candidate is forced: theta = div(c1 - c2)/(n+1); the difference is
    in the image of J exactly when the residual against J(theta) vanishes.
    """
    if c1.coords != c2.coords:
        raise ShapeError("connections live on different coordinates")
    diff = c1.table - c2.table
    theta = divergence(diff) * Fraction(1, diff.dim + 1)
    if (diff - inject(theta)).is_zero():
        return theta
    return None


def volume_normalize(c: Connection) -> Connection:
    """The projectively equivalent connection with all traces removed.

    The result satisfies sum_k G^k_{ik} = 0 for every i, which on the
    standard chart says the coordinate volume form is parallel; applied
    twice it is the identity.
    """
    return with_one_form(c, divergence(c.table) * Fraction(-1, c.dim + 1))


def is_projectively_flat(c: Connection) -> bool:
    """Flatness in dimension n >= 3: the Weyl projective tensor vanishes."""
    return weyl3(c).is_zero()


def flatness_conditions(c: Connection) -> list[DiffPoly]:
    """Distinct nonzero Weyl components, deduplicated up to constant scale.

    Each survivor is normalized monic; the connection is projectively flat
    exactly when every listed polynomial vanishes.
    """
    seen = []
    for _, entry in weyl3(c).items():
        normalized = entry.monic()
        if normalized not in seen:
            seen.append(normalized)
    return seen
