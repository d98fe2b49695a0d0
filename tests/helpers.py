"""Shared random generators for the property tests, reference oracles for
the tensor, curvature, Weyl, projective and geodesic kernels, a sympy
recomputation of curvature, Ricci and the Weyl projective tensor, the Bianchi
identity and restriction to a coordinate subspace, and a runner for code that
must start in a fresh interpreter.

Everything is seeded explicitly by the caller; no global randomness.
"""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import sympy as sp

import projconn

from projconn.connection import Connection, curvature, from_table, ricci, weyl3
from projconn.errors import DivergenceError, ShapeError
from projconn.geodesic import MAX_HORIZON, GeodesicPath
from projconn.poly import ZERO_POLY, DiffPoly, as_poly
from projconn.projective import OneForm
from projconn.rational import GaussianRational
from projconn.symbols import FUNCTION, SymbolTable
from projconn.tensor import DOWN, Tensor, UP, contract


def run_python(code, *args, timeout, cwd=None) -> subprocess.CompletedProcess:
    """Run code with args in a fresh interpreter that imports this projconn and
    the tests directory; raises subprocess.TimeoutExpired past the timeout in
    seconds."""
    paths = [str(Path(projconn.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (*paths, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=cwd, timeout=timeout,
                          capture_output=True, text=True)


def rand_fraction(rng, span=5, max_den=4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def rand_gaussian(rng, span=5, imaginary=True) -> GaussianRational:
    im = rand_fraction(rng, span) if imaginary and rng.random() < 0.4 else 0
    return GaussianRational(rand_fraction(rng, span), im)


def rand_monomial(rng, symbols, max_factors=2, max_exp=2):
    chosen = rng.sample(symbols, k=rng.randint(0, min(max_factors, len(symbols))))
    return {s: rng.randint(1, max_exp) for s in chosen}


def rand_poly(rng, symbols, max_terms=3, max_exp=2) -> DiffPoly:
    total = as_poly(0)
    for _ in range(rng.randint(0, max_terms)):
        term = as_poly(rand_gaussian(rng))
        for sym, exp in rand_monomial(rng, symbols, max_exp=max_exp).items():
            term = term * as_poly(sym) ** exp
        total = total + term
    return total


def coords_named(*names):
    table = SymbolTable()
    return tuple(table.coordinate(n) for n in names)


def rand_torsionfree(
    rng, coords, symbols=None, max_terms=2, max_exp=2, fill=0.5
) -> Connection:
    """Random symmetric Christoffel table with polynomial entries; each
    symmetric slot is drawn with probability `fill`."""
    n = len(coords)
    pool = list(symbols if symbols is not None else coords)
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                if rng.random() < fill:
                    entries[(k, i, j)] = rand_poly(rng, pool, max_terms, max_exp)
    return from_table(coords, entries)


def deg2_poly(rng, symbols) -> DiffPoly:
    """Random polynomial of total degree <= 2 in the given symbols."""
    monomials = [()]
    monomials += [((s, 1),) for s in symbols]
    monomials += [((s, 2),) for s in symbols]
    for a in range(len(symbols)):
        for b in range(a + 1, len(symbols)):
            sa, sb = sorted((symbols[a], symbols[b]), key=lambda s: s.sort_key)
            monomials.append(((sa, 1), (sb, 1)))
    total = as_poly(0)
    for mono in rng.sample(monomials, k=rng.randint(1, 3)):
        term = as_poly(GaussianRational(rand_fraction(rng, 3)))
        for sym, exp in mono:
            term = term * as_poly(sym) ** exp
        total = total + term
    return total


def rand_deg2_table(rng, coords) -> Connection:
    """Random table shaped like acceptance criterion 06: each symmetric slot
    filled with probability 0.4 by a polynomial of total degree <= 2."""
    n = len(coords)
    entries = {}
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.4:
                    entries[(k, i, j)] = deg2_poly(rng, list(coords))
    return from_table(coords, entries)


def rand_one_form(rng, coords, symbols=None, max_terms=2, max_exp=2) -> Tensor:
    pool = list(symbols if symbols is not None else coords)
    return OneForm(coords, [rand_poly(rng, pool, max_terms, max_exp) for _ in coords])


def naive_curvature(conn) -> Tensor:
    """Dense oracle: every R^l_{ijk} from the defining formula, looping over
    all n^4 entries and all m with no use of sparsity or symmetry."""
    n = conn.dim
    g = conn.gamma
    coords = conn.coords

    def entry(idx):
        l, i, j, k = idx
        value = g[l][j][k].diff(coords[i]) - g[l][i][k].diff(coords[j])
        for m in range(n):
            value = value + g[l][i][m] * g[m][j][k] - g[l][j][m] * g[m][i][k]
        return value

    return Tensor.from_function(n, (UP, DOWN, DOWN, DOWN), entry)


def trr_weyl(conn) -> Tensor:
    """The Weyl projective tensor by the settle-then-correct path that weyl3
    took before it summed W straight from the curvature accumulators: the
    settled curvature, Ricci and TrR as its two traces by contract, then

        W^l_{ijk} = R^l_{ijk} - d^l_k TrR_{ij}/(n+1) - d^l_i P_{jk} + d^l_j P_{ik},
        P_{jk} = Ricci_{jk}/(n-1) + TrR_{jk}/((n-1)(n+1)),

    entry by entry in DiffPoly arithmetic, over all n^4 entries."""
    n = conn.dim
    R = curvature(conn)
    ric, trr = contract(R, 0, 1), contract(R, 0, 3)
    m = Fraction(1, (n - 1) * (n + 1))
    P = {(j, k): ric[j, k] * Fraction(1, n - 1) + trr[j, k] * m
         for j, k in product(range(n), repeat=2)}

    def entry(idx):
        l, i, j, k = idx
        value = R[idx]
        if l == k:
            value = value - trr[i, j] * Fraction(1, n + 1)
        if l == i:
            value = value - P[j, k]
        if l == j:
            value = value + P[i, k]
        return value

    return Tensor.from_function(n, (UP, DOWN, DOWN, DOWN), entry)


# -- composed projective oracles ------------------------------------------------
#
# with_one_form, volume_normalize and projective_equiv as they were composed
# from whole-tensor steps before each became one walk over stored entries:
# J(theta) from its defining formula over all n^3 entries, div by contract, and
# the sums, differences and scalings by the Tensor kernels.


def composed_inject(theta) -> Tensor:
    """J(theta)^k_{ij} = theta_i delta^k_j + theta_j delta^k_i, entry by entry."""

    def entry(idx):
        k, i, j = idx
        return (theta[i] if k == j else ZERO_POLY) + (theta[j] if k == i else ZERO_POLY)

    return Tensor.from_function(theta.dim, (UP, DOWN, DOWN), entry)


def composed_with_one_form(conn, theta) -> Tensor:
    """The table of conn + J(theta)."""
    return conn.table + composed_inject(theta)


def composed_volume_normalize(conn) -> Tensor:
    """The table of the volume-normalized connection, conn - J(div(conn)/(n+1))."""
    return conn.table - composed_inject(contract(conn.table, 0, 1) * Fraction(1, conn.dim + 1))


def composed_projective_equiv(c1, c2):
    """theta = div(c1 - c2)/(n+1) when c1 - c2 - J(theta) vanishes, else None."""
    diff = c1.table - c2.table
    theta = contract(diff, 0, 1) * Fraction(1, diff.dim + 1)
    return theta if (diff - composed_inject(theta)).is_zero() else None


# -- sympy engine -----------------------------------------------------------------
#
# Curvature, Ricci and the Weyl projective tensor recomputed by sympy from the
# Christoffel entries alone, in the Ricci-only form of Eastwood, "Notes on
# projective differential geometry" (IMA Vol. Math. Appl. 144, 2008):
#
#     P_jk = Ric_(jk)/(n-1) + Ric_[jk]/(n+1)
#     W^l_ijk = R^l_ijk - d^l_i P_jk + d^l_j P_ik + d^l_k (P_ij - P_ji)
#
# with Ric_(jk) and Ric_[jk] the symmetric and alternating parts of Ricci.
# Nothing of projconn's curvature, Ricci or Weyl code enters: the engine is
# read only through each entry's public term map.


@lru_cache(maxsize=None)
def _sympy_symbol(sym):
    """A parameter or coordinate as a sympy Symbol; a formal function as the
    sympy Function of its coordinates, derived by its multi-index, so that
    sympy differentiates it by the chain rule."""
    if sym.kind != FUNCTION:
        return sp.Symbol(sym.name)
    f = sp.Function(sym.name)(*map(sp.Symbol, sym.depends_on))
    return f.diff(*((sp.Symbol(c), o) for c, o in sym.deriv)) if sym.deriv else f


def to_sympy(poly):
    """A projconn polynomial as a sympy expression."""
    total = sp.Integer(0)
    for mono, c in poly.terms().items():
        term = sp.Rational(c.re.numerator, c.re.denominator)
        term += sp.I * sp.Rational(c.im.numerator, c.im.denominator)
        for sym, exp in mono:
            term *= _sympy_symbol(sym) ** exp
        total += term
    return total


def to_poly(poly, gens):
    """A projconn polynomial as a sympy Poly over Q(i) in gens; a symbol
    outside gens is a KeyError."""
    index = {g: pos for pos, g in enumerate(gens)}
    terms = {}
    for mono, c in poly.terms().items():
        exps = [0] * len(gens)
        for sym, exp in mono:
            exps[index[_sympy_symbol(sym)]] = exp
        terms[tuple(exps)] = sp.QQ_I(sp.QQ(c.re.numerator, c.re.denominator),
                                     sp.QQ(c.im.numerator, c.im.denominator))
    return sp.Poly.from_dict(terms, *gens, domain=sp.QQ_I)


def sympy_weyl(conn) -> tuple:
    """(R, Ric, W, gens) of a connection of any dimension n >= 3 by sympy: the
    tensors as dicts from index tuples to Polys over Q(i) in gens, which are
    the coordinates and every symbol that the entries or their first
    derivatives mention."""
    n = conn.dim
    x = [sp.Symbol(c.name) for c in conn.coords]
    G = {idx: to_sympy(conn.table[idx]) for idx in product(range(n), repeat=3)}
    dG = {(i, *idx): sp.diff(g, x[i]) for idx, g in G.items() for i in range(n)}
    polys, opt = sp.parallel_poly_from_expr([*G.values(), *dG.values(), *x], domain=sp.QQ_I)
    G, dG = dict(zip(G, polys)), dict(zip(dG, polys[len(G):]))
    R = {}
    for l, i, j, k in product(range(n), repeat=4):
        value = dG[i, l, j, k] - dG[j, l, i, k]
        for m in range(n):
            value += G[l, i, m] * G[m, j, k] - G[l, j, m] * G[m, i, k]
        R[l, i, j, k] = value
    ric = {(j, k): sum(R[i, i, j, k] for i in range(n)) for j, k in product(range(n), repeat=2)}
    sym, alt = sp.Rational(1, 2 * (n - 1)), sp.Rational(1, 2 * (n + 1))
    P = {(j, k): (ric[j, k] + ric[k, j]) * sym + (ric[j, k] - ric[k, j]) * alt for j, k in ric}
    W = {}
    for l, i, j, k in R:
        value = R[l, i, j, k]
        if l == i:
            value -= P[j, k]
        if l == j:
            value += P[i, k]
        if l == k:
            value += P[i, j] - P[j, i]
        W[l, i, j, k] = value
    return R, ric, W, opt.gens


def assert_matches_sympy(conn):
    """The engine's curvature, Ricci and Weyl tensors of conn equal the sympy
    engine's, entry by entry."""
    R, ric, W, gens = sympy_weyl(conn)
    for tensor, expected in ((curvature(conn), R), (ricci(conn), ric), (weyl3(conn), W)):
        for idx, value in expected.items():
            assert to_poly(tensor[idx], gens) == value, idx


# -- dense tensor oracles -------------------------------------------------------
#
# The kernels as they were while every tensor stored all dim**arity entries:
# each walks the dense `entries` view and returns the row-major entries of
# its result.


def _dense_offsets(dim, strides) -> list:
    """Flat offsets met by a row-major walk whose slot s steps strides[s]."""
    offsets = [0]
    for step in strides:
        offsets = [base + i * step for base in offsets for i in range(dim)]
    return offsets


def _dense_strides(dim, arity) -> list:
    return [dim ** (arity - 1 - s) for s in range(arity)]


def dense_swap_slots(t, s1, s2) -> tuple:
    strides = _dense_strides(t.dim, t.arity)
    strides[s1], strides[s2] = strides[s2], strides[s1]
    return tuple(map(t.entries.__getitem__, _dense_offsets(t.dim, strides)))


def dense_contract(t, up, down) -> tuple:
    keep = [s for s in range(t.arity) if s not in (up, down)]
    strides = _dense_strides(t.dim, t.arity)
    diagonal = _dense_offsets(t.dim, [*[strides[s] for s in keep], strides[up] + strides[down]])
    out = [ZERO_POLY] * t.dim ** len(keep)
    for pos, f in enumerate(diagonal):
        out[pos // t.dim] += t.entries[f]
    return tuple(out)


def dense_symmetry_check(t, slots, mode) -> bool:
    mirrored = dense_swap_slots(t, *slots)
    if mode == "antisymmetric":
        mirrored = tuple(-x for x in mirrored)
    return mirrored == t.entries


def dense_add(s, t) -> tuple:
    return tuple(a + b for a, b in zip(s.entries, t.entries))


def dense_sub(s, t) -> tuple:
    return tuple(a - b for a, b in zip(s.entries, t.entries))


def dense_tensor_lines(t, names, label) -> list:
    """The CLI text report of a (1,3) or (0,2) tensor by the full index loop,
    two index reads per tuple, as it was before the report walked items()."""
    lines = []
    if t.variance == ("up", "down", "down", "down"):
        for i in range(t.dim):
            for j in range(i + 1, t.dim):
                for k in range(t.dim):
                    parts = [
                        f"({t[l, i, j, k]}) d_{names[l]}"
                        for l in range(t.dim)
                        if not t[l, i, j, k].is_zero()
                    ]
                    if parts:
                        lines.append(
                            f"{label}({names[i]},{names[j]}){names[k]} = "
                            + " + ".join(parts)
                        )
        if lines:
            lines.append("(first two arguments antisymmetric; zero components omitted)")
    else:
        for i in range(t.dim):
            for j in range(t.dim):
                if not t[i, j].is_zero():
                    lines.append(f"{label}({names[i]},{names[j]}) = {t[i, j]}")
    return lines or [f"{label} = 0"]


def bianchi_holds(t) -> bool:
    """First Bianchi identity of a (1,3) tensor: the cyclic sum over its
    three arguments is zero."""
    for l, i, j, k in t.indices():
        total = t[l, i, j, k] + t[l, j, k, i] + t[l, k, i, j]
        if not total.is_zero():
            return False
    return True


def restrict(conn, names) -> Connection:
    """The connection induced on the named coordinates, kept in chart order.

    They must span a totally geodesic subspace: G^k_{ij} = 0 for kept i, j
    and dropped k.  Kept entries that mention a dropped coordinate fail the
    chart check of the restricted Connection.
    """
    kept = [pos for pos, c in enumerate(conn.coords) if c.name in names]
    dropped = [pos for pos in range(conn.dim) if pos not in kept]
    for k, i, j in product(dropped, kept, kept):
        assert conn.table[k, i, j].is_zero(), "not a totally geodesic subspace"
    entries = {
        idx: conn.table[tuple(kept[a] for a in idx)] for idx in product(range(len(kept)), repeat=3)
    }
    return from_table([conn.coords[pos] for pos in kept], entries)


def exact_connection(gamma) -> Connection:
    """The exact connection of a complex n x n x n array symmetric in its lower
    indices, on coordinates x0..x(n-1).  Each float part becomes the Fraction
    it equals, so every entry converts back to the same complex number."""
    gamma = np.asarray(gamma, dtype=complex)
    entries = {idx: GaussianRational(Fraction(g.real), Fraction(g.imag))
               for idx, g in np.ndenumerate(gamma) if g}
    return from_table(coords_named(*(f"x{k}" for k in range(len(gamma)))), entries)


def naive_integrate(c, x0, v0, step, count) -> GeodesicPath:
    """Reference RK4: the step written with numpy array operations and einsum
    on the full Christoffel array of the constant connection c, zero entries
    included, each entry read from the dense view `gamma` by `evaluate`."""
    if step <= 0:
        raise ShapeError("step must be positive")
    if count < 1:
        raise ShapeError("count must be a positive integer")
    if step * count > MAX_HORIZON:
        raise ShapeError(f"horizon step * count exceeds the bound of {MAX_HORIZON}")
    x = np.asarray(x0, dtype=complex)
    v = np.asarray(v0, dtype=complex)
    if x.shape != (c.dim,) or v.shape != (c.dim,):
        raise ShapeError("initial state does not match the dimension")
    gamma = np.array([[[complex(g.evaluate({})) for g in row] for row in plane]
                      for plane in c.gamma], dtype=complex)

    def acceleration(w):
        return -np.einsum("kij,i,j->k", gamma, w, w)

    times = [0.0]
    xs = [x.copy()]
    vs = [v.copy()]
    h = step
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(count):
            k1x, k1v = v, acceleration(v)
            k2x = v + 0.5 * h * k1v
            k2v = acceleration(v + 0.5 * h * k1v)
            k3x = v + 0.5 * h * k2v
            k3v = acceleration(v + 0.5 * h * k2v)
            k4x = v + h * k3v
            k4v = acceleration(v + h * k3v)
            x = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
            v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
            state = np.concatenate([x, v])
            if not np.all(np.isfinite(state.view(float))):
                raise DivergenceError("geodesic integration diverged", times[-1])
            times.append((n + 1) * h)
            xs.append(x.copy())
            vs.append(v.copy())
    return GeodesicPath(times, xs, vs)


def naive_match(p, q) -> float:
    """Reference trace match: every sample of p against every segment of q's
    polyline, in blocks of at most 2**16 point-segment pairs."""
    if len(p) == 0 or len(q) == 0:
        raise ShapeError("paths must contain samples")
    p_positions = np.array(p.positions, dtype=complex)
    q_positions = np.array(q.positions, dtype=complex)
    pp = np.concatenate([p_positions.real, p_positions.imag], axis=-1)
    qq = np.concatenate([q_positions.real, q_positions.imag], axis=-1)
    if pp.shape[1] != qq.shape[1]:
        raise ShapeError("paths live in different dimensions")
    if len(q) == 1:
        return float(np.max(np.linalg.norm(pp - qq[0], axis=1)))
    starts = qq[:-1]
    deltas = qq[1:] - starts
    lengths_sq = np.sum(deltas * deltas, axis=1)
    lengths_sq[lengths_sq == 0] = 1.0
    block = max(1, 2**16 // len(starts))
    deviation = 0.0
    for lo in range(0, len(pp), block):
        chunk = pp[lo:lo + block, None, :]
        diff = chunk - starts[None, :, :]
        t = np.sum(diff * deltas[None, :, :], axis=2) / lengths_sq[None, :]
        t = np.clip(t, 0.0, 1.0)
        nearest = starts[None, :, :] + t[:, :, None] * deltas[None, :, :]
        dist = np.linalg.norm(chunk - nearest, axis=2)
        deviation = max(deviation, float(np.max(np.min(dist, axis=1))))
    return deviation
