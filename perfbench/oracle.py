"""Independent sympy computations the benchmark checks projconn against.

Conventions are the ones projconn documents:

    R^l_{ijk} = d_i G^l_{jk} - d_j G^l_{ik}
                + sum_m (G^l_{im} G^m_{jk} - G^l_{jm} G^m_{ik})
    Ricci_{jk} = sum_i R^i_{ijk}

and the dimension-3 Weyl projective tensor in its Ricci-only form

    W^l_{ijk} = R^l_{ijk} + d^l_k (Ric_ij - Ric_ji)/4
                + d^l_j (3 Ric_ik + Ric_ki)/8 - d^l_i (3 Ric_jk + Ric_kj)/8.

Nothing here calls projconn except through to_sympy, which reads a
polynomial's public term map.
"""

from __future__ import annotations

from itertools import product

import sympy as sp

TORUS_COORDS = ("tau", "z1", "z2")
TORUS_PARAMS = ("A", "B", "C", "D", "E")


def symbols_named(names) -> dict:
    return {name: sp.Symbol(name) for name in names}


def to_sympy(poly, symbols: dict):
    """A projconn polynomial as a sympy expression over the given symbols."""
    total = sp.Integer(0)
    for mono, coeff in poly.terms().items():
        term = sp.Rational(coeff.re.numerator, coeff.re.denominator)
        term += sp.I * sp.Rational(coeff.im.numerator, coeff.im.denominator)
        for sym, exp in mono:
            term *= symbols[sym.name] ** exp
        total += term
    return total


def parse_text(text: str, symbols: dict):
    """A polynomial printed by projconn (`^` powers, `i` the unit) in sympy."""
    return sp.parse_expr(text.replace("^", "**"), local_dict={**symbols, "i": sp.I})


def equal(a, b) -> bool:
    return sp.expand(a - b) == 0


def curvature(gamma, coords):
    n = len(coords)
    R = {}
    for l, i, j, k in product(range(n), repeat=4):
        value = sp.diff(gamma[l][j][k], coords[i]) - sp.diff(gamma[l][i][k], coords[j])
        for m in range(n):
            value += gamma[l][i][m] * gamma[m][j][k] - gamma[l][j][m] * gamma[m][i][k]
        R[l, i, j, k] = sp.expand(value)
    return R


def ricci(R, n):
    return {(j, k): sp.expand(sum(R[i, i, j, k] for i in range(n)))
            for j, k in product(range(n), repeat=2)}


def weyl3_ricci_only(R, ric):
    W = {}
    quarter, eighth = sp.Rational(1, 4), sp.Rational(1, 8)
    for l, i, j, k in product(range(3), repeat=4):
        value = R[l, i, j, k]
        if l == k:
            value += (ric[i, j] - ric[j, i]) * quarter
        if l == j:
            value += (3 * ric[i, k] + ric[k, i]) * eighth
        if l == i:
            value -= (3 * ric[j, k] + ric[k, j]) * eighth
        W[l, i, j, k] = sp.expand(value)
    return W


def torus3_gamma(symbols: dict):
    """The torus3 table, written out from its definition:

    G^z1_tt = A, G^z2_tt = B, G^z1_{z1z1} = C, G^t_{tz1} = G^z1_{z1z2} = C/2,
    G^z2_{z2z2} = D, G^t_{tz2} = G^z2_{z1z2} = D/2, G^t_tt = E,
    G^z1_{z1t} = G^z2_{z2t} = E/2.
    """
    A, B, C, D, E = (symbols[p] for p in TORUS_PARAMS)
    t, z1, z2 = 0, 1, 2
    G = [[[sp.Integer(0)] * 3 for _ in range(3)] for _ in range(3)]

    def put(k, i, j, value):
        G[k][i][j] = G[k][j][i] = value

    put(z1, t, t, A)
    put(z2, t, t, B)
    put(z1, z1, z1, C)
    put(t, t, z1, C / 2)
    put(z1, z1, z2, C / 2)
    put(z2, z2, z2, D)
    put(t, t, z2, D / 2)
    put(z2, z1, z2, D / 2)
    put(t, t, t, E)
    put(z1, z1, t, E / 2)
    put(z2, z2, t, E / 2)
    return G


class Torus3:
    """Curvature, Ricci and Weyl of torus3, computed once on first use."""

    def __init__(self):
        self.symbols = symbols_named(TORUS_COORDS + TORUS_PARAMS)
        coords = [self.symbols[c] for c in TORUS_COORDS]
        self.R = curvature(torus3_gamma(self.symbols), coords)
        self.ricci = ricci(self.R, 3)
        self.weyl = weyl3_ricci_only(self.R, self.ricci)
