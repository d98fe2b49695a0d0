"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every symbolic comparison is exact (zero tolerance); the numeric
geodesic checks use the stated tolerances; runtime budgets are asserted
where stated.
"""

import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

import golden
from projconn.connection import curvature, ricci, trace_r, weyl3
from projconn.families import (
    GroupElement,
    kuga_shimura,
    invariance_check,
    orbit_safe_points,
    torus3,
    transported_values,
)
from projconn.geodesic import integrate, unparametrized_match
from projconn.poly import as_poly
from projconn.projective import (
    divergence,
    flatness_conditions,
    inject,
    projective_equiv,
    trace_free_project,
    volume_normalize,
    with_one_form,
)
from projconn.rational import GaussianRational
from projconn.symbols import function, parameter

from helpers import (
    coords_named,
    rand_deg2_table,
    rand_fraction,
    rand_one_form,
    rand_torsionfree,
)


def report(number: int, ok: bool, label: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_01_golden_curvature():
    started = time.perf_counter()
    R = curvature(torus3())
    ok = True
    for (i, j, k), expected in golden.curvature_components().items():
        for l in range(3):
            ok = ok and R[l, i, j, k] == expected[l]
    for l, i, j, k in R.indices():
        ok = ok and R[l, i, j, k] == -R[l, j, i, k]
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    report(1, ok, f"golden curvature components, exact ({elapsed:.2f}s < 5s)")


def test_criterion_02_golden_ricci():
    ric = ricci(torus3())
    ok = all(
        ric[j, k] == expected for (j, k), expected in golden.ricci_components().items()
    )
    ok = ok and trace_r(torus3()).is_zero()
    report(2, ok, "golden Ricci entries and vanishing trace curvature, exact")


def test_criterion_03_golden_weyl():
    W = weyl3(torus3())
    ok = True
    for (i, j, k), expected in golden.weyl_components().items():
        for l in range(3):
            ok = ok and W[l, i, j, k] == expected[l]
    report(3, ok, "golden Weyl components including the Bianchi-derived one, exact")


def test_criterion_04_flatness_classification():
    conds = flatness_conditions(torus3())
    C, D = parameter("C"), parameter("D")
    ok = len(conds) > 0
    for poly in conds:
        ok = ok and poly.subst({C: as_poly(D)}).is_zero()
    sample = {
        parameter("A"): as_poly(1),
        parameter("B"): as_poly(2),
        parameter("C"): as_poly(5),
        parameter("D"): as_poly(6),
        parameter("E"): as_poly(0),
    }
    ok = ok and any(not p.subst(sample).is_zero() for p in conds)
    # the Weyl tensor never mentions E
    W = weyl3(torus3())
    e_name = "E"
    for idx in W.indices():
        for sym in W[idx].symbols():
            ok = ok and sym.name != e_name
    report(4, ok, "flatness conditions vanish iff C = D; Weyl independent of E")


def test_criterion_05_projective_calculus():
    rng = random.Random(20240902)
    ok = True
    forms = 0
    for n in (2, 3, 4, 5):
        coords = coords_named(*(f"x{i}" for i in range(n)))
        for _ in range(13):
            theta = rand_one_form(rng, coords)
            scaled = tuple(e * (n + 1) for e in theta.entries)
            ok = ok and divergence(inject(theta)).entries == scaled
            forms += 1
    ok = ok and forms >= 50
    coords = coords_named("x", "y", "z")
    for _ in range(10):
        t = rand_torsionfree(rng, coords).table
        once = trace_free_project(t)
        ok = ok and trace_free_project(once) == once
    ok = ok and trace_free_project(kuga_shimura(True).table) == kuga_shimura(False).table
    div = divergence(kuga_shimura(True).table)
    c_sym = function("C", ("tau",))
    ok = ok and div[0] == 2 * as_poly(c_sym)
    ok = ok and div[1].is_zero() and div[2].is_zero()
    report(5, ok, "div/injection/projection identities on 50+ random one-forms, exact")


def test_criterion_06_weyl_projective_invariance():
    started = time.perf_counter()
    rng = random.Random(20240903)
    coords = coords_named("x", "y", "z")
    ok = True
    for _ in range(100):
        conn = rand_deg2_table(rng, coords)
        theta = rand_one_form(rng, coords)
        ok = ok and weyl3(with_one_form(conn, theta)) == weyl3(conn)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    report(6, ok, f"Weyl invariant under 100 random one-form shifts ({elapsed:.1f}s < 60s)")


def test_criterion_07_fibered_family_flatness():
    conn = kuga_shimura(with_trace=False)
    R = curvature(conn)
    ok = R.is_zero()
    # no derivative of A or B may survive in any component; the tensor is
    # zero, and the derivative part of each component cancels symbol-wise
    for l, i, j, k in product(range(3), repeat=4):
        part = conn.gamma[l][j][k].diff(conn.coords[i]) - conn.gamma[l][i][k].diff(
            conn.coords[j]
        )
        for sym in part.symbols():
            ok = ok and not sym.is_derived()
    ok = ok and weyl3(kuga_shimura(with_trace=True)).is_zero()
    report(7, ok, "fibered family: curvature and Weyl vanish with formal A(tau), B(tau)")


def test_criterion_08_equivariance_suite():
    rng = random.Random(20240904)
    field = kuga_shimura(True).table
    elements = []
    for _ in range(10):  # lattice part only
        elements.append(GroupElement(1, 0, 0, 1, *(rand_fraction(rng) for _ in range(4))))
    for _ in range(5):  # unipotent
        elements.append(GroupElement(1, rand_fraction(rng), 0, 1))
    elements.append(GroupElement(0, -1, 1, 0))  # the order-4 element
    ok = True
    for g in elements:
        points = orbit_safe_points(g, 10, rng)
        base = {
            name: {
                p[0]: GaussianRational(rand_fraction(rng), rand_fraction(rng))
                for p in points
            }
            for name in ("A", "B", "C")
        }
        values = transported_values(g, points, base)
        ok = ok and invariance_check(field, g, points, values)
    report(8, ok, "equivariance at 10 exact points per element, 16 elements")


def test_criterion_09_trace_elimination():
    raw = torus3()
    killed = torus3(E=0)
    E = as_poly(parameter("E"))
    theta = projective_equiv(raw, killed)
    ok = theta is not None
    if ok:
        ok = theta[0] == E / 2
        ok = ok and theta[1].is_zero()
        ok = ok and theta[2].is_zero()
    normalized = volume_normalize(raw)
    witness = projective_equiv(raw, normalized)
    ok = ok and witness is not None and witness[0] == E / 2
    ok = ok and volume_normalize(raw) == volume_normalize(killed)
    for i in range(3):
        total = as_poly(0)
        for k in range(3):
            total = total + normalized.gamma[k][i][k]
        ok = ok and total.is_zero()
    report(9, ok, "trace elimination witness E/2 via equivalence and normalization")


def naive_curvature_value(conn, point, l, i, j, k):
    """Independent index-loop evaluator, no tensor machinery involved."""
    coords = conn.coords
    value = conn.gamma[l][j][k].diff(coords[i]).evaluate(point)
    value = value - conn.gamma[l][i][k].diff(coords[j]).evaluate(point)
    for m in range(conn.dim):
        value = value + conn.gamma[l][i][m].evaluate(point) * conn.gamma[m][j][k].evaluate(point)
        value = value - conn.gamma[l][j][m].evaluate(point) * conn.gamma[m][i][k].evaluate(point)
    return value


def test_criterion_10_oracle_equivalence():
    rng = random.Random(20240905)
    checked = 0
    ok = True
    # parameter points on the constant family
    family = torus3()
    family_R = curvature(family)
    params = [parameter(n) for n in "ABCDE"]
    for _ in range(100):
        point = {p: GaussianRational(rand_fraction(rng), rand_fraction(rng)) for p in params}
        l, i, j, k = (rng.randrange(3) for _ in range(4))
        symbolic = family_R[l, i, j, k].evaluate(point)
        ok = ok and symbolic == naive_curvature_value(family, point, l, i, j, k)
        checked += 1
    # coordinate points on random polynomial tables
    for dim in (2, 3, 4):
        coords = coords_named(*(f"x{i}" for i in range(dim)))
        for _ in range(5):
            conn = rand_torsionfree(rng, coords)
            R = curvature(conn)
            for _ in range(7):
                point = {
                    c: GaussianRational(rand_fraction(rng), rand_fraction(rng))
                    for c in coords
                }
                l, i, j, k = (rng.randrange(dim) for _ in range(4))
                symbolic = R[l, i, j, k].evaluate(point)
                ok = ok and symbolic == naive_curvature_value(conn, point, l, i, j, k)
                checked += 1
    ok = ok and checked >= 200
    report(10, ok, f"naive index-loop oracle agrees exactly at {checked} points")


def test_criterion_11_geodesic_cross_check():
    started = time.perf_counter()
    sample = dict(
        A=Fraction(1, 2),
        B=Fraction(-1, 3),
        C=Fraction(1, 4),
        D=Fraction(-1, 5),
        E=Fraction(1, 2),
    )
    probe_conn = torus3(**sample)
    reference_conn = torus3(**dict(sample, E=0))
    x0 = np.zeros(3)
    v0 = np.ones(3)
    p = integrate(probe_conn, x0, v0, 1e-3, 300)
    q = integrate(reference_conn, x0, v0, 1e-3, 600)
    equivalent_dev = unparametrized_match(p, q)
    ok = equivalent_dev < 1e-6
    control = torus3(0, 0, 1, 0, 0)
    flat = torus3(0, 0, 0, 0, 0)
    p2 = integrate(control, x0, v0, 1e-3, 300)
    q2 = integrate(flat, x0, v0, 1e-3, 600)
    control_dev = unparametrized_match(p2, q2)
    ok = ok and control_dev > 1e-2
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(
        11,
        ok,
        f"geodesic traces: equivalent {equivalent_dev:.2e} < 1e-6, "
        f"control {control_dev:.2e} > 1e-2 ({elapsed:.2f}s < 10s)",
    )
