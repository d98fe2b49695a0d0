"""Properties checked on generated input.

Generated input ends in a result or an input error, never in a traceback:
expressions go into parse_expr, gamma sections into parse_spec and
to_connection, --set values into the CLI, and whole command lines, a
subcommand with its flags on small random spec files, into cli.main; each
run must return, raise EngineError, or exit with 0, 1 or 2.

The exact kernel agrees with simple reference models: Q(i) arithmetic with a
pair of Fractions, equal values with equal hashes and display, DiffPoly with
the ring axioms and the Leibniz rule, parsing with display, and the sparse
tensor kernels with their dense oracles; curvature, Ricci and the Weyl
projective tensor agree with the sympy engine on small random tables,
weyl3 with the settle-then-correct path of `helpers.trr_weyl` in dims 3-6,
also over denominators of hundreds of bits, with canonical coefficients, and
the projective results with their composed forms in `helpers` in dims 3-6.
"""

import contextlib
import io
import random
import tempfile
from fractions import Fraction
from itertools import combinations
from math import gcd
from pathlib import Path

from hypothesis import assume, given, settings, strategies as st

from projconn.cli import main
from projconn.connection import curvature, from_table, weyl3
from projconn.errors import EngineError
from projconn.parser import parse_expr
from projconn.poly import DiffPoly, as_poly
from projconn.projective import OneForm, inject, projective_equiv, volume_normalize, with_one_form
from projconn.rational import GaussianRational
from projconn.specfile import parse_spec
from projconn.symbols import SymbolTable
from projconn.tensor import DOWN, UP, Tensor, contract, symmetry_check

from helpers import (
    assert_matches_sympy,
    composed_inject,
    composed_projective_equiv,
    composed_volume_normalize,
    composed_with_one_form,
    coords_named,
    dense_add,
    dense_contract,
    dense_sub,
    dense_swap_slots,
    dense_symmetry_check,
    naive_curvature,
    rand_one_form,
    rand_torsionfree,
    trr_weyl,
)

# the characters of the expression grammar, so that generated text gets past
# the tokenizer often enough to reach the parser and the ring
GRAMMAR = "0123456789 +-*/^(),iABCxyfd2_"
expressions = st.text(GRAMMAR, max_size=30) | st.text(max_size=30)

FAST = settings(max_examples=300, deadline=None, database=None, derandomize=True)

HEADER = "dim = 3\ncoords = x, y, z\nparams = A, B, C\nfunctions = f(x)\n[gamma]\n"
keys = st.sampled_from(["x.x.x", "x.y.z", "z.y.x", "y.x.x", "x.y", "x.x.q", ""])
gamma_lines = st.lists(st.tuples(keys, expressions), max_size=4).map(
    lambda pairs: "".join(f"{key} = {text}\n" for key, text in pairs)
)


def table():
    t = SymbolTable()
    for name in "xyz":
        t.coordinate(name)
    for name in "ABC":
        t.parameter(name)
    t.function("f", ("x",))
    return t


@FAST
@given(expressions)
def test_parse_expr_ends_in_result_or_engine_error(text):
    try:
        parse_expr(text, table())
    except EngineError:
        pass


@FAST
@given(gamma_lines | st.text(max_size=60))
def test_spec_gamma_ends_in_result_or_engine_error(text):
    try:
        parse_spec(HEADER + text).to_connection()
    except EngineError:
        pass


set_values = st.lists(
    st.tuples(st.sampled_from(["A", "B", "C", "D", "E", "Q", "tau", ""]), expressions),
    max_size=5,
).map(lambda pairs: ",".join(f"{name}={text}" for name, text in pairs))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(set_values | st.text(max_size=30))
def test_cli_set_value_ends_in_exit_code(value):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(["flat", "--family", "torus3", "--set", value])
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    assert code in (0, 1, 2)


# gamma entries for the CLI runs: constants, which geodesic can integrate
# once --at binds A, entries over the parameters, the coordinates and f, and
# input errors
CLI_CONSTANTS = ["1", "-2/3", "(1 + i)/7", "A"]
CLI_ENTRIES = CLI_CONSTANTS + ["B^2 - 1/2", "(1 + i)/7 * f", "x0", "x1*x0 + A",
                               "(1 + i)/7 * x1^2", "f*x0 - d(f, x0)"]
CLI_ERRORS = ["x9", "1/0", "A +"]
# --set and --at values that name a parameter twice: exit 2, whatever else is wrong
CLI_REPEATED = ["A=1,A=2", "B=i, B = i"]


@st.composite
def cli_spec(draw, n, constant):
    """A spec file of dimension n with parameters A and B, a formal function
    f(x0) and up to four gamma lines, one of them perhaps an input error."""
    coords = [f"x{i}" for i in range(n)]
    index = st.sampled_from(coords)
    values = st.sampled_from(CLI_CONSTANTS if constant else CLI_ENTRIES)
    lines = draw(st.lists(st.tuples(index, index, index, values), max_size=4,
                          unique_by=lambda line: (line[0], *sorted(line[1:3]))))
    error = draw(st.sampled_from([None] * 6 + CLI_ERRORS))
    if error and not any(line[:3] == (coords[-1], coords[-1], coords[-1]) for line in lines):
        lines.append((coords[-1], coords[-1], coords[-1], error))
    gamma = "".join(f"{k}.{i}.{j} = {value}\n" for k, i, j, value in lines)
    return (f"dim = {n}\ncoords = {', '.join(coords)}\nparams = A, B\n"
            f"functions = f(x0)\n[gamma]\n{gamma}")


@st.composite
def cli_argv(draw):
    """A subcommand of the CLI on one or two spec files of dimension 2-4, with
    its flags: the argv and the spec texts, named a.conn and b.conn in order."""
    n = draw(st.integers(2, 4))
    command = draw(st.sampled_from(["curvature", "ricci", "weyl", "flat", "normalize",
                                    "conditions", "equiv", "geodesic"]))
    spec = cli_spec(n, command == "geodesic")
    specs = [draw(spec)]
    argv = draw(st.sampled_from([[], ["--format", "json"], ["--strict"]])) + [command, "a.conn"]
    if command == "equiv" or command == "geodesic" and draw(st.booleans()):
        specs.append(draw(spec))
        argv += ["b.conn"] if command == "equiv" else ["--compare", "b.conn", "--tol", "1e-3"]
    if command == "geodesic":
        argv += ["--at", draw(st.sampled_from(["", "A=1/2", "A=i,B=0", *CLI_REPEATED])),
                 "--x0", ",".join(["0"] * n), "--v0", ",".join(["1"] * n),
                 "--step", "0.01", "--count", "20"]
    elif command != "equiv" and draw(st.booleans()):
        argv += ["--set", draw(st.sampled_from(["A=1", "A=1/2,B=i", "B=2,f=3", "Q=1",
                                                *CLI_REPEATED]))]
    if command == "conditions" and draw(st.booleans()):
        argv += ["--sweep", "A=0:1"]
    return argv, specs


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(cli_argv())
def test_cli_ends_in_exit_code(run):
    argv, specs = run
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp, name)) for name in ("a.conn", "b.conn")}
        for path, text in zip(paths.values(), specs):
            Path(path).write_text(text, encoding="utf-8")
        argv = [paths.get(arg, arg) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
    assert code in (0, 1, 2)
    if any(arg in CLI_REPEATED for arg in argv):
        assert code == 2
    assert "Traceback" not in err.getvalue()


# -- Q(i) against a Fraction-pair model --------------------------------------

LARGE = 2**300
integers = st.integers(-LARGE, LARGE) | st.integers(-6, 6)
fractions = st.builds(Fraction, integers, st.integers(1, LARGE) | st.integers(1, 6))
rationals = integers | fractions
gaussians = st.builds(GaussianRational, rationals, rationals | st.just(0))


def model(x):
    return (x.re, x.im)


def model_mul(p, q):
    (a, b), (c, d) = p, q
    return (a * c - b * d, a * d + b * c)


def model_inverse(p):
    a, b = p
    n = a * a + b * b
    return (a / n, -b / n)


@FAST
@given(gaussians, gaussians)
def test_field_operations_match_fraction_pairs(x, y):
    (a, b), (c, d) = model(x), model(y)
    assert model(x + y) == (a + c, b + d)
    assert model(x - y) == (a - c, b - d)
    assert model(-x) == (-a, -b)
    assert model(x * y) == model_mul((a, b), (c, d))
    assert x.is_zero() == (a == 0 and b == 0)
    if not y.is_zero():
        assert model(y.inverse()) == model_inverse((c, d))
        assert model(x / y) == model_mul((a, b), model_inverse((c, d)))


@FAST
@given(gaussians, rationals)
def test_mixed_operands_coerce(x, q):
    a, b = model(x)
    assert model(x + q) == model(q + x) == (a + q, b)
    assert model(x - q) == (a - q, b)
    assert model(q - x) == (q - a, -b)
    assert model(x * q) == model(q * x) == (a * q, b * q)


@FAST
@given(gaussians, gaussians)
def test_equal_values_hash_and_display_alike(x, y):
    assume(not y.is_zero())
    for z in ((x + y) - y, (x * y) / y, GaussianRational(x.re, x.im)):
        assert z == x
        assert hash(z) == hash(x)
        assert str(z) == str(x)
        assert (z.re, z.im) == (x.re, x.im)


@FAST
@given(rationals)
def test_real_values_hash_like_rationals(q):
    assert GaussianRational(q) == q
    assert hash(GaussianRational(q)) == hash(q)
    assert hash(GaussianRational(q, 0) * 1) == hash(q)


# -- DiffPoly: ring axioms, Leibniz rule, parse of display ------------------

RING = table()
RING_SYMBOLS = [RING.lookup(n) for n in ("x", "y", "A", "B", "f")]
RING_SYMBOLS.append(RING.lookup("f").derivative("x"))
X = RING.lookup("x")

small = st.integers(-9, 9)
coefficients = st.builds(
    GaussianRational, st.builds(Fraction, small, st.integers(1, 4)), st.sampled_from([0, 0, 1, -2])
)
monomials = st.dictionaries(st.sampled_from(RING_SYMBOLS), st.integers(1, 3), max_size=3)


def _poly(terms):
    total = as_poly(0)
    for coeff, mono in terms:
        term = as_poly(coeff)
        for sym, exp in mono.items():
            term = term * as_poly(sym) ** exp
        total = total + term
    return total


polys = st.lists(st.tuples(coefficients, monomials), max_size=4).map(_poly)
RING_CHECKS = settings(max_examples=100, deadline=None, database=None, derandomize=True)


@RING_CHECKS
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p - p == as_poly(0)


@RING_CHECKS
@given(polys, polys)
def test_diff_leibniz_rule(p, q):
    assert (p * q).diff(X) == p.diff(X) * q + p * q.diff(X)
    assert (p + q).diff(X) == p.diff(X) + q.diff(X)


@RING_CHECKS
@given(polys)
def test_tuple_form_round_trips(p):
    assert DiffPoly(p.terms()) == p
    assert DiffPoly(dict(p.sorted_terms())) == p


@RING_CHECKS
@given(polys)
def test_parse_of_display_is_identity(p):
    assert parse_expr(str(p), RING) == p


# -- Tensor: sparse kernels against their dense oracles -----------------------

# small entries whose sums and differences often cancel; ZERO among them
TENSOR_ENTRIES = [as_poly(c) + as_poly(RING.lookup("A")) * d
                  for c in (-1, 0, 1, 2) for d in (-1, 0, 1)]


@st.composite
def tensor_pairs(draw):
    """Two tensors of one shape, dims 0-5 and arity 0-4, each either dense
    or with a few random entries (possibly none) set."""
    dim = draw(st.integers(0, 5))
    variance = draw(st.lists(st.sampled_from((UP, DOWN)), max_size=4))
    size = dim ** len(variance)

    def one():
        if size <= 81 and draw(st.booleans()):
            return Tensor(dim, variance, draw(st.lists(
                st.sampled_from(TENSOR_ENTRIES), min_size=size, max_size=size)))
        entries = [0] * size
        if size:
            for f, p in draw(st.dictionaries(st.integers(0, size - 1),
                                             st.sampled_from(TENSOR_ENTRIES), max_size=12)).items():
                entries[f] = p
        return Tensor(dim, variance, entries)

    return one(), one()


@FAST
@given(tensor_pairs())
def test_sparse_tensor_kernels_match_dense_oracles(pair):
    s, t = pair
    zero = Tensor(t.dim, t.variance, [0] * len(t.entries))
    # dense sums and differences, built with their cancelled entries
    t_minus_t, s_plus_t = (Tensor(t.dim, t.variance, e) for e in (dense_sub(t, t), dense_add(s, t)))
    for x in (s, t, zero, t_minus_t, s_plus_t):
        assert x.is_zero() == all(e.is_zero() for e in x.entries)
        assert x.items() == [(i, e) for i, e in zip(x.indices(), x.entries) if e]
        # the same entries given densely and as a reversed offset map
        for again in (Tensor(x.dim, x.variance, x.entries),
                      Tensor(x.dim, x.variance, dict(reversed(list(enumerate(x.entries)))))):
            assert again == x and hash(again) == hash(x)
    assert t_minus_t == zero and hash(t_minus_t) == hash(zero)
    for s1, s2 in combinations(range(t.arity), 2):
        if t.variance[s1] == t.variance[s2]:
            swapped = Tensor(t.dim, t.variance, dense_swap_slots(t, s1, s2))
            for x in (t, *(Tensor(t.dim, t.variance, e)
                           for e in (dense_add(t, swapped), dense_sub(t, swapped)))):
                assert symmetry_check(x, (s1, s2)) == dense_symmetry_check(x, (s1, s2))
        for up, down in ((s1, s2), (s2, s1)):
            if (t.variance[up], t.variance[down]) == (UP, DOWN):
                assert contract(t, up, down).entries == dense_contract(t, up, down)


# -- Curvature, Ricci and Weyl against the sympy engine -------------------------


@settings(max_examples=10, deadline=None, database=None, derandomize=True)
@given(st.integers(3, 4), st.integers(0, 2**32 - 1), st.sampled_from((0.2, 0.4)))
def test_weyl_matches_sympy_on_random_tables(n, seed, fill):
    coords = coords_named(*(f"x{i}" for i in range(n)))
    symbols = [*coords, RING.lookup("A")]
    assert_matches_sympy(rand_torsionfree(random.Random(seed), coords, symbols, fill=fill))


def _weyl_chart(n):
    """Coordinates x0..x{n-1} and a pool of them, a parameter A and functions
    f(x0) and g(x1, x2), one of them differentiated."""
    t = SymbolTable()
    coords = tuple(t.coordinate(f"x{i}") for i in range(n))
    f, g = t.function("f", ("x0",)), t.function("g", ("x1", "x2"))
    return coords, [*coords, t.parameter("A"), f, g, g.derivative("x2")]


@settings(max_examples=24, deadline=None, database=None, derandomize=True)
@given(st.integers(3, 6), st.integers(0, 2**32 - 1), st.sampled_from((0.2, 0.4)))
def test_weyl_matches_settle_then_correct_path(n, seed, fill):
    # Gaussian coefficients, with imaginary parts, over coordinates,
    # a parameter and formal functions
    coords, symbols = _weyl_chart(n)
    conn = rand_torsionfree(random.Random(seed), coords, symbols, fill=fill)
    assert weyl3(conn) == trr_weyl(conn)


# -- Exactness of the curvature and Weyl kernels over large denominators ---------

# primes near 2^31 and 2^61: the common denominator D of a table is the product
# of those it draws, hundreds of bits, and weyl3 settles over (n-1)(n+1) D^2
PRIMES = (2**31 - 19, 2**31 - 1, 2**31 + 11, 2**61 - 31, 2**61 - 1, 2**61 + 15)


def _large_denominator_poly(rng, pool) -> DiffPoly:
    """1-3 terms with Gaussian coefficients over primes from PRIMES, each term
    a product of up to three factors from the pool, repeats allowed."""
    total = as_poly(0)
    for _ in range(rng.randint(1, 3)):
        re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**40), rng.choice(PRIMES))
        im = Fraction(rng.randint(-9, 9), rng.choice(PRIMES)) if rng.random() < 0.5 else 0
        term = as_poly(GaussianRational(re, im))
        for sym in rng.choices(pool, k=rng.randint(0, 3)):
            term = term * as_poly(sym)
        total = total + term
    return total


def _assert_canonical(t: Tensor) -> None:
    for _, entry in t.items():
        for c in entry.coefficients():
            assert c._d > 0 and (c._a or c._b) and gcd(c._a, c._b, c._d) == 1


@settings(max_examples=16, deadline=None, database=None, derandomize=True)
@given(st.integers(3, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_kernels_exact_over_large_denominators(n, seed, flat):
    # entries over coordinates and a parameter only, differentiated on their
    # integer terms, mixed with entries that mention formal functions; with
    # flat, the table is J(theta) = 0 + J(theta), projectively flat for every
    # one-form theta, so W cancels to 0
    rng = random.Random(seed)
    coords, symbols = _weyl_chart(n)
    plain = [*coords, symbols[n]]
    if flat:
        theta = OneForm(coords, [_large_denominator_poly(rng, rng.choice((plain, symbols)))
                                 for _ in coords])
        conn = with_one_form(from_table(coords, {}), theta)
    else:
        conn = from_table(coords, {
            (k, i, j): _large_denominator_poly(rng, rng.choice((plain, symbols)))
            for k in range(n) for i in range(n) for j in range(i, n) if rng.random() < 0.3})
    R, W = curvature(conn), weyl3(conn)
    assert R == naive_curvature(conn)
    assert W == trr_weyl(conn)
    if flat:
        assert W.is_zero() and not R.is_zero()
    _assert_canonical(R)
    _assert_canonical(W)


# -- Projective results against their composed forms ----------------------------


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(3, 6), st.integers(0, 2**32 - 1), st.sampled_from((0.2, 0.4)), st.booleans())
def test_projective_results_match_composed_forms(n, seed, fill, cancel):
    # Gaussian coefficients over coordinates, a parameter and formal functions;
    # with cancel, theta_m = -G^k_{mk} for a stored G^k_{mk}, k != m, so that
    # c + J(theta) cancels at (k, m, k) and (k, k, m)
    rng = random.Random(seed)
    coords, symbols = _weyl_chart(n)
    conn = rand_torsionfree(rng, coords, symbols, fill=fill)
    theta = rand_one_form(rng, coords, symbols)
    mixed = [(k, m) for (k, m, j), _ in conn.table.items() if j == k != m]
    if cancel and mixed:
        k, m = rng.choice(mixed)
        theta = OneForm(coords, [-conn.table[k, m, k] if a == m else theta[a] for a in range(n)])
        assert conn.table[k, m, k] and not with_one_form(conn, theta).table[k, m, k]
    assert inject(theta) == composed_inject(theta.entries)
    shifted = with_one_form(conn, theta)
    assert shifted.table == composed_with_one_form(conn, theta)
    normalized = volume_normalize(conn)
    assert normalized.table == composed_volume_normalize(conn)
    # the witness of each pair is forced, and a cancelled entry must be left
    # out of c1 - J(theta) for it to be found
    for c1, c2 in ((shifted, conn), (conn, shifted), (conn, normalized), (normalized, shifted)):
        witness = projective_equiv(c1, c2)
        assert witness is not None and witness == composed_projective_equiv(c1, c2)
    # J(theta) vanishes off k in {i, j}, so a bump at (0, 1, 2) leaves the class
    entries = {(k, i, j): p for (k, i, j), p in shifted.table.items() if i <= j}
    entries[0, 1, 2] = entries.get((0, 1, 2), 0) + 1
    bumped = from_table(coords, entries)
    assert projective_equiv(bumped, conn) is None and composed_projective_equiv(bumped, conn) is None
