"""The three workloads: seeded inputs, one op, and the checks on its output.

Each workload gives its inputs round by round (`cases(r)`, a pure function
of the seed and r), runs one op on one input (`run`), checks the output at
once against properties the method must have (`check`), and keeps what the
sympy oracle must see for `oracle_failures`, which runs after the timed
phase so that sympy neither takes op time nor counts in the op process's
peak memory.

Importing this module imports projconn; run.py times that import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

from projconn import cli, connection, families, projective, specfile, tensor
from projconn.poly import DiffPoly, as_poly
from projconn.rational import GaussianRational
from projconn.symbols import SymbolTable

from stats import parse_elapsed


class OpFailed(Exception):
    """The op raised or the CLI ended with an error exit."""


class WrongOutput(Exception):
    """The op completed, but a check found its output wrong."""


def _rng(seed, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tags)))


def _poly(coords, terms) -> DiffPoly:
    """Polynomial from (re, im, variable indices) terms, built with the ring."""
    total = as_poly(0)
    for re_, im, mono in terms:
        term = as_poly(GaussianRational(re_, im))
        for v in mono:
            term = term * DiffPoly.of(coords[v])
        total = total + term
    return total


def _sum(polys) -> DiffPoly:
    return reduce(lambda a, b: a + b, polys, as_poly(0))


# Monomials of total degree <= 2 in three variables, as variable indices.
_DEG2 = [(), (0,), (1,), (2,), (0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]


def _frac(rng, span) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


class Workload:
    name = ""
    ops_in_subprocesses = False

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def prepare(self) -> None:
        """Set-up before the first timed op: inputs of round 0 and a warm-up."""

    def warm_up(self, cases) -> None:
        for case in cases:
            try:
                self.run(case)
            except Exception:  # the timed loop runs and counts such an op as failed
                pass

    def cases(self, r: int) -> list:
        raise NotImplementedError

    def run(self, case):
        raise NotImplementedError

    def check(self, op: int, case, out) -> None:
        raise NotImplementedError

    def label(self, case) -> str:
        """The kind of op, for the per-kind breakdown printed with each run."""
        return self.name

    def oracle_failures(self) -> dict[int, str]:
        return {}

    def close(self) -> None:
        pass


# -- weyl-random -------------------------------------------------------------------


class WeylCase:
    __slots__ = ("table", "form", "conn", "one_form")

    def __init__(self, table, form, coords):
        self.table = table  # {(k, i, j): terms} with i <= j
        self.form = form    # [terms] per coordinate
        self.conn = connection.from_table(
            coords, {key: _poly(coords, terms) for key, terms in table.items()})
        self.one_form = projective.OneForm(coords, [_poly(coords, t) for t in form])


class WeylRandom(Workload):
    """Random dimension-3 tables shaped like acceptance criterion 06."""

    name = "weyl-random"
    round_size = 10
    oracle_sample = 2  # tables per run recomputed by sympy

    def __init__(self, seed, root):
        super().__init__(seed, root)
        table = SymbolTable()
        self.coords = tuple(table.coordinate(n) for n in ("x", "y", "z"))
        self.sampled = set(_rng(seed, "oracle").sample(range(self.round_size), self.oracle_sample))
        self.deferred = []

    def _case(self, rng) -> WeylCase:
        table = {}
        for k in range(3):
            for i in range(3):
                for j in range(i, 3):
                    if rng.random() < 0.4:
                        table[k, i, j] = [(_frac(rng, 3), 0, mono)
                                          for mono in rng.sample(_DEG2, rng.randint(1, 3))]
        form = []
        for _ in range(3):
            form.append([(_frac(rng, 5), _frac(rng, 5) if rng.random() < 0.5 else 0, mono)
                         for mono in rng.sample(_DEG2, rng.randint(0, 2))])
        return WeylCase(table, form, self.coords)

    def cases(self, r):
        rng = _rng(self.seed, self.name, r)
        return [self._case(rng) for _ in range(self.round_size)]

    def prepare(self):
        self.cases(0)
        self.warm_up(self.cases("warm-up")[:3])

    def run(self, case):
        w = connection.weyl3(case.conn)
        shifted = projective.with_one_form(case.conn, case.one_form)
        w_shifted = connection.weyl3(shifted)
        witness = projective.projective_equiv(shifted, case.conn)
        return w, w_shifted, witness

    def check(self, op, case, out):
        w, w_shifted, witness = out
        if w != w_shifted:
            raise WrongOutput("Weyl tensor changed under a one-form shift")
        if witness != case.one_form:
            raise WrongOutput("equivalence witness differs from the injected one-form")
        if op in self.sampled:
            self.deferred.append((op, case, w))

    def oracle_failures(self):
        import oracle

        failures = {}
        names = ("x", "y", "z")
        syms = oracle.symbols_named(names)
        xs = [syms[n] for n in names]
        for op, case, w in self.deferred:
            G = [[[0] * 3 for _ in range(3)] for _ in range(3)]
            for (k, i, j), terms in case.table.items():
                value = sum((oracle.sp.Rational(r_) + oracle.sp.I * oracle.sp.Rational(im))
                            * oracle.sp.Mul(*[xs[v] for v in mono])
                            for r_, im, mono in terms)
                G[k][i][j] = G[k][j][i] = value
            R = oracle.curvature(G, xs)
            ric = oracle.ricci(R, 3)
            W = oracle.weyl3_ricci_only(R, ric)
            got_r = connection.curvature(case.conn)
            got_ric = connection.ricci(case.conn)
            for idx in got_r.indices():
                if not oracle.equal(oracle.to_sympy(got_r[idx], syms), R[idx]):
                    failures[op] = f"curvature {idx} disagrees with sympy"
                if not oracle.equal(oracle.to_sympy(w[idx], syms), W[idx]):
                    failures[op] = f"Weyl {idx} disagrees with sympy"
            for idx in got_ric.indices():
                if not oracle.equal(oracle.to_sympy(got_ric[idx], syms), ric[idx]):
                    failures[op] = f"Ricci {idx} disagrees with sympy"
        return failures


# -- torus-dims --------------------------------------------------------------------


class TorusDims(Workload):
    """torus_n(n) with symbolic A..E for n = 4..8 in equal shares."""

    name = "torus-dims"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.blocks = {}  # printed Ricci block -> (block, [ops])

    def cases(self, r):
        dims = list(range(4, 9))
        _rng(self.seed, self.name, r).shuffle(dims)
        return dims

    def prepare(self):
        self.cases(0)
        self.warm_up([4, 5])

    def label(self, n):
        return f"n={n}"

    def run(self, n):
        conn = families.torus_n(n)
        R = connection.curvature(conn)
        ric = tensor.contract(R, 0, 1)
        trr = tensor.contract(R, 0, 3)
        normalized = projective.volume_normalize(conn)
        e_free = families.torus_n(n, E=0)
        witness = projective.projective_equiv(conn, e_free)
        return conn, R, ric, trr, normalized, e_free, witness

    def check(self, op, n, out):
        conn, R, ric, trr, normalized, e_free, witness = out
        for t in (R, ric, trr):
            for idx, entry in zip(t.indices(), t.entries):
                if max(idx) >= 3 and not entry.is_zero():
                    raise WrongOutput(f"component {idx} on z4..z{n} is nonzero")
        for x in range(n):
            for y in range(n):
                if trr[x, y] != ric[y, x] - ric[x, y]:
                    raise WrongOutput(f"TrR({x},{y}) != Ricci({y},{x}) - Ricci({x},{y})")
        for i in range(n):
            if not _sum(normalized.gamma[k][i][k] for k in range(n)).is_zero():
                raise WrongOutput(f"trace {i} of the normalized connection is nonzero")
        # In the image of J every T^k_{k,tau} with k != tau equals theta_tau.
        # torus_n - torus_n(E=0) has E/2 there for z1 but 0 for z{n}, so no
        # witness may exist for n >= 4.
        diff_z1 = conn.gamma[1][1][0] - e_free.gamma[1][1][0]
        diff_zn = conn.gamma[n - 1][n - 1][0] - e_free.gamma[n - 1][n - 1][0]
        if diff_z1 == diff_zn or witness is not None:
            raise WrongOutput("torus_n and its E-free member reported equivalent")
        block = tuple(ric[j, k] for j in range(3) for k in range(3))
        key = tuple(str(p) for p in block)
        self.blocks.setdefault(key, (block, []))[1].append(op)

    def oracle_failures(self):
        import oracle

        ref = oracle.Torus3()
        failures = {}
        for block, ops in self.blocks.values():
            for pos, poly in enumerate(block):
                j, k = divmod(pos, 3)
                if not oracle.equal(oracle.to_sympy(poly, ref.symbols), ref.ricci[j, k]):
                    for op in ops:
                        failures[op] = f"Ricci block ({j},{k}) disagrees with sympy"
        return failures


# -- cli-session -------------------------------------------------------------------


class Command:
    __slots__ = ("label", "argv", "expect", "check")

    def __init__(self, label, argv, expect=0, check=None):
        self.label, self.argv, self.expect, self.check = label, argv, expect, check


def _json_result(stdout: str) -> dict:
    return json.loads(stdout)["result"]


def _lines(stdout: str) -> list[str]:
    return stdout.splitlines()


class CliSession(Workload):
    """A fixed script of README commands, one projconn process per op."""

    name = "cli-session"
    ops_in_subprocesses = True
    pullback_points = 20
    sweep_width = 25  # a 25x25 sweep takes about as long as a geodesic comparison

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PROJCONN_COLOR="0")
        self.workdir = root / "perfbench" / "out" / f"cli-{os.getpid()}"
        self.first_stdout = {}
        self.deferred = {}  # distinct stdout of a sympy-checked command -> (kind, [ops])
        self.script = self._script(_rng(seed, self.name))

    def _script(self, rng):
        a, b, e = (rng.randint(-9, 9) for _ in range(3))
        same = rng.randint(-9, 9)
        c_neq, d_neq = rng.sample(range(-9, 10), 2)
        lo = rng.randint(-30, 10)
        hi = lo + self.sweep_width - 1
        lam = ",".join(str(_frac(rng, 6)) for _ in range(4))
        shear = rng.choice([v for v in range(-6, 7) if v])
        pts = str(self.pullback_points)
        sets = f"A={a},B={b},E={e}"
        geo_eq = ["geodesic", "torus3.conn", "--at", "A=1/2,B=-1/3,C=1/4,D=-1/5,E=1/2",
                  "--x0", "0,0,0", "--v0", "1,1,1", "--step", "1e-3", "--count", "300",
                  "--compare", "torus3_e0.conn", "--tol", "1e-6"]
        geo_ctl = ["geodesic", "control.conn", "--x0", "0,0,0", "--v0", "1,1,1",
                   "--compare", "flat.conn", "--tol", "1e-2"]
        js = ["--format", "json"]
        return [
            Command("family", ["family", "torus3"], check=self._defer("family")),
            Command("curvature", ["curvature", "torus3.conn"], check=self._defer("curvature")),
            Command("curvature", ["curvature", "ks0.conn"], check=self._expect_line("R = 0")),
            Command("ricci", ["ricci", "torus3.conn"], check=self._defer("ricci")),
            Command("weyl", ["weyl", "torus3.conn"]),
            Command("weyl", js + ["weyl", "torus3.conn"], check=self._defer("weyl")),
            Command("weyl", js + ["weyl", "torus3_e0.conn"], check=self._defer("weyl")),
            Command("weyl", ["weyl", "ks.conn"], check=self._expect_line("W = 0")),
            Command("normalize", ["normalize", "torus3.conn"],
                    check=self._witness("# witness theta", {
                        "tau": "1/2*E", "z1": "3/8*C + 1/8*D", "z2": "1/8*C + 3/8*D"})),
            Command("flat", ["flat", "--family", "torus3", "--set", f"{sets},C={same},D={same}"],
                    check=self._expect_line("projectively flat: true")),
            Command("flat", ["--strict", "flat", "--family", "torus3", "--set",
                             f"{sets},C={c_neq},D={d_neq}"],
                    expect=1, check=self._expect_line("projectively flat: false")),
            Command("equiv", ["equiv", "torus3.conn", "torus3_e0.conn"],
                    check=self._witness("theta", {"tau": "1/2*E", "z1": "0", "z2": "0"})),
            Command("conditions", ["conditions", "torus3.conn"]),
            Command("geodesic", js + geo_eq, check=self._deviation(below=1e-6)),
            Command("geodesic", js + geo_ctl, check=self._deviation(above=1e-2)),
            Command("sweep", js + ["conditions", "torus3.conn", "--set", sets,
                                   "--sweep", f"C={lo}:{hi}", "--sweep", f"D={lo}:{hi}"],
                    check=self._diagonal(lo, hi)),
            Command("pullback", js + ["pullback-check", "--gamma", "1,0,0,1", f"--lambda={lam}",
                                      "--points", pts, "--seed", str(rng.randint(1, 999))],
                    check=self._invariant),
            Command("pullback", js + ["pullback-check", "--gamma", f"1,{shear},0,1",
                                      "--points", pts, "--seed", str(rng.randint(1, 999))],
                    check=self._invariant),
            Command("pullback", js + ["pullback-check", "--gamma", "0,-1,1,0",
                                      "--points", pts, "--seed", str(rng.randint(1, 999))],
                    check=self._invariant),
            Command("pullback", js + ["pullback-check", "--gamma", "0,-1,1,0", "--no-trace",
                                      "--points", pts, "--seed", str(rng.randint(1, 999))],
                    check=self._invariant),
        ]

    # -- set-up ----------------------------------------------------------------

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        specs = {
            "torus3.conn": families.torus3(),
            "torus3_e0.conn": families.torus3(E=0),
            "ks0.conn": families.kuga_shimura(with_trace=False),
            "ks.conn": families.kuga_shimura(with_trace=True),
            "control.conn": families.torus3(0, 0, 1, 0, 0),
            "flat.conn": families.torus3(0, 0, 0, 0, 0),
        }
        for filename, conn in specs.items():
            text = specfile.render_spec(specfile.spec_of_connection(conn, title=filename))
            (self.workdir / filename).write_text(text, encoding="utf-8")
        self.warm_up([Command("weyl", ["weyl", "torus3.conn"])])

    def close(self):
        if self.workdir.exists():
            for path in self.workdir.iterdir():
                path.unlink()
            self.workdir.rmdir()

    # -- ops -------------------------------------------------------------------

    def cases(self, r):
        return self.script

    def label(self, cmd):
        return cmd.label

    def run(self, cmd):
        proc = subprocess.run(
            [sys.executable, "-m", "projconn.cli", *cmd.argv],
            cwd=self.workdir, env=self.env, capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, cmd):
        """The same command through cli.main in this process (traced runs)."""
        out, err = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(cmd.argv))
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code
        finally:
            os.chdir(here)
        return code, out.getvalue(), err.getvalue()

    def check(self, op, cmd, out):
        code, stdout, stderr = out
        if code not in (0, 1) or parse_elapsed(stderr) is None:
            raise OpFailed(f"{cmd.label}: exit {code}: {stderr.strip()[-200:]}")
        if code != cmd.expect:
            raise WrongOutput(f"{cmd.label}: exit {code}, expected {cmd.expect}")
        first = self.first_stdout.setdefault(tuple(cmd.argv), stdout)
        if stdout != first:
            raise WrongOutput(f"{cmd.label}: stdout differs from an earlier identical command")
        if cmd.check is not None:
            cmd.check(op, stdout)

    # -- checks ----------------------------------------------------------------

    @staticmethod
    def _expect_line(wanted):
        def check(op, stdout):
            if wanted not in _lines(stdout):
                raise WrongOutput(f"missing line {wanted!r}")
        return check

    @staticmethod
    def _witness(prefix, expected):
        """Lines `<prefix>(x) = value`; a witness is theta_j = sum_k T^k_{kj} / 4
        for the difference T of the two tables (the table itself for normalize)."""
        def check(op, stdout):
            for name, value in expected.items():
                line = f"{prefix}({name}) = {value}"
                if line not in _lines(stdout):
                    raise WrongOutput(f"missing witness line {line!r}")
        return check

    @staticmethod
    def _deviation(below=None, above=None):
        def check(op, stdout):
            deviation = float(_json_result(stdout)["deviation"])
            if below is not None and not deviation < below:
                raise WrongOutput(f"geodesic deviation {deviation} is not below {below}")
            if above is not None and not deviation > above:
                raise WrongOutput(f"geodesic deviation {deviation} is not above {above}")
        return check

    @staticmethod
    def _diagonal(lo, hi):
        def check(op, stdout):
            sweep = _json_result(stdout)["sweep"]
            flat = {(p["assignment"]["C"], p["assignment"]["D"]) for p in sweep if p["flat"]}
            if len(sweep) != (hi - lo + 1) ** 2 or flat != {(v, v) for v in range(lo, hi + 1)}:
                raise WrongOutput("the sweep's flat set is not the diagonal C = D")
        return check

    @staticmethod
    def _invariant(op, stdout):
        if _json_result(stdout)["invariant"] is not True:
            raise WrongOutput("pullback reported not invariant")

    def _defer(self, kind):
        def check(op, stdout):
            self.deferred.setdefault(stdout, (kind, []))[1].append(op)
        return check

    def oracle_failures(self):
        import oracle

        ref = oracle.Torus3()
        syms = ref.symbols
        index = {name: pos for pos, name in enumerate(oracle.TORUS_COORDS)}
        failures = {}
        for stdout, (kind, ops) in self.deferred.items():
            problem = None
            if kind == "family":
                gamma = oracle.torus3_gamma(syms)
                expected = {(k, i, j): gamma[k][i][j] for k in range(3) for i in range(3)
                            for j in range(3)}
                got = {}
                section = False
                for line in _lines(stdout):
                    if line == "[gamma]":
                        section = True
                    elif section and "=" in line:
                        key, _, text = line.partition("=")
                        k, i, j = (index[c] for c in key.strip().split("."))
                        got[k, i, j] = got[k, j, i] = oracle.parse_text(text, syms)
            elif kind == "weyl":
                entries = _json_result(stdout)["tensor"]["entries"]
                got = {tuple(index[c] for c in key.split(".")): oracle.parse_text(text, syms)
                       for key, text in entries.items()}
                expected = ref.weyl
            elif kind == "ricci":
                got = {}
                for line in _lines(stdout):
                    m = re.fullmatch(r"Ricci\((\w+),(\w+)\) = (.+)", line)
                    if m:
                        got[index[m[1]], index[m[2]]] = oracle.parse_text(m[3], syms)
                expected = ref.ricci
            else:
                got = {}
                for line in _lines(stdout):
                    m = re.fullmatch(r"R\((\w+),(\w+)\)(\w+) = (.+)", line)
                    if not m:
                        continue
                    i, j, k = index[m[1]], index[m[2]], index[m[3]]
                    for coeff, out in re.findall(r"\((.+?)\) d_(\w+)(?= \+ \(|$)", m[4]):
                        value = oracle.parse_text(coeff, syms)
                        got[index[out], i, j, k] = value
                        got[index[out], j, i, k] = -value
                expected = ref.R
            for idx, value in expected.items():
                if not oracle.equal(got.get(idx, 0), value):
                    problem = f"{kind} component {idx} disagrees with sympy"
            if problem:
                for op in ops:
                    failures[op] = problem
        return failures


WORKLOADS = {w.name: w for w in (WeylRandom, TorusDims, CliSession)}
