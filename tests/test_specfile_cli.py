"""Spec file ingestion and the command-line harness."""

import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import projconn
from projconn import specfile
from projconn.cli import EXIT_CLOSED_STDOUT, _tensor_lines, main
from projconn.connection import curvature, ricci
from projconn.errors import SpecFileError
from projconn.families import torus3
from projconn.geodesic import write_csv
from projconn.specfile import (
    load_spec,
    parse_spec,
    render_spec,
    spec_of_connection,
)

from helpers import (
    coords_named,
    dense_tensor_lines,
    naive_integrate,
    rand_torsionfree,
    run_python,
)

CLI = "import sys; from projconn.cli import main; sys.exit(main(sys.argv[1:]))"

TORUS_SPEC = """\
# constant family at symbolic parameters
title = demo family
dim = 3
coords = tau, z1, z2
params = A, B, C, D, E
[gamma]
z1.tau.tau = A
z2.tau.tau = B
z1.z1.z1 = C
tau.tau.z1 = C / 2
z1.z1.z2 = C / 2
z2.z2.z2 = D
tau.tau.z2 = D / 2
z2.z1.z2 = D / 2
tau.tau.tau = E
z1.z1.tau = E / 2
z2.z2.tau = E / 2
"""


class TestSpecFile:
    def test_parse_builds_the_family(self):
        spec = parse_spec(TORUS_SPEC)
        conn = spec.to_connection()
        assert conn == torus3()

    def test_round_trip(self):
        spec = spec_of_connection(torus3(), title="demo")
        text = render_spec(spec)
        again = parse_spec(text)
        assert again.to_connection() == torus3()

    def test_missing_dim(self):
        with pytest.raises(SpecFileError):
            parse_spec("coords = x, y\n[gamma]\n")

    def test_unknown_header_key_with_line(self):
        with pytest.raises(SpecFileError) as err:
            parse_spec("dim = 2\ncoords = x, y\nbogus = 1\n")
        assert err.value.line == 3

    def test_undeclared_identifier_in_gamma(self):
        text = "dim = 2\ncoords = x, y\n[gamma]\nx.x.x = Q\n"
        with pytest.raises(SpecFileError) as err:
            parse_spec(text).to_connection()
        assert "Q" in str(err.value)

    def test_gamma_parse_error_carries_line_and_offset(self):
        text = "dim = 2\ncoords = x, y\n[gamma]\nx.x.y = 1\ny.x.x = 1 +\n"
        with pytest.raises(SpecFileError) as err:
            parse_spec(text, filename="bad.conn").to_connection(filename="bad.conn")
        assert err.value.line == 5
        assert "byte offset" in str(err.value)
        assert "bad.conn" in str(err.value)

    def test_unknown_coordinate_in_key_names_its_line_once(self):
        text = "dim = 2\ncoords = x, y\n[gamma]\nx.x.y = 1\nx.q.y = 1\n"
        with pytest.raises(SpecFileError) as err:
            parse_spec(text, filename="bad.conn").to_connection(filename="bad.conn")
        assert err.value.line == 5
        assert str(err.value) == "bad.conn:5: unknown coordinate in gamma key 'x.q.y'"

    def test_conflicting_symmetric_entries(self):
        text = "dim = 2\ncoords = x, y\n[gamma]\nx.x.y = 1\nx.y.x = 2\n"
        with pytest.raises(SpecFileError):
            parse_spec(text).to_connection()

    def test_dim_coord_mismatch(self):
        text = "dim = 3\ncoords = x, y\n[gamma]\n"
        with pytest.raises(SpecFileError):
            parse_spec(text).to_connection()

    def test_function_declaration(self):
        text = (
            "dim = 2\ncoords = tau, z\nfunctions = f(tau)\n"
            "[gamma]\nz.tau.tau = d(f, tau)\n"
        )
        conn = parse_spec(text).to_connection()
        assert not conn.gamma[1][0][0].is_zero()

    def test_missing_file(self):
        with pytest.raises(SpecFileError):
            load_spec("/nonexistent/path.conn")

    def test_programming_errors_are_not_relabelled(self, monkeypatch):
        def broken(coords, entries):
            raise TypeError("a bug, not bad input")

        monkeypatch.setattr(specfile, "from_table", broken)
        with pytest.raises(TypeError):
            parse_spec(TORUS_SPEC).to_connection()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.conn"
    path.write_text(TORUS_SPEC, encoding="utf-8")
    return str(path)


@pytest.fixture
def derivative_file(tmp_path):
    """A table whose only entry is a derivative of a function symbol."""
    path = tmp_path / "derivative.conn"
    path.write_text(
        "dim = 3\ncoords = tau, z1, z2\nfunctions = A(tau)\n"
        "[gamma]\nz1.tau.tau = d(A, tau)\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def coordinate_file(tmp_path):
    """A table whose only entry depends on a coordinate."""
    path = tmp_path / "coordinate.conn"
    path.write_text("dim = 2\ncoords = x, y\n[gamma]\nx.x.y = x\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def control_and_flat(tmp_path, capsys):
    """The README's non-equivalent control table and the flat table."""
    paths = []
    for name, values in (("control", "A=0,B=0,C=1,D=0,E=0"), ("flat", "A=0,B=0,C=0,D=0,E=0")):
        assert main(["family", "torus3", "--set", values]) == 0
        path = tmp_path / f"{name}.conn"
        path.write_text(capsys.readouterr().out, encoding="utf-8")
        paths.append(str(path))
    return paths


PLANE = "dim = 2\ncoords = x, y\n"  # the header of a two-coordinate spec
F_ENTRY = PLANE + "functions = f(x)\n[gamma]\nx.x.x = "  # line 5 is the entry
AT_5 = "{spec}:5: in gamma entry 'x.x.x': "

# 2^1024 - 1: within the parser's 1,024-bit budget, beyond the float range
BEYOND_FLOAT = "(2^63" + "*2^64" * 15 + " - 1)*2 + 1"


@pytest.fixture
def torus_e0_file(tmp_path, capsys):
    path = tmp_path / "torus_e0.conn"
    code = main(["family", "torus3", "--set", "E=0"])
    assert code == 0
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    return str(path)


class TestCli:
    def test_flat_family_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "flat", "--family", "torus3", "--set", "C=5,D=5,A=1,B=2,E=7"
        )
        assert code == 0
        assert "projectively flat: true" in out

    def test_flat_strict_negative(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "--strict",
            "flat",
            "--family",
            "torus3",
            "--set",
            "C=5,D=6,A=1,B=2,E=0",
        )
        assert code == 1
        assert "projectively flat: false" in out

    def test_equiv_witness(self, capsys, torus_file, torus_e0_file):
        code, out, _ = run_cli(capsys, "equiv", torus_file, torus_e0_file)
        assert code == 0
        assert "projectively equivalent: true" in out
        assert "theta(tau) = 1/2*E" in out

    def test_curvature_of_empty_table(self, capsys, tmp_path):
        path = tmp_path / "empty.conn"
        path.write_text("dim = 3\ncoords = x, y, z\n[gamma]\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "curvature", str(path))
        assert code == 0
        assert "R = 0" in out

    def test_json_report_schema(self, capsys, torus_file):
        code, out, _ = run_cli(capsys, "--format", "json", "ricci", torus_file)
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["command"] == "ricci"
        assert report["result"]["tensor"]["entries"]["z1.z2"] == "1/4*C^2 + 1/4*D^2"

    def test_byte_identical_reports(self, capsys, torus_file):
        _, first, _ = run_cli(capsys, "weyl", torus_file)
        _, second, _ = run_cli(capsys, "weyl", torus_file)
        assert first == second

    def test_missing_file_is_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "curvature", "/no/such/file.conn")
        assert code == 2
        assert "error:" in err

    def test_dimension_error_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "dim2.conn"
        path.write_text("dim = 2\ncoords = x, y\n[gamma]\nx.x.y = x\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "weyl", str(path))
        assert code == 2
        assert "dimension" in err

    def test_weyl_flat_and_conditions_answer_above_dimension_3(self, capsys):
        family = ["--family", "torus_n", "--n", "5"]
        code, out, _ = run_cli(capsys, "weyl", *family)
        assert code == 0
        assert out.startswith("# projconn weyl") and "W(tau,z1)tau = " in out
        code, out, _ = run_cli(capsys, "flat", *family)
        assert code == 0
        assert "projectively flat: false" in out
        code, out, _ = run_cli(capsys, "conditions", *family)
        assert code == 0
        assert "16 distinct up to scale" in out

    def test_malformed_spec_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.conn"
        path.write_text("dim = 3\ncoords = x, y, z\n[gamma]\nx.x.x = @\n")
        code, _, err = run_cli(capsys, "curvature", str(path))
        assert code == 2
        assert "byte offset" in err

    def test_family_output_feeds_flat(self, capsys, tmp_path):
        code = main(["family", "kuga-shimura"])
        assert code == 0
        text = capsys.readouterr().out
        path = tmp_path / "ks.conn"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "flat", str(path))
        assert code == 0
        assert "projectively flat: true" in out

    def test_normalize_witness_and_reusable_output(self, capsys, torus_file, tmp_path):
        code, out, _ = run_cli(capsys, "normalize", torus_file)
        assert code == 0
        assert "# witness theta(tau) = 1/2*E" in out
        normalized = tmp_path / "normalized.conn"
        normalized.write_text(out, encoding="utf-8")
        code, out2, _ = run_cli(capsys, "flat", str(normalized))
        assert code == 0

    def test_conditions_list(self, capsys, torus_file):
        code, out, _ = run_cli(capsys, "conditions", torus_file)
        assert code == 0
        assert "C^2 - 2*C*D + D^2" in out

    def test_conditions_sweep_deterministic(self, capsys, torus_file):
        argv = [
            "conditions",
            torus_file,
            "--set",
            "A=1,B=2,E=0",
            "--sweep",
            "C=-1:1",
            "--sweep",
            "D=-1:1",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        assert "sweep C=-1 D=-1 flat=true" in first
        assert "sweep C=-1 D=1 flat=false" in first

    def test_set_binds_derivatives(self, capsys, derivative_file):
        code, out, _ = run_cli(capsys, "normalize", derivative_file, "--set", "A=1")
        assert code == 0
        assert "d(A, tau)" not in out
        assert out.endswith("[gamma]\n")

    def test_geodesic_at_binds_derivatives_like_set(self, capsys, derivative_file):
        argv = ["--format", "json", "geodesic", derivative_file, "--x0", "0,0,0",
                "--v0", "1,0,0", "--count", "10"]
        ends = []
        for binding in (["--at", "A=1"], ["--set", "A=1"]):
            code, out, err = run_cli(capsys, *argv, *binding)
            assert code == 0, err
            ends.append(json.loads(out)["result"]["end_position"])
        assert ends[0] == ends[1]
        assert ends[0][1] == [0.0, 0.0]

    def test_set_rejects_coordinates(self, capsys, coordinate_file):
        code, out, _ = run_cli(capsys, "curvature", coordinate_file)
        assert code == 0
        assert "R(x,y)x = (1) d_x" in out
        code, out, err = run_cli(capsys, "curvature", coordinate_file, "--set", "x=0")
        assert code == 2
        assert out == ""
        assert "'x' is a coordinate" in err

    def test_geodesic_at_rejects_coordinates(self, capsys, coordinate_file):
        code, out, err = run_cli(capsys, "geodesic", coordinate_file, "--at", "x=1",
                                 "--x0", "0,0", "--v0", "1,1", "--count", "10")
        assert code == 2
        assert out == ""
        assert "'x' is a coordinate" in err

    @pytest.mark.parametrize("source, assignments, name", [
        ("file", "c=5,d=5,A=1,B=2,E=0", "'c'"),
        ("family", "Q=1,C=5,D=5", "'Q'"),
    ])
    def test_set_rejects_unknown_names(self, capsys, torus_file, source, assignments, name):
        where = [torus_file] if source == "file" else ["--family", "torus3"]
        code, out, err = run_cli(capsys, "flat", *where, "--set", assignments)
        assert code == 2
        assert out == ""
        assert f"no parameter or function symbol named {name}" in err

    def test_sweep_names_checked_against_the_connection(self, capsys, torus_file):
        # E occurs in the table but in no flatness condition
        code, out, _ = run_cli(capsys, "conditions", torus_file, "--set", "A=1,B=2",
                               "--sweep", "C=1:1", "--sweep", "D=0:1", "--sweep", "E=0:1")
        assert code == 0
        assert "sweep C=1 D=1 E=1 flat=true" in out
        assert "sweep C=1 D=0 E=0 flat=false" in out
        code, out, err = run_cli(capsys, "conditions", torus_file, "--sweep", "F=0:1")
        assert code == 2
        assert out == ""
        assert "'F'" in err

    @pytest.mark.parametrize("argv, message", [
        (["curvature", "--family", "torus_n"], "torus_n needs --n"),
        (["curvature"], "give a spec file or --family"),
        (["curvature", "--family", "foo"], "unknown family 'foo'"),
        (["conditions", "--family", "torus3", "--sweep", "C"],
         "--sweep entry 'C' must look like NAME=lo:hi"),
        (["conditions", "--family", "torus3", "--sweep", "C=a:b"],
         "--sweep bounds must be integers in 'C=a:b'"),
        (["conditions", "--family", "torus3", "--sweep", "C=2:1"], "empty sweep range in 'C=2:1'"),
        (["conditions", "--family", "torus3", "--set", "C"],
         "--set entry 'C' must look like NAME=value"),
        (["geodesic", "FLAT", "--x0", "0,0", "--v0", "1,1,1"], "--x0 needs 3 comma-separated values"),
        (["pullback-check", "--gamma", "1,0,0"], "--gamma needs 4 comma-separated values"),
    ])
    def test_malformed_options_are_exit_2(self, capsys, control_and_flat, argv, message):
        argv = [control_and_flat[1] if a == "FLAT" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error: {message}\n" in err

    @pytest.mark.parametrize("header, message", [
        ("dim = 2\ncoords = x, x\n", "coordinate 'x' is declared twice"),
        ("dim = 1\ncoords = i\n", "'i' is reserved for the imaginary unit"),
        ("dim = 2\ncoords = x, y\nfunctions = A(t)\n",
         "function 'A' depends on undeclared coordinate 't'"),
        ("dim = 2\ncoords = x, y\nparams = x\n",
         "identifier 'x' redeclared with a different role"),
    ], ids=["repeated-coordinate", "reserved-name", "undeclared-dependency", "coordinate-as-param"])
    def test_declaration_errors_name_the_file(self, capsys, tmp_path, header, message):
        path = tmp_path / "decl.conn"
        path.write_text(header + "[gamma]\nx.x.x = x\n", encoding="utf-8")
        for command in ("curvature", "normalize"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2
            assert out == ""
            assert f"error: {path}: {message}\n" in err

    @pytest.mark.parametrize("text, command, message", [
        (PLANE + "[gamma]\nx.x.x = 1\n[gamma]\n", "ricci", "{spec}:5: duplicate [gamma] section"),
        (PLANE + "[gama]\n", "ricci", "{spec}:3: unknown section '[gama]'"),
        (PLANE + "dim = 2\n[gamma]\n", "ricci", "{spec}:3: duplicate header key 'dim'"),
        ("dim = 2\n[gamma]\n", "ricci", "{spec}: missing required header key 'coords'"),
        ("dim = two\ncoords = x, y\n[gamma]\n", "ricci",
         "{spec}: dim must be an integer, got 'two'"),
        (PLANE + "functions = f x\n[gamma]\n", "ricci",
         "{spec}:3: function declaration 'f x' must look like name(coord, ...)"),
        (PLANE + "functions = f()\n[gamma]\n", "ricci",
         "{spec}:3: bad function declaration 'f()'"),
        (F_ENTRY + "d(1, x)\n", "ricci", AT_5 + "expected a function name (byte offset 2)"),
        (F_ENTRY + "d(g, x)\n", "ricci", AT_5 + "undeclared identifier 'g' (byte offset 2)"),
        (PLANE + "params = A\n[gamma]\nx.x.x = d(A, x)\n", "ricci",
         AT_5 + "'A' is not a function symbol (byte offset 2)"),
        (PLANE + "params = A\nfunctions = f(x)\n[gamma]\nx.x.x = d(f, A)\n", "ricci",
         "{spec}:6: in gamma entry 'x.x.x': 'A' is not a declared coordinate (byte offset 5)"),
        (F_ENTRY + "d(f, y)\n", "ricci", AT_5 + "'f' does not depend on 'y' (byte offset 5)"),
        (F_ENTRY + "d(f)\n", "ricci",
         AT_5 + "derivative needs at least one coordinate (byte offset 0)"),
        (F_ENTRY + "d(f x)\n", "ricci", AT_5 + "expected ',' or ')' (byte offset 4)"),
        (F_ENTRY + "d2(f, x)\n", "ricci",
         AT_5 + "marker 'd2' expects 2 coordinates, got 1 (byte offset 0)"),
        (TORUS_SPEC, "geodesic",
         "--at must bind every symbol in the tables; missing A, B, C, D, E"),
    ], ids=["duplicate-gamma", "unknown-section", "duplicate-header-key", "missing-coords",
            "dim-not-integer", "function-without-parentheses", "function-without-coordinates",
            "derivative-of-constant", "derivative-of-undeclared", "derivative-of-parameter",
            "derivative-by-parameter", "derivative-by-independent", "derivative-without-coordinate",
            "derivative-without-comma", "derivative-count-mismatch", "geodesic-without-at"])
    def test_reachable_checks_are_exit_2(self, capsys, tmp_path, text, command, message):
        path = tmp_path / "case.conn"
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)]
        if command == "geodesic":
            argv += ["--x0", "0,0,0", "--v0", "1,1,1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message.format(spec=path)}\n"

    def test_sweep_grid_bound(self, capsys, torus_file):
        code, out, err = run_cli(capsys, "conditions", torus_file,
                                 "--sweep", "C=1:73", "--sweep", "D=1:137")
        assert code == 2
        assert out == ""
        assert "bound of 10000 points" in err

    def test_torus_n_bound(self, capsys):
        code, _, _ = run_cli(capsys, "family", "torus_n", "--n", "12")
        assert code == 0
        code, out, err = run_cli(capsys, "curvature", "--family", "torus_n", "--n", "13")
        assert code == 2
        assert out == ""
        assert "n <= 12" in err

    @pytest.mark.parametrize("dim, code", [(12, 0), (13, 2)])
    def test_spec_dimension_bound(self, capsys, tmp_path, dim, code):
        # the offset maps that ricci's contraction caches grow with dim:
        # a 2 KB spec of dim 300 would need gigabytes
        names = ", ".join(f"x{i}" for i in range(1, dim + 1))
        path = tmp_path / f"dim{dim}.conn"
        path.write_text(f"dim = {dim}\ncoords = {names}\n[gamma]\nx1.x1.x2 = x1\n",
                        encoding="utf-8")
        got, out, err = run_cli(capsys, "ricci", str(path))
        assert got == code
        if code == 2:
            assert out == ""
            assert "n <= 12, got n = 13" in err
        else:
            assert "Ricci(x2,x1) = 1\nRicci(x2,x2) = -x1^2\n" in out

    def test_exponent_bound(self, capsys, tmp_path):
        path = tmp_path / "power.conn"
        path.write_text("dim = 3\ncoords = x, y, z\nparams = A\n[gamma]\nx.x.x = A^65\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "curvature", str(path))
        assert code == 2
        assert out == ""
        assert "exponent exceeds the bound of 64 (byte offset 2)" in err

    @pytest.mark.parametrize("entry, command, message", [
        ("(A+B+C+D+E)^40", "curvature", "bound of 1000 terms"),
        ("10^64^64^2", "normalize", "bound of 1024 bits"),
        ("1" * 5000, "curvature", "bound of 1024 bits"),
    ], ids=["power-of-sum", "power-chain", "long-literal"])
    def test_expansion_budget(self, capsys, tmp_path, entry, command, message):
        path = tmp_path / "big.conn"
        path.write_text("dim = 3\ncoords = x, y, z\nparams = A, B, C, D, E\n[gamma]\n"
                        f"x.x.x = {entry}\n", encoding="utf-8")
        started = time.perf_counter()
        code, out, err = run_cli(capsys, command, str(path))
        assert time.perf_counter() - started < 1
        assert code == 2
        assert out == ""
        assert message in err

    def test_geodesic_compare_horizon(self, capsys, torus_file, torus_e0_file):
        argv = ["geodesic", torus_file, "--at", "A=1/2,B=-1/3,C=1/4,D=-1/5,E=1/2",
                "--x0", "0,0,0", "--v0", "1/10,1/10,1/10", "--compare", torus_e0_file]
        code, out, err = run_cli(capsys, *argv, "--step", "1e-2", "--count", "600")
        assert code == 2
        assert out == ""
        assert "twice the horizon" in err and "must not exceed 5" in err
        code, out, err = run_cli(capsys, *argv, "--step", "5e-2", "--count", "100")
        assert code == 0, err
        assert "(horizon 5)" in out

    @pytest.mark.parametrize("compare", [False, True])
    def test_geodesic_step_bound_is_exit_2(self, torus_file, torus_e0_file, compare):
        # the horizon 1e-9 * 10^9 = 1 is legal; only the step bound stops the run
        argv = ["geodesic", torus_file, "--at", "A=1/2,B=-1/3,C=1/4,D=-1/5,E=1/2",
                "--x0", "0,0,0", "--v0", "1,1,1", "--step", "1e-9", "--count", "1000000000"]
        if compare:
            argv += ["--compare", torus_e0_file]
        done = run_python(CLI, *argv, timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        if compare:
            assert "twice the steps" in done.stderr and "must not exceed 10000" in done.stderr
        else:
            assert "count exceeds the bound of 20000 steps" in done.stderr

    @pytest.mark.parametrize("tol", ["nan", "-1e-6"])
    def test_geodesic_tolerance_must_be_non_negative(self, capsys, torus_file, torus_e0_file, tol):
        code, out, err = run_cli(capsys, "geodesic", torus_file,
                                 "--at", "A=1/2,B=-1/3,C=1/4,D=-1/5,E=1/2", "--x0", "0,0,0",
                                 "--v0", "1,1,1", "--compare", torus_e0_file, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "--tol must be a non-negative number" in err

    def test_geodesic_nan_step_is_exit_2(self, capsys, torus_file):
        code, out, err = run_cli(capsys, "geodesic", torus_file,
                                 "--at", "A=1/2,B=-1/3,C=1/4,D=-1/5,E=1/2", "--x0", "0,0,0",
                                 "--v0", "1,1,1", "--step", "nan")
        assert code == 2
        assert out == ""
        assert "step must be a positive finite number" in err

    @pytest.mark.parametrize("option", ["--x0", "--v0", "--at"])
    def test_geodesic_value_beyond_float_range_is_exit_2(self, capsys, torus_file, option):
        values = {"--x0": "0,0,0", "--v0": "1,1,1", "--at": "A=1/2,B=-1/3,C=1/4,D=-1/5,E=1/2"}
        values[option] = (f"A={BEYOND_FLOAT},B=0,C=0,D=0,E=0" if option == "--at"
                          else f"0,{BEYOND_FLOAT},0")
        argv = ["geodesic", torus_file]
        for name, value in values.items():
            argv += [name, value]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "too large for floating point" in err

    @pytest.mark.parametrize("probe, v0", [
        (0, "1,1,1"),
        (1, "10^50*10^50*10^51,1,1"),  # coordinates near 1e151, whose squares still fit
    ])
    def test_geodesic_compare_at_the_step_bound_finishes(self, control_and_flat, probe, v0):
        # 10,001 samples against 20,001; all pairs take minutes in pure Python
        argv = ["geodesic", control_and_flat[probe], "--x0", "0,0,0", "--v0", v0,
                "--step", "5e-4", "--count", "10000", "--compare", control_and_flat[1 - probe]]
        done = run_python(CLI, *argv, timeout=30)
        assert done.returncode == 0, done.stderr
        assert "unparametrized deviation vs" in done.stdout

    def test_geodesic_compare_that_may_overflow_is_exit_2(self, control_and_flat):
        # differences of coordinates near 1e200 overflow when squared, at the
        # step bound and at the README's 300 steps, where numpy reads 0.0
        control, flat = control_and_flat
        v0 = ["--x0", "0,0,0", "--v0", "10^50*10^50*10^50*10^50,1,1"]
        for argv in (
            ["geodesic", flat, *v0, "--step", "5e-4", "--count", "10000", "--compare", control],
            ["geodesic", control, *v0, "--compare", flat, "--tol", "1e-2"],
        ):
            done = run_python(CLI, *argv, timeout=30)
            assert done.returncode == 2
            assert done.stdout == ""
            assert "too large for an exact match without overflow" in done.stderr

    def test_degree_bound_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "degree.conn"
        path.write_text("dim = 3\ncoords = x, y, z\nparams = A\n[gamma]\n"
                        "x.x.x = ((A^64)^64)^64\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "curvature", str(path))
        assert code == 2
        assert out == ""
        assert "exponent exceeds the bound of 32767 (byte offset 11)" in err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_pullback_points_below_one_rejected(self, capsys, points):
        code, out, err = run_cli(capsys, "pullback-check", "--gamma", "0,-1,1,0",
                                 "--points", points)
        assert code == 2
        assert out == ""
        assert f"--points must be at least 1, got {points}" in err

    def test_pullback_points_beyond_candidates_is_exit_2(self):
        # 1,089 candidate tau values exist; a missing check loops forever
        done = run_python(CLI, "pullback-check", "--gamma", "0,-1,1,0", "--points", "2000",
                          timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "every one of the 1089 candidate tau values has been tried" in done.stderr

    def test_repeated_sweep_name_rejected(self, capsys, torus_file):
        code, out, err = run_cli(capsys, "conditions", torus_file, "--set", "A=1,B=1,E=1,D=1",
                                 "--sweep", "C=1:3", "--sweep", "C=1:2")
        assert code == 2
        assert out == ""
        assert "--sweep names 'C' more than once" in err

    @pytest.mark.parametrize("argv, message", [
        (["flat", "--family", "torus3", "--set", "C=1,C=0,D=0"], "--set names 'C' more than once"),
        (["family", "torus3", "--set", "E=0, E =1"], "--set names 'E' more than once"),
        (["geodesic", "TORUS", "--at", "A=0,B=0,C=0,D=0,E=0,E=1"], "--at names 'E' more than once"),
        (["geodesic", "TORUS", "--at", "C"], "--at entry 'C' must look like NAME=value"),
    ], ids=["set", "set-spaced", "at", "at-malformed"])
    def test_repeated_set_and_at_names_rejected(self, capsys, torus_file, argv, message):
        argv = [torus_file if a == "TORUS" else a for a in argv]
        if argv[0] == "geodesic":
            argv += ["--x0", "0,0,0", "--v0", "1,1,1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_deep_nesting_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.conn"
        nested = "(" * 1500 + "x" + ")" * 1500
        path.write_text(f"dim = 3\ncoords = x, y, z\n[gamma]\nx.x.x = {nested}\n",
                        encoding="utf-8")
        code, out, err = run_cli(capsys, "curvature", str(path))
        assert code == 2
        assert out == ""
        assert "nested deeper than" in err and "byte offset" in err

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_is_a_documented_exit(self, unbuffered):
        # the read end is closed before the child starts, so the first write
        # fails: unbuffered in print, buffered in the flush of the report
        src = str(Path(projconn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-c", CLI, "curvature", "--family", "torus_n", "--n", "4"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60, text=True)
        finally:
            os.close(write)
        assert done.returncode == EXIT_CLOSED_STDOUT == 141
        assert "Traceback" not in done.stderr

    def test_import_leaves_numpy_out(self):
        src = str(Path(projconn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        check = "import projconn.cli, sys; assert 'numpy' not in sys.modules"
        subprocess.run([sys.executable, "-c", check], env=env, check=True)

    def test_import_leaves_subcommand_modules_out(self):
        # the handlers import these themselves, so `curvature` compiles none of them
        src = str(Path(projconn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        check = ("import projconn.cli, sys; loaded = set(sys.modules); assert not loaded & "
                 "{'projconn.families', 'projconn.projective', 'projconn.geodesic'}, loaded")
        subprocess.run([sys.executable, "-c", check], env=env, check=True)

    def test_pullback_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pullback-check",
            "--gamma",
            "0,-1,1,0",
            "--lambda",
            "1,2,3,4",
            "--points",
            "4",
            "--seed",
            "7",
        )
        assert code == 0
        assert "invariance: true" in out

    def test_geodesic_csv_and_compare(self, capsys, tmp_path, torus_file, torus_e0_file):
        csv_path = tmp_path / "path.csv"
        code, out, _ = run_cli(
            capsys,
            "geodesic",
            torus_file,
            "--at",
            "A=1/2,B=-1/3,C=1/4,D=-1/5,E=1/2",
            "--x0",
            "0,0,0",
            "--v0",
            "1,1,1",
            "--count",
            "300",
            "--compare",
            torus_e0_file,
            "--tol",
            "1e-6",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        assert "within tolerance 1e-06: true" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("t,tau_re,tau_im")

    def test_no_ansi_when_disabled(self, capsys):
        _, out, _ = run_cli(
            capsys, "flat", "--family", "torus3", "--set", "C=1,D=1,A=0,B=0,E=0"
        )
        assert "\x1b[" not in out


README = Path(__file__).resolve().parent.parent / "README.md"
README_CORPUS = Path(__file__).resolve().parent / "readme_corpus.txt"


def readme_commands():
    """(argv, redirect target or None) for each `projconn` line of README's sh
    blocks, in order; pipes are dropped, so a redirect after a pipe receives
    the unfiltered report."""
    commands = []
    in_sh = False
    pending = ""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        if not in_sh:
            continue
        if line.endswith("\\"):
            pending += line[:-1]
            continue
        tokens = shlex.split(pending + line, comments=True)
        pending = ""
        if not tokens or tokens[0] != "projconn":
            continue
        cut = next((p for p, t in enumerate(tokens) if t in ("|", ">")), len(tokens))
        target = tokens[tokens.index(">") + 1] if ">" in tokens else None
        commands.append((tokens[1:cut], target))
    return commands


@pytest.mark.parametrize("dim", range(6))
def test_report_matches_dense_index_loop(dim):
    """The text report groups Tensor.items() by argument tuple; the loop
    over every index tuple that it replaced is the oracle."""
    rng = random.Random(f"report:{dim}")
    coords = coords_named(*(f"x{i}" for i in range(dim)))
    for fill in (0.3, 0.6):
        conn = rand_torsionfree(rng, coords, fill=fill)
        names = conn.coord_names()
        for t, label in ((curvature(conn), "R"), (ricci(conn), "Ricci")):
            assert _tensor_lines(t, names, label) == dense_tensor_lines(t, names, label)


def test_readme_commands_golden_corpus(capsys, tmp_path, monkeypatch):
    """Every README command, run in-process in order, against a stored corpus
    of exit codes and stdout."""
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 20
    corpus = []
    for argv, target in commands:
        code, out, _ = run_cli(capsys, *argv)
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
        corpus.append(f"$ projconn {shlex.join(argv)}\n[exit {code}]\n{out}")
    assert "".join(corpus) == README_CORPUS.read_text(encoding="utf-8")


# Interns the corpus's symbols in the reverse of their display order before
# anything else builds a polynomial, then prints the corpus as the test above
# builds it.
REVERSED_SLOTS_CORPUS = r"""
import contextlib, io, shlex, sys
from projconn.poly import _SYMBOLS, DiffPoly
from projconn.symbols import coordinate, function, parameter

symbols = [coordinate(n) for n in ("tau", "z1", "z2")] + [parameter(n) for n in "ABCDE"]
functions = [function(n, ("tau",)) for n in "ABC"]
symbols += functions + [f.derivative("tau") for f in functions]
order = sorted(symbols, key=lambda s: s.sort_key, reverse=True)
for sym in order:
    DiffPoly.of(sym)
assert _SYMBOLS == order, _SYMBOLS

from projconn.cli import EXIT_CLOSED_STDOUT, _tensor_lines, main
from projconn.connection import curvature, ricci
from test_specfile_cli import readme_commands

corpus = []
for argv, target in readme_commands():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if target is not None:
        with open(target, "w", encoding="utf-8") as f:
            f.write(out.getvalue())
    corpus.append(f"$ projconn {shlex.join(argv)}\n[exit {code}]\n{out.getvalue()}")
sys.stdout.write("".join(corpus))
"""


# Runs the commands given as JSON in argv with numpy unimportable, and prints
# the corpus as test_readme_commands_golden_corpus builds it.
NUMPY_FREE_CORPUS = r"""
import contextlib, io, json, shlex, sys
sys.modules["numpy"] = None
from projconn.cli import EXIT_CLOSED_STDOUT, _tensor_lines, main
from projconn.connection import curvature, ricci

corpus = []
for argv, target in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if target is not None:
        with open(target, "w", encoding="utf-8") as f:
            f.write(out.getvalue())
    corpus.append(f"$ projconn {shlex.join(argv)}\n[exit {code}]\n{out.getvalue()}")
sys.stdout.write("".join(corpus))
"""


def test_readme_corpus_without_numpy(tmp_path):
    """The README commands, geodesics included, run without numpy, and the
    --csv trace is what the numpy RK4 step gives."""
    commands = readme_commands()
    assert sum(argv[0] == "geodesic" for argv, _ in commands) == 2
    done = run_python(NUMPY_FREE_CORPUS, json.dumps(commands), timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == README_CORPUS.read_text(encoding="utf-8")
    c = torus3(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4), Fraction(-1, 5), Fraction(1, 2))
    expected = io.StringIO()
    write_csv(expected, naive_integrate(c, [0, 0, 0], [1, 1, 1], 1e-3, 300), ["tau", "z1", "z2"])
    assert (tmp_path / "trace.csv").read_text(encoding="utf-8") == expected.getvalue()


def test_readme_corpus_independent_of_slot_order(tmp_path):
    """Monomials pack exponents by intern slot; display must not see the order."""
    done = run_python(REVERSED_SLOTS_CORPUS, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == README_CORPUS.read_text(encoding="utf-8")
