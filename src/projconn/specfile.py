"""Line-oriented connection spec files.

A spec is a header of `key = value` lines followed by a `[gamma]` section of
`k.i.j = expression` lines, where k, i, j are coordinate names and the
expression grammar is the one of the parser module.  Blank lines, `#`
comments and a leading byte-order mark are skipped.  `functions` lists
`name(coord, ...)` declarations, split at the commas outside parentheses.
`parse_spec` reads the file once: at `[gamma]` (or at the end of a file
without one) it checks the header and declares its symbols, then resolves
each gamma key to indices and parses its expression on its own line, so an
error names that line and a file with several errors reports the first one
in file order.  The connection is built by `from_table`, whose checks
(conflicting symmetric entries, a coordinate declared twice) see the whole
table and so come last.  `ConnectionSpec` is the named tuple
`spec_of_connection` fills and `render_spec` prints.  Example:

    title = fibered family
    dim = 3
    coords = tau, z1, z2
    params = C
    functions = A(tau), g(z1, z2)
    [gamma]
    z1.tau.tau = A
    tau.tau.z1 = C / 2 + d(g, z1)
"""

from __future__ import annotations

import collections
import re

from .connection import Connection, from_table
from .errors import EngineError, ParseError, SpecFileError
from .parser import parse_expr
from .symbols import FUNCTION, PARAMETER, SymbolTable


# a connection as spec text: declarations, gamma expressions, metadata
ConnectionSpec = collections.namedtuple(
    "ConnectionSpec", "dim coords params functions gamma title tag", defaults=("", ""))


def _split_names(value: str):
    return value.replace(",", " ").split()


def _parse_function_decl(text: str, filename, line_no):
    text = text.strip()
    m = re.fullmatch(r"([^(]*)\((.*)\)", text)
    if m is None:
        raise SpecFileError(
            f"function declaration {text!r} must look like name(coord, ...)",
            filename,
            line_no,
        )
    name, deps = m[1].strip(), _split_names(m[2])
    if not name or not deps:
        raise SpecFileError(f"bad function declaration {text!r}", filename, line_no)
    return name, tuple(deps)


def _declared(header, functions, filename):
    """The coordinate symbols and the symbol table of a complete header."""
    for key in ("dim", "coords"):
        if key not in header:
            raise SpecFileError(f"missing required header key {key!r}", filename)
    try:
        dim = int(header["dim"])
    except ValueError:
        raise SpecFileError(f"dim must be an integer, got {header['dim']!r}", filename) from None
    names = _split_names(header["coords"])
    if dim != len(names):
        raise SpecFileError(f"dim = {dim} but {len(names)} coordinates declared", filename)
    table = SymbolTable()
    coords = [table.coordinate(name) for name in names]
    for name in _split_names(header.get("params", "")):
        table.parameter(name)
    for name, deps in functions:
        table.function(name, deps)
    return coords, table


def parse_spec(text: str, filename=None) -> Connection:
    """The connection the spec text describes; a SpecFileError names filename
    and, where the error has one, its line."""
    header: dict[str, str] = {}
    functions = []
    entries = {}  # (k, i, j) -> its parsed expression
    table = None  # the symbol table, declared at [gamma]
    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line == "[gamma]":
                if table is not None:
                    raise SpecFileError("duplicate [gamma] section", filename, line_no)
                coords, table = _declared(header, functions, filename)
                index = {c.name: pos for pos, c in enumerate(coords)}
                continue
            if line.startswith("["):
                raise SpecFileError(f"unknown section {line!r}", filename, line_no)
            if "=" not in line:
                raise SpecFileError(f"expected 'key = value', got {line!r}", filename, line_no)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if table is not None:
                if key.count(".") != 2:
                    raise SpecFileError(
                        f"gamma key {key!r} must look like k.i.j", filename, line_no
                    )
                indices = tuple(index.get(name) for name in key.split("."))
                if None in indices:
                    raise SpecFileError(f"unknown coordinate in gamma key {key!r}",
                                        filename, line_no)
                if indices in entries:
                    raise SpecFileError(f"duplicate gamma key {key!r}", filename, line_no)
                entries[indices] = parse_expr(value, table)
            elif key == "functions":
                for decl in re.split(r",(?![^(]*\))", value):  # commas outside parentheses
                    if decl.strip():
                        functions.append(_parse_function_decl(decl, filename, line_no))
            elif key in ("title", "tag", "dim", "coords", "params"):
                if key in header:
                    raise SpecFileError(f"duplicate header key {key!r}", filename, line_no)
                header[key] = value
            else:
                raise SpecFileError(f"unknown header key {key!r}", filename, line_no)
        if table is None:
            coords, _ = _declared(header, functions, filename)
        return from_table(coords, entries)
    except SpecFileError:
        raise
    except ParseError as exc:  # raised only by parse_expr, so key names the entry
        raise SpecFileError(f"in gamma entry {key!r}: {exc}", filename, line_no) from exc
    except EngineError as exc:  # a declaration the symbol table refuses, or from_table
        raise SpecFileError(str(exc), filename) from exc


def read_spec_text(path) -> str:
    """The text of the file at path, read as UTF-8 without a leading
    byte-order mark; SpecFileError when it cannot be opened or is not valid
    UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")  # what "utf-8-sig" drops, without its codec
    except OSError as exc:
        raise SpecFileError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"not valid UTF-8: {exc.reason}", str(path)) from exc


def load_spec(path) -> Connection:
    return parse_spec(read_spec_text(path), filename=str(path))


def spec_of_connection(conn: Connection, title="", tag="") -> ConnectionSpec:
    """Spec document describing an existing connection; its parameters and
    function symbols are those the table mentions."""
    names = conn.coord_names()
    params = set()
    functions = {}
    gamma = {}
    for (k, i, j), value in conn.table.items():
        if i > j:
            continue
        gamma[f"{names[k]}.{names[i]}.{names[j]}"] = str(value)
        for sym in value.symbols():
            if sym.kind == PARAMETER:
                params.add(sym.name)
            elif sym.kind == FUNCTION:
                functions[sym.name] = sym.depends_on
    return ConnectionSpec(conn.dim, names, sorted(params), sorted(functions.items()), gamma,
                          title, tag)


def render_spec(spec: ConnectionSpec) -> str:
    lines = []
    if spec.title:
        lines.append(f"title = {spec.title}")
    if spec.tag:
        lines.append(f"tag = {spec.tag}")
    lines.append(f"dim = {spec.dim}")
    lines.append(f"coords = {', '.join(spec.coords)}")
    if spec.params:
        lines.append(f"params = {', '.join(spec.params)}")
    if spec.functions:
        decls = ", ".join(f"{n}({', '.join(d)})" for n, d in spec.functions)
        lines.append(f"functions = {decls}")
    lines.append("[gamma]")
    for key in sorted(spec.gamma):
        lines.append(f"{key} = {spec.gamma[key]}")
    return "\n".join(lines) + "\n"
