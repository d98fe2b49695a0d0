"""Line-oriented connection spec files.

A spec is a header of `key = value` lines followed by a `[gamma]` section of
`k.i.j = expression` lines, where k, i, j are coordinate names and the
expression grammar is the one of the parser module.  Blank lines and
`#` comments are skipped.  `to_connection` resolves each key to indices
and parses its expression, where an error names the entry's line, and
builds the connection with `from_table`.  Example:

    title = constant family
    dim = 3
    coords = tau, z1, z2
    params = A, B, C, D, E
    [gamma]
    z1.tau.tau = A
    tau.tau.z1 = C / 2
"""

from __future__ import annotations

from .connection import Connection, from_table
from .errors import EngineError, ParseError, SpecFileError
from .parser import parse_expr
from .poly import DiffPoly
from .symbols import FUNCTION, PARAMETER, SymbolTable


class ConnectionSpec:
    """Parsed spec: declarations, raw gamma expressions, metadata."""

    def __init__(self, dim, coords, params=(), functions=(), gamma=None,
                 title="", tag="", gamma_lines=None):
        self.dim = dim
        self.coords = list(coords)
        self.params = list(params)
        self.functions = [(name, tuple(deps)) for name, deps in functions]
        self.gamma = dict(gamma or {})
        self.title = title
        self.tag = tag
        self.gamma_lines = dict(gamma_lines or {})

    # -- symbol resolution -----------------------------------------------------

    def symbol_table(self) -> SymbolTable:
        table = SymbolTable()
        for name in self.coords:
            table.coordinate(name)
        for name in self.params:
            table.parameter(name)
        for name, deps in self.functions:
            table.function(name, deps)
        return table

    def to_connection(self, filename=None) -> Connection:
        if self.dim != len(self.coords):
            raise SpecFileError(
                f"dim = {self.dim} but {len(self.coords)} coordinates declared",
                filename,
            )
        index = {name: pos for pos, name in enumerate(self.coords)}
        entries: dict[tuple, DiffPoly] = {}
        try:
            table = self.symbol_table()
            coords = [table.lookup(name) for name in self.coords]
            for key, text in self.gamma.items():
                indices = tuple(index.get(name) for name in key.split("."))
                if None in indices:
                    raise SpecFileError(f"unknown coordinate in gamma key {key!r}",
                                        filename, self.gamma_lines.get(key))
                entries[indices] = parse_expr(text, table)
            return from_table(coords, entries)
        except SpecFileError:
            raise
        except ParseError as exc:  # raised only by parse_expr, so key names the entry
            raise SpecFileError(
                f"in gamma entry {key!r}: {exc}",
                filename,
                self.gamma_lines.get(key),
            ) from exc
        except EngineError as exc:
            raise SpecFileError(str(exc), filename) from exc


def _split_names(value: str):
    parts = [p.strip() for p in value.replace(",", " ").split()]
    return [p for p in parts if p]


def _parse_function_decl(text: str, filename, line_no):
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise SpecFileError(
            f"function declaration {text!r} must look like name(coord, ...)",
            filename,
            line_no,
        )
    name, _, rest = text.partition("(")
    deps = _split_names(rest[:-1])
    name = name.strip()
    if not name or not deps:
        raise SpecFileError(f"bad function declaration {text!r}", filename, line_no)
    return name, tuple(deps)


def parse_spec(text: str, filename=None) -> ConnectionSpec:
    header: dict[str, str] = {}
    functions = []
    gamma: dict[str, str] = {}
    gamma_lines: dict[str, int] = {}
    in_gamma = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[gamma]":
            if in_gamma:
                raise SpecFileError("duplicate [gamma] section", filename, line_no)
            in_gamma = True
            continue
        if line.startswith("["):
            raise SpecFileError(f"unknown section {line!r}", filename, line_no)
        if "=" not in line:
            raise SpecFileError(f"expected 'key = value', got {line!r}", filename, line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if in_gamma:
            if key.count(".") != 2:
                raise SpecFileError(
                    f"gamma key {key!r} must look like k.i.j", filename, line_no
                )
            if key in gamma:
                raise SpecFileError(f"duplicate gamma key {key!r}", filename, line_no)
            gamma[key] = value
            gamma_lines[key] = line_no
        else:
            if key == "functions":
                for decl in value.split(","):
                    decl = decl.strip()
                    if decl:
                        functions.append(_parse_function_decl(decl, filename, line_no))
            elif key in ("title", "tag", "dim", "coords", "params"):
                if key in header:
                    raise SpecFileError(f"duplicate header key {key!r}", filename, line_no)
                header[key] = value
            else:
                raise SpecFileError(f"unknown header key {key!r}", filename, line_no)
    if "dim" not in header:
        raise SpecFileError("missing required header key 'dim'", filename)
    if "coords" not in header:
        raise SpecFileError("missing required header key 'coords'", filename)
    try:
        dim = int(header["dim"])
    except ValueError:
        raise SpecFileError(f"dim must be an integer, got {header['dim']!r}", filename) from None
    coords = _split_names(header["coords"])
    params = _split_names(header.get("params", ""))
    return ConnectionSpec(
        dim=dim,
        coords=coords,
        params=params,
        functions=functions,
        gamma=gamma,
        title=header.get("title", ""),
        tag=header.get("tag", ""),
        gamma_lines=gamma_lines,
    )


def read_spec_text(path) -> str:
    """The text of the file at path, read as UTF-8; SpecFileError when it
    cannot be opened or is not valid UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SpecFileError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"not valid UTF-8: {exc.reason}", str(path)) from exc


def load_spec(path) -> ConnectionSpec:
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
    return ConnectionSpec(
        dim=conn.dim,
        coords=names,
        params=sorted(params),
        functions=sorted(functions.items()),
        gamma=gamma,
        title=title,
        tag=tag,
    )


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
