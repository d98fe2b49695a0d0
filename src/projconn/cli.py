"""Command-line harness tying the engine together.

Subcommands: curvature, ricci, weyl, flat, equiv, normalize, conditions,
family, pullback-check, geodesic.  Reports go to stdout as text (default)
or JSON (--format json) and are byte-identical across runs for identical
inputs; timing and diagnostics go to stderr.  Exit codes: 0 on success,
1 for negative analysis results under --strict, 2 on input errors.
Set PROJCONN_COLOR=0 to disable ANSI colors in text output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import families, projective
from .connection import Connection, curvature, ricci, weyl3
from .errors import EngineError
from .parser import parse_constant
from .poly import as_poly
from .rational import GaussianRational
from .specfile import load_spec, render_spec, spec_of_connection
from .symbols import COORDINATE
from .tensor import Tensor, tensor_to_json

SCHEMA = 1


def _color_enabled() -> bool:
    if os.environ.get("PROJCONN_COLOR", "") == "0":
        return False
    return sys.stdout.isatty()


def _bool_text(value: bool) -> str:
    text = "true" if value else "false"
    if _color_enabled():
        code = "32" if value else "31"
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise EngineError(str(exc)) from exc


def _parse_set(option: str | None) -> dict[str, GaussianRational]:
    """--set NAME=expr,NAME=expr with exact constant expressions."""
    values: dict[str, GaussianRational] = {}
    if not option:
        return values
    for item in option.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise EngineError(f"--set entry {item!r} must look like NAME=value")
        name, _, text = item.partition("=")
        values[name.strip()] = parse_constant(text.strip())
    return values


def _bindings(polys, assignments) -> dict:
    """Substitution bindings for every symbol in polys whose name is assigned.

    A derivative such as d(A, tau) binds through its base symbol, so it
    takes the derivative of the assigned value.  Coordinates are never
    bound: substituting one before differentiating would describe a
    different connection.
    """
    bindings = {}
    for poly in polys:
        for sym in poly.symbols():
            if sym.name in assignments:
                if sym.kind == COORDINATE:
                    raise EngineError(f"{sym.name!r} is a coordinate and cannot be assigned")
                bindings[sym.base()] = as_poly(assignments[sym.name])
    return bindings


def _substituted(conn, assignments: dict[str, GaussianRational]):
    if not assignments:
        return conn
    bindings = _bindings((value for _, value in conn.nonzero_entries()), assignments)
    gamma = tuple(
        tuple(tuple(entry.subst(bindings) for entry in row) for row in plane)
        for plane in conn.gamma
    )
    return Connection(conn.coords, gamma)


def _family_connection(name: str, args) -> tuple:
    assignments = _parse_set(getattr(args, "set", None))

    def value_of(pname):
        return assignments.get(pname)

    if name == "torus3":
        conn = families.torus3(*(value_of(p) for p in "ABCDE"))
        title = "translation-invariant family, dim 3"
    elif name == "torus_n":
        n = getattr(args, "n", None)
        if n is None:
            raise EngineError("torus_n needs --n")
        conn = families.torus_n(n, *(value_of(p) for p in "ABCDE"))
        title = f"translation-invariant family, dim {n}"
    elif name == "kuga-shimura":
        conn = families.kuga_shimura(with_trace=not getattr(args, "no_trace", False))
        conn = _substituted(conn, assignments)
        title = "fibered family with tau-dependent coefficients"
    else:
        raise EngineError(f"unknown family {name!r}")
    return conn, title


def _load_connection(args):
    """Connection from a spec file or --family, with --set substitutions."""
    family = getattr(args, "family", None)
    spec_path = getattr(args, "spec", None)
    if family:
        conn, _ = _family_connection(family, args)
        return conn, f"family:{family}"
    if not spec_path:
        raise EngineError("give a spec file or --family")
    spec = load_spec(spec_path)
    conn = spec.to_connection(filename=spec_path)
    conn = _substituted(conn, _parse_set(getattr(args, "set", None)))
    return conn, spec_path


def _tensor_lines(t: Tensor, names, label: str) -> list[str]:
    """Human-readable nonzero components.

    (1,3) and (1,2) tensors are shown per argument tuple with the output
    direction spelled out; antisymmetric first arguments are printed once.
    """
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
        if not lines:
            lines.append(f"{label} = 0")
        else:
            lines.append("(first two arguments antisymmetric; zero components omitted)")
    elif t.variance == ("down", "down"):
        for i in range(t.dim):
            for j in range(t.dim):
                if not t[i, j].is_zero():
                    lines.append(f"{label}({names[i]},{names[j]}) = {t[i, j]}")
        if not lines:
            lines.append(f"{label} = 0")
    else:
        for idx in t.indices():
            if not t[idx].is_zero():
                key = ".".join(names[i] for i in idx)
                lines.append(f"{label}[{key}] = {t[idx]}")
        if not lines:
            lines.append(f"{label} = 0")
    return lines


# -- subcommand handlers -------------------------------------------------------


def _cmd_tensor(args, which: str):
    conn, source = _load_connection(args)
    if which == "curvature":
        t = curvature(conn)
        label = "R"
    elif which == "ricci":
        t = ricci(conn)
        label = "Ricci"
    else:
        t = weyl3(conn)
        label = "W"
    names = conn.coord_names()
    result = {
        "source": source,
        "dim": conn.dim,
        "coords": names,
        "tensor": tensor_to_json(t, names),
        "zero": t.is_zero(),
    }
    lines = [f"{which} of {source} (dim {conn.dim}, coords {' '.join(names)})"]
    lines += _tensor_lines(t, names, label)
    return result, lines, False


def _cmd_flat(args):
    conn, source = _load_connection(args)
    flat = projective.is_projectively_flat(conn)
    result = {"source": source, "projectively_flat": flat}
    lines = [f"projectively flat: {_bool_text(flat)}"]
    return result, lines, not flat


def _cmd_equiv(args):
    spec_a = load_spec(args.spec_a)
    spec_b = load_spec(args.spec_b)
    a = spec_a.to_connection(filename=args.spec_a)
    b = spec_b.to_connection(filename=args.spec_b)
    witness = projective.projective_equiv(a, b)
    names = a.coord_names()
    if witness is None:
        result = {"equivalent": False}
        lines = [f"projectively equivalent: {_bool_text(False)}"]
        return result, lines, True
    result = {
        "equivalent": True,
        "witness": {names[i]: str(witness[i]) for i in range(a.dim)},
    }
    lines = [f"projectively equivalent: {_bool_text(True)}"]
    for i, name in enumerate(names):
        lines.append(f"theta({name}) = {witness[i]}")
    return result, lines, False


def _cmd_normalize(args):
    conn, source = _load_connection(args)
    normalized = projective.volume_normalize(conn)
    witness = projective.projective_equiv(conn, normalized)
    names = conn.coord_names()
    spec = spec_of_connection(normalized, title="volume-normalized connection")
    result = {
        "source": source,
        "witness": {names[i]: str(witness[i]) for i in range(conn.dim)},
        "gamma": dict(sorted(spec.gamma.items())),
    }
    lines = [f"# volume-normalized from {source}" ]
    for i, name in enumerate(names):
        lines.append(f"# witness theta({name}) = {witness[i]}")
    lines.append(render_spec(spec).rstrip("\n"))
    return result, lines, False


def _parse_sweep(items):
    ranges = []
    for item in items or []:
        if "=" not in item or ":" not in item:
            raise EngineError(f"--sweep entry {item!r} must look like NAME=lo:hi")
        name, _, span = item.partition("=")
        lo_text, _, hi_text = span.partition(":")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise EngineError(f"--sweep bounds must be integers in {item!r}") from None
        if hi < lo:
            raise EngineError(f"empty sweep range in {item!r}")
        ranges.append((name.strip(), lo, hi))
    return ranges


def _cmd_conditions(args):
    conn, source = _load_connection(args)
    conditions = projective.flatness_conditions(conn)
    result = {
        "source": source,
        "count": len(conditions),
        "conditions": [str(p) for p in conditions],
    }
    lines = [f"flatness conditions of {source}: {len(conditions)} distinct up to scale"]
    for pos, poly in enumerate(conditions, start=1):
        lines.append(f"{pos}: {poly}")
    ranges = _parse_sweep(getattr(args, "sweep", None))
    if ranges:
        grid = [{}]
        for name, lo, hi in ranges:
            grid = [dict(g, **{name: v}) for g in grid for v in range(lo, hi + 1)]
        sweep_results = []
        for assignment in grid:
            bindings = _bindings(conditions, assignment)
            flat = all(poly.subst(bindings).is_zero() for poly in conditions)
            key = " ".join(f"{k}={v}" for k, v in assignment.items())
            sweep_results.append({"assignment": assignment, "flat": flat})
            lines.append(f"sweep {key} flat={str(flat).lower()}")
        result["sweep"] = sweep_results
    return result, lines, False


def _cmd_family(args):
    conn, title = _family_connection(args.name, args)
    spec = spec_of_connection(conn, title=title, tag=args.name)
    text = render_spec(spec)
    result = {"name": args.name, "spec": text}
    return result, [text.rstrip("\n")], False


def _parse_tuple(option: str, count: int, label: str):
    parts = [p.strip() for p in option.split(",")]
    if len(parts) != count:
        raise EngineError(f"--{label} needs {count} comma-separated values")
    return [parse_constant(p) for p in parts]


def _cmd_pullback_check(args):
    import random

    gamma = _parse_tuple(args.gamma, 4, "gamma")
    lam = _parse_tuple(args.lam, 4, "lambda") if args.lam else [0, 0, 0, 0]
    g = families.GroupElement(*gamma, *lam)
    with_trace = not args.no_trace
    field = families.kuga_shimura_theta(with_trace)
    weights = families.kuga_shimura_coefficients(with_trace)
    rng = random.Random(args.seed)
    points = families.orbit_safe_points(g, args.points, rng)
    base = {
        w.symbol.name: {
            p[0]: GaussianRational(families.random_rational(rng), families.random_rational(rng))
            for p in points
        }
        for w in weights
    }
    values = families.transported_values(g, points, base, weights)
    ok = families.invariance_check(field, g, points, values, weights)
    result = {
        "gamma": [str(v) for v in gamma],
        "lambda": [str(v) for v in lam],
        "points": args.points,
        "seed": args.seed,
        "with_trace": with_trace,
        "invariant": ok,
    }
    lines = [
        f"group element gamma=({args.gamma}) lambda=({args.lam or '0,0,0,0'})",
        f"checked {args.points} exact rational points (seed {args.seed})",
        f"invariance: {_bool_text(ok)}",
    ]
    return result, lines, not ok


def _numeric_at(conn, assignments, what: str):
    """The connection with every symbol bound by --at, as complex numbers."""
    from . import geodesic

    conn = _substituted(conn, assignments)
    missing = set()
    for _, value in conn.nonzero_entries():
        missing.update(sym.name for sym in value.symbols())
    if missing:
        raise EngineError(
            f"--at must bind every symbol in {what}; missing {', '.join(sorted(missing))}"
        )
    return geodesic.NumericConnection.from_connection(conn, {})


def _cmd_geodesic(args):
    from . import geodesic  # the only subcommand that needs numpy

    conn, source = _load_connection(args)
    assignments = _parse_set(args.at)
    numeric = _numeric_at(conn, assignments, "the table")
    x0 = [complex(v) for v in _parse_tuple(args.x0, conn.dim, "x0")]
    v0 = [complex(v) for v in _parse_tuple(args.v0, conn.dim, "v0")]
    path = geodesic.integrate(numeric, x0, v0, args.step, args.count)
    result = {
        "source": source,
        "steps": args.count,
        "horizon": args.step * args.count,
        "end_position": [[z.real, z.imag] for z in path.positions[-1]],
    }
    lines = [
        f"integrated {args.count} steps of {args.step} (horizon {args.step * args.count:g})"
    ]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            geodesic.write_csv(fh, path, conn.coord_names())
        result["csv"] = args.csv
        lines.append(f"csv written to {args.csv}")
    negative = False
    if args.compare:
        other_spec = load_spec(args.compare)
        other = other_spec.to_connection(filename=args.compare)
        other = _substituted(other, _parse_set(getattr(args, "set", None)))
        other_numeric = _numeric_at(other, assignments, "the comparison")
        # reference trace gets twice the horizon so the probe stays interior
        reference = geodesic.integrate(other_numeric, x0, v0, args.step, 2 * args.count)
        deviation = geodesic.unparametrized_match(path, reference)
        result["compare"] = args.compare
        result["deviation"] = f"{deviation:.6e}"
        lines.append(f"unparametrized deviation vs {args.compare}: {deviation:.6e}")
        if args.tol is not None:
            within = deviation < args.tol
            result["within_tol"] = within
            lines.append(f"within tolerance {args.tol:g}: {_bool_text(within)}")
            negative = not within
    return result, lines, negative


# -- dispatch -------------------------------------------------------------------


def _add_connection_source(p, file_required=False):
    p.add_argument("spec", nargs=None if file_required else "?", help="connection spec file")
    p.add_argument("--family", help="use a built-in family instead of a file")
    p.add_argument("--n", type=int, help="dimension for torus_n")
    p.add_argument("--no-trace", action="store_true", help="drop the trace part of kuga-shimura")
    p.add_argument("--set", help="comma-separated NAME=value substitutions")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projconn",
        description="exact symbolic calculus for torsionfree affine connections",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the analysis answer is negative",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("curvature", "ricci", "weyl"):
        p = sub.add_parser(name, help=f"compute the {name} tensor")
        _add_connection_source(p)

    p = sub.add_parser("flat", help="decide projective flatness (dim 3)")
    _add_connection_source(p)

    p = sub.add_parser("equiv", help="projective equivalence witness")
    p.add_argument("spec_a")
    p.add_argument("spec_b")

    p = sub.add_parser("normalize", help="volume normalization")
    _add_connection_source(p)

    p = sub.add_parser("conditions", help="flatness conditions, optional sweep")
    _add_connection_source(p)
    p.add_argument("--sweep", action="append", help="NAME=lo:hi integer grid")

    p = sub.add_parser("family", help="emit a built-in family as a spec file")
    p.add_argument("name", choices=("torus3", "torus_n", "kuga-shimura"))
    p.add_argument("--n", type=int)
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--set", help="comma-separated NAME=value substitutions")

    p = sub.add_parser("pullback-check", help="exact equivariance of the fibered family")
    p.add_argument("--gamma", required=True, help="a,b,c,d with ad-bc=1")
    p.add_argument("--lambda", dest="lam", help="m,n,k,l translation part")
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-trace", action="store_true")

    p = sub.add_parser("geodesic", help="integrate a geodesic, optionally compare")
    _add_connection_source(p, file_required=False)
    p.add_argument("--at", help="NAME=value for every symbol in the table", default="")
    p.add_argument("--x0", required=True, help="initial position, comma separated")
    p.add_argument("--v0", required=True, help="initial velocity, comma separated")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--count", type=int, default=300)
    p.add_argument("--csv", help="write the sampled path to this file")
    p.add_argument("--compare", help="second spec file for trace comparison")
    p.add_argument("--tol", type=float, help="tolerance for the comparison verdict")

    return parser


_HANDLERS = {
    "curvature": lambda args: _cmd_tensor(args, "curvature"),
    "ricci": lambda args: _cmd_tensor(args, "ricci"),
    "weyl": lambda args: _cmd_tensor(args, "weyl"),
    "flat": _cmd_flat,
    "equiv": _cmd_equiv,
    "normalize": _cmd_normalize,
    "conditions": _cmd_conditions,
    "family": _cmd_family,
    "pullback-check": _cmd_pullback_check,
    "geodesic": _cmd_geodesic,
}


def _input_fingerprint(args) -> str:
    payload = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key in ("format", "strict", "csv"):
            continue  # execution and output knobs are not inputs
        payload[key] = value
    for key in ("spec", "spec_a", "spec_b", "compare"):
        path = getattr(args, key, None)
        if path:
            payload[f"file:{key}"] = _read_file(path)
    return _digest(payload)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        digest = _input_fingerprint(args)
        result, lines, negative = _HANDLERS[args.command](args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    if args.format == "json":
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "input_digest": digest,
            "result": result,
        }
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"# projconn {args.command} (input {digest[:12]})")
        for line in lines:
            print(line)
    print(f"# elapsed {elapsed * 1000:.1f} ms", file=sys.stderr)
    if negative and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
