"""Command-line harness tying the engine together.

Subcommands: curvature, ricci, weyl, flat, equiv, normalize, conditions,
family, pullback-check, geodesic.  Reports go to stdout as text (default)
or JSON (--format json) and are byte-identical across runs for identical
inputs; timing and diagnostics go to stderr.  Exit codes: 0 on success,
1 for negative analysis results under --strict, 2 on input errors, 141
when stdout is closed before the report is written.  The
handlers import `families`, `projective` and `geodesic` themselves, so a
process compiles only the modules its subcommand uses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

from .connection import Connection, curvature, ricci, weyl3
from .errors import EngineError
from .parser import parse_constant
from .poly import as_poly, symbols_of
from .rational import GaussianRational
from .specfile import load_spec, render_spec, spec_of_connection
from .symbols import COORDINATE
from .tensor import Tensor, tensor_to_json

SCHEMA = 1
MAX_SWEEP_POINTS = 10_000
EXIT_CLOSED_STDOUT = 141  # stdout was closed before the report was written; 128 + SIGPIPE


def _parse_set(option: str | None, flag: str) -> dict[str, GaussianRational]:
    """The NAME=expr,NAME=expr of option flag: exact constants, each name once."""
    values: dict[str, GaussianRational] = {}
    if not option:
        return values
    for item in option.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise EngineError(f"{flag} entry {item!r} must look like NAME=value")
        name, _, text = item.partition("=")
        name = name.strip()
        if name in values:
            raise EngineError(f"{flag} names {name!r} more than once")
        values[name] = parse_constant(text.strip())
    return values


def _bindings(conns, assignments) -> dict:
    """Substitution bindings of the assigned names, checked against conns.

    Each name must be a parameter or function symbol of one of the
    connections.  A derivative such as d(A, tau) binds through its base
    symbol, so it takes the derivative of the assigned value.  Coordinates
    are never bound: substituting one before differentiating would describe
    a different connection.
    """
    known = {}
    for conn in conns:
        for _, value in conn.nonzero_entries():
            known.update((sym.name, sym.base()) for sym in value.symbols())
    known.update((c.name, c) for conn in conns for c in conn.coords)
    bindings = {}
    for name, value in assignments.items():
        sym = known.get(name)
        if sym is None:
            raise EngineError(
                f"no parameter or function symbol named {name!r} occurs in the input"
            )
        if sym.kind == COORDINATE:
            raise EngineError(f"{name!r} is a coordinate and cannot be assigned")
        bindings[sym] = as_poly(value)
    return bindings


def _bound(conns, assignments):
    """The connections with the assigned names substituted."""
    if not assignments:
        return conns
    bindings = _bindings(conns, assignments)
    # Tensor drops the entries that the substitution makes zero
    return [Connection(c.coords, Tensor(c.dim, c.table.variance,
                                        {f: e.subst(bindings) for f, e in c.table._stored.items()}))
            for c in conns]


def _family(name, args):
    from . import families
    if name == "torus3":
        return families.torus3()
    if name == "torus_n":
        if args.n is None:
            raise EngineError("torus_n needs --n")
        return families.torus_n(args.n)
    if name == "kuga-shimura":
        return families.kuga_shimura(with_trace=not args.no_trace)
    if name is None:
        raise EngineError("give a spec file or --family")
    raise EngineError(f"unknown family {name!r}")


def _load(args, *paths):
    """The connections of the spec files at paths, a missing path standing
    for --family, after the --set substitutions; plus their source labels."""
    family = getattr(args, "family", None) or getattr(args, "name", None)
    conns = [
        load_spec(path).to_connection(filename=path) if path else _family(family, args)
        for path in paths
    ]
    sources = [path or f"family:{family}" for path in paths]
    return _bound(conns, _parse_set(getattr(args, "set", None), "--set")), sources


def _tensor_lines(t: Tensor, names, label: str) -> list[str]:
    """Human-readable nonzero components of a (1,3) or (0,2) tensor.

    (1,3) tensors are shown per argument tuple with the output direction
    spelled out; antisymmetric first arguments are printed once.
    """
    if t.variance == ("up", "down", "down", "down"):
        parts = {}  # (i, j, k) with i < j -> its terms, in l order
        for (l, i, j, k), value in t.items():
            if i < j:
                parts.setdefault((i, j, k), []).append(f"({value}) d_{names[l]}")
        lines = [f"{label}({names[i]},{names[j]}){names[k]} = " + " + ".join(terms)
                 for (i, j, k), terms in sorted(parts.items())]
        if lines:
            lines.append("(first two arguments antisymmetric; zero components omitted)")
    else:
        lines = [f"{label}({names[i]},{names[j]}) = {value}" for (i, j), value in t.items()]
    return lines or [f"{label} = 0"]


# -- subcommand handlers -------------------------------------------------------


def _cmd_tensor(args):
    (conn,), (source,) = _load(args, args.spec)
    # looked up per call, so that wrappers installed around the engine see it
    compute, label = {
        "curvature": (curvature, "R"),
        "ricci": (ricci, "Ricci"),
        "weyl": (weyl3, "W"),
    }[args.command]
    t = compute(conn)
    names = conn.coord_names()
    result = {
        "source": source,
        "dim": conn.dim,
        "coords": names,
        "tensor": tensor_to_json(t, names),
        "zero": t.is_zero(),
    }
    lines = [f"{args.command} of {source} (dim {conn.dim}, coords {' '.join(names)})"]
    lines += _tensor_lines(t, names, label)
    return result, lines, False


def _cmd_flat(args):
    from . import projective
    (conn,), (source,) = _load(args, args.spec)
    flat = projective.is_projectively_flat(conn)
    result = {"source": source, "projectively_flat": flat}
    lines = [f"projectively flat: {str(flat).lower()}"]
    return result, lines, not flat


def _cmd_equiv(args):
    from . import projective
    (a, b), _ = _load(args, args.spec_a, args.spec_b)
    theta = projective.projective_equiv(a, b)
    equivalent = theta is not None
    result = {"equivalent": equivalent}
    lines = [f"projectively equivalent: {str(equivalent).lower()}"]
    if equivalent:
        witness = {name: str(theta[i]) for i, name in enumerate(a.coord_names())}
        result["witness"] = witness
        lines += [f"theta({name}) = {value}" for name, value in witness.items()]
    return result, lines, not equivalent


def _cmd_normalize(args):
    from . import projective
    (conn,), (source,) = _load(args, args.spec)
    normalized = projective.volume_normalize(conn)
    theta = projective.projective_equiv(conn, normalized)
    witness = {name: str(theta[i]) for i, name in enumerate(conn.coord_names())}
    spec = spec_of_connection(normalized, title="volume-normalized connection")
    result = {"source": source, "witness": witness, "gamma": dict(sorted(spec.gamma.items()))}
    lines = [f"# volume-normalized from {source}"]
    lines += [f"# witness theta({name}) = {value}" for name, value in witness.items()]
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
        name = name.strip()
        if any(name == seen for seen, _, _ in ranges):
            raise EngineError(f"--sweep names {name!r} more than once")
        ranges.append((name, lo, hi))
    if math.prod(hi - lo + 1 for _, lo, hi in ranges) > MAX_SWEEP_POINTS:
        raise EngineError(f"the sweep grid exceeds the bound of {MAX_SWEEP_POINTS} points")
    return ranges


def _cmd_conditions(args):
    from . import projective
    ranges = _parse_sweep(args.sweep)
    (conn,), (source,) = _load(args, args.spec)
    # names checked once against the connection; the conditions may lack some
    symbols = {sym.name: sym for sym in _bindings([conn], {name: 0 for name, _, _ in ranges})}
    conditions = projective.flatness_conditions(conn)
    result = {
        "source": source,
        "count": len(conditions),
        "conditions": [str(p) for p in conditions],
    }
    lines = [f"flatness conditions of {source}: {len(conditions)} distinct up to scale"]
    for pos, poly in enumerate(conditions, start=1):
        lines.append(f"{pos}: {poly}")
    if ranges:
        grid = [{}]
        for name, lo, hi in ranges:
            grid = [dict(g, **{name: v}) for g in grid for v in range(lo, hi + 1)]
        sweep_results = []
        for assignment in grid:
            bindings = {symbols[k]: as_poly(v) for k, v in assignment.items()}
            flat = all(poly.subst(bindings).is_zero() for poly in conditions)
            key = " ".join(f"{k}={v}" for k, v in assignment.items())
            sweep_results.append({"assignment": assignment, "flat": flat})
            lines.append(f"sweep {key} flat={str(flat).lower()}")
        result["sweep"] = sweep_results
    return result, lines, False


def _cmd_family(args):
    (conn,), _ = _load(args, None)
    if args.name == "kuga-shimura":
        title = "fibered family with tau-dependent coefficients"
    else:
        title = f"translation-invariant family, dim {conn.dim}"
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

    from . import families
    if args.points < 1:
        raise EngineError(f"--points must be at least 1, got {args.points}")
    gamma = _parse_tuple(args.gamma, 4, "gamma")
    lam = _parse_tuple(args.lam, 4, "lambda") if args.lam else [0, 0, 0, 0]
    g = families.GroupElement(*gamma, *lam)
    with_trace = not args.no_trace
    field = families.kuga_shimura(with_trace).table
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
        f"invariance: {str(ok).lower()}",
    ]
    return result, lines, not ok


def _cmd_geodesic(args):
    from . import geodesic

    if args.tol is not None and not args.tol >= 0:
        raise EngineError(f"--tol must be a non-negative number, got {args.tol:g}")
    if args.compare and 2 * args.step * args.count > geodesic.MAX_HORIZON:
        raise EngineError(
            "--compare integrates the reference trace over twice the horizon, so "
            f"step * count must not exceed {geodesic.MAX_HORIZON / 2:g}"
        )
    if args.compare and 2 * args.count > geodesic.MAX_STEPS:
        raise EngineError(
            "--compare integrates the reference trace over twice the steps, so "
            f"count must not exceed {geodesic.MAX_STEPS // 2}"
        )
    paths = (args.spec, args.compare) if args.compare else (args.spec,)
    conns, (source, *_) = _load(args, *paths)
    conns = _bound(conns, _parse_set(args.at, "--at"))
    missing = {sym.name for c in conns for sym in symbols_of(e for _, e in c.table.items())}
    if missing:
        raise EngineError(
            f"--at must bind every symbol in the tables; missing {', '.join(sorted(missing))}"
        )
    conn, *other = conns
    x0 = [complex(v) for v in _parse_tuple(args.x0, conn.dim, "x0")]
    v0 = [complex(v) for v in _parse_tuple(args.v0, conn.dim, "v0")]
    path = geodesic.integrate(conn, x0, v0, args.step, args.count)
    if args.compare:  # before any output, so a bad reference table writes no csv
        # reference trace gets twice the horizon so the probe stays interior
        reference = geodesic.integrate(other[0], x0, v0, args.step, 2 * args.count)
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
        deviation = geodesic.unparametrized_match(path, reference)
        result["compare"] = args.compare
        result["deviation"] = f"{deviation:.6e}"
        lines.append(f"unparametrized deviation vs {args.compare}: {deviation:.6e}")
        if args.tol is not None:
            within = deviation < args.tol
            result["within_tol"] = within
            lines.append(f"within tolerance {args.tol:g}: {str(within).lower()}")
            negative = not within
    return result, lines, negative


# -- dispatch -------------------------------------------------------------------


def _add_connection_source(p):
    p.add_argument("spec", nargs="?", help="connection spec file")
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
        p.set_defaults(run=_cmd_tensor)

    p = sub.add_parser("flat", help="decide projective flatness")
    _add_connection_source(p)
    p.set_defaults(run=_cmd_flat)

    p = sub.add_parser("equiv", help="projective equivalence witness")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    p.set_defaults(run=_cmd_equiv)

    p = sub.add_parser("normalize", help="volume normalization")
    _add_connection_source(p)
    p.set_defaults(run=_cmd_normalize)

    p = sub.add_parser("conditions", help="flatness conditions, optional sweep")
    _add_connection_source(p)
    p.add_argument("--sweep", action="append", help="NAME=lo:hi integer grid")
    p.set_defaults(run=_cmd_conditions)

    p = sub.add_parser("family", help="emit a built-in family as a spec file")
    p.add_argument("name", choices=("torus3", "torus_n", "kuga-shimura"))
    p.add_argument("--n", type=int)
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--set", help="comma-separated NAME=value substitutions")
    p.set_defaults(run=_cmd_family)

    p = sub.add_parser("pullback-check", help="exact equivariance of the fibered family")
    p.add_argument("--gamma", required=True, help="a,b,c,d with ad-bc=1")
    p.add_argument("--lambda", dest="lam", help="m,n,k,l translation part")
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-trace", action="store_true")
    p.set_defaults(run=_cmd_pullback_check)

    p = sub.add_parser("geodesic", help="integrate a geodesic, optionally compare")
    _add_connection_source(p)
    p.add_argument("--at", help="NAME=value substitutions, like --set", default="")
    p.add_argument("--x0", required=True, help="initial position, comma separated")
    p.add_argument("--v0", required=True, help="initial velocity, comma separated")
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--count", type=int, default=300)
    p.add_argument("--csv", help="write the sampled path to this file")
    p.add_argument("--compare", help="second spec file for trace comparison")
    p.add_argument("--tol", type=float, help="tolerance for the comparison verdict")
    p.set_defaults(run=_cmd_geodesic)

    return parser


def _input_fingerprint(args) -> str:
    payload = {"command": args.command}
    for key, value in sorted(vars(args).items()):
        if key in ("format", "strict", "csv", "run"):
            continue  # execution and output knobs are not inputs
        payload[key] = value
    for key in ("spec", "spec_a", "spec_b", "compare"):
        path = getattr(args, key, None)
        if path:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload[f"file:{key}"] = fh.read()
            except OSError as exc:
                raise EngineError(str(exc)) from exc
    blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        digest = _input_fingerprint(args)
        result, lines, negative = args.run(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    try:
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
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; as the signal module's note on SIGPIPE
        # advises, point stdout at devnull so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    print(f"# elapsed {elapsed * 1000:.1f} ms", file=sys.stderr)
    if negative and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
