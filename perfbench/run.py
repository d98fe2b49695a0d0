"""Benchmark of projconn: three seeded workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload weyl-random --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics (setup_s, ops_per_s,
op_ms_p50, op_ms_p90, peak_rss_mb) measured with nothing installed around
the program; the times are scaled to a fixed machine speed measured by a
reference loop in the same run (see reference_s).  With --trace 1 it runs one round of the workload untraced and
once more with span wrappers around every layer's public functions, and
prints the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100       # so that ten op times lie beyond the 90th percentile
SETUP_REPEATS = 3   # setup_s is the median of these; each imports in a fresh process
IMPORT_REPEATS = 5  # fresh processes behind cli.import_ms
REFERENCE_SAMPLES = 20        # reference_s() samples spread over the timed phase ...
REFERENCE_MIN_OPS = 5         # ... with at least this many ops between two samples
NOMINAL_REFERENCE_S = 0.050   # times are reported at the speed where reference_s() takes this

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]

# (name, unit, better); counts are exact for a given seed.
PER_LAYER = [
    ("rational.mul.calls", "count", "lower"),
    ("rational.add.calls", "count", "lower"),
    ("rational.new.calls", "count", "lower"),
    ("rational.mul.ns", "ns", "lower"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_ms", "ms", "lower"),
    ("poly.mul.terms_out", "count", "lower"),
    ("poly.add.calls", "count", "lower"),
    ("poly.add.self_ms", "ms", "lower"),
    ("poly.diff.self_ms", "ms", "lower"),
    ("poly.coeff_bits_max", "bits", "lower"),
    ("poly.subst.calls", "count", "lower"),
    ("poly.subst.self_ms", "ms", "lower"),
    ("poly.evaluate.calls", "count", "lower"),
    ("poly.evaluate.self_ms", "ms", "lower"),
    ("tensor.build.calls", "count", "lower"),
    ("tensor.build.self_ms", "ms", "lower"),
    ("tensor.contract.self_ms", "ms", "lower"),
    ("tensor.entries_built", "count", "lower"),
    ("tensor.nonzero_ratio", "ratio", "higher"),
    ("connection.curvature.calls", "count", "lower"),
    ("connection.curvature.self_ms", "ms", "lower"),
    ("connection.build.self_ms", "ms", "lower"),
    ("connection.weyl3.calls", "count", "lower"),
    ("connection.weyl3.self_ms", "ms", "lower"),
    ("projective.with_one_form.self_ms", "ms", "lower"),
    ("projective.projective_equiv.self_ms", "ms", "lower"),
    ("projective.volume_normalize.self_ms", "ms", "lower"),
    ("projective.flatness_conditions.self_ms", "ms", "lower"),
    ("families.torus_n.self_ms", "ms", "lower"),
    ("families.invariance_check.self_ms", "ms", "lower"),
    ("families.points_checked", "count", "lower"),
    ("geodesic.integrate.self_ms", "ms", "lower"),
    ("geodesic.integrate.steps", "count", "lower"),
    ("geodesic.match.self_ms", "ms", "lower"),
    ("geodesic.match.peak_mb", "MB", "lower"),
    ("parser.parse_expr.calls", "count", "lower"),
    ("parser.parse_expr.self_ms", "ms", "lower"),
    ("specfile.load_spec.self_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.handler_ms_p50", "ms", "lower"),
    ("cli.startup_ms_p50", "ms", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Op outcomes: times of the ops that completed, failures, wrong outputs."""

    def __init__(self):
        self.op_ms: dict[int, float] = {}
        self.labels: dict[int, str] = {}
        self.failed: dict[int, str] = {}
        self.wrong = False
        self.attempted = 0

    def run(self, wl, case, runner=None):
        import workloads

        op = self.attempted
        self.attempted += 1
        self.labels[op] = wl.label(case)
        started = time.perf_counter()
        try:
            out = (runner or wl.run)(case)
        except Exception as exc:  # an op that raises is a failed op, the run goes on
            self.failed[op] = f"{type(exc).__name__}: {exc}"
            return time.perf_counter() - started, None
        elapsed = time.perf_counter() - started
        self.op_ms[op] = elapsed * 1000
        try:
            wl.check(op, case, out)
        except workloads.OpFailed as exc:
            self.failed[op] = str(exc)
        except workloads.WrongOutput as exc:
            self.failed[op] = str(exc)
            self.wrong = True
        return elapsed, out

    def add_oracle(self, failures: dict[int, str]):
        for op, message in failures.items():
            self.failed[op] = message
            self.wrong = True

    def completed_ms(self) -> list[float]:
        return [ms for op, ms in self.op_ms.items() if op not in self.failed]

    def by_kind(self) -> str:
        kinds: dict[str, list[float]] = {}
        for op, ms in self.op_ms.items():
            kinds.setdefault(self.labels[op], []).append(ms)
        return ", ".join(f"{k} {statistics.median(v):.1f} ms x{len(v)}"
                         for k, v in sorted(kinds.items(), key=lambda kv: statistics.median(kv[1])))

    def result(self, metrics: dict, units: dict) -> dict:
        for op, message in sorted(self.failed.items())[:5]:
            print(f"# failed op {op}: {message}")
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }


def fresh_import_s(module: str) -> float:
    """Seconds to import a module in a fresh interpreter."""
    code = (f"import sys, time; sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
            f"t = time.perf_counter(); import {module}; print(time.perf_counter() - t)")
    return float(subprocess.run([sys.executable, "-c", code], check=True,
                                capture_output=True, text=True).stdout)


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop of Fraction and dict work.

    The loop touches no projconn code, so a change to projconn cannot move
    it; it only tracks how fast the machine runs Python at the moment.
    """
    from fractions import Fraction

    started = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 2500):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        seen[i % 97, i % 89] = acc.denominator.bit_length()
    return time.perf_counter() - started


def timed_run(wl, seconds: float) -> dict:
    from stats import latency_summary

    refs = [reference_s()]
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = fresh_import_s("workloads")
        started = time.perf_counter()
        wl.prepare()
        setups.append(imported + time.perf_counter() - started)
    tally = Tally()
    timed = 0.0
    next_ref, next_ref_op = seconds / REFERENCE_SAMPLES, REFERENCE_MIN_OPS
    r = 0
    while timed < seconds or tally.attempted < MIN_OPS:
        for case in wl.cases(r):
            timed += tally.run(wl, case)[0]
            if timed >= next_ref and tally.attempted >= next_ref_op:
                refs.append(reference_s())
                next_ref = timed + seconds / REFERENCE_SAMPLES
                next_ref_op = tally.attempted + REFERENCE_MIN_OPS
        r += 1
    who = resource.RUSAGE_CHILDREN if wl.ops_in_subprocesses else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    tally.add_oracle(wl.oracle_failures())

    done = tally.completed_ms()
    lat = latency_summary(done)
    ref = statistics.median(refs)
    scale = NOMINAL_REFERENCE_S / ref
    raw = {"setup_s": statistics.median(setups), "ops_per_s": len(done) / timed,
           "op_ms_p50": lat["p50"], "op_ms_p90": lat["p90"]}
    print(f"# ops attempted {tally.attempted} failed {len(tally.failed)} in {r} rounds; "
          f"op time samples n={lat['n']}; timed wall {timed:.3f} s")
    print(f"# median op time by kind: {tally.by_kind()}")
    print(f"# reference loop median {ref * 1000:.3f} ms over {len(refs)} samples; "
          f"times below are scaled by {scale:.4f} to a {NOMINAL_REFERENCE_S * 1000:g} ms reference")
    print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    metrics = {
        "setup_s": raw["setup_s"] * scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "op_ms_p50": raw["op_ms_p50"] * scale,
        "op_ms_p90": raw["op_ms_p90"] * scale,
        "peak_rss_mb": peak_mb,
    }
    return tally.result(metrics, dict(END_TO_END))


def rational_mul_ns(samples, reps=100) -> float:
    """Median time of one Q(i) product over operand pairs seen in the run."""
    per_pair = []
    for a, b in samples:
        started = time.perf_counter_ns()
        for _ in range(reps):
            a * b
        per_pair.append((time.perf_counter_ns() - started) / reps)
    return statistics.median(per_pair) if per_pair else 0.0


def traced_run(wl, seed: int) -> dict:
    import spans
    from stats import parse_elapsed

    wl.prepare()
    cases = wl.cases(0)
    runner = getattr(wl, "run_in_process", wl.run)
    tally = Tally()
    started = time.perf_counter()
    for case in cases:
        tally.run(wl, case, runner)
    untraced = time.perf_counter() - started

    tracer = spans.Tracer()
    tracer.install_layers()
    try:
        started = time.perf_counter()
        for case in cases:
            tally.run(wl, case, lambda c: tracer.record("op", runner, c))
        traced = time.perf_counter() - started
    finally:
        tracer.uninstall()

    extra = {"trace.overhead_ratio": traced / untraced,
             "rational.mul.ns": rational_mul_ns(tracer.samples.get("rational.mul", []))}
    if wl.ops_in_subprocesses:
        handler, startup, stdout_bytes = [], [], 0
        for cmd in cases:
            elapsed, out = tally.run(wl, cmd)
            if out is None:
                continue
            _, stdout, stderr = out
            handler_ms = parse_elapsed(stderr) or 0.0
            handler.append(handler_ms)
            startup.append(elapsed * 1000 - handler_ms)
            stdout_bytes += len(stdout.encode("utf-8"))
        extra.update({
            "cli.import_ms": 1000 * statistics.median(
                fresh_import_s("projconn.cli") for _ in range(IMPORT_REPEATS)),
            "cli.handler_ms_p50": statistics.median(handler),
            "cli.startup_ms_p50": statistics.median(startup),
            "cli.stdout_bytes": stdout_bytes,
        })
    tally.add_oracle(wl.oracle_failures())

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"spans-{wl.name}-seed{seed}.npz"
    tracer.write(trace_file)
    print(f"# {len(tracer.start)} spans written to {trace_file.relative_to(ROOT)}")
    print(f"# ops attempted {tally.attempted} failed {len(tally.failed)}; "
          f"untraced {untraced:.3f} s, traced {traced:.3f} s")
    return tally.result(layer_metrics(tracer, extra), {n: u for n, u, _ in PER_LAYER})


def layer_metrics(tracer, extra: dict) -> dict:
    calls = tracer.call_counts()
    self_ms = tracer.self_ms()
    built = tracer.counts.get("tensor.entries_built", 0)
    values = dict(extra)
    values["tensor.nonzero_ratio"] = (
        tracer.counts.get("tensor.entries_nonzero", 0) / built if built else 0.0)
    metrics = {}
    for name, _, _ in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name in values:
            metrics[name] = values[name]
        elif name in tracer.counts:
            metrics[name] = tracer.counts[name]
        elif name in tracer.maxima:
            metrics[name] = tracer.maxima[name]
        elif kind == "calls":
            metrics[name] = calls.get(base, 0)
        elif kind == "self_ms":
            metrics[name] = self_ms.get(base, 0.0)
        else:
            metrics[name] = 0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("weyl-random", "torus-dims", "cli-session"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "projconn" / "__init__.py").is_file():
        print(f"error: projconn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads

    print(f"# python {platform.python_version()} numpy {numpy.__version__} "
          f"nproc {os.cpu_count()} git {git_sha()}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        if args.trace:
            result = traced_run(wl, args.seed)
        else:
            result = timed_run(wl, args.seconds)
    finally:
        wl.close()
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
