"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from stats import latency_summary, parse_elapsed  # noqa: E402


def test_latency_summary_reports_its_sample_count():
    summary = latency_summary(range(1, 101))
    assert summary["n"] == 100
    assert summary["p50"] == 50.5
    # exclusive method: rank 0.9 * (n + 1) = 90.9 between the 90th and 91st value
    assert summary["p90"] == pytest.approx(90.9)
    assert sum(1 for v in range(1, 101) if v > summary["p90"]) == 10


def test_latency_summary_has_no_p90_below_ten_samples():
    summary = latency_summary([3.0, 1.0, 2.0])
    assert summary == {"n": 3, "p50": 2.0, "p90": None}
    assert latency_summary([]) == {"n": 0, "p50": None, "p90": None}


def test_self_time_subtracts_children_only():
    # root [0, 100] > a [10, 40] > a1 [20, 30]; root > b [50, 90]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    assert list(spans.self_times(parent, start, end)) == [30, 20, 10, 40]


def test_self_time_per_name_adds_spans_of_that_name():
    tracer = spans.Tracer()
    for name, parent, start, end in [("op", -1, 0, 100), ("mul", 0, 10, 40),
                                     ("add", 1, 20, 30), ("mul", 0, 50, 60)]:
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.start.append(start * 10**6)
        tracer.end.append(end * 10**6)
    assert tracer.self_ms() == {"op": 60.0, "mul": 30.0, "add": 10.0}
    assert tracer.call_counts() == {"op": 1, "mul": 2, "add": 1}


def test_parse_elapsed_takes_the_last_elapsed_line():
    assert parse_elapsed("# elapsed 13.6 ms\n") == 13.6
    assert parse_elapsed("warning\n# elapsed 2 ms\n# elapsed 120.5 ms\n") == 120.5
    assert parse_elapsed("error: bad input\n") is None
    assert parse_elapsed("# elapsed 1.0 ms trailing\n") is None


def _direct_counts(work, codes):
    """Calls whose frame runs one of the given code objects, by sys.setprofile."""
    counts = dict.fromkeys(codes.values(), 0)
    names = {code: name for name, code in codes.items()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return {names[code]: n for code, n in counts.items()}


def test_wrappers_count_every_binding_of_weyl3_and_mul():
    from projconn import connection, families, projective
    from projconn.poly import DiffPoly, as_poly
    from projconn.symbols import parameter

    def work():
        conn = families.torus3()
        connection.weyl3(conn)                   # connection.weyl3
        projective.flatness_conditions(conn)     # projective's own weyl3 binding
        projective.is_projectively_flat(families.torus3(1, 2, 3, 3, 5))
        3 * as_poly(parameter("A"))              # DiffPoly.__rmul__

    codes = {"connection.weyl3": connection.weyl3.__code__,
             "poly.mul": DiffPoly.__mul__.__code__}
    direct = _direct_counts(work, codes)
    assert direct["connection.weyl3"] == 3

    original_mul = DiffPoly.__mul__
    tracer = spans.Tracer()
    tracer.install_layers()
    try:
        assert DiffPoly.__rmul__ is DiffPoly.__mul__ is not original_mul
        work()
    finally:
        tracer.uninstall()
    assert DiffPoly.__mul__ is original_mul and DiffPoly.__rmul__ is original_mul
    counted = tracer.call_counts()
    assert {name: counted[name] for name in codes} == direct


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["weyl-random", "torus-dims", "cli-session"]
