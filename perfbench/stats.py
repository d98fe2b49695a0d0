"""Small pure helpers: latency summaries and the CLI's elapsed line."""

from __future__ import annotations

import re
import statistics

_ELAPSED = re.compile(r"^# elapsed ([0-9]+(?:\.[0-9]+)?) ms$", re.MULTILINE)


def latency_summary(values_ms) -> dict:
    """Median and 90th percentile of op times, with the sample count.

    The 90th percentile is the ninth of statistics.quantiles(n=10)
    ('exclusive' method); with fewer than 10 samples it is not defined and
    reads None.
    """
    values = list(values_ms)
    if not values:
        return {"n": 0, "p50": None, "p90": None}
    p90 = statistics.quantiles(values, n=10)[8] if len(values) >= 10 else None
    return {"n": len(values), "p50": statistics.median(values), "p90": p90}


def parse_elapsed(stderr: str) -> float | None:
    """Handler time in ms from the last `# elapsed <x> ms` line, or None."""
    found = _ELAPSED.findall(stderr)
    return float(found[-1]) if found else None
