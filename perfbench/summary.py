"""Pure helpers of the benchmark: percentiles, span self times, result line.

Nothing here imports the library or numpy, so the tests of these rules run
without building anything.
"""

from __future__ import annotations

import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is only reported when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """Percentile `q` (0-100) by linear interpolation between order statistics.

    Matches numpy's default ("linear") method.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def min_samples_for(q: float) -> int:
    """Smallest sample count that leaves TAIL_SAMPLES samples beyond percentile q."""
    if not 0.0 <= q < 100.0:
        raise ValueError(f"percentile {q} outside [0, 100)")
    return math.ceil(TAIL_SAMPLES * 100.0 / (100.0 - q) - 1e-9)


def tail_percentile(samples, q: float) -> float:
    """Percentile q, refused when fewer than TAIL_SAMPLES samples lie beyond it."""
    need = min_samples_for(q)
    if len(samples) < need:
        raise ValueError(f"p{q:g} needs at least {need} samples, got {len(samples)}")
    return percentile(samples, q)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus what its direct children cover.

    `spans` holds records whose first four fields are (name, start, end,
    parent), parent being the index of the enclosing span or -1. Spans come
    from one thread, so a child lies inside its parent and siblings do not
    overlap.
    """
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            covered[rec[3]] += rec[2] - rec[1]
    return [(rec[2] - rec[1]) - covered[i] for i, rec in enumerate(spans)]


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def self_time_by_layer(spans) -> dict[str, float]:
    """Sum of span self times per layer (the span name's first component)."""
    totals: dict[str, float] = {}
    for rec, own in zip(spans, self_times(spans)):
        layer = layer_of(rec[0])
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def result_line(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> dict:
    """The benchmark's final JSON object; refuses names or values it cannot carry."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    out = {}
    for name, (value, unit) in metrics.items():
        if not METRIC_NAME.fullmatch(name):
            raise ValueError(f"metric name {name!r} is not [A-Za-z0-9_.-]+")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
