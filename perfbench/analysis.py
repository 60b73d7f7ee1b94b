"""Analysis helpers of the repository benchmark: order statistics, the
tail-percentile rule, span self time, ratios with their base, and the
BENCHMARK.json name checks. Pure functions, tested by
perfbench/tests/test_analysis.py."""

import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles the tail rule may fall back to, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values)


def unit_time(unit_seconds):
    """Wall time per unit of timed work: the timed phase's total over
    the units it completed. Over a whole phase this averages a noisy
    host's slow and fast spells, which a median of few units does not."""
    return sum(unit_seconds) / len(unit_seconds)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def nearest_rank(count, pct):
    """1-based nearest rank of the pct-th percentile of count samples.
    The product is rounded first so that 99.9 % of 10000 is rank 9990,
    not 9991 through a floating-point tail."""
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(samples, pct):
    """Nearest-rank percentile of samples (0 < pct <= 100)."""
    ordered = sorted(samples)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def samples_beyond(count, pct):
    """How many of count samples lie above the nearest-rank pct-th one."""
    return count - nearest_rank(count, pct)


def tail_percentile(samples, wanted=99.0, min_beyond=10):
    """The highest percentile at or below wanted that has at least
    min_beyond samples beyond it, as (percentile, value); None when not
    even the median qualifies."""
    for pct in TAIL_LADDER:
        if pct <= wanted and samples_beyond(len(samples), pct) >= min_beyond:
            return pct, percentile(samples, pct)
    return None


def self_times(spans):
    """Total self time per span name: each span's duration minus the
    part of its interval that its direct children cover. Spans are
    dicts with name, start_ns, end_ns and parent (an index, -1 for a
    root)."""
    children = {}
    for index, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(index)
    totals = {}
    for index, span in enumerate(spans):
        start, end = span["start_ns"], span["end_ns"]
        covered = 0
        cursor = start
        kids = sorted(
            (max(start, spans[k]["start_ns"]), min(end, spans[k]["end_ns"]))
            for k in children.get(index, [])
        )
        for kid_start, kid_end in kids:
            kid_start = max(kid_start, cursor)
            if kid_end > kid_start:
                covered += kid_end - kid_start
                cursor = kid_end
        totals[span["name"]] = totals.get(span["name"], 0) + (end - start - covered)
    return totals


def span_durations(spans, name):
    """Durations (ns) of every span called name."""
    return [s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name]


def ratio(numerator, denominator):
    """A ratio metric together with its base: value is 0.0 when the
    base is 0 (the layer did not run)."""
    value = numerator / denominator if denominator else 0.0
    return {"value": value, "numerator": numerator, "denominator": denominator}


def check_benchmark_spec(spec):
    """Problems with a BENCHMARK.json object, as a list of strings."""
    problems = []
    names = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in spec.get(section, []):
            name = entry.get("name", "")
            names.append(name)
            if not NAME_RE.fullmatch(name):
                problems.append(f"{section}: bad name {name!r}")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        problems.append(f"names used twice: {duplicates}")
    for metric in spec.get("end_to_end", []):
        if not 0 < metric.get("bound", 0) <= 0.25:
            problems.append(f"{metric.get('name')}: bound outside (0, 0.25]")
    if not any(
        m.get("name") == "setup_s" and m.get("unit") == "s" and m.get("better") == "lower"
        for m in spec.get("end_to_end", [])
    ):
        problems.append("no setup_s end-to-end metric in s, lower better")
    return problems
