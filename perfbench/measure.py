"""Latency statistics and the metric sets declared in BENCHMARK.json."""

import json
import math
import os
import statistics

TAIL_BEYOND = 10


def load_declared(root):
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples strictly above the value).  The
    value is the sorted sample with TAIL_BEYOND samples after it, at
    nearest-rank percentile 100 * (n - TAIL_BEYOND) / n.  Up to
    2 * TAIL_BEYOND samples that percentile is not above the median; the
    median is reported instead, with however many samples lie above it.
    """
    beyond = TAIL_BEYOND
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n > 2 * beyond:
        value = xs[n - 1 - beyond]
        pct = 100.0 * (n - beyond) / n
    else:
        value = statistics.median(xs)
        pct = 50.0
    return value, pct, sum(1 for x in xs if x > value)


def check_fit(loglik_trace, h):
    """Problems with one fit: a non-finite or decreasing trace, h outside [0, 1]."""
    problems = []
    trace = [float(v) for v in loglik_trace]
    if not trace or not all(math.isfinite(v) for v in trace):
        problems.append("loglik_trace is empty or not finite")
    else:
        for a, b in zip(trace, trace[1:]):
            if b - a < -1e-9 * (1.0 + abs(a)):
                problems.append(f"loglik_trace decreases: {a!r} -> {b!r}")
                break
    if not all(0.0 <= float(v) <= 1.0 for v in h):
        problems.append("an h lies outside [0, 1]")
    return problems


def end_to_end(latencies, ops, setup_s, peak_rss_mb, quality):
    """End-to-end metric values of one untraced run.

    ``latencies`` holds the seconds of each successful public call and
    ``ops`` the ops they completed (replications, fits or rounds).
    """
    p50 = statistics.median(latencies)
    tail_value = tail(latencies)[0]
    return {
        "ops_per_s": ops / sum(latencies),
        "op_s.p50": p50,
        "op_s.tail": tail_value,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "mse_ratio": quality["mse_ratio"],
        "auc": quality["auc"],
    }


def per_layer(summary, iterations, overhead_frac):
    """Per-layer metric values from a tracing summary (tracing.summarize)."""
    spans = summary["spans"]
    counters = summary["counters"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    kernel_calls, kernel_s, kernel_bytes, kernel_flops = summary["leaves"].get("kernels", [0, 0.0, 0, 0])
    mstep_kernel = summary["leaf_by_parent"].get("kernels<em.mstep", 0)
    msteps = span("em.mstep", "calls")
    busy = span("parallel.item", "total_s")
    slots = counters.get("parallel.slot_s", 0.0)
    return {
        "kernels.calls": kernel_calls,
        "kernels.mstep_calls": mstep_kernel,
        "kernels.calls_per_mstep": mstep_kernel / msteps if msteps else 0.0,
        "kernels.self_s": kernel_s,
        "kernels.bytes_computed": kernel_bytes,
        "kernels.flops_computed": kernel_flops,
        "em.fits": span("em.fit", "calls"),
        "em.iterations.p50": statistics.median(iterations) if iterations else 0,
        "em.iterations.max": max(iterations) if iterations else 0,
        "em.estep_calls": span("em.estep", "calls"),
        "em.estep_s": span("em.estep", "total_s"),
        "em.mstep_calls": msteps,
        "em.mstep_s": span("em.mstep", "total_s"),
        "em.suffstats_s": span("em.suffstats", "total_s"),
        "posterior.calls": span("posterior", "calls"),
        "posterior.self_s": span("posterior", "self_s"),
        "linalg.build_design_s": span("linalg.build_design", "total_s"),
        "linalg.ols_calls": span("linalg.ols", "calls"),
        "linalg.ols_s": span("linalg.ols", "total_s"),
        "simulate.draw_s": span("simulate.draw", "total_s"),
        "parallel.items": counters.get("parallel.items", 0),
        "parallel.wall_s": span("parallel.map", "total_s"),
        "parallel.busy_s": busy,
        "parallel.utilization": busy / slots if slots else 0.0,
        "fileio.read_tsv_s": span("fileio.read_tsv", "total_s"),
        "fileio.read_tsv_bytes": counters.get("fileio.read_tsv_bytes", 0),
        "fileio.write_tsv_s": span("fileio.write_tsv", "total_s"),
        "fileio.write_tsv_bytes": counters.get("fileio.write_tsv_bytes", 0),
        "fileio.write_json_s": span("fileio.write_json", "total_s"),
        "fileio.read_json_s": span("fileio.read_json", "total_s"),
        "fileio.json_bytes": counters.get("fileio.json_bytes", 0),
        "cli.fit_s": span("cli.fit", "total_s"),
        "cli.predict_s": span("cli.predict", "total_s"),
        "trace.overhead_frac": overhead_frac,
    }


def self_shares(summary):
    """Share of all self time (kernels included) spent in each span name."""
    selfs = {name: agg["self_s"] for name, agg in summary["spans"].items()}
    for name, row in summary["leaves"].items():
        selfs[name] = selfs.get(name, 0.0) + row[1]
    total = sum(selfs.values())
    return {name: (s / total if total else 0.0) for name, s in selfs.items()}


def labelled(values, units):
    """{name: {"value", "unit"}}, refusing names BENCHMARK.json does not declare."""
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise ValueError(f"metric names disagree with BENCHMARK.json: missing {missing}, undeclared {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}
