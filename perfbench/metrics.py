"""Metric tables and the statistics that fill them.

The names here are the names in BENCHMARK.json; the self-test holds the two
in step.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import Span, self_times

# End-to-end: measured with tracing off.
E2E = {
    "wall_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Per layer: from traced passes, each a median over those passes of the
# pass's total.  Counts marked computed are derived from input sizes, not
# reported by a result.
PER_LAYER = {
    "netdiff.read_s": ("s", False),
    "netdiff.read_us_per_cell": ("us", True),
    "netdiff.hearing_s": ("s", False),
    "netdiff.hearing_gflop_s": ("GFLOP/s", True),
    "netdiff.eigen_s": ("s", False),
    "netdiff.eigen_sweeps": ("count", False),
    "netdiff.generate_s": ("s", False),
    "gossip.simulate_s": ("s", False),
    "gossip.contacts": ("count", True),
    "gossip.us_per_contact": ("us", True),
    "gossip.isolated_skips": ("count", False),
    "epi_sir.integrate_s": ("s", False),
    "epi_sir.rk4_steps": ("count", False),
    "epi_sir.us_per_step": ("us", False),
    "epi_sir.max_drift": ("abs", False),
    "rdwave.field_s": ("s", False),
    "rdwave.node_steps": ("count", True),
    "rdwave.ns_per_node_step": ("ns", True),
    "rdwave.snapshots": ("count", False),
    "rdwave.cfl": ("ratio", True),
    "rdwave.front_speed_rel_err": ("ratio", False),
    "rdwave.fastslow_s": ("s", False),
    "rdwave.substeps": ("count", True),
    "rdwave.us_per_substep": ("us", True),
    "rdwave.sup_deviation": ("abs", False),
    "fundstats.ingest_s": ("s", False),
    "fundstats.rows": ("count", False),
    "fundstats.us_per_row": ("us", False),
    "fundstats.report_s": ("s", False),
    "cli.parse_s": ("s", False),
    "cli.self_s": ("s", False),
    "cli.bytes_out": ("B", False),
    "cli.files_out": ("count", False),
    "cli.out_mb_per_s": ("MB/s", False),
    "trace.overhead_s": ("s", False),
}

# Span name -> per-layer time metric it adds to.
_SPAN_TIME = {
    "netdiff.read_network_csv": "netdiff.read_s",
    "netdiff.hearing_matrix": "netdiff.hearing_s",
    "netdiff.leading_eigenpair": "netdiff.eigen_s",
    "netdiff.generate_random_network": "netdiff.generate_s",
    "gossip.simulate_population": "gossip.simulate_s",
    "epi_sir.integrate": "epi_sir.integrate_s",
    "rdwave.rd_integrate": "rdwave.field_s",
    "rdwave.fast_slow_integrate": "rdwave.fastslow_s",
    "fundstats.ingest_csv": "fundstats.ingest_s",
    "fundstats.summarize": "fundstats.report_s",
    "fundstats.province_report": "fundstats.report_s",
    "fundstats.demographics_report": "fundstats.report_s",
    "cli.parse_args": "cli.parse_s",
}

# Span count -> (metric, how passes' spans combine).
_SPAN_COUNT = {
    "cells": ("netdiff.read_cells", sum),
    "flops": ("netdiff.hearing_flops", sum),
    "sweeps": ("netdiff.eigen_sweeps", sum),
    "contacts": ("gossip.contacts", sum),
    "isolated_skips": ("gossip.isolated_skips", sum),
    "rk4_steps": ("epi_sir.rk4_steps", sum),
    "max_drift": ("epi_sir.max_drift", max),
    "node_steps": ("rdwave.node_steps", sum),
    "snapshots": ("rdwave.snapshots", sum),
    "cfl": ("rdwave.cfl", max),
    "front_speed_rel_err": ("rdwave.front_speed_rel_err", max),
    "substeps": ("rdwave.substeps", sum),
    "sup_deviation": ("rdwave.sup_deviation", max),
    "rows": ("fundstats.rows", sum),
}

# Rate metric -> (numerator, denominator, scale).
_RATES = {
    "netdiff.read_us_per_cell": ("netdiff.read_s", "netdiff.read_cells", 1e6),
    "netdiff.hearing_gflop_s": ("netdiff.hearing_flops", "netdiff.hearing_s", 1e-9),
    "gossip.us_per_contact": ("gossip.simulate_s", "gossip.contacts", 1e6),
    "epi_sir.us_per_step": ("epi_sir.integrate_s", "epi_sir.rk4_steps", 1e6),
    "rdwave.ns_per_node_step": ("rdwave.field_s", "rdwave.node_steps", 1e9),
    "rdwave.us_per_substep": ("rdwave.fastslow_s", "rdwave.substeps", 1e6),
    "fundstats.us_per_row": ("fundstats.ingest_s", "fundstats.rows", 1e6),
    "cli.out_mb_per_s": ("cli.bytes_out", "cli.self_s", 1e-6),
}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that still
    has at least ten samples above it.  With fewer than eleven samples no
    percentile qualifies and the minimum is returned as percentile 0."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        return ordered[0], 0.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def e2e_metrics(pass_walls, job_times, setup_times, peak_rss_mb):
    """End-to-end values and, for each, a note on what it summarises."""
    tail_s, tail_pct = tail(job_times)
    values = {
        "wall_s": statistics.median(pass_walls),
        "job_s_p50": statistics.median(job_times),
        "job_s_tail": tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "wall_s": f"median of {len(pass_walls)} passes",
        "job_s_p50": f"median of {len(job_times)} jobs",
        "job_s_tail": f"p{tail_pct:.1f} of {len(job_times)} jobs",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return values, notes


def pass_layer_metrics(spans: list[Span], files_out: int, bytes_out: int,
                       scale: float) -> dict:
    """Per-layer totals of one pass, its span times multiplied by ``scale``
    (reference seconds per wall-clock second).  Layers the pass never called
    read 0."""
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if span.name == "cli.run":
            totals["cli.self_s"] += own * scale
        elif span.name in _SPAN_TIME:
            totals[_SPAN_TIME[span.name]] += span.duration * scale
        for count, value in span.counts.items():
            metric, combine = _SPAN_COUNT[count]
            totals[metric] = combine([totals[metric], value])
    totals["cli.files_out"] = files_out
    totals["cli.bytes_out"] = bytes_out
    for rate, (num, den, scale) in _RATES.items():
        totals[rate] = scale * totals[num] / totals[den] if totals[den] else 0.0
    return {name: float(totals[name]) for name in PER_LAYER}


def paired_overhead(pass_walls: list[float], traced: list[bool]) -> list[float]:
    """For each traced pass, its wall time minus the mean of its untraced
    neighbours.  Pairing neighbours cancels host speed drift that a
    difference of two medians would keep."""
    diffs = []
    for k, wall in enumerate(pass_walls):
        if not traced[k]:
            continue
        near = [pass_walls[j] for j in (k - 1, k + 1)
                if 0 <= j < len(pass_walls) and not traced[j]]
        if near:
            diffs.append(wall - statistics.fmean(near))
    return diffs


def overhead_note(diffs: list[float]) -> str:
    note = (f"median of {len(diffs)} paired differences, "
            f"range {min(diffs):.3g} to {max(diffs):.3g} s")
    if min(diffs) < 0 < max(diffs):
        note += "; not resolved: the pairs disagree in sign"
    return note


def layer_metrics(passes: list[dict], overhead_s: float) -> dict:
    """Median over traced passes of each per-layer metric."""
    merged = {name: statistics.median(p[name] for p in passes) for name in PER_LAYER}
    merged["trace.overhead_s"] = overhead_s
    return merged
