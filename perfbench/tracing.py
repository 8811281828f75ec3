"""Spans around the public functions the CLI calls, recorded from outside.

``Tracer.install()`` replaces each traced function with a wrapper on its
module, so calls made through the module attribute (as ``cli`` makes them)
open a span; ``uninstall()`` puts the originals back.  Nothing inside the
package is changed.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Counts come from a call's arguments and its public result.  Those derived
# from sizes rather than reported by the result are marked "computed" in
# metrics.PER_LAYER.

def _read_counts(args, net):
    return {"cells": net.n * net.n}


def _hearing_counts(args, total):
    n = args["net"].n
    return {"flops": 2 * n ** 3 * (int(args["T"]) - 1)}


def _eigen_counts(args, pair):
    return {"sweeps": pair.iterations}


def _gossip_counts(args, trace):
    return {"contacts": args["net"].n * trace.rounds - trace.isolated_skips,
            "isolated_skips": trace.isolated_skips}


def _integrate_counts(args, traj):
    drift = np.abs(traj.s + traj.i + traj.r - traj.params.n_total)
    return {"rk4_steps": len(traj.t) - 1, "max_drift": float(drift.max())}


def _field_counts(args, snapshots):
    from workloads import FRONT, front_speed
    cfg = args["cfg"]
    steps = int(round(cfg.horizon / cfg.dt))
    counts = {"node_steps": cfg.n_nodes * steps, "snapshots": len(snapshots),
              "cfl": cfg.d_coeff * cfg.dt / (cfg.dx * cfg.dx),
              "front_speed_rel_err": 0.0}
    if cfg.rate_family == "logistic" and cfg.r_rate > 0:
        target = 2.0 * math.sqrt(cfg.r_rate * cfg.d_coeff)
        speed = front_speed([s.t for s in snapshots], [s.u for s in snapshots],
                            cfg.dx, FRONT["level"] * cfg.k_cap, FRONT["window"])
        if speed is not None:
            counts["front_speed_rel_err"] = abs(speed - target) / target
    return counts


def _fastslow_counts(args, result):
    cfg = args["cfg"]
    steps = int(round(cfg.horizon / cfg.h))
    return {"substeps": math.ceil(1.0 / cfg.epsilon) * steps,
            "sup_deviation": result.sup_deviation}


def _rows(args, records):
    return {"rows": len(records)}


TARGETS = (
    ("cli", "parse_args", None),
    ("cli", "run", None),
    ("netdiff", "read_network_csv", _read_counts),
    ("netdiff", "generate_random_network", None),
    ("netdiff", "centrality_report", None),
    ("netdiff", "hearing_matrix", _hearing_counts),
    ("netdiff", "leading_eigenpair", _eigen_counts),
    ("gossip", "simulate_population", _gossip_counts),
    ("epi_sir", "integrate", _integrate_counts),
    ("rdwave", "rd_integrate", _field_counts),
    ("rdwave", "fast_slow_integrate", _fastslow_counts),
    ("fundstats", "ingest_csv", _rows),
    ("fundstats", "summarize", None),
    ("fundstats", "province_report", None),
    ("fundstats", "demographics_report", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, counter in TARGETS:
            module = importlib.import_module(f"infospread.{module_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr,
                    self._wrap(f"{module_name}.{attr}", original, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name, original, counter):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.job, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(signature.bind(*args, **kwargs).arguments,
                                      result)
            return result

        traced.__wrapped__ = original
        return traced


def write_spans(passes: list[list[Span]], path: Path) -> None:
    """One JSON line per span; ``parent`` indexes the spans of its pass."""
    with open(path, "w") as fh:
        for spans in passes:
            for span in spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for k, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(k, []), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result
