"""Spans around calls into quasishadow's public functions, and the layer metrics built on them.

The program is not changed: ``Tracer.install`` replaces each target with
a wrapper under the name its caller looks it up by (for example
``quasishadow.applications.shadow`` or ``OrbitOperators.phi``) and
``Tracer.remove`` puts the originals back.  Each span records its name,
parent span, start and end; spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from . import stats


def _points(args, kwargs, out):
    return {"points": int(np.prod(np.shape(args[1])[:-1]))}


def _steps(args, kwargs, out):
    return {"steps": int(out.n)}


def _written(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


def _held(args, kwargs, out):
    ops = args[0]
    held = sum(v.nbytes for v in vars(ops).values() if isinstance(v, np.ndarray))
    return {"bytes": int(held), "points": int(ops.n_points)}


def default_targets() -> list[tuple]:
    """(owner, attribute, span name, attribute recorder) for every traced call site."""
    from quasishadow import applications, cli, orbits, solver, systems
    from quasishadow.applications import ConjugacyMap
    from quasishadow.orbits import PseudoOrbit
    from quasishadow.solver import OrbitOperators, ShadowResult

    return [
        (cli, "cat_circle_system", "systems.cat_circle_system", None),
        (cli, "generate_noisy", "orbits.generate_noisy", None),
        (cli, "find_near_return", "orbits.find_near_return", _steps),
        (cli, "shadow", "solver.shadow", None),
        (cli, "find_periodic_center_leaf", "applications.find_periodic_center_leaf", None),
        (cli, "build_semiconjugacy", "applications.build_semiconjugacy", None),
        (cli, "verify_semiconjugacy", "applications.verify_semiconjugacy", None),
        (cli, "write_report", "cli.report", _written),
        (applications, "shadow", "solver.shadow", None),
        (applications, "make_cyclic", "orbits.make_cyclic", None),
        (applications, "measure_defect", "orbits.measure_defect", None),
        (applications, "splitting_at", "systems.splitting_at", _points),
        (orbits, "measure_defect", "orbits.measure_defect", None),
        (solver, "splitting_at", "systems.splitting_at", _points),
        (solver, "estimate_contraction", "solver.estimate_contraction", None),
        (systems, "splitting_at", "systems.splitting_at", _points),
        (OrbitOperators, "__init__", "solver.operators", _held),
        (OrbitOperators, "phi", "solver.phi", None),
        (OrbitOperators, "solve_p", "solver.solve_p", None),
        (OrbitOperators, "apply_beta", "solver.apply_beta", None),
        (ShadowResult, "write_csv", "cli.csv", _written),
        (PseudoOrbit, "write_csv", "cli.csv", _written),
        (ConjugacyMap, "write_csv", "cli.csv", _written),
    ]


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs", "iteration")

    def __init__(self, name, parent, start, iteration):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = None
        self.iteration = iteration


class Tracer:
    """Collects spans from wrapped call sites; single-threaded, like the CLI."""

    def __init__(self, targets=None):
        self._targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.iteration = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, 0.0, self.iteration)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name: str, fn, record=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if record is not None:
                span.attrs = record(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        targets = self._targets if self._targets is not None else default_targets()
        for owner, attr, name, record in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, record))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {"iteration": s.iteration, "id": i, "parent": s.parent,
                       "name": s.name, "start": s.start, "end": s.end}
                if s.attrs:
                    row.update(s.attrs)
                fh.write(json.dumps(row) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``parent`` indexes into ``spans``.  Spans of one thread nest without
    overlap, so the children's durations are the part of the parent's
    interval they cover, and the self times of a tree add up to the
    duration of its root.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


# Metric name -> unit.  Every traced run reports all of them; a layer the
# workload never reaches reads 0.
LAYER_UNITS = {
    "solver.shadow.calls": "count",
    "solver.shadow.self_s": "s",
    "solver.shadow.p50_ms": "ms",
    "solver.shadow.tail_ms": "ms",
    "solver.phi.calls": "count",
    "solver.iterations_per_solve": "ratio",
    "solver.solve_p.s": "s",
    "solver.apply_beta.s": "s",
    "solver.operators.s": "s",
    "solver.operators.self_s": "s",
    "solver.operators.bytes_per_point": "bytes",
    "solver.estimate_contraction.calls": "count",
    "solver.estimate_contraction.self_s": "s",
    "solver.probe_share": "ratio",
    "systems.splitting_at.calls": "count",
    "systems.splitting_at.self_s": "s",
    "systems.splitting_at.points": "count",
    "systems.split_redundancy": "ratio",
    "systems.cat_circle_system.s": "s",
    "orbits.generate_noisy.s": "s",
    "orbits.measure_defect.calls": "count",
    "orbits.measure_defect.s": "s",
    "orbits.find_near_return.s": "s",
    "orbits.find_near_return.steps": "count",
    "orbits.make_cyclic.s": "s",
    "applications.build_semiconjugacy.self_s": "s",
    "applications.verify_semiconjugacy.s": "s",
    "applications.find_periodic_center_leaf.self_s": "s",
    "cli.csv.s": "s",
    "cli.csv.bytes": "bytes",
    "cli.report.s": "s",
    "cli.report.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    "trace.self_sum_err_s": "s",
}


def layer_metrics(spans: list[Span], distinct_points: int, untraced_wall: list, traced_wall: list) -> dict:
    """Every metric of LAYER_UNITS from the spans of the traced iterations.

    Sums and counts are taken per iteration and reported as the median over
    iterations; shadow-call percentiles pool the calls of all iterations,
    and ``solver.shadow.tail_pct`` names the percentile behind ``tail_ms``.
    """
    own = self_times(spans)
    per_iter: dict = defaultdict(lambda: defaultdict(float))
    shadow_ms = []
    for s, o in zip(spans, own):
        acc = per_iter[s.iteration]
        d = s.end - s.start
        acc[s.name + ".calls"] += 1
        acc[s.name + ".s"] += d
        acc[s.name + ".self_s"] += o
        for key, value in (s.attrs or {}).items():
            acc[f"{s.name}.{key}"] += value
        if s.name == "solver.shadow":
            shadow_ms.append(d * 1e3)
        elif s.name == "solver.phi" and s.parent >= 0 and spans[s.parent].name == "solver.shadow":
            acc["phi_in_shadow"] += 1
        if s.parent < 0:
            acc["top_s"] += d
        acc["self_sum_s"] += o
        acc["trace.spans"] += 1

    def ratio(a, b):
        return a / b if b else 0.0

    rows = []
    for acc in per_iter.values():
        row = {name: acc.get(name, 0.0) for name in LAYER_UNITS}
        solves = acc["solver.shadow.calls"]
        row["solver.iterations_per_solve"] = ratio(acc["phi_in_shadow"], solves)
        row["solver.probe_share"] = ratio(acc["solver.estimate_contraction.calls"], solves)
        row["systems.split_redundancy"] = ratio(acc["systems.splitting_at.points"], distinct_points)
        row["solver.operators.bytes_per_point"] = ratio(
            acc["solver.operators.bytes"], acc["solver.operators.points"]
        )
        row["trace.self_sum_err_s"] = abs(acc["self_sum_s"] - acc["top_s"])
        rows.append(row)
    out = {name: statistics.median([r[name] for r in rows]) for name in LAYER_UNITS}
    out["trace.self_sum_err_s"] = max(r["trace.self_sum_err_s"] for r in rows)
    if shadow_ms:
        out["solver.shadow.p50_ms"] = stats.percentile(shadow_ms, 50.0)
        out["solver.shadow.tail_pct"], out["solver.shadow.tail_ms"] = stats.tail(shadow_ms)
    else:
        out["solver.shadow.tail_pct"] = 0.0
    out["trace.overhead_frac"] = statistics.median(traced_wall) / statistics.median(untraced_wall) - 1.0
    return out


def self_shares(spans: list[Span]) -> list[tuple[str, float]]:
    """(span name, share of the top-level time) by self time, largest first."""
    own = self_times(spans)
    by_name: dict = defaultdict(float)
    top = 0.0
    for s, o in zip(spans, own):
        by_name[s.name] += o
        if s.parent < 0:
            top += s.end - s.start
    return sorted(((n, v / top) for n, v in by_name.items()), key=lambda kv: -kv[1])
