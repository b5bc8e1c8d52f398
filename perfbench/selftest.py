"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's default test
collection, whose pass count is tracked separately.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import stats, tracing, workloads  # noqa: E402
from perfbench.tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402


def _span(name, parent, start, end, iteration=0):
    s = Span(name, parent, start, iteration)
    s.end = end
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("solver.shadow", 0, 1.0, 8.0),
        _span("solver.phi", 1, 2.0, 5.0),
        _span("solver.solve_p", 2, 3.0, 4.5),
        _span("cli.csv", 0, 8.5, 9.5),
    ]
    assert self_times(spans) == pytest.approx([2.0, 4.0, 1.5, 1.5, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_spans_nest_and_restore_targets():
    def leaf(x):
        return x + 1

    mod = types.SimpleNamespace(__name__="toy")
    mod.__dict__["leaf"] = leaf
    mod.__dict__["outer"] = lambda x: mod.leaf(x) * mod.leaf(x)
    tracer = Tracer(targets=[(mod, "leaf", "toy.leaf", None), (mod, "outer", "toy.outer", None),
                             (mod, "gone", "toy.gone", None)])
    tracer.install()
    try:
        assert tracer.call("cli.main", mod.outer, 2) == 9
    finally:
        tracer.remove()
    assert mod.leaf is leaf
    assert [s.name for s in tracer.spans] == ["cli.main", "toy.outer", "toy.leaf", "toy.leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]
    assert tracer.missing == ["toy.gone"]
    own = self_times(tracer.spans)
    top = tracer.spans[0]
    assert sum(own) == pytest.approx(top.end - top.start, abs=1e-12)


def test_layer_metrics_count_phi_under_shadow_and_ratios():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("solver.shadow", 0, 0.0, 4.0),
        _span("solver.estimate_contraction", 1, 0.0, 1.0),
        _span("solver.phi", 2, 0.0, 0.5),  # a probe, not a solve iteration
        _span("solver.phi", 1, 1.0, 2.0),
        _span("solver.phi", 1, 2.0, 3.0),
        _span("systems.splitting_at", 0, 5.0, 6.0),
    ]
    spans[-1].attrs = {"points": 30}
    m = layer_metrics(spans, distinct_points=15, untraced_wall=[10.0], traced_wall=[11.0])
    assert m["solver.shadow.calls"] == 1
    assert m["solver.phi.calls"] == 3
    assert m["solver.iterations_per_solve"] == 2
    assert m["solver.probe_share"] == 1
    assert m["systems.split_redundancy"] == 2
    assert m["trace.overhead_frac"] == pytest.approx(0.1)
    assert m["trace.self_sum_err_s"] == pytest.approx(0.0, abs=1e-12)
    assert set(tracing.LAYER_UNITS) <= set(m)


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_tail_falls_back_to_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    p, value = stats.tail([float(i) for i in range(101)])
    assert p == 90.0 and value == pytest.approx(90.0)


def test_fail_frac_and_points_per_s():
    assert stats.fail_frac(0, 1000) == 0.0
    assert stats.fail_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        stats.fail_frac(0, 0)
    with pytest.raises(ValueError):
        stats.fail_frac(5, 4)
    assert stats.points_per_s(802000, 4.0) == 200500.0
    with pytest.raises(ValueError):
        stats.points_per_s(10, 0.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_configs(workload):
    a = workloads.make_calls(workload, 3)
    b = workloads.make_calls(workload, 3)
    assert [c.config for c in a] == [c.config for c in b]
    c = workloads.make_calls(workload, 4)
    assert [x.config for x in a] != [x.config for x in c]
    # the amount of work does not depend on the seed, except for cycle lengths
    # inside the return band
    assert [x.ops for x in a] == [x.ops for x in c]


def _orbits(seed):
    calls = workloads.make_calls("orbits", seed)
    return calls[0].config["orbit"], [c for c in calls if c.kind == "close"]


def test_other_seed_changes_start_points_and_noise_seed():
    a, closings_a = _orbits(0)
    b, closings_b = _orbits(1)
    assert a["x0"] != b["x0"] and a["seed"] != b["seed"]
    assert a["n_steps"] == b["n_steps"] == 10000
    starts = {tuple(c.config["close"]["x0"]) for c in closings_a}
    others = {tuple(c.config["close"]["x0"]) for c in closings_b}
    assert len(starts) == workloads.CLOSINGS and not starts & others


def test_closing_starts_return_inside_the_band_as_the_cli_finds_them():
    import quasishadow as qs

    lo, hi = workloads.RETURN_BAND
    for call in _orbits(2)[1]:
        assert lo <= call.expect["return_n"] <= hi
        close = call.config["close"]
        system = qs.cat_circle_system(call.config["system"]["alpha"], 0.0)
        found = qs.find_near_return(system, close["x0"], close["max_n"], close["threshold"], "leaf")
        assert found.n == call.expect["return_n"] == call.points


def test_identity_reports_the_largest_numeric_difference():
    from perfbench.identity import largest_difference

    want = b"k,x1,note\n0,0.5,a\n1,0.25,b\n"
    got = b"k,x1,note\n0,0.5,a\n1,0.2500001,c\n"
    assert largest_difference(got, want, False) == (
        "largest numeric difference 1e-07, 1 non-numeric cells differ"
    )
    assert largest_difference(b'{"a": [1.0, 2.5], "b": "x"}', b'{"a": [1.0, 2.0], "b": "x"}', True) == (
        "largest numeric difference 0.5"
    )
    assert largest_difference(b"1,2\n", b"1,2,3\n", False) == "2 values vs 3 recorded"
