"""Output checks: the written reports and CSVs against the paper-level bounds.

Each check reads what the CLI wrote, so a run that returns normally but
writes a wrong or incomplete table still fails.  ``check_call`` returns the
number of failed operations of one CLI call, the misses that caused them,
the key results compared against the recorded reference, and the value of
the known leaf-residual defect, which is reported and not gated on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quasishadow.systems import cat_circle_system, leaf_dist
from quasishadow.torus import dist

STEP_RESIDUAL = 1e-9
CENTER_RESIDUAL = 1e-10
STABILITY_RESIDUAL = 1e-6
# key results must match the reference recorded for the default seed to
# |a - b| <= REF_ABS + REF_REL * |b|; the absolute part absorbs rounding-level
# residuals, the relative part a changed float operation order
REF_ABS = 1e-12
REF_REL = 1e-6

_KEYS = {
    "shadow": ("defect", "max_trace_dist", "step_residual", "center_residual", "correction_max", "iterations"),
    "stability": ("perturbation_size", "max_displacement", "residual_max", "center_residual", "failures"),
    "close": ("return_n", "return_gap", "period", "trace_max"),
}


@dataclass
class Outcome:
    failed: int = 0
    misses: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    leaf_residual: dict | None = None


def _table(path: Path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def _system(config: dict):
    s = config["system"]
    shift = s["shift"]
    return cat_circle_system(
        s["alpha"], s["kappa"], shift=None if not any(shift) else shift, validate=False
    )


def _fiber_step_residual(system, y: np.ndarray, cyclic: bool) -> float:
    """max_k leaf_dist(f(y_{k-1}), y_k); the cyclic form includes k = 0."""
    fy = system.forward(y)
    if cyclic:
        return float(np.max(leaf_dist(np.roll(fy, 1, axis=0), y)))
    return float(np.max(leaf_dist(fy[:-1], y[1:])))


def _within(name, value, bound, misses, strict=False):
    ok = value < bound if strict else value <= bound
    if not ok:
        misses.append(f"{name} = {value:.6g} {'not <' if strict else '>'} {bound:.6g}")
    return ok


def _check_shadow(report, out_dir, stem, out: Outcome) -> None:
    cfg, res = report["config"], report["results"]
    eps = cfg["solver"]["epsilon"]
    m = out.misses
    _within("max_trace_dist", res["max_trace_dist"], eps, m)
    _within("step_residual", res["step_residual"], STEP_RESIDUAL, m)
    _within("center_residual", res["center_residual"], CENTER_RESIDUAL, m)
    traj = _table(out_dir / f"{stem}_trajectory.csv")
    orbit = _table(out_dir / f"{stem}_orbit.csv")
    n = cfg["orbit"]["n_steps"]
    if len(traj) != 2 * n + 1 or not np.array_equal(traj[:, 1:4], orbit[:, 1:4]):
        m.append("trajectory and orbit tables disagree in length or points")
        return
    system = _system(cfg)
    x, y = traj[:, 1:4], traj[:, 4:7]
    _within("table trace distance", float(np.max(dist(x, y))), eps, m)
    _within("table fiber-step residual", _fiber_step_residual(system, y, False), STEP_RESIDUAL, m)
    defect = float(np.max(dist(system.forward(x[:-1]), x[1:])))
    _within("table defect", defect, cfg["orbit"]["noise"], m)


def _check_stability(report, out_dir, stem, out: Outcome) -> int:
    cfg, res = report["config"], report["results"]
    eps = cfg["solver"]["epsilon"]
    ver = res["verification"]
    m = out.misses
    ok = all(
        [
            _within("residual_max", res["residual_max"], STABILITY_RESIDUAL, m),
            _within("failures", res["failures"], 0, m),
            _within("density_radius", ver["density_radius"], ver["density_bound"], m),
            _within("max_displacement", res["max_displacement"], eps, m, strict=True),
            _within("center_residual", res["center_residual"], CENTER_RESIDUAL, m),
        ]
    )
    table = _table(out_dir / f"{stem}_map.csv")
    n_pts = cfg["stability"]["grid_per_axis"] ** 3
    if len(table) != n_pts:
        m.append(f"map table has {len(table)} rows, expected {n_pts}")
        return n_pts
    x, h, disp, resid = table[:, 0:3], table[:, 3:6], table[:, 6], table[:, 7]
    bad = ~np.isfinite(table).all(axis=1) | (disp >= eps) | (resid > STABILITY_RESIDUAL)
    bad |= np.abs(dist(x, h) - disp) > 1e-12
    if bad.any():
        m.append(f"{int(bad.sum())} grid rows miss a bound or disagree with dist(x, h)")
    return n_pts if not ok else int(bad.sum())


def _check_close(report, out_dir, stem, call, exit_code, out: Outcome) -> None:
    cfg, res = report["config"], report["results"]
    eps = cfg["solver"]["epsilon"]
    m = out.misses
    leaf = next(c for c in report["checks"] if c["name"] == "leaf_residual")
    out.leaf_residual = {"value": leaf["value"], "bound": leaf["bound"], "passed": leaf["passed"],
                         "exit_code": exit_code}
    others = [c["name"] for c in report["checks"] if not c["passed"] and c["name"] != "leaf_residual"]
    if others:
        m.append(f"report checks failed: {others}")
    if res["return_n"] != call.expect["return_n"] or res["period"] != res["return_n"]:
        m.append(f"return_n {res['return_n']} / period {res['period']}, expected {call.expect['return_n']}")
    _within("return_gap", res["return_gap"], cfg["close"]["threshold"], m, strict=True)
    _within("trace_max", res["trace_max"], eps, m)
    cycle = _table(out_dir / f"{stem}_cycle.csv")
    if len(cycle) != res["period"]:
        m.append(f"cycle table has {len(cycle)} rows, expected {res['period']}")
        return
    y = cycle[:, 4:7]
    if not np.array_equal(y[0], np.asarray(res["representative"])):
        m.append("cycle row 0 is not the reported representative")
    _within("table trace distance", float(np.max(cycle[:, 7])), eps, m)
    _within("cyclic fiber-step residual", _fiber_step_residual(_system(cfg), y, True), STEP_RESIDUAL, m)


def check_call(call, out_dir: Path, exit_code: int) -> Outcome:
    """Check one CLI call's outputs; every miss fails the operations it touches."""
    out = Outcome()
    report_path = out_dir / f"{call.stem}_report.json"
    allowed = (0, 1) if call.kind == "close" else (0,)
    if exit_code not in allowed or not report_path.exists():
        out.misses.append(f"exit code {exit_code}")
        out.failed = call.ops
        return out
    report = json.loads(report_path.read_text())
    out.results = {k: report["results"][k] for k in _KEYS[call.kind]}
    if call.kind == "shadow":
        _check_shadow(report, out_dir, call.stem, out)
    elif call.kind == "stability":
        out.failed = _check_stability(report, out_dir, call.stem, out)
        return out
    else:
        _check_close(report, out_dir, call.stem, call, exit_code, out)
    out.failed = call.ops if out.misses else 0
    return out


def compare_reference(results: dict, reference: dict) -> tuple[float, list]:
    """Largest |result - reference| over the key results, and the keys out of tolerance."""
    largest = 0.0
    misses = []
    for key, want in reference.items():
        got = results.get(key)
        if got is None:
            misses.append(f"{key}: missing")
            continue
        diff = abs(float(got) - float(want))
        largest = max(largest, diff)
        if diff > REF_ABS + REF_REL * abs(float(want)):
            misses.append(f"{key}: {got!r} vs reference {want!r}")
    return largest, misses
