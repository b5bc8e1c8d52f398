"""Experiment driver: JSON configs in, JSON reports and CSV tables out.

One experiment per config file.  Subcommands: shadow | close | stability |
sweep.  Reports echo the fully resolved config (every default explicit),
carry the solve diagnostics and a list of bound checks, and are byte
stable for a fixed config and seed apart from the runtime field.

Exit codes: 0 all declared bounds pass, 1 a bound failed, 2 configuration
or solver error, including sizes whose arrays cannot be allocated.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import itertools
import json
import os
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .applications import (
    SEMICONJUGACY_VARIANT,
    build_semiconjugacy,
    closing_variant,
    find_periodic_center_leaf,
    grid_points,
    verify_semiconjugacy,
)
from .errors import ConfigError, QuasiShadowError
from .orbits import RNG_KIND, find_near_return, generate_noisy
from .solver import VARIANTS, SolverConfig, shadow
from .systems import cat_circle_system

# schema type of a list of exactly three numbers (a point or a translation)
_VEC3 = "3-vector"


def _defaults(cls) -> dict:
    """Schema entries (type, default) for the fields of a config dataclass."""
    return {f.name: (type(f.default), f.default) for f in dataclasses.fields(cls)}


# Echo-only keys: no run reads them, but the recorded reports echo them and the
# benchmark configs send admissibility_probes.  When those references are
# re-recorded, this block and _check_echo_only go.  n_split echoes the series
# length the reports were recorded with; every system derives its own.
_ECHO_ONLY: dict = {
    "system": {"splitting_mode": (str, "auto"), "n_split": (int, 40)},
    "solver": {
        "boundary_policy": (str, "auto"),
        "admissibility_probes": (int, 8),
        "probe_seed": (int, 20240),
    },
}

_SCHEMA: dict = {
    "kind": (str, None),
    "system": {
        "name": (str, "cat_circle"),
        "alpha": (float, 0.0),
        "kappa": (float, 0.0),
        "shift": (_VEC3, [0.0, 0.0, 0.0]),
    }
    | _ECHO_ONLY["system"],
    "solver": _defaults(SolverConfig) | _ECHO_ONLY["solver"],
    "orbit": {
        "x0": (_VEC3, [0.1, 0.2, 0.3]),
        "n_steps": (int, 200),
        "noise": (float, 1e-4),
        "seed": (int, 0),
    },
    "close": {
        "x0": (_VEC3, [0.1, 0.2, 0.3]),
        "max_n": (int, 5000),
        "threshold": (float, 1e-3),
        "mode": (str, "leaf"),
    },
    "stability": {
        "grid_per_axis": (int, 6),
        "window": (int, 100),
        "alpha_shift": (float, 0.0),
        "kappa_shift": (float, 0.0),
        "translation": (_VEC3, [0.0, 0.0, 0.0]),
    },
    "bounds": {
        "max_trace_dist": (float, None),
        "step_residual": (float, 1e-9),
        "center_residual": (float, 1e-10),
        "leaf_residual": (float, 1e-3),
        "residual": (float, 1e-6),
        "max_ratio": (float, 5.0),
    },
}

# the section of each swept scalar; a sweep entry is coerced by that scalar's rule
_SWEPT = {"noise": "orbit", "kappa": "system", "n_steps": "orbit"}
_SCHEMA["sweep"] = {key: ([_SCHEMA[section][key][0]], []) for key, section in _SWEPT.items()}

_KINDS = ("shadow", "close", "stability", "sweep")
_SECTIONS = {
    "shadow": ("system", "solver", "orbit", "bounds"),
    "close": ("system", "solver", "close", "bounds"),
    "stability": ("system", "solver", "stability", "bounds"),
    "sweep": ("system", "solver", "orbit", "sweep", "bounds"),
}


def _coerce(value, want, path):
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        if not -_sys.float_info.max <= value <= _sys.float_info.max:  # NaN fails too
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return int(value)
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if want is _VEC3:
        if not isinstance(value, list) or len(value) != 3:
            raise ConfigError(f"{path}: expected a list of 3 numbers, got {value!r}")
        return [_coerce(v, float, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(want, list):  # [t]: a list of entries of type t
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return [_coerce(v, want[0], f"{path}[{i}]") for i, v in enumerate(value)]
    raise ConfigError(f"{path}: unsupported schema type {want}")


def resolve_config(raw: dict) -> dict:
    """Validate a raw config dict and fill every default in explicitly."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    kind = raw.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"kind must be one of {_KINDS}, got {kind!r}")
    allowed = set(_SECTIONS[kind]) | {"kind"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config sections for kind={kind}: {sorted(unknown)}")
    resolved: dict = {"kind": kind}
    for section in _SECTIONS[kind]:
        schema = _SCHEMA[section]
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ConfigError(f"{section}: expected an object")
        unknown = set(given) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
        out = {}
        for key, (want, default) in schema.items():
            if key in given:
                out[key] = _coerce(given[key], want, f"{section}.{key}")
            else:
                out[key] = copy.deepcopy(default)
        resolved[section] = out
    _check_echo_only(kind, resolved)
    # echo the variant that runs (an unknown one is left for SolverConfig to reject)
    solver = resolved["solver"]
    if kind == "close":
        solver["variant"] = closing_variant(solver["variant"])
    elif kind == "stability" and solver["variant"] in VARIANTS:
        solver["variant"] = SEMICONJUGACY_VARIANT
    # the tracing bound defaults to the solver radius itself
    if resolved["bounds"].get("max_trace_dist") is None:
        resolved["bounds"]["max_trace_dist"] = resolved["solver"]["epsilon"]
    return resolved


def _check_echo_only(kind: str, resolved: dict) -> None:
    """Refuse echo-only values that no run honours; close solves cycles, other kinds windows."""
    system, solver, cyclic = resolved["system"], resolved["solver"], kind == "close"
    mode, n_split = system["splitting_mode"], system["n_split"]
    policy, probes = solver["boundary_policy"], solver["admissibility_probes"]
    if mode != "auto":
        raise ConfigError(f"system.splitting_mode must be 'auto', got {mode!r}")
    if n_split != 40:
        raise ConfigError(
            f"system.n_split must be 40, got {n_split}: the series length is derived from kappa"
        )
    if policy not in ("auto", "window", "cyclic"):
        raise ConfigError(f"unknown boundary policy {policy!r}")
    if policy != "auto" and (policy == "cyclic") != cyclic:
        raise ConfigError(f"boundary policy {policy!r} does not match orbit cyclic={cyclic}")
    if probes < 2:
        raise ConfigError(f"admissibility_probes must be >= 2, got {probes}")


def _build_system(section: dict):
    if section["name"] != "cat_circle":
        raise ConfigError(f"unknown system {section['name']!r}")
    return cat_circle_system(
        section["alpha"],
        section["kappa"],
        shift=section["shift"] if any(section["shift"]) else None,
    )


def _solver_config(section: dict) -> SolverConfig:
    return SolverConfig(**{f.name: section[f.name] for f in dataclasses.fields(SolverConfig)})


def _check(name: str, value: float, bound: float, op: str = "<=") -> dict:
    value = float(value)
    bound = float(bound)
    passed = value < bound if op == "<" else value <= bound
    return {"name": name, "value": value, "bound": bound, "op": op, "passed": bool(passed)}


def _report(kind: str, config: dict, results: dict, checks: list, started: float) -> dict:
    return {
        "tool": "quasishadow",
        "version": __version__,
        "kind": kind,
        "rng": RNG_KIND,
        "config": config,
        "results": results,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "runtime_seconds": time.time() - started,
    }


def to_json(obj):
    """``obj`` with dataclasses turned into dicts of their fields and arrays into lists."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")


def run_shadow(config: dict, out_dir: Path | None = None, stem: str = "shadow") -> dict:
    started = time.time()
    system = _build_system(config["system"])
    cfg = _solver_config(config["solver"])
    orb = config["orbit"]
    orbit = generate_noisy(
        system, orb["x0"], orb["n_steps"], orb["noise"], orb["seed"], rho=cfg.rho
    )
    res = shadow(system, orbit, cfg)
    results = {
        "defect": res.diagnostics.defect,
        "defect_index": res.defect_index,
        "max_trace_dist": res.max_trace_dist,
        "step_residual": res.step_residual,
        "center_residual": res.center_residual,
        "correction_max": float(np.max(np.abs(res.corrections))),
        "iterations": res.diagnostics.iterations,
        "diagnostics": to_json(res.diagnostics),
    }
    bounds = config["bounds"]
    checks = [
        _check("max_trace_dist", res.max_trace_dist, bounds["max_trace_dist"], "<="),
        _check("step_residual", res.step_residual, bounds["step_residual"], "<="),
        _check("center_residual", res.center_residual, bounds["center_residual"], "<="),
    ]
    report = _report("shadow", config, results, checks, started)
    if out_dir is not None:
        res.write_csv(out_dir / f"{stem}_trajectory.csv")
        orbit.write_csv(out_dir / f"{stem}_orbit.csv")
        write_report(report, out_dir / f"{stem}_report.json")
    return report


def run_close(config: dict, out_dir: Path | None = None, stem: str = "close") -> dict:
    started = time.time()
    system = _build_system(config["system"])
    cfg = _solver_config(config["solver"])
    cl = config["close"]
    near = find_near_return(system, cl["x0"], cl["max_n"], cl["threshold"], cl["mode"])
    leaf = find_periodic_center_leaf(system, near.cycle, cfg)
    results = {
        "mode": cl["mode"],
        "return_n": near.n,
        "return_gap": near.gap,
        "period": leaf.period,
        "representative": leaf.point.tolist(),
        "leaf_residual": leaf.leaf_residual,
        "trace_max": leaf.trace_max,
        "diagnostics": to_json(leaf.result.diagnostics),
    }
    bounds = config["bounds"]
    checks = [
        _check("trace_max", leaf.trace_max, bounds["max_trace_dist"], "<="),
        _check("leaf_residual", leaf.leaf_residual, bounds["leaf_residual"], "<="),
    ]
    report = _report("close", config, results, checks, started)
    if out_dir is not None:
        leaf.result.write_csv(out_dir / f"{stem}_cycle.csv")
        write_report(report, out_dir / f"{stem}_report.json")
    return report


def run_stability(config: dict, out_dir: Path | None = None, stem: str = "stability") -> dict:
    started = time.time()
    st = config["stability"]
    sys_f = _build_system(config["system"])
    pert = dict(config["system"])
    pert["alpha"] = (pert["alpha"] + st["alpha_shift"]) % 1.0
    pert["kappa"] = pert["kappa"] + st["kappa_shift"]
    pert["shift"] = [a + b for a, b in zip(pert["shift"], st["translation"])]
    sys_g = _build_system(pert)
    cfg = _solver_config(config["solver"])
    grid = grid_points(st["grid_per_axis"])
    cmap = build_semiconjugacy(sys_f, sys_g, grid, cfg, window=st["window"])
    probes = (grid + 0.5 / st["grid_per_axis"]) % 1.0
    verification = verify_semiconjugacy(cmap, probe_points=probes)
    results = {
        "perturbation_size": cmap.perturbation_size,
        "max_displacement": cmap.max_displacement,
        "residual_max": cmap.residual_max,
        "residual_mean": cmap.residual_mean,
        "center_residual": cmap.center_residual,
        "grid_points": int(len(cmap.grid)),
        "window": cmap.window,
        "failures": len(cmap.failures),
        "verification": verification,
    }
    bounds = config["bounds"]
    checks = [
        _check("max_displacement", cmap.max_displacement, config["solver"]["epsilon"], "<"),
        _check("residual_max", cmap.residual_max, bounds["residual"], "<="),
        _check(
            "density_radius",
            verification["density_radius"],
            verification["density_bound"],
            "<=",
        ),
        _check("failures", len(cmap.failures), 0.5, "<="),
    ]
    report = _report("stability", config, results, checks, started)
    if out_dir is not None:
        cmap.write_csv(out_dir / f"{stem}_map.csv")
        write_report(report, out_dir / f"{stem}_report.json")
    return report


def run_sweep(config: dict, out_dir: Path | None = None, stem: str = "sweep") -> dict:
    started = time.time()
    _solver_config(config["solver"])  # a bad solver section is refused once, not in every row
    sw = config["sweep"]
    axes = [(key, sw[key]) for key in _SWEPT if sw[key]]
    rows = []
    children = []
    last_passing_kappa = None
    combos = itertools.product(*(values for _, values in axes)) if axes else iter(())
    for combo in combos:
        child = copy.deepcopy(config)
        child["kind"] = "shadow"
        child.pop("sweep", None)
        row: dict = {}
        for (key, _), value in zip(axes, combo):
            row[key] = child[_SWEPT[key]][key] = value
        try:
            report = run_shadow(child, out_dir=None)
        except QuasiShadowError as exc:
            row.update({"error": f"{type(exc).__name__}: {exc}", "passed": False})
            rows.append(row)
            continue
        defect = report["results"]["defect"]
        trace = report["results"]["max_trace_dist"]
        row.update(
            {
                "defect": defect,
                "max_trace_dist": trace,
                "ratio": trace / defect if defect > 0 else 0.0,
                "passed": report["passed"],
            }
        )
        if "kappa" in row and report["passed"]:
            last_passing_kappa = row["kappa"]
        rows.append(row)
        children.append({k: row[k] for k in _SWEPT if k in row} | {"passed": report["passed"]})
    ratios = [r["ratio"] for r in rows if r.get("defect", 0.0) > 0]  # error rows have none
    checks = []
    if ratios:
        checks.append(_check("max_ratio", max(ratios), config["bounds"]["max_ratio"], "<="))
    # a row the solver refused has passed False: it is a failed child
    checks.append(_check("children_failed", sum(not r["passed"] for r in rows), 0.5, "<="))
    results = {
        "rows": rows,
        "children": children,
        "n_children": len(rows),
        "n_errors": sum("error" in r for r in rows),
        "last_passing_kappa": last_passing_kappa,
    }
    report = _report("sweep", config, results, checks, started)
    if out_dir is not None:
        _write_sweep_csv(rows, axes, out_dir / f"{stem}_table.csv")
        write_report(report, out_dir / f"{stem}_report.json")
    return report


def _write_sweep_csv(rows: list, axes: list, path) -> None:
    keys = [key for key, _ in axes] + ["defect", "max_trace_dist", "ratio", "passed", "error"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            out = []
            for key in keys:
                v = row.get(key, "")
                out.append(format(v, ".17g") if isinstance(v, float) else v)
            writer.writerow(out)


_RUNNERS = {
    "shadow": run_shadow,
    "close": run_close,
    "stability": run_stability,
    "sweep": run_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasishadow",
        description="Quasi-shadowing experiments on partially hyperbolic skew products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: $QS_OUT_DIR or .)")
        if "orbit" in _SECTIONS[kind]:
            p.add_argument("--seed", type=int, default=None, help="override the orbit seed")
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
    args = parser.parse_args(argv)

    out_dir = Path(args.out or os.environ.get("QS_OUT_DIR") or ".")
    stem = Path(args.config).stem
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        config = resolve_config(raw)
        if config["kind"] != args.command:
            raise ConfigError(
                f"config kind {config['kind']!r} does not match subcommand {args.command!r}"
            )
        if getattr(args, "seed", None) is not None:
            config["orbit"]["seed"] = args.seed
        out_dir.mkdir(parents=True, exist_ok=True)
        report = _RUNNERS[config["kind"]](config, out_dir=out_dir, stem=stem)
    except (QuasiShadowError, OSError, json.JSONDecodeError, ValueError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass for arrays it cannot allocate
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(f"error: {name}: {exc}", file=_sys.stderr)
        return 2
    if not args.quiet:
        verdict = "pass" if report["passed"] else "FAIL"
        print(
            f"{config['kind']}: {verdict} "
            f"({sum(c['passed'] for c in report['checks'])}/{len(report['checks'])} checks, "
            f"{report['runtime_seconds']:.2f}s) -> {out_dir / (stem + '_report.json')}"
        )
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
