import copy
import dataclasses
import gzip
import json
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import quasishadow as qs
from quasishadow import cli
from quasishadow.cli import main, resolve_config

from oracles import estimate_contraction, true_window


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _shadow_config(**orbit):
    base = {"x0": [0.11, 0.23, 0.5], "n_steps": 100, "noise": 1e-4, "seed": 5}
    base.update(orbit)
    return {
        "kind": "shadow",
        "system": {"alpha": 0.3, "kappa": 0.0},
        "orbit": base,
        "solver": {"variant": "tau1"},
    }


def test_resolve_config_fills_all_defaults():
    cfg = resolve_config(_shadow_config())
    assert cfg["system"]["splitting_mode"] == "auto"
    assert cfg["system"]["n_split"] == 40
    assert cfg["solver"]["epsilon"] == 0.04
    assert cfg["solver"]["fixed_point_tol"] == 1e-12
    assert cfg["bounds"]["max_trace_dist"] == 0.04
    assert cfg["bounds"]["center_residual"] == 1e-10


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")), ids=lambda p: p.stem)
def test_resolved_configs_match_shipped_reports(config):
    # the schema defaults come from the config dataclasses; a changed default
    # would change the config echoed by every shipped report
    shipped = ROOT / "perfbench" / "reference" / "shipped" / f"{config.stem}_report.json.gz"
    with gzip.open(shipped, "rt") as fh:
        recorded = json.load(fh)["config"]
    resolved = resolve_config(json.loads(config.read_text()))
    assert json.dumps(resolved, sort_keys=True) == json.dumps(recorded, sort_keys=True)


@pytest.mark.parametrize(
    "kind, section, key, value",
    [
        ("stability", "system", "shift", [0.0, 0.0]),
        ("shadow", "orbit", "x0", [0.1, 0.2]),
        ("close", "close", "x0", [0.1, 0.2, 0.3, 0.4]),
        ("stability", "stability", "translation", [1e-3, 0.0, 0.0, 0.5]),
        ("sweep", "orbit", "x0", 0.1),
    ],
)
def test_resolve_config_checks_3_vectors(tmp_path, capsys, kind, section, key, value):
    payload = {"kind": kind, section: {key: value}}
    with pytest.raises(qs.ConfigError, match=f"{section}.{key}"):
        resolve_config(payload)
    cfg = _write(tmp_path, "vec.json", payload)
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    assert f"ConfigError: {section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "vec_report.json").exists()


def test_resolve_config_rejects_unknown_keys():
    bad = _shadow_config()
    bad["orbit"]["typo"] = 1
    with pytest.raises(qs.ConfigError):
        resolve_config(bad)
    with pytest.raises(qs.ConfigError):
        resolve_config({"kind": "nope"})


def test_shadow_run_pass(tmp_path, capsys):
    cfg = _write(tmp_path, "exp.json", _shadow_config())
    code = main(["shadow", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "exp_report.json").read_text())
    assert report["passed"] is True
    assert report["kind"] == "shadow"
    # verdicts are recomputable from the payload
    for check in report["checks"]:
        expect = (
            check["value"] < check["bound"]
            if check["op"] == "<"
            else check["value"] <= check["bound"]
        )
        assert check["passed"] == expect
    assert report["passed"] == all(c["passed"] for c in report["checks"])
    # the echoed config is fully resolved
    assert report["config"]["solver"]["max_iterations"] == 200
    header = (tmp_path / "exp_trajectory.csv").read_text().splitlines()[0]
    assert header == "k,x1,x2,x3,y1,y2,y3,dist,correction_norm"
    out = capsys.readouterr().out
    assert "pass" in out


def test_shadow_zero_noise(tmp_path):
    cfg = _write(tmp_path, "zero.json", _shadow_config(noise=0.0))
    assert main(["shadow", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "zero_report.json").read_text())
    assert report["results"]["max_trace_dist"] <= 1e-12


def test_shadow_tau3_flow_times(tmp_path):
    payload = _shadow_config()
    payload["solver"] = {"variant": "tau3"}
    cfg = _write(tmp_path, "t3.json", payload)
    assert main(["shadow", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "t3_report.json").read_text())
    # fiber flow times stay within the fiber defect of the pseudo orbit
    assert report["results"]["correction_max"] <= 1.1 * report["results"]["defect"]


@pytest.mark.parametrize("name, other", [("shadow_tau1", "tau3"), ("shadow_tau3_skew", "tau1")])
def test_shipped_shadow_config_runs_alike_under_the_other_center_variant(tmp_path, name, other):
    # tau1 and tau3 are one solve here: renaming the variant changes only the echo
    original = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    renamed = copy.deepcopy(original)
    renamed["solver"]["variant"] = other
    reports, trajectories = [], []
    for run, payload in (("original", original), ("renamed", renamed)):
        out = tmp_path / run
        out.mkdir()
        cfg = _write(out, f"{name}.json", payload)
        assert main(["shadow", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        reports.append(json.loads((out / f"{name}_report.json").read_text()))
        trajectories.append((out / f"{name}_trajectory.csv").read_bytes())
    assert trajectories[0] == trajectories[1]
    assert reports[0]["results"] == reports[1]["results"]
    assert reports[0]["passed"] and reports[1]["passed"]
    assert reports[1]["config"]["solver"]["variant"] == other


def test_report_byte_determinism(tmp_path):
    cfg = _write(tmp_path, "det.json", _shadow_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["shadow", "--config", str(cfg), "--out", str(out_a), "--quiet"]) == 0
    assert main(["shadow", "--config", str(cfg), "--out", str(out_b), "--quiet"]) == 0
    rep_a = json.loads((out_a / "det_report.json").read_text())
    rep_b = json.loads((out_b / "det_report.json").read_text())
    rep_a.pop("runtime_seconds"), rep_b.pop("runtime_seconds")
    assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
    assert (out_a / "det_trajectory.csv").read_bytes() == (
        out_b / "det_trajectory.csv"
    ).read_bytes()


def test_seed_override(tmp_path):
    cfg = _write(tmp_path, "seed.json", _shadow_config())
    assert main(
        ["shadow", "--config", str(cfg), "--out", str(tmp_path), "--seed", "99", "--quiet"]
    ) in (0, 1)
    report = json.loads((tmp_path / "seed_report.json").read_text())
    assert report["config"]["orbit"]["seed"] == 99


def test_admissibility_probes_below_two_refused(tmp_path, capsys):
    payload = _shadow_config()
    payload["solver"] = {"admissibility_probes": 1}
    cfg = _write(tmp_path, "probes.json", payload)
    assert main(["shadow", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    assert "ConfigError: admissibility_probes must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "probes_report.json").exists()
    # the probe measurement of the test suite draws the probes it is given, at least two
    sys0 = qs.cat_circle_system(0.3, 0.0)
    orbit = true_window(sys0, [0.1, 0.2, 0.3], 5)
    assert estimate_contraction(sys0, orbit, probes=3).probes == 3
    with pytest.raises(ValueError, match="probes must be >= 2"):
        estimate_contraction(sys0, orbit, probes=1)


# small configs of every kind, for the echo-only keys below
_SMALL = {
    "shadow": {"orbit": {"n_steps": 20, "seed": 5}},
    "close": {
        "system": {"alpha": 0.08333333333333333, "kappa": 0.0},
        "close": {"x0": [0.1, 0.2, 0.3], "max_n": 5000, "threshold": 1e-3, "mode": "leaf"},
    },
    "stability": {"stability": {"grid_per_axis": 2, "window": 10, "alpha_shift": 1e-3}},
    "sweep": {"orbit": {"n_steps": 20, "seed": 5}, "sweep": {"noise": [1e-5, 1e-4]}},
}


def _small(kind, section=None, **values):
    payload = {"kind": kind, "system": {"alpha": 0.3, "kappa": 0.0}} | copy.deepcopy(_SMALL[kind])
    if section is not None:
        payload.setdefault(section, {}).update(values)
    return payload


def _run(tmp_path, name, payload):
    cfg = _write(tmp_path, f"{name}.json", payload)
    return main([payload["kind"], "--config", str(cfg), "--out", str(tmp_path), "--quiet"])


def test_solver_schema_is_solver_config_plus_echo_only_keys():
    fields = {f.name: f.default for f in dataclasses.fields(qs.SolverConfig)}
    assert list(fields) == ["variant", "epsilon", "fixed_point_tol", "max_iterations", "rho0", "rho"]
    echo = {"boundary_policy", "admissibility_probes", "probe_seed"}
    assert set(cli._ECHO_ONLY) == {"system", "solver"}
    assert set(cli._ECHO_ONLY["solver"]) == echo
    assert set(cli._ECHO_ONLY["system"]) == {"splitting_mode", "n_split"}
    assert set(cli._SCHEMA["solver"]) == set(fields) | echo
    assert {key: cli._SCHEMA["solver"][key][1] for key in fields} == fields
    assert "splitting_mode" in cli._SCHEMA["system"]


def test_boundary_policy_mismatch(tmp_path, capsys):
    # the boundary comes from the orbits a kind builds; a policy naming the
    # other one is refused before any solve
    payload = _shadow_config()
    payload["solver"]["boundary_policy"] = "cyclic"
    assert _run(tmp_path, "mismatch", payload) == 2
    err = capsys.readouterr().err
    assert "error: ConfigError: boundary policy 'cyclic' does not match orbit cyclic=False" in err
    assert list(tmp_path.glob("mismatch_*")) == []


_POLICY, _MATCH = "boundary policy", "does not match orbit cyclic"
_N_SPLIT, _DERIVED = "system.n_split must be 40, got", "the series length is derived from kappa"


@pytest.mark.parametrize(
    "kind, section, key, value, message",
    [
        ("shadow", "system", "splitting_mode", "numerical", "system.splitting_mode must be 'auto'"),
        ("close", "system", "splitting_mode", "analytic", "system.splitting_mode must be 'auto'"),
        ("stability", "system", "splitting_mode", "x", "system.splitting_mode must be 'auto', got 'x'"),
        ("shadow", "system", "n_split", 0, f"{_N_SPLIT} 0: {_DERIVED}"),
        ("sweep", "system", "n_split", 1, f"{_N_SPLIT} 1: {_DERIVED}"),
        ("close", "solver", "boundary_policy", "window", f"{_POLICY} 'window' {_MATCH}=True"),
        ("stability", "solver", "boundary_policy", "cyclic", f"{_POLICY} 'cyclic' {_MATCH}=False"),
        ("sweep", "solver", "boundary_policy", "cyclic", f"{_POLICY} 'cyclic' {_MATCH}=False"),
        ("shadow", "solver", "boundary_policy", "periodic", f"unknown {_POLICY} 'periodic'"),
        ("close", "solver", "admissibility_probes", 0, "admissibility_probes must be >= 2, got 0"),
        ("stability", "solver", "admissibility_probes", 1, "admissibility_probes must be >= 2, got 1"),
        ("shadow", "solver", "rho0", 0.6, "rho0 must lie in (0, 0.5], got 0.6"),
        ("sweep", "solver", "rho", 0.3, "rho must lie in (0, rho0/2), got 0.3"),
        ("sweep", "solver", "variant", "tau9", "unknown variant 'tau9'"),
    ],
)
def test_refused_values_exit_2_without_output(tmp_path, capsys, kind, section, key, value, message):
    # echo-only values are refused when the config resolves, the solver keys
    # when the solver config is built (once, for a sweep); no file is written
    payload = _small(kind, section, **{key: value})
    assert _run(tmp_path, "bad", payload) == 2
    assert f"error: ConfigError: {message}" in capsys.readouterr().err
    assert list(tmp_path.glob("bad_*")) == []


@pytest.mark.parametrize("kind", ["shadow", "close", "stability", "sweep"])
def test_boundary_policy_of_the_kind_runs_like_auto(tmp_path, kind):
    policy = "cyclic" if kind == "close" else "window"
    code = _run(tmp_path, "auto", _small(kind))
    assert _run(tmp_path, "named", _small(kind, "solver", boundary_policy=policy)) == code
    auto, named = (json.loads((tmp_path / f"{n}_report.json").read_text()) for n in ("auto", "named"))
    assert auto["config"]["solver"].pop("boundary_policy") == "auto"
    assert named["config"]["solver"].pop("boundary_policy") == policy
    auto.pop("runtime_seconds"), named.pop("runtime_seconds")
    assert auto == named


def test_nan_tolerance_refused(tmp_path, capsys):
    payload = _shadow_config()
    payload["solver"]["fixed_point_tol"] = float("nan")
    cfg = _write(tmp_path, "nan.json", payload)
    assert main(["shadow", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "ConfigError: solver.fixed_point_tol: expected a finite number, got nan" in err
    assert not (tmp_path / "nan_report.json").exists()
    with pytest.raises(qs.ConfigError, match="fixed_point_tol must be positive"):
        qs.SolverConfig(fixed_point_tol=float("nan"))


@pytest.mark.parametrize("config", ["close_leaf", "stability_translation"])
def test_seed_only_where_an_orbit_is_drawn(tmp_path, capsys, config):
    path = str(ROOT / "configs" / f"{config}.json")
    kind = json.loads(Path(path).read_text())["kind"]
    with pytest.raises(SystemExit) as exc:
        main([kind, "--config", path, "--out", str(tmp_path), "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_exit_code_bound_failure(tmp_path):
    payload = _shadow_config()
    payload["bounds"] = {"max_trace_dist": 1e-30}
    cfg = _write(tmp_path, "fail.json", payload)
    assert main(["shadow", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1


def test_exit_code_config_error(tmp_path, capsys):
    payload = _shadow_config()
    payload["nonsense"] = {}
    cfg = _write(tmp_path, "bad.json", payload)
    assert main(["shadow", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    assert "error" in capsys.readouterr().err
    # kind mismatch between config and subcommand
    cfg2 = _write(tmp_path, "mismatch.json", _shadow_config())
    assert main(["close", "--config", str(cfg2), "--out", str(tmp_path), "--quiet"]) == 2


def test_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("QS_OUT_DIR", str(tmp_path / "envout"))
    cfg = _write(tmp_path, "env.json", _shadow_config())
    assert main(["shadow", "--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "envout" / "env_report.json").exists()


def _close_config(mode):
    return {
        "kind": "close",
        "system": {"alpha": 1.0 / 12.0, "kappa": 0.0},
        "close": {"x0": [0.1, 0.2, 0.3], "max_n": 5000, "threshold": 1e-3, "mode": mode},
        "solver": {"variant": "tau2"},
    }


def test_close_exit_code_bound_failure(tmp_path):
    payload = _close_config("leaf")
    payload["bounds"] = {"max_trace_dist": 1e-30}
    cfg = _write(tmp_path, "fail.json", payload)
    assert main(["close", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    report = json.loads((tmp_path / "fail_report.json").read_text())
    trace = next(c for c in report["checks"] if c["name"] == "trace_max")
    assert trace["bound"] == 1e-30 and trace["passed"] is False


def test_close_leaf_vs_point(tmp_path):
    leaf_cfg = _write(tmp_path, "leaf.json", _close_config("leaf"))
    point_cfg = _write(tmp_path, "point.json", _close_config("point"))
    assert main(["close", "--config", str(leaf_cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert main(["close", "--config", str(point_cfg), "--out", str(tmp_path), "--quiet"]) == 0
    leaf = json.loads((tmp_path / "leaf_report.json").read_text())
    point = json.loads((tmp_path / "point_report.json").read_text())
    assert leaf["results"]["return_n"] <= point["results"]["return_n"]
    assert leaf["results"]["period"] == 6
    assert point["results"]["period"] == 12
    assert (tmp_path / "leaf_cycle.csv").exists()


def test_stability_run(tmp_path):
    payload = {
        "kind": "stability",
        "system": {"alpha": 0.3, "kappa": 0.0},
        "stability": {"grid_per_axis": 3, "window": 30, "alpha_shift": 1e-3},
        "solver": {"variant": "tau1", "admissibility_probes": 4},
    }
    cfg = _write(tmp_path, "stab.json", payload)
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "stab_report.json").read_text())
    assert report["results"]["residual_max"] <= 1e-6
    assert report["results"]["failures"] == 0
    assert (tmp_path / "stab_map.csv").exists()


def test_stability_verifies_with_the_solver_chart_radius(tmp_path):
    payload = {
        "kind": "stability",
        "system": {"alpha": 0.3, "kappa": 0.0},
        "stability": {"grid_per_axis": 2, "window": 10, "alpha_shift": 1e-3},
        "solver": {"rho0": 0.3},
    }
    cfg = _write(tmp_path, "chart.json", payload)
    # the grid residual's chart maps run inside build_semiconjugacy
    exp_spy = mock.patch.object(qs.applications, "expmap", wraps=qs.applications.expmap)
    log_spy = mock.patch.object(qs.applications, "logmap", wraps=qs.applications.logmap)
    with exp_spy as expmap, log_spy as logmap:
        assert main(["stability", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert expmap.call_count == 1 and logmap.call_count == 2
    assert all(c.args[2] == 0.3 for c in expmap.call_args_list + logmap.call_args_list)


def test_stability_all_points_fail(tmp_path):
    # a base translation of 0.2 is far beyond the tracing radius, so every
    # grid point fails; the report still records them and the run fails
    payload = {
        "kind": "stability",
        "system": {"alpha": 0.3, "kappa": 0.0},
        "stability": {"grid_per_axis": 2, "window": 10, "translation": [0.2, 0.0, 0.0]},
        "solver": {"admissibility_probes": 4},
    }
    cfg = _write(tmp_path, "allfail.json", payload)
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    report = json.loads((tmp_path / "allfail_report.json").read_text())
    assert report["results"]["failures"] == 8
    assert report["results"]["verification"]["pairs_checked"] == 0
    assert report["results"]["verification"]["density_radius"] == float("inf")
    checks = {c["name"]: c["passed"] for c in report["checks"]}
    assert checks["density_radius"] is False and checks["failures"] is False
    rows = (tmp_path / "allfail_map.csv").read_text().strip().splitlines()
    assert len(rows) == 9 and rows[1].endswith("nan,nan")


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("grid_per_axis", 0, "per_axis must be >= 1"),
        ("grid_per_axis", -2, "per_axis must be >= 1"),
        ("window", 0, "window must be >= 1"),
        ("window", -3, "window must be >= 1"),
    ],
)
def test_stability_refuses_empty_grids_and_windows(tmp_path, capsys, key, value, message):
    stability = {"grid_per_axis": 2, "window": 10, "alpha_shift": 1e-3, key: value}
    payload = {"kind": "stability", "system": {"alpha": 0.3, "kappa": 0.0}, "stability": stability}
    cfg = _write(tmp_path, "empty.json", payload)
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    assert f"error: ValueError: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, sections",
    [
        ("stability", {"stability": {"grid_per_axis": 10**6}}),  # a 6.94 EiB grid
        ("stability", {"stability": {"grid_per_axis": 2, "window": 10**15}}),  # 341 PiB of orbits
        ("shadow", {"orbit": {"n_steps": 10**15}}),  # a 42.6 PiB orbit
        ("sweep", {"orbit": {"n_steps": 10**15}, "sweep": {"noise": [1e-4]}}),
    ],
)
def test_unallocatable_sizes_exit_2(tmp_path, capsys, kind, sections):
    # far past any address space, so numpy refuses at allocation
    cfg = _write(tmp_path, "huge.json", {"kind": kind, **sections})
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    assert "error: MemoryError: Unable to allocate" in capsys.readouterr().err


def _sweep_config(**sweep):
    return {
        "kind": "sweep",
        "system": {"alpha": 0.3, "kappa": 0.0},
        "orbit": {"x0": [0.11, 0.23, 0.5], "n_steps": 60, "noise": 1e-4, "seed": 5},
        "solver": {"variant": "tau1"},
        "sweep": sweep,
    }


def test_sweep_noise_linear_response(tmp_path):
    cfg = _write(tmp_path, "sw.json", _sweep_config(noise=[1e-5, 1e-4, 1e-3]))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "sw_report.json").read_text())
    ratios = [row["ratio"] for row in report["results"]["rows"]]
    assert len(ratios) == 3
    assert max(ratios) <= 5.0
    # identical seeds make the noise draws scale linearly: ratios agree tightly
    assert max(ratios) - min(ratios) <= 1e-9 * max(ratios)
    table = (tmp_path / "sw_table.csv").read_text().splitlines()
    assert table[0].startswith("noise,")
    assert len(table) == 4


def test_refused_sweep_rows_are_failed_children(tmp_path):
    # both noise levels predict a tracing radius beyond epsilon: the rows are
    # refused, not run, and each counts as a failed child
    payload = _sweep_config(noise=[0.03, 0.045])
    payload["orbit"]["n_steps"] = 20
    assert _run(tmp_path, "refused", payload) == 1
    report = json.loads((tmp_path / "refused_report.json").read_text())
    assert report["results"]["n_errors"] == 2
    assert all(r["error"].startswith("AdmissibilityError: ") for r in report["results"]["rows"])
    assert report["checks"] == [
        {"name": "children_failed", "value": 2.0, "bound": 0.5, "op": "<=", "passed": False}
    ]
    assert report["passed"] is False


def test_sweep_empty_ranges(tmp_path):
    cfg = _write(tmp_path, "empty.json", _sweep_config())
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "empty_report.json").read_text())
    assert report["results"]["n_children"] == 0
    assert report["passed"] is True


def test_sweep_kappa_records_last_passing(tmp_path):
    cfg = _write(tmp_path, "kap.json", _sweep_config(kappa=[0.0, 0.02, 0.8]))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    report = json.loads((tmp_path / "kap_report.json").read_text())
    assert report["results"]["n_errors"] == 1
    assert {c["name"]: c["value"] for c in report["checks"]}["children_failed"] == 1
    assert report["results"]["last_passing_kappa"] == 0.02
    errors = [r for r in report["results"]["rows"] if "error" in r]
    assert "RateOrderError" in errors[0]["error"]


@pytest.mark.parametrize(
    "key, value, path",
    [
        ("noise", ["a"], "sweep.noise[0]"),
        ("kappa", [0.0, True], "sweep.kappa[1]"),
        ("n_steps", [10.5], "sweep.n_steps[0]"),
        ("n_steps", 60, "sweep.n_steps"),
        ("noise", [float("nan")], "sweep.noise[0]"),
        ("kappa", [10**400], "sweep.kappa[0]"),
    ],
)
def test_sweep_entries_checked(tmp_path, capsys, key, value, path):
    payload = _sweep_config(**{key: value})
    with pytest.raises(qs.ConfigError, match=re.escape(path)):
        resolve_config(payload)
    cfg = _write(tmp_path, "bad.json", payload)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    assert f"ConfigError: {path}:" in capsys.readouterr().err
    assert not (tmp_path / "bad_report.json").exists()


def test_sweep_entries_coerced_like_their_scalars(tmp_path):
    cfg = _write(tmp_path, "ok.json", _sweep_config(noise=[0], n_steps=[40]))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "ok_report.json").read_text())
    assert report["config"]["sweep"] == {"noise": [0.0], "kappa": [], "n_steps": [40]}
    assert report["results"]["rows"][0]["noise"] == 0.0
    assert report["results"]["rows"][0]["n_steps"] == 40
    assert (tmp_path / "ok_table.csv").read_text().splitlines()[1].startswith("0,40,")


def _variant_config(kind, variant):
    if kind == "close":
        payload = _close_config("leaf")
    elif kind == "stability":
        payload = {
            "kind": "stability",
            "system": {"alpha": 0.3, "kappa": 0.0},
            "stability": {"grid_per_axis": 2, "window": 10, "alpha_shift": 1e-3},
            "solver": {"admissibility_probes": 4},
        }
    elif kind == "sweep":
        payload = _sweep_config(noise=[1e-4])
    else:
        payload = _shadow_config()
    if variant is None:
        payload["solver"].pop("variant", None)
    else:
        payload["solver"]["variant"] = variant
    return payload


@pytest.mark.parametrize(
    "kind, requested, runs",
    [
        ("shadow", "tau3", "tau3"),
        ("sweep", "tau2", "tau2"),
        ("close", "tau1", "tau2"),
        ("close", None, "tau2"),
        ("stability", "tau3", "tau1"),
    ],
)
def test_report_echoes_the_variant_that_ran(tmp_path, kind, requested, runs):
    reports = {}
    for name, variant in (("requested", requested), ("runs", runs)):
        cfg = _write(tmp_path, f"{name}.json", _variant_config(kind, variant))
        assert main([kind, "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) in (0, 1)
        reports[name] = json.loads((tmp_path / f"{name}_report.json").read_text())
    assert reports["requested"]["config"]["solver"]["variant"] == runs
    # the echoed variant is the one that ran: the results match a run that names it
    assert reports["requested"]["config"] == reports["runs"]["config"]
    assert reports["requested"]["results"] == reports["runs"]["results"]


@pytest.mark.parametrize("kind", ["shadow", "close", "stability", "sweep"])
def test_only_noisy_orbits_draw_random_numbers(tmp_path, monkeypatch, kind):
    # admissibility rests on closed-form bounds: the one generator a run
    # creates is the noise of its pseudo orbit, and close and stability draw none
    default_rng = np.random.default_rng
    callers = []

    def spy(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append(f"{frame.f_globals['__name__']}.{frame.f_code.co_name}")
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    cfg = _write(tmp_path, "run.json", _variant_config(kind, "tau2" if kind == "close" else "tau1"))
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    drawn = kind in ("shadow", "sweep")
    assert set(callers) == ({"quasishadow.orbits.generate_noisy"} if drawn else set())


def test_stability_rejects_unknown_variant(tmp_path, capsys):
    cfg = _write(tmp_path, "unk.json", _variant_config("stability", "tau9"))
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    assert "unknown variant 'tau9'" in capsys.readouterr().err
