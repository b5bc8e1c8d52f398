import gzip
import json
from pathlib import Path

import pytest

import quasishadow as qs
from quasishadow.cli import main, resolve_config


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


def test_sweep_empty_ranges(tmp_path):
    cfg = _write(tmp_path, "empty.json", _sweep_config())
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "empty_report.json").read_text())
    assert report["results"]["n_children"] == 0
    assert report["passed"] is True


def test_sweep_kappa_records_last_passing(tmp_path):
    cfg = _write(tmp_path, "kap.json", _sweep_config(kappa=[0.0, 0.02, 0.8]))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    report = json.loads((tmp_path / "kap_report.json").read_text())
    assert report["results"]["n_errors"] == 1
    assert report["results"]["last_passing_kappa"] == 0.02
    errors = [r for r in report["results"]["rows"] if "error" in r]
    assert "RateOrderError" in errors[0]["error"]
