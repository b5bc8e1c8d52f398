"""End-to-end acceptance checks at their declared tolerances.

Each numbered check prints one [PASS]/[FAIL] line (run pytest with -s to
see them all); the assertions carry the same bounds, so the suite fails
exactly where a check fails.
"""

import json

import numpy as np

import quasishadow as qs
from quasishadow.cli import resolve_config, run_close, run_stability
from quasishadow.systems import C, S, U

from oracles import dense_tau1_window, estimate_contraction, fd_jacobian, fixed_point_from
from oracles import periodic_base_point
from oracles import projector, sin_angle, verify_rates

X0 = (0.11, 0.23, 0.5)


def _line(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    return ok


def _noisy(sys, noise=1e-4, n=200, seed=5):
    return qs.generate_noisy(sys, X0, n, noise, seed=seed)


def test_criterion_1_zero_defect_fixed_point():
    oks = []
    for kappa in (0.0, 0.02):
        sys = qs.cat_circle_system(alpha=0.3, kappa=kappa)
        orbit = qs.generate_noisy(sys, X0, 200, 0.0, seed=1)
        res = qs.shadow(sys, orbit)
        v_max = float(np.max(np.linalg.norm(qs.logmap(res.x, res.y), axis=-1)))
        u_max = float(np.max(np.abs(res.corrections)))
        oks.append(
            _line(
                f"1. zero-defect fixed point (kappa={kappa})",
                v_max <= 1e-12 and u_max <= 1e-12,
                f"max|v|={v_max:.2e}, max|u|={u_max:.2e}",
            )
        )
    assert all(oks)


def test_criterion_2_contraction_bounds():
    oks = []
    for kappa in (0.0, 0.02):
        sys = qs.cat_circle_system(alpha=0.3, kappa=kappa)
        orbit = _noisy(sys)
        est = estimate_contraction(sys, orbit, probes=32)
        bound = 1.0 / (1.0 - est.lambda_tilde) + 1e-6
        oks.append(
            _line(
                f"2. contraction bounds (kappa={kappa})",
                est.observed_contraction <= 0.5 and est.p_inv_norm <= bound,
                f"observed={est.observed_contraction:.3g} <= 0.5, "
                f"|P^-1|={est.p_inv_norm:.6f} <= {bound:.6f}",
            )
        )
    assert all(oks)


def test_criterion_3_linear_oracle_equivalence():
    sys = qs.cat_circle_system(alpha=0.3, kappa=0.0)
    oks = []
    for n in (50, 200):
        orbit = _noisy(sys, n=n)
        res = qs.shadow(sys, orbit)
        y_o, v_o, u_o = dense_tau1_window(orbit.points, sys.alpha)
        assert not u_o[:, :2].any()  # the center is vertical: the oracle moves theta alone
        worst = max(
            float(np.max(qs.dist(res.y, y_o))),
            float(np.max(np.abs(qs.logmap(res.x, res.y) - v_o))),
            float(np.max(np.abs(res.corrections - u_o[:, 2]))),
        )
        oks.append(
            _line(
                f"3. dense-oracle equivalence (window {n})",
                worst <= 1e-10,
                f"max deviation {worst:.2e}",
            )
        )
    assert all(oks)


def test_criterion_4_tracing_bounds():
    sys0 = qs.cat_circle_system(alpha=0.3, kappa=0.0)
    orbit0 = _noisy(sys0)
    res0 = qs.shadow(sys0, orbit0)
    est = res0.diagnostics
    derived = 2.0 * est.norm_equivalence_pointwise / (1.0 - est.lambda_tilde)
    ok_const = _line(
        "4. derived tracing constant",
        derived <= 5.0,
        f"2L/(1-lam~) = {derived:.4f} <= 5",
    )
    ok_flat = _line(
        "4. tracing bound (kappa=0)",
        res0.max_trace_dist <= 5.0 * res0.diagnostics.defect,
        f"max dist {res0.max_trace_dist:.3e} <= 5 * {res0.diagnostics.defect:.3e}",
    )
    sys2 = qs.cat_circle_system(alpha=0.3, kappa=0.02)
    orbit2 = _noisy(sys2)
    res2 = qs.shadow(sys2, orbit2)
    ok_skew = _line(
        "4. tracing bound (kappa=0.02)",
        res2.max_trace_dist <= 8.0 * res2.diagnostics.defect,
        f"max dist {res2.max_trace_dist:.3e} <= 8 * {res2.diagnostics.defect:.3e}",
    )
    assert ok_const and ok_flat and ok_skew


def test_criterion_5_normalization_and_uniqueness():
    rng = np.random.default_rng(77)
    oks = []
    for kappa in (0.0, 0.02):
        sys = qs.cat_circle_system(alpha=0.3, kappa=kappa)
        orbit = _noisy(sys)
        res_a = qs.shadow(sys, orbit)
        start = rng.standard_normal((len(orbit), 3))
        start *= 0.01 / np.linalg.norm(start, axis=1).max()
        y_b, u_b, _ = fixed_point_from(sys, orbit, start)
        agree = max(
            float(np.max(qs.dist(res_a.y, y_b))),
            float(np.max(np.abs(res_a.corrections - u_b))),
        )
        oks.append(
            _line(
                f"5. normalization + uniqueness (kappa={kappa})",
                res_a.center_residual <= 1e-10 and agree <= 2e-12,
                f"center {res_a.center_residual:.2e} <= 1e-10, starts agree {agree:.2e} <= 2e-12",
            )
        )
    assert all(oks)


def test_criterion_6_variant_consistency():
    sys = qs.cat_circle_system(alpha=0.3, kappa=0.0)
    orbit = _noisy(sys)
    r1 = qs.shadow(sys, orbit)
    r2 = qs.shadow(sys, orbit, qs.SolverConfig(variant="tau2"))
    r3 = qs.shadow(sys, orbit, qs.SolverConfig(variant="tau3"))
    d12 = float(np.max(qs.dist(r1.y, r2.y)))
    d23 = float(np.max(qs.dist(r2.y, r3.y)))
    closed_form = np.array(
        [
            -qs.logmap(orbit.points[k + 1], sys.forward(orbit.points[k]))[2]
            for k in range(len(orbit) - 1)
        ]
    )
    dtau = float(np.max(np.abs(r3.corrections[1:] - closed_form)))
    ok = _line(
        "6. variant consistency",
        d12 <= 1e-9 and d23 <= 1e-10 and dtau <= 1e-10,
        f"tau1/tau2 {d12:.2e} <= 1e-9, tau2/tau3 {d23:.2e} <= 1e-10, "
        f"flow times vs theta defects {dtau:.2e} <= 1e-10",
    )
    assert ok


def _close_report(mode: str) -> dict:
    config = resolve_config(
        {
            "kind": "close",
            "system": {"alpha": 1.0 / 12.0, "kappa": 0.0},
            "close": {"x0": [0.1, 0.2, 0.3], "max_n": 5000, "threshold": 1e-3, "mode": mode},
            "solver": {"variant": "tau2"},
        }
    )
    return run_close(config)


def test_criterion_7_closing_lemma():
    leaf_rep = _close_report("leaf")
    point_rep = _close_report("point")
    oks = []
    for name, rep in (("leaf", leaf_rep), ("point", point_rep)):
        n = rep["results"]["period"]
        p = np.asarray(rep["results"]["representative"])
        oracle = periodic_base_point((0.1, 0.2), n)
        base_err = float(np.linalg.norm(qs.minimal_rep(p[:2] - oracle)))
        trace = rep["results"]["trace_max"]
        oks.append(
            _line(
                f"7. closing lemma ({name} mode, period {n})",
                base_err <= 1e-6 and trace <= rep["config"]["solver"]["epsilon"],
                f"base vs oracle {base_err:.2e} <= 1e-6, trace {trace:.2e} <= epsilon",
            )
        )
    oks.append(
        _line(
            "7. leaf-mode return no later than point mode",
            leaf_rep["results"]["return_n"] <= point_rep["results"]["return_n"],
            f"{leaf_rep['results']['return_n']} <= {point_rep['results']['return_n']}",
        )
    )
    assert all(oks)


_STABILITY_CACHE: dict = {}


def _stability_report(window: int) -> dict:
    if window not in _STABILITY_CACHE:
        config = resolve_config(
            {
                "kind": "stability",
                "system": {"alpha": 0.3, "kappa": 0.0},
                "stability": {"grid_per_axis": 10, "window": window, "alpha_shift": 1e-3},
                "solver": {
                    "variant": "tau1",
                    "epsilon": 0.05,
                    "rho": 0.1,
                    "admissibility_probes": 4,
                },
            }
        )
        _STABILITY_CACHE[window] = run_stability(config)
    return _STABILITY_CACHE[window]


def test_criterion_8_quasi_stability():
    rep = _stability_report(200)
    disp = rep["results"]["max_displacement"]
    res = rep["results"]["residual_max"]
    ok_disp = _line(
        "8. stability displacement", disp < 0.05, f"max displacement {disp:.2e} < 0.05"
    )
    ok_res = _line(
        "8. stability residual", res <= 1e-6, f"residual {res:.2e} <= 1e-6"
    )
    ok_norm = _line(
        "8. stability h-normalization",
        rep["results"]["center_residual"] <= 1e-10,
        f"center component {rep['results']['center_residual']:.2e} <= 1e-10",
    )
    assert ok_disp and ok_res and ok_norm


_CAT_LAMBDA = (3.0 - 5.0**0.5) / 2.0


def _translation_residual(window: int) -> float:
    # The base-moving perturbation of configs/stability_translation.json.
    config = resolve_config(
        {
            "kind": "stability",
            "system": {"alpha": 0.3, "kappa": 0.0},
            "stability": {
                "grid_per_axis": 6,
                "window": window,
                "translation": [1e-3, 2e-4, 0.0],
            },
            "solver": {"variant": "tau1", "admissibility_probes": 4},
        }
    )
    return run_stability(config)["results"]["residual_max"]


def test_criterion_8_edge_window_ordering():
    # Truncating the window to [-W, W] adds error only at the window edges,
    # and that error decays like lam^W (lam = (3 - sqrt 5)/2).
    # - A fiber rotation (alpha shift) moves points only along the exactly
    #   vertical center direction, so the pseudo-orbit defect is pure center
    #   and the transversal solution is v = 0 at every window: there is no
    #   edge term, and the residual is rounding noise whatever W is.
    # - A base translation moves points transversally, so the edge term is
    #   of order lam^W * |shift|.  It reaches rounding near W = 30, so the
    #   decay is measured at W = 10 and 20, where both residuals are far
    #   above rounding and their ratio must follow lam^10.
    res_10 = _translation_residual(10)
    res_20 = _translation_residual(20)
    floor = 1e3 * np.finfo(float).eps
    ratio = res_20 / res_10
    expected = _CAT_LAMBDA**10
    ok_order = _line(
        "8. residual strictly decreasing in the window",
        floor <= res_20 < res_10,
        f"window 10: {res_10:.3e}, window 20: {res_20:.3e}, both >= {floor:.1e}",
    )
    ok_rate = _line(
        "8. edge residual decays like lam^W",
        0.5 * expected <= ratio <= 2.0 * expected,
        f"ratio {ratio:.4e} within a factor 2 of lam^10 = {expected:.4e}",
    )
    res_rot = _stability_report(200)["results"]["residual_max"]
    ok_rot = _line(
        "8. fiber-rotation residual at rounding level",
        res_rot <= 1e-14,
        f"window 200: {res_rot:.3e} <= 1e-14",
    )
    assert ok_order and ok_rate and ok_rot


def test_criterion_9_geometry_and_splitting_suite():
    rng = np.random.default_rng(2024)
    oks = []

    x = qs.wrap(rng.random((100, 3)))
    v = rng.standard_normal((100, 3))
    v *= (0.4 * rng.random(100) ** (1 / 3) / np.linalg.norm(v, axis=1))[:, None]
    y = qs.expmap(x, v)
    round_trip = float(np.max(np.abs(qs.logmap(x, y) - v)))
    metric = float(np.max(np.abs(qs.dist(x, y) - np.linalg.norm(v, axis=1))))
    oks.append(
        _line(
            "9. exp/log round trip",
            round_trip <= 1e-12 and metric <= 1e-12,
            f"round trip {round_trip:.2e}, metric identity {metric:.2e}",
        )
    )

    for kappa in (0.0, 0.02):
        sys = qs.cat_circle_system(alpha=0.3, kappa=kappa)
        pts = qs.wrap(rng.random((100, 3)))
        split = qs.splitting_at(sys, pts)
        total = sum(projector(split, b) for b in (S, C, U))
        proj_err = float(np.max(np.abs(total - np.eye(3))))
        jac = sys.differential(pts)
        split_fwd = qs.splitting_at(sys, sys.forward(pts))
        inv_err = 0.0
        for b in (S, U):
            pushed = np.einsum("...ij,...j->...i", jac, split.frames[..., :, b])
            inv_err = max(inv_err, float(np.max(sin_angle(pushed, split_fwd.frames[..., :, b]))))
        oks.append(
            _line(
                f"9. projections + invariance (kappa={kappa})",
                proj_err <= 1e-10 and inv_err <= 1e-7,
                f"projection identity {proj_err:.2e} <= 1e-10, invariance {inv_err:.2e} <= 1e-7",
            )
        )

    sys0 = qs.cat_circle_system(alpha=0.3, kappa=0.0)
    rates0 = verify_rates(sys0, qs.wrap(rng.random((100, 3))))
    exact = (
        abs(rates0.lam - 0.3819660112501051) <= 1e-9
        and abs(rates0.mu - 2.618033988749895) <= 1e-9
    )
    oks.append(_line("9. rate factors exact (kappa=0)", exact, f"lam={rates0.lam!r}, mu={rates0.mu!r}"))

    sys2 = qs.cat_circle_system(alpha=0.3, kappa=0.02)
    rates2 = verify_rates(sys2, qs.wrap(rng.random((100, 3))))
    oks.append(
        _line(
            "9. rate ordering (kappa=0.02)",
            rates2.lam < 1.0 < rates2.mu,
            f"lam={rates2.lam:.4f} < 1 < mu={rates2.mu:.4f}",
        )
    )

    pts = qs.wrap(rng.random((100, 3)))
    jac = sys2.differential(pts)
    fd_err = max(
        float(np.abs(jac[i] - fd_jacobian(sys2.forward, pts[i])).max()) for i in range(100)
    )
    oks.append(
        _line("9. differential vs finite differences", fd_err <= 1e-6, f"max entry {fd_err:.2e} <= 1e-6")
    )
    assert all(oks)
