import dataclasses
from dataclasses import replace

import numpy as np
import pytest

import quasishadow as qs
from quasishadow.cli import to_json
from quasishadow.errors import AdmissibilityError, ChartError, ConfigError, ConvergenceError
from quasishadow.systems import C, LAM, MU, S, U

from oracles import (
    dense_block_cyclic,
    dense_stable_window,
    dense_tau1_window,
    dense_unstable_window,
)


def _noisy(sys, n=200, noise=1e-4, seed=5):
    return qs.generate_noisy(sys, (0.11, 0.23, 0.5), n, noise, seed=seed)


# -- beta ----------------------------------------------------------------


def test_beta_zero_on_true_orbit(product_sys):
    orbit = qs.true_orbit_window(product_sys, (0.11, 0.23, 0.5), 30)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    out = ops.apply_beta(np.zeros((len(orbit), 3)))
    assert np.array_equal(out, np.zeros((len(orbit), 3)))


def test_beta_zero_matches_defects(product_sys):
    orbit = _noisy(product_sys, n=50)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    beta0 = ops.apply_beta(np.zeros((len(orbit), 3)))
    amb = ops.assemble(beta0)
    norms = np.linalg.norm(amb[1:], axis=-1)
    gaps = qs.dist(product_sys.forward(orbit.points[:-1]), orbit.points[1:])
    assert np.allclose(norms, gaps, atol=1e-15)
    assert np.max(norms) <= orbit.defect + 1e-15


def test_beta_affine_for_product_system(product_sys, rng):
    orbit = _noisy(product_sys, n=40)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    W = len(orbit)
    v = rng.standard_normal((W, 3)) * 5e-3
    v[:, C] = 0.0
    beta_v = ops.apply_beta(v)
    beta_0 = ops.apply_beta(np.zeros((W, 3)))
    # the linear part acts diagonally in the eigenframe
    expected = np.zeros((W, 3))
    expected[1:, S] = LAM * v[:-1, S]
    expected[1:, U] = MU * v[:-1, U]
    assert np.max(np.abs(beta_v - beta_0 - expected)) < 1e-13


def test_beta_rejects_large_transversal(product_sys):
    orbit = _noisy(product_sys, n=10)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    v = np.zeros((len(orbit), 3))
    v[:, U] = 0.2  # above the working radius
    with pytest.raises(ChartError):
        ops.apply_beta(v)


# -- transfer blocks -----------------------------------------------------


def test_transfer_blocks_product(product_sys):
    orbit = _noisy(product_sys, n=50)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    assert np.allclose(ops.alpha, LAM, atol=1e-12)
    assert np.allclose(ops.beta_u, MU, atol=1e-12)
    assert abs(ops.lambda_tilde - LAM) < 1e-12


def test_transfer_annihilates_center(product_sys, rng):
    orbit = _noisy(product_sys, n=20)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    pure_center = np.zeros((len(orbit), 3))
    pure_center[:, C] = rng.standard_normal(len(orbit))
    assert np.array_equal(ops.apply_transfer(pure_center), np.zeros((len(orbit), 3)))


def test_cross_blocks_small_for_tight_pseudo_orbits(skew_sys):
    # off-diagonal entries of the conjugated differential vanish on true
    # orbits and scale with the defect on pseudo orbits
    sums = {}
    for noise in (1e-4, 1e-3):
        orbit = _noisy(skew_sys, n=100, noise=noise)
        ops = qs.OrbitOperators(skew_sys, orbit.points)
        jac = skew_sys.differential(orbit.points[ops.step_src])
        M = ops.frames_inv[ops.step_dst] @ jac @ ops.frames[ops.step_src]
        off = np.abs(M).sum(axis=(1, 2)) - np.abs(np.einsum("kii->ki", M)).sum(axis=1)
        sums[noise] = float(off.max())
    assert sums[1e-4] < 1e-2
    assert sums[1e-4] < sums[1e-3]


# -- P solve -------------------------------------------------------------


def test_solve_p_identity_when_transfer_vanishes(product_sys, rng):
    orbit = _noisy(product_sys, n=15)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    ops.alpha = np.zeros_like(ops.alpha)
    ops.beta_u = np.zeros_like(ops.beta_u)
    rhs = rng.standard_normal((len(orbit), 3))
    out = ops.solve_p(rhs)
    # A = 0: identity on the transversal blocks, sign flip on the center
    assert np.array_equal(out[:, C], -rhs[:, C])
    assert np.array_equal(out[:, S], rhs[:, S])
    assert np.array_equal(out[:, U], rhs[:, U])


def test_solve_p_matches_dense_window(product_sys, rng):
    orbit = _noisy(product_sys, n=50, seed=11)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    rhs = rng.standard_normal((len(orbit), 3)) * 1e-3
    out = ops.solve_p(rhs)
    s_dense = dense_stable_window(ops.alpha, rhs[:, S])
    t_dense = dense_unstable_window(ops.beta_u, rhs[:, U])
    assert np.max(np.abs(out[:, S] - s_dense)) < 1e-12
    assert np.max(np.abs(out[:, U] - t_dense)) < 1e-12
    assert np.array_equal(out[:, C], -rhs[:, C])


def test_solve_p_matches_dense_cyclic(product_sys, rng):
    nr = qs.NearReturn(np.array([0.1, 0.2, 0.3]), 30, 0.0, "point")
    pts = product_sys.orbit(nr.point, 29)
    orbit = qs.PseudoOrbit(pts, cyclic=True)
    orbit.defect, orbit.defect_index = qs.measure_defect(product_sys, orbit)
    ops = qs.OrbitOperators(product_sys, orbit.points, cyclic=True)
    rhs = rng.standard_normal((30, 3)) * 1e-3
    out = ops.solve_p(rhs)
    assert np.max(np.abs(out[:, S] - dense_block_cyclic(ops.alpha, rhs[:, S]))) < 1e-12
    assert np.max(np.abs(out[:, U] - dense_block_cyclic(ops.beta_u, rhs[:, U]))) < 1e-12


def test_solve_p_straddling_multipliers_rejected(product_sys, rng):
    orbit = _noisy(product_sys, n=10)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    ops.beta_u = np.linspace(0.5, 1.5, len(ops.beta_u))
    with pytest.raises(AdmissibilityError):
        ops.solve_p(rng.standard_normal((len(orbit), 3)))


def test_p_inverse_norm_bound(product_sys, skew_sys):
    for sys in (product_sys, skew_sys):
        orbit = _noisy(sys)
        est = qs.estimate_contraction(sys, orbit, probes=32)
        assert est.p_inv_norm <= 1.0 / (1.0 - est.lambda_tilde) + 1e-6


# -- fixed point ---------------------------------------------------------


def test_true_orbit_fixed_point_is_zero(product_sys):
    orbit = qs.true_orbit_window(product_sys, (0.11, 0.23, 0.5), 100)
    res = qs.shadow(product_sys, orbit)
    assert res.diagnostics.iterations == 1
    assert res.max_trace_dist == 0.0
    assert np.array_equal(res.corrections, np.zeros((len(orbit), 3)))
    assert np.array_equal(res.y, orbit.points)


def test_fixed_point_matches_dense_oracle(product_sys):
    orbit = _noisy(product_sys, n=50)
    res = qs.shadow(product_sys, orbit)
    y_o, v_o, u_o = dense_tau1_window(orbit.points, product_sys.alpha)
    assert np.max(qs.dist(res.y, y_o)) < 1e-10
    assert np.max(np.abs(res.trans - v_o)) < 1e-10
    assert np.max(np.abs(res.corrections - u_o)) < 1e-10


def test_tracing_bound_product(product_sys):
    orbit = _noisy(product_sys)
    res = qs.shadow(product_sys, orbit)
    assert res.max_trace_dist <= 5.0 * orbit.defect
    assert res.step_residual <= 10.0 * 1e-12
    assert res.center_residual <= 1e-10


def test_tracing_bound_skew(skew_sys):
    orbit = _noisy(skew_sys)
    res = qs.shadow(skew_sys, orbit)
    assert res.max_trace_dist <= 8.0 * orbit.defect
    assert res.step_residual <= 10.0 * 1e-12


def test_uniqueness_from_two_admissible_starts(product_sys, skew_sys, rng):
    for sys in (product_sys, skew_sys):
        orbit = _noisy(sys, n=60)
        res_a = qs.shadow(sys, orbit)
        w0 = rng.standard_normal((len(orbit), 3))
        w0 *= 0.01 / np.linalg.norm(w0, axis=1).max()
        res_b = qs.shadow(sys, orbit, initial=w0)
        tol = 1e-12
        assert np.max(qs.dist(res_a.y, res_b.y)) <= 2.0 * tol
        assert np.max(np.abs(res_a.corrections - res_b.corrections)) <= 2.0 * tol


def test_monotone_convergence(skew_sys):
    orbit = _noisy(skew_sys)
    res = qs.shadow(skew_sys, orbit)
    deltas = res.delta_history
    assert len(deltas) >= 2
    ratios = deltas[1:] / deltas[:-1]
    assert np.all(ratios <= 0.5)
    assert deltas[-1] < 1e-12


def test_invalid_initial_guess_rejected(product_sys, rng):
    orbit = _noisy(product_sys, n=20)
    big = np.full((len(orbit), 3), 1.0)
    with pytest.raises(ValueError):
        qs.shadow(product_sys, orbit, initial=big)


def test_admissibility_refuses_large_defect(product_sys):
    orbit = _noisy(product_sys, n=50, noise=0.04)
    with pytest.raises(AdmissibilityError):
        qs.shadow(product_sys, orbit, qs.SolverConfig(epsilon=0.04))


def test_max_iterations_exhausted(skew_sys):
    orbit = _noisy(skew_sys, n=50)
    cfg = qs.SolverConfig(max_iterations=1)
    with pytest.raises(ConvergenceError):
        qs.shadow(skew_sys, orbit, cfg)


def test_boundary_policy_mismatch(product_sys):
    orbit = _noisy(product_sys, n=10)
    with pytest.raises(ConfigError):
        qs.shadow(product_sys, orbit, qs.SolverConfig(boundary_policy="cyclic"))


def test_window_edge_decay(product_sys):
    # truncation error enters the window interior at the contraction rate
    big = qs.generate_noisy(product_sys, (0.11, 0.23, 0.5), 40, 1e-3, seed=9)
    centers = {}
    for half in (8, 16, 24):
        sl = qs.PseudoOrbit(big.points[40 - half : 40 + half + 1], k_start=-half)
        sl.defect, sl.defect_index = qs.measure_defect(product_sys, sl)
        centers[half] = qs.shadow(product_sys, sl).y[half]
    d8 = qs.dist(centers[8], centers[24])
    d16 = qs.dist(centers[16], centers[24])
    assert d8 < 1e-5
    assert d16 < 1e-2 * d8


# -- variants ------------------------------------------------------------


def test_transversal_slide_product(product_sys):
    x = qs.wrap((0.3, 0.4, 0.5))
    y = qs.wrap((0.32, 0.38, 0.77))
    slid = qs.transversal_slide(product_sys, x, y)
    assert np.allclose(slid, [0.32, 0.38, 0.5], atol=1e-15)


def test_tau2_lipschitz_measured(product_sys, skew_sys):
    k1_flat = qs.tau2_lipschitz(product_sys, (0.3, 0.4, 0.5))
    assert k1_flat <= 1.0 + 1e-12
    k1_skew = qs.tau2_lipschitz(skew_sys, (0.3, 0.4, 0.5))
    assert k1_skew <= 1.2


def test_tau2_solution_structure(product_sys):
    orbit = _noisy(product_sys)
    res = qs.shadow(product_sys, orbit, qs.SolverConfig(variant="tau2"))
    # on the transversal disk: no center component
    assert res.center_residual <= 1e-10
    # on the fiber of the mapped predecessor: base coordinates agree
    fy = product_sys.forward(res.y[:-1])
    base_gap = qs.leaf_dist(fy, res.y[1:])
    assert np.max(base_gap) <= 10.0 * 1e-12


def test_tau1_tau2_consistency(product_sys, skew_sys):
    for sys in (product_sys, skew_sys):
        orbit = _noisy(sys)
        r1 = qs.shadow(sys, orbit)
        r2 = qs.shadow(sys, orbit, qs.SolverConfig(variant="tau2"))
        assert np.max(qs.dist(r1.y, r2.y)) < 1e-9


def test_tau3_true_orbit_zero_times(product_sys):
    orbit = qs.true_orbit_window(product_sys, (0.11, 0.23, 0.5), 50)
    res = qs.shadow(product_sys, orbit, qs.SolverConfig(variant="tau3"))
    assert np.array_equal(res.corrections, np.zeros(len(orbit)))


def test_tau3_times_match_theta_defects(product_sys):
    orbit = _noisy(product_sys)
    res = qs.shadow(product_sys, orbit, qs.SolverConfig(variant="tau3"))
    closed_form = np.array(
        [
            -qs.logmap(orbit.points[k + 1], product_sys.forward(orbit.points[k]))[2]
            for k in range(len(orbit) - 1)
        ]
    )
    assert np.max(np.abs(res.corrections[1:] - closed_form)) < 1e-10
    assert np.max(np.abs(res.corrections)) <= 1.1 * np.max(np.abs(closed_form))


def test_tau3_matches_tau2(product_sys, skew_sys):
    for sys in (product_sys, skew_sys):
        orbit = _noisy(sys)
        r2 = qs.shadow(sys, orbit, qs.SolverConfig(variant="tau2"))
        r3 = qs.shadow(sys, orbit, qs.SolverConfig(variant="tau3"))
        assert np.max(qs.dist(r2.y, r3.y)) < 1e-10


def test_step_residuals_per_variant(product_sys):
    orbit = _noisy(product_sys)
    for variant in ("tau1", "tau2", "tau3"):
        res = qs.shadow(product_sys, orbit, qs.SolverConfig(variant=variant))
        assert res.step_residual <= 10.0 * 1e-12


def test_leaf_mode_big_rotation_needs_tau2(product_sys):
    # fiber rotation 0.3 over a 6-cycle leaves a 0.2 fiber jump at the seam
    nr = qs.find_near_return(product_sys, (0.1, 0.2, 0.3), 5000, 1e-3, mode="leaf")
    cyc = qs.make_cyclic(product_sys, nr)
    with pytest.raises(AdmissibilityError):
        qs.shadow(product_sys, cyc)
    res = qs.shadow(product_sys, cyc, qs.SolverConfig(variant="tau2"))
    assert res.max_trace_dist <= 1e-10
    assert res.step_residual <= 1e-10


# -- estimates -----------------------------------------------------------


def test_norm_equivalence_product(product_sys, rng):
    orbit = _noisy(product_sys, n=50)
    est = qs.estimate_contraction(product_sys, orbit, probes=64)
    # orthogonal splitting: sqrt(2) pointwise, 2 for the split-supremum norm
    assert est.norm_equivalence_pointwise <= np.sqrt(2.0) + 1e-9
    assert est.norm_equivalence <= 2.0 + 1e-9
    ops = qs.OrbitOperators(product_sys, orbit.points)
    draws = rng.standard_normal((32, len(orbit), 3)) * 1e-3
    assert np.all(ops.norm_sup(draws) <= ops.norm_one(draws) + 1e-15)
    assert np.all(ops.norm_one(draws) <= (2.0 + 1e-9) * ops.norm_sup(draws))


def test_contraction_estimates_bounds(product_sys, skew_sys):
    for sys in (product_sys, skew_sys):
        orbit = _noisy(sys)
        est = qs.estimate_contraction(sys, orbit, probes=32)
        assert est.observed_contraction <= 0.5
        assert est.p_inv_norm <= 1.0 / (1.0 - est.lambda_tilde) + 1e-6
        assert est.sufficient_condition
        assert est.predicted_radius < 0.04


def test_contraction_estimate_reused(product_sys):
    orbit = _noisy(product_sys, n=30)
    est = qs.estimate_contraction(product_sys, orbit, probes=8)
    res = qs.shadow_batch(product_sys, [orbit], est=est)[0]
    assert res.diagnostics.defect == orbit.defect
    ref = qs.shadow(product_sys, orbit)
    assert np.array_equal(res.y, ref.y)


def test_shadow_batch_failures_stay_per_orbit(product_sys):
    # the middle orbit jumps across the torus once; constants that admit any
    # defect let it into the Phi steps, where its chart check fails
    good = [_noisy(product_sys, n=20, seed=s) for s in (1, 2)]
    pts = good[0].points.copy()
    pts[20] = qs.wrap(pts[20] + 0.5)
    bad = qs.PseudoOrbit(pts, k_start=-20)
    bad.defect, bad.defect_index = qs.measure_defect(product_sys, bad)
    est = qs.estimate_contraction(product_sys, good[0], probes=8)
    est = replace(est, norm_equivalence_pointwise=1e-9)
    out = qs.shadow_batch(product_sys, [good[0], bad, good[1]], est=est)
    alone = [qs.shadow_batch(product_sys, [orbit], est=est)[0] for orbit in (good[0], bad, good[1])]
    assert isinstance(out[1], ChartError)
    assert str(out[1]) == str(alone[1])
    for res, ref in ((out[0], alone[0]), (out[2], alone[2])):
        assert to_json(res) == to_json(ref)


def test_shadow_batch_stops_each_orbit_at_its_own_fixed_point(product_sys):
    true = qs.true_orbit_window(product_sys, (0.11, 0.23, 0.5), 20)
    noisy = _noisy(product_sys, n=20)
    cfg = qs.SolverConfig(max_iterations=1)
    out = qs.shadow_batch(product_sys, [true, noisy, true], cfg)
    assert to_json(out[0]) == to_json(qs.shadow(product_sys, true, cfg))
    assert out[0].diagnostics.iterations == 1
    with pytest.raises(ConvergenceError) as exc:
        qs.shadow(product_sys, noisy, cfg)
    assert isinstance(out[1], ConvergenceError) and str(out[1]) == str(exc.value)
    # with room to iterate, every orbit keeps its own iteration count
    out = qs.shadow_batch(product_sys, [true, noisy])
    assert [r.diagnostics.iterations for r in out] == [1, 2]
    assert to_json(out[1]) == to_json(qs.shadow(product_sys, noisy))


def test_result_serialization(tmp_path, product_sys):
    import json

    orbit = _noisy(product_sys, n=10)
    for variant, shape in (("tau1", (len(orbit), 3)), ("tau2", (len(orbit),)), ("tau3", (len(orbit),))):
        res = qs.shadow(product_sys, orbit, qs.SolverConfig(variant=variant))
        payload = to_json(res)
        assert payload["variant"] == variant
        assert np.asarray(payload["corrections"]).shape == shape
        assert len(payload["y"]) == len(orbit)
        assert payload["diagnostics"] == dataclasses.asdict(res.diagnostics)
        json.dumps(payload)  # arrays and diagnostics are json-ready
    res = qs.shadow(product_sys, orbit)
    path = tmp_path / "trace.csv"
    res.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "k,x1,x2,x3,y1,y2,y3,dist,correction_norm"
    assert len(rows) == len(orbit) + 1
    cells = rows[1].split(",")
    assert float(cells[4]) == res.y[0, 0]  # lossless round trip
