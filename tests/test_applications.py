from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasishadow as qs
from quasishadow import applications, solver
from quasishadow.applications import grid_points
from quasishadow.cli import to_json
from quasishadow.errors import QuasiShadowError, SearchError
from quasishadow.systems import LAM

from oracles import dense_tau1_cyclic, dense_tau1_window, periodic_base_point, scan_near_return


# -- periodic center leaves ----------------------------------------------


def test_closing_fixed_fiber():
    sys0 = qs.cat_circle_system(alpha=0.0, kappa=0.0)
    nr = qs.find_near_return(sys0, (0.0, 0.0, 0.3), 10, 0.5, mode="leaf")
    leaf = qs.find_periodic_center_leaf(sys0, nr)
    assert leaf.period == 1
    assert np.array_equal(leaf.point[:2], [0.0, 0.0])
    assert leaf.leaf_residual == 0.0
    assert leaf.trace_max == 0.0


def test_closing_matches_periodic_base_oracle():
    sys0 = qs.cat_circle_system(alpha=1.0 / 12.0, kappa=0.0)
    nr = qs.find_near_return(sys0, (0.1, 0.2, 0.3), 5000, 1e-3, mode="leaf")
    assert nr.n == 6
    leaf = qs.find_periodic_center_leaf(sys0, nr)
    oracle = periodic_base_point((0.1, 0.2), 6)
    assert qs.dist(np.r_[leaf.point[:2], 0.0], np.r_[oracle, 0.0]) < 1e-6
    assert leaf.trace_max <= 0.04
    # the traced cycle stays near every point of the pseudo orbit
    assert np.max(qs.dist(leaf.result.x, leaf.result.y)) <= 0.04


def test_closing_nontrivial_gap_matches_dense_cycle():
    sys0 = qs.cat_circle_system(alpha=0.0, kappa=0.0)
    nr = qs.find_near_return(sys0, (0.13, 0.41, 0.0), 20000, 0.01, mode="leaf")
    oracle_scan = scan_near_return(
        lambda z: np.concatenate(
            [(np.array([[2.0, 1.0], [1.0, 1.0]]) @ z[:2]) % 1.0, z[2:]]
        ),
        (0.13, 0.41, 0.0),
        20000,
        0.01,
        base_only=True,
    )
    assert nr.n == oracle_scan[0] == 30
    assert 1e-6 < nr.gap < 0.01
    leaf = qs.find_periodic_center_leaf(sys0, nr)
    cyc = qs.make_cyclic(sys0, nr)
    y_o, v_o, _ = dense_tau1_cyclic(cyc.points, 0.0)
    assert np.max(qs.dist(leaf.result.y, y_o)) < 1e-10
    base_oracle = periodic_base_point((0.13, 0.41), 30)
    assert np.linalg.norm(qs.minimal_rep(leaf.point[:2] - base_oracle)) < 1e-6
    assert leaf.trace_max <= 0.04


def test_leaf_return_chain_trivial():
    sys0 = qs.cat_circle_system(alpha=0.0, kappa=0.0)
    leaf = qs.find_periodic_center_leaf_from_leaf_return(sys0, (0.0, 0.0, 0.3), 1, 0.01)
    assert leaf.period == 1
    assert np.array_equal(leaf.chain_start, [0.0, 0.0, 0.3])
    assert leaf.leaf_residual == 0.0


def test_leaf_return_chain_rotation():
    # fiber rotation 0.3 closes after ten anchors; the found leaf sits over
    # the fixed base point, so its minimal period divides the chain period
    sys3 = qs.cat_circle_system(alpha=0.3, kappa=0.0)
    leaf = qs.find_periodic_center_leaf_from_leaf_return(sys3, (0.0, 0.0, 0.3), 1, 0.01)
    assert leaf.period == 10
    assert leaf.trace_max <= 0.04
    # brute-force scan of the leaf's base orbit for its minimal period
    z = leaf.point
    minimal = None
    for q in range(1, leaf.period + 1):
        z = sys3.forward(z)
        if qs.leaf_dist(z, leaf.point) < 1e-8:
            minimal = q
            break
    assert minimal == 1
    assert leaf.period % minimal == 0


def test_leaf_return_chain_preserves_fiber():
    sys3 = qs.cat_circle_system(alpha=0.3, kappa=0.0)
    leaf = qs.find_periodic_center_leaf_from_leaf_return(sys3, (0.0, 0.0, 0.3), 1, 0.01)
    # every anchor segment starts on the fiber of x
    pts = leaf.result.x
    anchors = pts[::1][::1]  # period-1 segments: every point is an anchor
    assert np.allclose(anchors[:, :2], 0.0, atol=1e-15)


def test_leaf_return_chain_budget_error():
    # a badly approximable rotation never comes back within delta = 1e-3
    # in thirty anchors (closest approach is about 0.021)
    sys_g = qs.cat_circle_system(alpha=0.3819660112501051, kappa=0.0)
    with pytest.raises(SearchError):
        qs.find_periodic_center_leaf_from_leaf_return(
            sys_g, (0.0, 0.0, 0.3), 1, 1e-3, max_chain=30
        )


@pytest.mark.parametrize("n", [0, -1])
def test_leaf_return_refuses_empty_periods(n):
    sys0 = qs.cat_circle_system(alpha=0.0, kappa=0.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        qs.find_periodic_center_leaf_from_leaf_return(sys0, (0.0, 0.0, 0.3), n, 0.01)


def test_leaf_return_hypothesis_violated():
    sys0 = qs.cat_circle_system(alpha=0.0, kappa=0.0)
    with pytest.raises(SearchError):
        qs.find_periodic_center_leaf_from_leaf_return(sys0, (0.13, 0.41, 0.0), 1, 1e-6)


# -- semiconjugacy -------------------------------------------------------


def _cfg():
    return qs.SolverConfig(variant="tau1")


def test_semiconjugacy_identity_perturbation(product_sys):
    cmap = qs.build_semiconjugacy(product_sys, product_sys, grid_points(3), _cfg(), window=40)
    assert cmap.perturbation_size == 0.0
    assert cmap.max_displacement <= 1e-14
    assert cmap.residual_max <= 2e-12
    assert not cmap.failures


def test_semiconjugacy_alpha_shift(product_sys):
    shifted = qs.cat_circle_system(alpha=0.3 + 1e-3, kappa=0.0)
    cmap = qs.build_semiconjugacy(product_sys, shifted, grid_points(3), _cfg(), window=40)
    assert abs(cmap.perturbation_size - 1e-3) < 1e-12
    # the fiber rotation only displaces along the center direction, which
    # the corrections absorb entirely: h is the identity on the grid
    assert cmap.max_displacement <= 1e-13
    assert cmap.residual_max <= 1e-12
    assert cmap.center_residual <= 1e-10


def test_semiconjugacy_base_shift_matches_dense_oracle(product_sys):
    moved = qs.cat_circle_system(0.3, 0.0, shift=(1e-3, 2e-4, 0.0))
    grid = grid_points(2)
    window = 30
    cmap = qs.build_semiconjugacy(product_sys, moved, grid, _cfg(), window=window)
    assert cmap.max_displacement < 0.04
    assert cmap.residual_max <= 1e-9
    for i, x in enumerate(grid):
        pts = np.empty((2 * window + 1, 3))
        pts[window] = x
        z = x.copy()
        for j in range(window):
            z = moved.forward(z)
            pts[window + 1 + j] = z
        z = x.copy()
        for j in range(window):
            z = moved.inverse(z)
            pts[window - 1 - j] = z
        y_o, _, _ = dense_tau1_window(pts, product_sys.alpha)
        assert qs.dist(cmap.values[i], y_o[window]) < 1e-10


@pytest.mark.parametrize("window", [20, 40])
def test_semiconjugacy_translation_closed_form(product_sys, window):
    # at kappa = 0 a translation s of the map gives h(x) = x + d, A d + s_b = d on the base,
    # and the fiber part of s as the center correction at g(x); windows of half-width W
    # truncate h by lam^W |d|
    s = np.array([1e-3, 2e-4, 3e-4])
    moved = qs.cat_circle_system(0.3, 0.0, shift=s)
    grid = grid_points(3)
    cmap = qs.build_semiconjugacy(product_sys, moved, grid, _cfg(), window=window)
    d = np.array([s[1], s[0] - s[1], 0.0])
    tol = 2.0 * LAM**window * np.linalg.norm(d) + 1e-15
    assert np.max(qs.dist(cmap.values, qs.wrap(grid + d))) <= tol
    assert np.array_equal(cmap.center_at_g[:, :2], np.zeros((len(grid), 2)))
    assert np.max(np.abs(cmap.center_at_g[:, 2] - s[2])) <= 1e-15


def test_semiconjugacy_edge_decay_strictly_monotone(product_sys):
    moved = qs.cat_circle_system(0.3, 0.0, shift=(1e-3, 2e-4, 0.0))
    grid = grid_points(2)
    residuals = {}
    for window in (3, 6, 9):
        cmap = qs.build_semiconjugacy(product_sys, moved, grid, _cfg(), window=window)
        residuals[window] = cmap.residual_max
    assert residuals[3] > residuals[6] > residuals[9]
    assert residuals[6] <= 0.2 * residuals[3]
    assert residuals[9] <= 0.2 * residuals[6]


def test_semiconjugacy_verify_recomputes(product_sys):
    moved = qs.cat_circle_system(0.3, 0.0, shift=(1e-3, 0.0, 0.0))
    grid = grid_points(3)
    cmap = qs.build_semiconjugacy(product_sys, moved, grid, _cfg(), window=30)
    ver = qs.verify_semiconjugacy(cmap, product_sys, moved)
    assert abs(ver["residual_max"] - cmap.residual_max) < 1e-15
    assert ver["pairs_checked"] == len(grid)
    assert ver["density_radius"] <= ver["density_bound"]
    probes = qs.wrap(grid + 1.0 / 6.0)
    ver_off = qs.verify_semiconjugacy(cmap, product_sys, moved, probe_points=probes)
    assert ver_off["density_radius"] <= ver_off["density_bound"]


def test_semiconjugacy_collects_failures(product_sys):
    far = qs.cat_circle_system(0.3, 0.0, shift=(0.2, 0.0, 0.0))
    cmap = qs.build_semiconjugacy(product_sys, far, grid_points(2), _cfg(), window=10)
    assert len(cmap.failures) == 8
    assert all(isinstance(i, int) for i, _ in cmap.failures)
    assert np.isnan(cmap.residual_max)


def _per_window_semiconjugacy(sys_f, sys_g, grid, cfg, window):
    """Reference for build_semiconjugacy: one single-orbit solve per window, grid point by grid point."""
    cfg = replace(cfg, variant="tau1")
    rows = np.empty((2 * window + 2, len(grid), 3))
    rows[window] = grid
    z = grid
    for j in range(window + 1):
        z = sys_g.forward(z)
        rows[window + 1 + j] = z
    z = grid
    for j in range(window):
        z = sys_g.inverse(z)
        rows[window - 1 - j] = z

    def solve(points):
        return qs.shadow(sys_f, qs.PseudoOrbit(points, k_start=-window), cfg)

    out = {key: np.full((len(grid), 3), np.nan) for key in ("values", "values_at_g", "center_at_g")}
    out["residuals"] = np.full(len(grid), np.nan)
    failures = []
    for p in range(len(grid)):
        try:
            res_x = solve(rows[: 2 * window + 1, p])
            res_g = solve(rows[1:, p])
        except QuasiShadowError as exc:
            failures.append((p, f"{type(exc).__name__}: {exc}"))
            continue
        gx = rows[window + 1, p]
        u0 = res_g.corrections[window]
        target = qs.expmap(gx, u0 + qs.logmap(gx, sys_f.forward(res_x.y[window])))
        out["values"][p] = res_x.y[window]
        out["values_at_g"][p] = res_g.y[window]
        out["center_at_g"][p] = u0
        out["residuals"][p] = qs.dist(res_g.y[window], target)
    return out, failures


def _assert_matches_per_window(sys_f, sys_g, grid, window, cfg=None):
    cfg = cfg if cfg is not None else _cfg()
    cmap = qs.build_semiconjugacy(sys_f, sys_g, grid, cfg, window=window)
    ref, failures = _per_window_semiconjugacy(sys_f, sys_g, grid, cfg, window)
    assert cmap.failures == failures
    for key, want in ref.items():
        assert np.array_equal(getattr(cmap, key), want, equal_nan=True), key
    return cmap


def test_semiconjugacy_skew_matches_per_window_loop():
    sys_f = qs.cat_circle_system(0.3, 0.02)
    moved = qs.cat_circle_system(0.3, 0.02, shift=(1e-3, 2e-4, 0.0))
    cmap = _assert_matches_per_window(sys_f, moved, grid_points(2), 30)
    assert not cmap.failures
    assert cmap.residual_max <= 1e-9


def test_semiconjugacy_mixed_failures_match_per_window_loop(product_sys):
    skewed = qs.cat_circle_system(0.3, 0.05)
    cmap = _assert_matches_per_window(product_sys, skewed, grid_points(3), 10)
    assert len(cmap.failures) == 24
    assert all(msg.startswith("AdmissibilityError: ") for _, msg in cmap.failures)
    survivors = np.flatnonzero(~np.isnan(cmap.displacement))
    assert survivors.tolist() == [0, 1, 2]
    assert np.array_equal(cmap.grid[survivors, :2], np.zeros((3, 2)))


def test_semiconjugacy_splitting_tail_bound_is_one_verdict():
    # after 26 terms at kappa = 0.02 the stable tail bound is 1.45e-12 at
    # every point: a tighter tolerance refuses every grid point, a looser
    # one admits them all
    def pair(tol):
        shallow = dict(n_split=26, direction_tol=tol, validate=False)
        sys_f = qs.cat_circle_system(0.3, 0.02, **shallow)
        return sys_f, qs.cat_circle_system(0.3, 0.02, shift=(1e-3, 2e-4, 0.0), **shallow)

    # the refusal comes before any frame is computed
    frames = [
        mock.patch.object(module, "splitting_at", wraps=module.splitting_at)
        for module in (applications, solver)
    ]
    with frames[0] as at_grid, frames[1] as at_windows:
        cmap = _assert_matches_per_window(*pair(1e-15), grid_points(3), 1)
    assert at_grid.call_count == at_windows.call_count == 0
    assert [p for p, _ in cmap.failures] == list(range(27))
    message = (
        "SplittingError: stable direction error bound 1.45e-12 after 26 "
        "slope-series terms exceeds tol 1e-15"
    )
    assert all(msg == message for _, msg in cmap.failures)
    cmap = _assert_matches_per_window(*pair(2e-12), grid_points(3), 1)
    assert not cmap.failures and not np.isnan(cmap.residuals).any()


@settings(max_examples=12, deadline=None)
@given(
    alpha=st.floats(0.0, 1.0, exclude_max=True),
    kappa=st.sampled_from([0.0, 0.02]),
    translation=st.tuples(*[st.floats(-1e-3, 1e-3)] * 3),
    per_axis=st.integers(2, 4),
    window=st.integers(1, 6),
)
def test_semiconjugacy_batches_match_per_window_loop(alpha, kappa, translation, per_axis, window):
    sys_f = qs.cat_circle_system(alpha, kappa)
    sys_g = qs.cat_circle_system(alpha, kappa, shift=translation, validate=False)
    _assert_matches_per_window(sys_f, sys_g, grid_points(per_axis), window)


def test_grid_points_shape():
    g = grid_points(4)
    assert g.shape == (64, 3)
    assert np.all((g >= 0.0) & (g < 1.0))


@pytest.mark.parametrize("per_axis", [0, -2])
def test_grid_points_refuses_empty_grids(per_axis):
    with pytest.raises(ValueError, match="per_axis must be >= 1"):
        grid_points(per_axis)


@pytest.mark.parametrize("window", [0, -3])
def test_semiconjugacy_refuses_empty_windows(product_sys, window):
    with pytest.raises(ValueError, match="window must be >= 1"):
        qs.build_semiconjugacy(product_sys, product_sys, grid_points(2), _cfg(), window=window)


def test_conjugacy_map_serialization(tmp_path, product_sys):
    import json

    moved = qs.cat_circle_system(0.3, 0.0, shift=(1e-3, 0.0, 0.0))
    cmap = qs.build_semiconjugacy(product_sys, moved, grid_points(2), _cfg(), window=20)
    payload = to_json(cmap)
    json.dumps(payload)
    assert len(payload["values"]) == 8
    path = tmp_path / "map.csv"
    cmap.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x1,x2,x3,h1,h2,h3,displacement,residual"
    assert len(rows) == 9


def test_periodic_leaf_serialization():
    import json

    sys0 = qs.cat_circle_system(alpha=0.0, kappa=0.0)
    nr = qs.find_near_return(sys0, (0.0, 0.0, 0.3), 10, 0.5, mode="leaf")
    leaf = qs.find_periodic_center_leaf(sys0, nr)
    payload = to_json(leaf)
    json.dumps(payload)
    assert payload["period"] == 1
    assert payload["chain_start"] is None
    assert payload["result"]["ks"] == leaf.result.ks.tolist()
