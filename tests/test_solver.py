import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasishadow as qs
from quasishadow.cli import to_json
from quasishadow.errors import AdmissibilityError, ChartError, ConvergenceError
from quasishadow.solver import _SCAN_BLOCK, _SCAN_TINY, _affine_scan
from quasishadow.systems import C, LAM, MU, S, U

from oracles import (
    blocked_affine_scan,
    dense_block_cyclic,
    dense_stable_window,
    dense_tau1_window,
    dense_unstable_window,
    eta_lipschitz_fd,
    fixed_point_from,
    matmul_transfer,
    periodic_base_point,
    pointwise_norm_equivalence,
    true_window,
)
from oracles import estimate_contraction, measure_defect, norm_sup, tau2_lipschitz, transversal_slide


def _noisy(sys, n=200, noise=1e-4, seed=5):
    return qs.generate_noisy(sys, (0.11, 0.23, 0.5), n, noise, seed=seed)


def _bounds(ops, defect):
    """The gate of the first orbit of ``ops`` as :class:`ContractionBounds`."""
    row = ops.bound_table(defect)[0]
    return qs.ContractionBounds(*map(float, row[:6]), bool(row[6]))


# -- beta ----------------------------------------------------------------


def test_beta_zero_on_true_orbit(product_sys):
    orbit = true_window(product_sys, (0.11, 0.23, 0.5), 30)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    out = ops.apply_beta(*ops.transversal(np.zeros((len(orbit), 3))))
    assert np.array_equal(out, np.zeros((len(orbit), 3)))


def test_beta_zero_matches_defects(product_sys):
    orbit = _noisy(product_sys, n=50)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    beta0 = ops.apply_beta(*ops.transversal(np.zeros((len(orbit), 3))))
    amb = ops.split.assemble(beta0)
    norms = np.linalg.norm(amb[1:], axis=-1)
    gaps = qs.dist(product_sys.forward(orbit.points[:-1]), orbit.points[1:])
    assert np.allclose(norms, gaps, atol=1e-15)
    assert np.max(norms) <= measure_defect(product_sys, orbit)[0] + 1e-15


def test_beta_affine_for_product_system(product_sys, rng):
    orbit = _noisy(product_sys, n=40)
    ops = qs.OrbitOperators(product_sys, orbit.points)
    W = len(orbit)
    v = rng.standard_normal((W, 3)) * 5e-3
    v[:, C] = 0.0
    beta_v = ops.apply_beta(*ops.transversal(v))
    beta_0 = ops.apply_beta(*ops.transversal(np.zeros((W, 3))))
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
    with pytest.raises(ChartError, match="working ball"):
        ops.apply_beta(*ops.transversal(v))


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
        M = ops.split.frames_inv[ops.step_dst] @ jac @ ops.split.frames[ops.step_src]
        off = np.abs(M).sum(axis=(1, 2)) - np.abs(np.einsum("kii->ki", M)).sum(axis=1)
        sums[noise] = float(off.max())
    assert sums[1e-4] < 1e-2
    assert sums[1e-4] < sums[1e-3]


# -- P solve -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    blocks=st.integers(0, 4),
    tail=st.sampled_from([0, 1, _SCAN_BLOCK - 1]),
    batch=st.sampled_from([None, 1, 3]),
    middle=st.sampled_from([(), (2,)]),
    tiny=st.sampled_from([None, "first", "last", "any"]),
    tiny_value=st.sampled_from([0.0, -0.0, 1e-5, -0.5 * _SCAN_TINY, np.nextafter(_SCAN_TINY, 0.0)]),
    array_init=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_affine_scan_matches_blocked_loop(
    blocks, tail, batch, middle, tiny, tiny_value, array_init, seed
):
    # the block-parallel scan gives the bits of the loop over blocks, for
    # lengths L = 0, 1 and -1 (mod 64), one or B multipliers per step, extra
    # right-hand sides per orbit, and a zero or sub-_SCAN_TINY multiplier in
    # the first, the last or any block; no step of either may warn
    L = blocks * _SCAN_BLOCK + tail
    if L == 0:
        L = _SCAN_BLOCK
    r = np.random.default_rng(seed)
    orbits = () if batch is None else (batch,)
    mult = r.uniform(0.2, 1.5, (L,) + orbits) * r.choice([-1.0, 1.0], (L,) + orbits)
    if tiny is not None:
        j = {"first": 0, "last": L - 1, "any": int(r.integers(L))}[tiny]
        mult[(j,) + tuple(r.integers(n) for n in orbits)] = tiny_value
    rhs = r.standard_normal((L,) + middle + orbits)
    init = r.standard_normal(middle + orbits) if array_init else float(r.standard_normal())
    with np.errstate(all="raise"):
        got = _affine_scan(mult, rhs, init)
        want = blocked_affine_scan(mult, rhs, init)
    assert got.shape == want.shape == rhs.shape
    assert got.tobytes() == want.tobytes()


def test_solve_p_identity_when_transfer_vanishes(product_sys, rng):
    # the exact limits of the two recursions: alpha = 0 leaves the stable
    # block its right-hand side, beta_u = inf leaves nothing on the unstable one
    for cyclic in (False, True):
        if cyclic:
            orbit = _cyclic_noisy(product_sys, (0.11, 0.23, 0.5), 15)
        else:
            orbit = _noisy(product_sys, n=7)
        ops = qs.OrbitOperators(product_sys, orbit.points, cyclic=cyclic)
        ops.alpha = np.zeros_like(ops.alpha)
        ops.beta_u = np.full_like(ops.beta_u, np.inf)
        rhs = rng.standard_normal((len(orbit), 3))
        out = ops.solve_p(rhs)
        assert np.array_equal(out[:, C], -rhs[:, C])
        assert np.array_equal(out[:, S], rhs[:, S])
        assert np.array_equal(out[:, U], np.zeros(len(orbit)))


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
    pts = product_sys.orbit((0.1, 0.2, 0.3), 29)
    orbit = qs.PseudoOrbit(pts, cyclic=True)
    ops = qs.OrbitOperators(product_sys, orbit.points, cyclic=True)
    rhs = rng.standard_normal((30, 3)) * 1e-3
    out = ops.solve_p(rhs)
    assert np.max(np.abs(out[:, S] - dense_block_cyclic(ops.alpha, rhs[:, S]))) < 1e-12
    assert np.max(np.abs(out[:, U] - dense_block_cyclic(ops.beta_u, rhs[:, U]))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    n_orbits=st.sampled_from([1, 3]),
    cyclic=st.booleans(),
    n=st.sampled_from([1, 2, 3, 64, 65, 130]),
    tiny=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_solve_p_matches_dense_blocks(product_sys, n_orbits, cyclic, n, tiny, seed):
    # per orbit against dense LU solves, over signs and sizes of both blocks;
    # tiny stable multipliers run the plain loop of the scan
    if n == 1 and not cyclic:
        n = 2
    rng = np.random.default_rng(seed)
    points = rng.random((n_orbits, n, 3))
    ops = qs.OrbitOperators(product_sys, points, cyclic=cyclic)
    shape = ops.alpha.shape
    sign = lambda: rng.choice([-1.0, 1.0], shape)  # noqa: E731
    low = 1e-5 if tiny else 1e-3
    ops.alpha = sign() * np.exp(rng.uniform(np.log(low), np.log(0.95), shape))
    ops.beta_u = sign() * rng.uniform(1.05, 20.0, shape)
    rhs = rng.standard_normal((n_orbits, n, 3))
    out = ops.solve_p(rhs)
    assert np.array_equal(out[..., C], -rhs[..., C])
    for b in range(n_orbits):
        if cyclic:
            s_dense = dense_block_cyclic(ops.alpha[b], rhs[b, :, S])
            u_dense = dense_block_cyclic(ops.beta_u[b], rhs[b, :, U])
        else:
            s_dense = dense_stable_window(ops.alpha[b], rhs[b, :, S])
            u_dense = dense_unstable_window(ops.beta_u[b], rhs[b, :, U])
        assert np.max(np.abs(out[b, :, S] - s_dense)) < 1e-12
        assert np.max(np.abs(out[b, :, U] - u_dense)) < 1e-12


@pytest.mark.parametrize("kappa", [0.0, 0.02])
def test_one_step_orbits_keep_their_block_multipliers(kappa):
    # a 2-point window or 1-point cycle has one step; its multipliers must not
    # alias the transfer matrix that the constructor zeroes afterwards
    sys = qs.cat_circle_system(alpha=0.3, kappa=kappa)
    pts = qs.generate_noisy(sys, (0.11, 0.23, 0.5), 1, 1e-4, seed=5).points[1:]
    for cyclic, p in ((False, pts), (True, pts[:1])):
        ref = qs.OrbitOperators(sys, np.stack([p, p]), cyclic=cyclic)
        assert abs(ref.alpha[0, 0] - LAM) < 1e-2 and abs(ref.beta_u[0, 0] - MU) < 1e-2
        for points in (p, p[None]):
            ops = qs.OrbitOperators(sys, points, cyclic=cyclic)
            assert np.array_equal(ops.alpha.reshape(-1), ref.alpha[0])
            assert np.array_equal(ops.beta_u.reshape(-1), ref.beta_u[0])


@pytest.mark.parametrize("kappa", [0.02, 0.3])
@pytest.mark.parametrize("cyclic", [False, True])
def test_slope_transfer_matches_stacked_products(kappa, cyclic):
    # per-point multipliers and bounds read from the slopes equal those of the
    # stacked products frames_inv @ Df @ frames to rounding, alone and batched
    sys = qs.cat_circle_system(alpha=0.3, kappa=kappa)
    x0 = (0.11, 0.23, 0.5)
    orbits = [
        _cyclic_noisy(sys, x0, n) if cyclic else qs.generate_noisy(sys, x0, n, 1e-4, seed=n)
        for n in (1, 9, 30)
    ]
    batch = np.stack([qs.generate_noisy(sys, x0, 30, 1e-4, seed=s).points for s in range(3)])
    for points in [o.points for o in orbits] + [batch]:
        if not cyclic and len(points) < 2:
            continue
        ops = qs.OrbitOperators(sys, points, cyclic)
        alpha, beta_u, off_block, norm_equivalence = matmul_transfer(ops)
        assert np.allclose(ops.alpha, alpha, rtol=1e-15, atol=0.0)
        assert np.allclose(ops.beta_u, beta_u, rtol=1e-15, atol=0.0)
        assert np.allclose(ops.off_block, off_block, rtol=1e-14, atol=1e-15)
        assert np.array_equal(ops.norm_equivalence, norm_equivalence)


def test_one_step_window_solves_alone_as_batched(product_sys):
    pts = qs.generate_noisy(product_sys, (0.11, 0.23, 0.5), 1, 1e-4, seed=5).points[1:]
    orbit = qs.PseudoOrbit(pts)
    alone = qs.shadow(product_sys, orbit)
    batched = qs.shadow_batch(product_sys, [orbit, orbit])
    for res in batched:
        assert to_json(res) == to_json(alone)


def test_period_one_cycle_solves_alone_as_batched():
    sys = qs.cat_circle_system(0.001)
    nr = qs.find_near_return(sys, (0.004, 0.002, 0.3), 10, 0.02, "point")
    assert nr.n == 1 and 7e-3 < nr.gap < 7.5e-3
    cycle = nr.cycle
    alone = qs.shadow(sys, cycle)
    batched = qs.shadow_batch(sys, [cycle, cycle])
    for res in batched:
        assert to_json(res) == to_json(alone)
    # the fixed fiber of the base map
    assert np.max(qs.dist(alone.y, np.array([[0.0, 0.0, 0.3]]))) < 1e-15
    assert alone.diagnostics.iterations == 2


def test_gate_refuses_non_hyperbolic_orbit_before_phi():
    # kappa = 0.6 is past the rate bound: lambda_tilde >= 1 on this orbit
    sys = qs.cat_circle_system(0.3, 0.6, validate=False)
    orbit = _noisy(sys)
    calls = []
    phi = qs.OrbitOperators.phi

    def spy(ops, w):
        calls.append(w.shape)
        return phi(ops, w)

    with mock.patch.object(qs.OrbitOperators, "phi", spy):
        with pytest.raises(AdmissibilityError, match="stable/unstable block norm"):
            qs.shadow(sys, orbit)
    assert calls == []


# -- fixed point ---------------------------------------------------------


def test_true_orbit_fixed_point_is_zero(product_sys):
    orbit = true_window(product_sys, (0.11, 0.23, 0.5), 100)
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
    assert np.max(np.abs(qs.logmap(res.x, res.y) - v_o)) < 1e-10
    assert np.max(np.abs(res.corrections - u_o)) < 1e-10


def test_tracing_bound_product(product_sys):
    orbit = _noisy(product_sys)
    res = qs.shadow(product_sys, orbit)
    assert res.max_trace_dist <= 5.0 * res.diagnostics.defect
    assert res.step_residual <= 10.0 * 1e-12
    assert res.center_residual <= 1e-10


def test_tracing_bound_skew(skew_sys):
    orbit = _noisy(skew_sys)
    res = qs.shadow(skew_sys, orbit)
    assert res.max_trace_dist <= 8.0 * res.diagnostics.defect
    assert res.step_residual <= 10.0 * 1e-12


def test_uniqueness_from_two_admissible_starts(product_sys, skew_sys, rng):
    for sys in (product_sys, skew_sys):
        orbit = _noisy(sys, n=60)
        res_a = qs.shadow(sys, orbit)
        w0 = rng.standard_normal((len(orbit), 3))
        w0 *= 0.01 / np.linalg.norm(w0, axis=1).max()
        y_b, u_b, _ = fixed_point_from(sys, orbit, w0)
        tol = 1e-12
        assert np.max(qs.dist(res_a.y, y_b)) <= 2.0 * tol
        assert np.max(np.abs(res_a.corrections - u_b)) <= 2.0 * tol


def test_monotone_convergence(skew_sys):
    orbit = _noisy(skew_sys)
    res = qs.shadow(skew_sys, orbit)
    deltas = res.delta_history
    assert len(deltas) >= 2
    ratios = deltas[1:] / deltas[:-1]
    assert np.all(ratios <= 0.5)
    assert deltas[-1] < 1e-12


def test_admissibility_refuses_large_defect(product_sys):
    orbit = _noisy(product_sys, n=50, noise=0.04)
    with pytest.raises(AdmissibilityError):
        qs.shadow(product_sys, orbit, qs.SolverConfig(epsilon=0.04))


def test_max_iterations_exhausted(skew_sys):
    orbit = _noisy(skew_sys, n=50)
    cfg = qs.SolverConfig(max_iterations=1)
    with pytest.raises(ConvergenceError):
        qs.shadow(skew_sys, orbit, cfg)


def test_window_edge_decay(product_sys):
    # truncation error enters the window interior at the contraction rate
    big = qs.generate_noisy(product_sys, (0.11, 0.23, 0.5), 40, 1e-3, seed=9)
    centers = {}
    for half in (8, 16, 24):
        sl = qs.PseudoOrbit(big.points[40 - half : 40 + half + 1], k_start=-half)
        centers[half] = qs.shadow(product_sys, sl).y[half]
    d8 = qs.dist(centers[8], centers[24])
    d16 = qs.dist(centers[16], centers[24])
    assert d8 < 1e-5
    assert d16 < 1e-2 * d8


# -- variants ------------------------------------------------------------


def test_transversal_slide_product(product_sys):
    x = qs.wrap((0.3, 0.4, 0.5))
    y = qs.wrap((0.32, 0.38, 0.77))
    slid = transversal_slide(product_sys, x, y)
    assert np.allclose(slid, [0.32, 0.38, 0.5], atol=1e-15)


def test_tau2_lipschitz_measured(product_sys, skew_sys):
    k1_flat = tau2_lipschitz(product_sys, (0.3, 0.4, 0.5))
    assert k1_flat <= 1.0 + 1e-12
    k1_skew = tau2_lipschitz(skew_sys, (0.3, 0.4, 0.5))
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
    orbit = true_window(product_sys, (0.11, 0.23, 0.5), 50)
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
    cyc = nr.cycle
    with pytest.raises(AdmissibilityError):
        qs.shadow(product_sys, cyc)
    res = qs.shadow(product_sys, cyc, qs.SolverConfig(variant="tau2"))
    assert res.max_trace_dist <= 1e-10
    assert res.step_residual <= 1e-10


def _per_point_zero_slopes(sys, x):
    """Per-point frames of zero slope, the kappa = 0 splitting on the kappa != 0 code path."""
    return qs.Splitting.from_slopes(np.zeros(np.shape(x)[:-1] + (2,)))


def test_numerical_splitting_at_zero_kappa_shadows_like_analytic(product_sys):
    # per-point frames take the kappa != 0 path through operators, gate and
    # extraction; at kappa = 0 it must trace like the one constant frame
    def close(a, b):
        assert np.max(qs.dist(a.y, b.y)) <= 1e-15
        assert np.max(np.abs(qs.logmap(a.x, a.y) - qs.logmap(b.x, b.y))) <= 1e-15
        assert np.max(np.abs(a.corrections - b.corrections)) <= 1e-15

    def per_point(orbit, cfg):
        split = _per_point_zero_slopes(product_sys, orbit.points[None])
        assert not split.constant
        return qs.shadow_batch(product_sys, [orbit], cfg, split=split)[0]

    orbit = _noisy(product_sys)
    for variant in ("tau1", "tau3"):
        cfg = qs.SolverConfig(variant=variant)
        close(per_point(orbit, cfg), qs.shadow(product_sys, orbit, cfg))
    nr = qs.find_near_return(product_sys, (0.1, 0.2, 0.3), 5000, 1e-3, mode="leaf")
    cyc = nr.cycle
    cfg = qs.SolverConfig(variant="tau2")
    close(per_point(cyc, cfg), qs.shadow(product_sys, cyc, cfg))

    shifted = qs.cat_circle_system(0.3, 0.0, shift=(1e-4, -2e-4, 0.0))
    cfg = qs.SolverConfig(variant="tau1")
    grid = qs.grid_points(3)
    with mock.patch.object(qs.applications, "splitting_at", _per_point_zero_slopes):
        num = qs.build_semiconjugacy(product_sys, shifted, grid, cfg, window=30)
    ref = qs.build_semiconjugacy(product_sys, shifted, grid, cfg, window=30)
    assert not num.failures and not ref.failures
    assert np.max(qs.dist(num.values, ref.values)) <= 1e-15
    assert np.max(qs.dist(num.values_at_g, ref.values_at_g)) <= 1e-15
    assert np.max(np.abs(num.center_at_g - ref.center_at_g)) <= 1e-15
    assert np.max(np.abs(num.residuals - ref.residuals)) <= 1e-15


# -- estimates -----------------------------------------------------------


def _cyclic_noisy(sys, x0, n):
    """Period-n cyclic pseudo orbit on an exactly periodic base orbit.

    The fiber gap g at the seam is spread evenly, so every step misses
    by g / n along the fiber.
    """
    pts = sys.orbit([*periodic_base_point(x0[:2], n), x0[2]], n)
    gap = qs.minimal_rep(pts[n, 2] - pts[0, 2])
    pts = pts[:n].copy()
    pts[:, 2] = qs.wrap(pts[:, 2] - gap * np.arange(n) / n)
    return qs.PseudoOrbit(pts, cyclic=True)


@settings(max_examples=24, deadline=None)
@given(
    kappa=st.floats(0.0, 0.05),
    variant=st.sampled_from(["tau1", "tau2", "tau3"]),
    cyclic=st.booleans(),
    n=st.integers(8, 30),
    seed=st.integers(0, 1000),
)
def test_bounds_dominate_oracles_and_probes(kappa, variant, cyclic, n, seed):
    sys = qs.cat_circle_system(0.3, kappa)
    x0 = np.random.default_rng(seed).random(3)
    orbit = _cyclic_noisy(sys, x0, n) if cyclic else qs.generate_noisy(sys, x0, n, 1e-4, seed)
    cfg = qs.SolverConfig(variant=variant)
    ops = qs.OrbitOperators(sys, orbit.points, orbit.cyclic, cfg)
    bound = _bounds(ops, measure_defect(sys, orbit)[0])
    probed = estimate_contraction(sys, orbit, cfg, probes=64)
    # the pointwise constant is exact up to rounding; eta is affine at kappa = 0,
    # where the probes and differences read rounding only
    l_pt = bound.norm_equivalence_pointwise * (1.0 + 1e-12)
    assert pointwise_norm_equivalence(ops.split.frames) <= l_pt
    assert probed.norm_equivalence_pointwise <= l_pt
    assert eta_lipschitz_fd(ops, seed) <= bound.eta_lipschitz + 1e-12
    assert probed.eta_lipschitz <= bound.eta_lipschitz + 1e-12
    assert probed.observed_contraction <= bound.contraction + 1e-12
    assert bound.lambda_tilde == probed.lambda_tilde


@pytest.mark.parametrize("variant", ["tau1", "tau2", "tau3"])
def test_predicted_radius_bound_is_tight(skew_sys, variant):
    orbit = _noisy(skew_sys)
    cfg = qs.SolverConfig(variant=variant)
    res = qs.shadow(skew_sys, orbit, cfg)
    bound = res.diagnostics
    defect = measure_defect(skew_sys, orbit)[0]
    assert dataclasses.replace(bound, iterations=0, final_residual=0.0) == dataclasses.replace(
        _bounds(qs.OrbitOperators(skew_sys, orbit.points, cfg=cfg), defect), final_residual=0.0
    )
    est = estimate_contraction(skew_sys, orbit, cfg, probes=64)
    probed = est.norm_equivalence_pointwise * defect / (
        (1.0 - est.lambda_tilde) * (1.0 - est.observed_contraction)
    )
    assert probed <= bound.predicted_radius <= 1.5 * probed
    assert res.max_trace_dist <= bound.predicted_radius


def test_norm_equivalence_product(product_sys, rng):
    orbit = _noisy(product_sys, n=50)
    est = estimate_contraction(product_sys, orbit, probes=64)
    # orthogonal splitting: sqrt(2) pointwise, 2 for the split-supremum norm
    assert est.norm_equivalence_pointwise <= np.sqrt(2.0) + 1e-9
    assert est.norm_equivalence <= 2.0 + 1e-9
    ops = qs.OrbitOperators(product_sys, orbit.points)
    draws = rng.standard_normal((32, len(orbit), 3)) * 1e-3
    assert np.all(norm_sup(ops, draws) <= ops.norm_one(draws) + 1e-15)
    assert np.all(ops.norm_one(draws) <= (2.0 + 1e-9) * norm_sup(ops, draws))


def test_contraction_estimates_bounds(product_sys, skew_sys):
    for sys in (product_sys, skew_sys):
        orbit = _noisy(sys)
        est = estimate_contraction(sys, orbit, probes=32)
        assert est.observed_contraction <= 0.5
        assert est.p_inv_norm <= 1.0 / (1.0 - est.lambda_tilde) + 1e-6
        gate = qs.shadow(sys, orbit).diagnostics
        assert gate.contraction <= 0.5
        assert gate.sufficient_condition
        assert gate.predicted_radius < 0.04


def test_shadow_batch_failures_stay_per_orbit(product_sys):
    # the middle orbit passes the gate and then fails in the first Phi step
    orbits = [_noisy(product_sys, n=20, seed=s) for s in (1, 2, 3)]
    bad = orbits[1].points
    beta_at_zero = qs.OrbitOperators.beta_at_zero

    def failing(ops, d, gaps):
        if any(np.array_equal(pts, bad) for pts in ops.points):
            raise ChartError("beta left the chart")
        return beta_at_zero(ops, d, gaps)

    with mock.patch.object(qs.OrbitOperators, "beta_at_zero", failing):
        out = qs.shadow_batch(product_sys, orbits)
        alone = [qs.shadow_batch(product_sys, [orbit])[0] for orbit in orbits]
    assert isinstance(out[1], ChartError)
    assert str(out[1]) == str(alone[1])
    for res, ref in ((out[0], alone[0]), (out[2], alone[2])):
        assert to_json(res) == to_json(ref)


@pytest.mark.parametrize("variant", ["tau1", "tau2", "tau3"])
def test_shadow_batch_results_own_their_arrays(product_sys, variant):
    # a result kept alone must not keep the (2, 41, 3) arrays of its batch alive
    orbits = [_noisy(product_sys, n=20, seed=s) for s in (1, 2)]
    out = qs.shadow_batch(product_sys, orbits, qs.SolverConfig(variant=variant))
    for res in out:
        arrays = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
        arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
        assert {"y", "corrections", "x", "ks", "delta_history"} <= set(arrays)
        assert {name: a.base for name, a in arrays.items()} == dict.fromkeys(arrays)


def test_shadow_batch_stops_each_orbit_at_its_own_fixed_point(product_sys):
    true = true_window(product_sys, (0.11, 0.23, 0.5), 20)
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


def test_shadow_batch_failures_at_every_stage_match_solves_alone(skew_sys):
    # each orbit fails at a different stage, or converges after its own number
    # of steps; every entry must be what the orbit gets when solved alone
    x0 = (0.11, 0.23, 0.5)
    orbits = [
        qs.generate_noisy(skew_sys, x0, 20, 3e-2, seed=1),  # refused by the gate
        qs.generate_noisy(skew_sys, x0, 20, 1e-6, seed=3),  # fails in the first Phi step
        true_window(skew_sys, x0, 20),  # converges in one step
        qs.generate_noisy(skew_sys, x0, 20, 1e-6, seed=4),  # fails in _extract
        qs.generate_noisy(skew_sys, x0, 20, 1e-4, seed=1),  # needs three steps
        qs.generate_noisy(skew_sys, x0, 20, 1e-6, seed=2),  # converges in two steps
        qs.generate_noisy(skew_sys, x0, 20, 1e-6, seed=5),  # the same, in one batch with it
    ]
    beta_at_zero, extract = qs.OrbitOperators.beta_at_zero, qs.solver._extract

    def holds(ops, orbit):
        return any(np.array_equal(pts, orbit.points) for pts in ops.points)

    def failing_beta(ops, d, gaps):
        if holds(ops, orbits[1]):
            raise ChartError("beta left the chart")
        return beta_at_zero(ops, d, gaps)

    def failing_extract(ops, w, v_amb):
        if holds(ops, orbits[3]):
            raise ChartError("extraction left the chart")
        return extract(ops, w, v_amb)

    cfg = qs.SolverConfig(max_iterations=2)
    with (
        mock.patch.object(qs.OrbitOperators, "beta_at_zero", failing_beta),
        mock.patch.object(qs.solver, "_extract", failing_extract),
        _solo_spy() as spy,
    ):
        out = qs.shadow_batch(skew_sys, orbits, cfg)
        resolved = _resolved(spy, orbits)
        alone = [qs.shadow_batch(skew_sys, [orbit], cfg)[0] for orbit in orbits]
    # the first Phi step raises, while every orbit the gate passed is unfinished
    assert resolved == [1, 2, 3, 4, 5, 6]
    kinds = [AdmissibilityError, ChartError, qs.ShadowResult, ChartError, ConvergenceError]
    assert [type(res) for res in out] == kinds + [qs.ShadowResult] * 2
    assert "no fixed point within 2 iterations" in str(out[4])
    assert [out[b].diagnostics.iterations for b in (2, 5, 6)] == [1, 2, 2]
    for res, ref in zip(out, alone):
        assert type(res) is type(ref)
        if isinstance(res, qs.ShadowResult):
            assert to_json(res) == to_json(ref)
        else:
            assert str(res) == str(ref)


def _solo_spy():
    """A spy on the solver's own calls of shadow_batch: the solves of single orbits after a raise."""
    return mock.patch.object(qs.solver, "shadow_batch", wraps=qs.solver.shadow_batch)


def _resolved(spy, orbits):
    """The positions in ``orbits`` of the orbits that ``spy`` saw solved alone, in call order."""
    assert all(len(call.args[1]) == 1 for call in spy.call_args_list)
    return [[o is call.args[1][0] for o in orbits].index(True) for call in spy.call_args_list]


def test_shadow_batch_raise_resolves_only_the_unfinished_orbits(skew_sys):
    # the extraction raises in the second step, after the gate refused orbit 0
    # and orbit 1 converged: those entries stay, and orbits 2-5 run again alone
    x0 = (0.11, 0.23, 0.5)
    orbits = [
        qs.generate_noisy(skew_sys, x0, 20, 3e-2, seed=1),  # refused by the gate
        true_window(skew_sys, x0, 20),  # converges in one step
        qs.generate_noisy(skew_sys, x0, 20, 1e-6, seed=4),  # fails in _extract in step two
        qs.generate_noisy(skew_sys, x0, 20, 1e-4, seed=1),  # converges in three steps
        qs.generate_noisy(skew_sys, x0, 20, 1e-6, seed=2),  # converges in two steps
        qs.generate_noisy(skew_sys, x0, 20, 1e-6, seed=3),  # the same
    ]
    extract = qs.solver._extract

    def failing_extract(ops, w, v_amb):
        if any(np.array_equal(pts, orbits[2].points) for pts in ops.points):
            raise ChartError("extraction left the chart")
        return extract(ops, w, v_amb)

    with mock.patch.object(qs.solver, "_extract", failing_extract), _solo_spy() as spy:
        out = qs.shadow_batch(skew_sys, orbits)
        resolved = _resolved(spy, orbits)
        alone = [qs.shadow_batch(skew_sys, [orbit])[0] for orbit in orbits]
    assert resolved == [2, 3, 4, 5]
    kinds = [AdmissibilityError, qs.ShadowResult, ChartError] + [qs.ShadowResult] * 3
    assert [type(res) for res in out] == kinds
    assert [out[b].diagnostics.iterations for b in (1, 3, 4, 5)] == [1, 3, 2, 2]
    for res, ref in zip(out, alone):
        assert type(res) is type(ref)
        if isinstance(res, qs.ShadowResult):
            assert to_json(res) == to_json(ref)
        else:
            assert str(res) == str(ref)


def test_one_orbit_batch_returns_its_error_without_a_second_solve(product_sys):
    orbit = _noisy(product_sys, n=20)

    def failing(ops, d, gaps):
        raise ChartError("beta left the chart")

    with mock.patch.object(qs.OrbitOperators, "beta_at_zero", failing), _solo_spy() as spy:
        out = qs.shadow_batch(product_sys, [orbit])
    assert spy.call_count == 0
    assert len(out) == 1 and isinstance(out[0], ChartError)
    assert str(out[0]) == "beta left the chart"


def _phi_loop_cycle(sys, x0, n, noise, seed, leaf):
    """A period-n cycle on an exact periodic base orbit with ``noise`` on every point.

    In leaf mode the fiber gap at the seam stays; else it is spread over the steps.
    """
    pts = sys.orbit([*periodic_base_point(x0[:2], n), x0[2]], n)
    gap = 0.0 if leaf else qs.minimal_rep(pts[n, 2] - pts[0, 2])
    pts = pts[:n].copy()
    pts[:, 2] -= gap * np.arange(n) / n
    pts = qs.wrap(pts + noise * np.random.default_rng(seed).standard_normal(pts.shape))
    return qs.PseudoOrbit(pts, cyclic=True, leaf_mode=leaf)


@settings(max_examples=80, deadline=None)
@given(
    kappa=st.sampled_from([0.0, 0.02]),
    case=st.sampled_from(
        [("window", v) for v in qs.solver.VARIANTS] + [("cycle", v) for v in qs.solver.VARIANTS] + [("leaf", "tau2")]
    ),
    noises=st.lists(st.sampled_from([0.0, 1e-9, 1e-6, 1e-4, 2e-3, 1e-2]), min_size=1, max_size=4),
    max_iterations=st.integers(1, 4),
    lift=st.sampled_from([(0.0, 0.0, 0.0), (1.0, -2.0, 3.0), (-7.0, 4.0, -1.0)]),
    seed=st.integers(0, 2**16),
)
def test_shadow_batch_matches_a_phi_loop_from_zero(kappa, case, noises, max_iterations, lift, seed):
    # the batch solve reuses the defect measurement in its first step and the
    # transversal parts of every iterate; a loop of ops.phi(ops.eta(w)) and
    # ops.norm_one on each orbit alone, from w = 0, must give the same bits.
    # The first orbit is lifted by whole integers, off the unit cube.
    kind, variant = case
    sys = qs.cat_circle_system(0.3, kappa)
    cfg = qs.SolverConfig(variant=variant, max_iterations=max_iterations)
    orbits = []
    for i, noise in enumerate(noises):
        x0 = np.random.default_rng([seed, i]).random(3)
        if kind == "window":
            orbit = qs.generate_noisy(sys, x0, 12, noise, seed=seed + i)
        else:
            orbit = _phi_loop_cycle(sys, x0, 10, noise, seed + i, kind == "leaf")
        orbits.append(orbit)
    orbits[0] = dataclasses.replace(orbits[0], points=orbits[0].points + lift)
    out = qs.shadow_batch(sys, orbits, cfg)
    for orbit, res in zip(orbits, out):
        start = np.zeros((len(orbit), 3))
        if isinstance(res, qs.ShadowResult):
            y, corrections, deltas = fixed_point_from(sys, orbit, start, cfg, max_iterations)
            assert _same_bits(res.y, y)
            assert _same_bits(res.corrections, corrections)
            assert _same_bits(res.delta_history, deltas)
            assert res.diagnostics.iterations == len(deltas)
        elif isinstance(res, ConvergenceError):
            assert "no fixed point" in str(res)
            with pytest.raises(AssertionError, match="no fixed point"):
                fixed_point_from(sys, orbit, start, cfg, max_iterations)
        else:  # the gate refuses before any Phi step
            assert isinstance(res, AdmissibilityError)


def _same_bits(a, b) -> bool:
    """Arrays with the same shape, dtype and bits; splittings by their frames; else equality."""
    if isinstance(a, qs.Splitting):
        frames = _same_bits(a.frames, b.frames) and _same_bits(a.frames_inv, b.frames_inv)
        return isinstance(b, qs.Splitting) and a.constant == b.constant and frames
    if isinstance(a, np.ndarray):
        b = np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a is b or a == b


@pytest.mark.parametrize("kappa", [0.0, 0.02])
@pytest.mark.parametrize("cyclic", [False, True], ids=["window", "cycle"])
def test_take_matches_operators_built_on_the_subset(kappa, cyclic):
    sys = qs.cat_circle_system(0.3, kappa)
    x0 = (0.11, 0.23, 0.5)
    points = np.stack([qs.generate_noisy(sys, x0, 12, 1e-4, seed=s).points for s in range(4)])
    ops = qs.OrbitOperators(sys, points, cyclic)
    defect = np.array([1e-4, 2e-4, 3e-3, 4e-4])
    for idx in ([2, 0], np.array([True, False, False, True])):
        sub = ops.take(idx)
        fresh = qs.OrbitOperators(sys, points[idx], cyclic)
        assert vars(sub).keys() == vars(fresh).keys()
        for name, want in vars(fresh).items():
            assert _same_bits(getattr(sub, name), want), name
        assert _same_bits(sub.bound_table(defect[idx]), fresh.bound_table(defect[idx]))


def test_shadow_batch_refusals_before_phi_match_solves_alone(product_sys):
    # one cycle of each refusal before the Phi loop, and one that solves: rotation
    # 0.3 closes after ten steps, so the periodic base orbit carries an exact cycle
    cfg = qs.SolverConfig(variant="tau1")
    solves = _cyclic_noisy(product_sys, (0.1, 0.2, 0.3), 10)
    drift = solves.points.copy()
    drift[:, 2] = qs.wrap(drift[:, 2] + 0.01 * np.arange(10))  # wrap gap 0.09 > rho
    nan = solves.points.copy()
    nan[4, 0] = np.nan
    cycles = [
        qs.PseudoOrbit(nan, cyclic=True),
        qs.PseudoOrbit(drift, cyclic=True, leaf_mode=True),
        qs.PseudoOrbit(drift, cyclic=True),  # the same steps read pointwise: the gate refuses
        solves,
    ]
    out = qs.shadow_batch(product_sys, cycles, cfg)
    alone = [qs.shadow_batch(product_sys, [cycle], cfg)[0] for cycle in cycles]
    kinds = [ChartError, AdmissibilityError, AdmissibilityError, qs.ShadowResult]
    assert [type(res) for res in out] == kinds
    assert "wrap gap" in str(out[1]) and "tracing radius" in str(out[2])
    for res, ref in zip(out, alone):
        assert type(res) is type(ref)
        if isinstance(res, qs.ShadowResult):
            assert to_json(res) == to_json(ref)
        else:
            assert str(res) == str(ref)


def test_shadow_batch_history_does_not_depend_on_max_iterations(skew_sys):
    orbits = [_noisy(skew_sys, n=20, seed=s) for s in (1, 2)]
    default = qs.shadow_batch(skew_sys, orbits)
    roomy = qs.shadow_batch(skew_sys, orbits, qs.SolverConfig(max_iterations=10**9))
    for res, ref in zip(roomy, default):
        assert to_json(res) == to_json(ref)
        assert len(res.delta_history) == res.diagnostics.iterations == 3


def test_shadow_batch_refuses_mixed_boundary_types(product_sys):
    cyc = _cyclic_noisy(product_sys, (0.11, 0.23, 0.5), 30)
    window = qs.PseudoOrbit(cyc.points)
    for orbits in ([window, cyc], [cyc, window]):
        with pytest.raises(ValueError, match="one boundary type"):
            qs.shadow_batch(product_sys, orbits)


def test_shadow_batch_of_no_orbits(product_sys):
    assert qs.shadow_batch(product_sys, []) == []


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


# -- the measured defect -------------------------------------------------


@pytest.mark.parametrize("kappa", [0.0, 0.02])
def test_non_finite_orbit_fails_alone(kappa):
    sys = qs.cat_circle_system(0.3, kappa)
    good = [_noisy(sys, n=20, seed=s) for s in (1, 2)]
    pts = good[0].points.copy()
    pts[7, 1] = np.nan
    out = qs.shadow_batch(sys, [good[0], qs.PseudoOrbit(pts, k_start=-20), good[1]])
    assert isinstance(out[1], ChartError)
    assert str(out[1]) == "non-finite coordinate in orbit point k=-13"
    for res, orbit in ((out[0], good[0]), (out[2], good[1])):
        assert to_json(res) == to_json(qs.shadow(sys, orbit))


def _unmeasured(orbit):
    """The points of ``orbit`` rebuilt as a new window, nothing else carried over."""
    return qs.PseudoOrbit(orbit.points.copy(), k_start=orbit.k_start)


def test_gate_refuses_an_unmeasured_orbit_like_the_generated_one():
    sys = qs.cat_circle_system(0.3, 0.0)
    orbit = qs.generate_noisy(sys, (0.11, 0.23, 0.5), 50, 0.02, seed=3)
    messages = []
    for o in (orbit, _unmeasured(orbit)):
        with pytest.raises(AdmissibilityError) as exc:
            qs.shadow(sys, o)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "predicts tracing radius 0.0454259 >= epsilon 0.04" in messages[0]


def test_unmeasured_orbit_reports_its_measured_defect():
    sys = qs.cat_circle_system(0.3, 0.0)
    orbit = _unmeasured(qs.generate_noisy(sys, (0.11, 0.23, 0.5), 50, 0.012, seed=3))
    res = qs.shadow(sys, orbit)
    assert (res.diagnostics.defect, res.defect_index) == measure_defect(sys, orbit)
    assert 0.0119 < res.diagnostics.defect <= 0.012


def test_gate_measures_against_the_solving_system():
    # an orbit made under a translated map misses the untranslated one by the shift
    shifted = qs.cat_circle_system(0.3, 0.0, shift=(1e-3, 0.0, 0.0))
    plain = qs.cat_circle_system(0.3, 0.0)
    orbit = qs.generate_noisy(shifted, (0.11, 0.23, 0.5), 50, 1e-4, seed=3)
    res = qs.shadow(plain, orbit)
    assert (res.diagnostics.defect, res.defect_index) == measure_defect(plain, orbit)
    assert res.diagnostics.defect > 9e-4 > 1e-4 >= measure_defect(shifted, orbit)[0]


def test_leaf_mode_wrap_counts_along_the_fiber_for_tau2_only():
    sys = qs.cat_circle_system(0.001)
    nr = qs.find_near_return(sys, (0.1, 0.2, 0.3), 5000, 1e-3, mode="leaf")
    cyc = nr.cycle
    pointwise = dataclasses.replace(cyc, leaf_mode=False)
    wrap_gap = qs.dist(sys.forward(cyc.points[-1]), cyc.points[0])
    assert nr.gap < wrap_gap < 0.05
    for variant, want in (("tau1", wrap_gap), ("tau3", wrap_gap), ("tau2", nr.gap)):
        res = qs.shadow(sys, cyc, qs.SolverConfig(variant=variant))
        assert (res.diagnostics.defect, res.defect_index) == (want, len(cyc) - 1)
    assert measure_defect(sys, cyc) == (nr.gap, len(cyc) - 1)
    assert measure_defect(sys, pointwise) == (wrap_gap, len(cyc) - 1)
