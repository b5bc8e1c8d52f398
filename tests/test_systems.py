import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasishadow as qs
from quasishadow.errors import RateOrderError
from quasishadow.systems import (
    ANALYTIC,
    C,
    DIRECTION_TOL,
    E_CENTER,
    E_UNSTABLE,
    LAM,
    MU,
    S,
    U,
    rate_bounds,
    slope_bounds,
)

from oracles import eigen_frames, einsum_assemble, fd_jacobian, power_splitting, projector, sin_angle, verify_rates


def test_forward_fixed_base_fiber_rotation(product_sys):
    x = np.array([0.0, 0.0, 0.25])
    out = product_sys.forward(x)
    assert np.array_equal(out[:2], [0.0, 0.0])
    assert abs(out[2] - 0.55) < 1e-15


def test_forward_example_point():
    sys0 = qs.cat_circle_system(alpha=0.0, kappa=0.0)
    out = sys0.forward([0.5, 0.5, 0.0])
    assert np.array_equal(out, [0.5, 0.0, 0.0])


def test_base_eigenvalues_frozen():
    assert abs(MU - 2.618033988749895) < 1e-15
    assert abs(LAM - 0.3819660112501051) < 1e-15
    assert abs(LAM * MU - 1.0) < 1e-14  # the simplifying rate normalization


def test_inverse_roundtrip(product_sys, skew_sys, rng):
    pts = qs.wrap(rng.random((100, 3)))
    for sys in (product_sys, skew_sys):
        assert np.max(qs.dist(sys.inverse(sys.forward(pts)), pts)) < 1e-12
        assert np.max(qs.dist(sys.forward(sys.inverse(pts)), pts)) < 1e-12


def test_inverse_roundtrip_with_shift(rng):
    sys = qs.cat_circle_system(0.3, 0.02, shift=(1e-3, -2e-3, 5e-4))
    pts = qs.wrap(rng.random((50, 3)))
    assert np.max(qs.dist(sys.inverse(sys.forward(pts)), pts)) < 1e-12


def test_differential_analytic(product_sys, skew_sys):
    J = product_sys.differential(np.array([0.3, 0.4, 0.5]))
    assert np.array_equal(J, [[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    # at b1 = 0 the fiber row of the perturbed map is (2 pi kappa, 0, 1)
    Jk = skew_sys.differential(np.array([0.0, 0.7, 0.2]))
    assert np.allclose(Jk[2], [2 * np.pi * 0.02, 0.0, 1.0], atol=1e-15)


def test_differential_matches_finite_differences(skew_sys, rng):
    pts = qs.wrap(rng.random((100, 3)))
    J = skew_sys.differential(pts)
    worst = max(
        np.abs(J[i] - fd_jacobian(skew_sys.forward, pts[i])).max() for i in range(len(pts))
    )
    assert worst < 1e-6


def test_shift_leaves_differential_unchanged(rng):
    plain = qs.cat_circle_system(0.3, 0.02)
    moved = qs.cat_circle_system(0.3, 0.02, shift=(1e-3, 2e-3, -1e-3))
    pts = qs.wrap(rng.random((20, 3)))
    assert np.array_equal(plain.differential(pts), moved.differential(pts))


def test_analytic_splitting_frames(product_sys):
    split = qs.splitting_at(product_sys, np.array([0.3, 0.4, 0.5]))
    mu = MU
    e_u = np.array([mu - 1.0, 1.0, 0.0])
    e_u /= np.linalg.norm(e_u)
    assert np.allclose(split.frames[:, U], e_u, atol=1e-12)
    assert np.array_equal(split.frames[:, C], [0.0, 0.0, 1.0])
    # frame agrees with a dense eigendecomposition
    assert np.allclose(split.frames, eigen_frames(), atol=1e-12)
    # one constant frame serves every point
    assert qs.splitting_at(product_sys, np.zeros((4, 7, 3))) is split is ANALYTIC
    assert split.constant and split.frames_inv.shape == (3, 3)


def test_projection_identities(product_sys, skew_sys, rng):
    pts = qs.wrap(rng.random((50, 3)))
    for sys in (product_sys, skew_sys):
        split = qs.splitting_at(sys, pts)
        total = sum(projector(split, b) for b in (S, C, U))
        eye = np.broadcast_to(np.eye(3), total.shape)
        assert np.max(np.abs(total - eye)) < 1e-10
        for b in (S, C, U):
            proj = projector(split, b)
            assert np.max(np.abs(proj @ proj - proj)) < 1e-10


def test_numerical_matches_analytic_for_zero_kappa(rng):
    # at kappa = 0 the splitting is the one analytic frame; power iteration
    # along each point's orbit finds the same directions point by point
    sys0 = qs.cat_circle_system(0.3, 0.0)
    pts = qs.wrap(rng.random((20, 3)))
    assert qs.splitting_at(sys0, pts) is ANALYTIC
    frames, frames_inv, _ = power_splitting(sys0, pts, 40)
    for b in (S, U):
        ang = sin_angle(frames[..., :, b], ANALYTIC.frames[:, b])
        assert np.max(ang) < 1e-9
    assert np.max(np.abs(frames_inv - ANALYTIC.frames_inv)) < 1e-9


def test_splitting_getitem_indexes_point_axes(skew_sys, rng):
    # a constant splitting serves every point; a per-point one is indexed on
    # its point axes only, as frames[key + (:, :)]
    assert ANALYTIC[[0, 2], 1:3] is ANALYTIC
    split = qs.splitting_at(skew_sys, qs.wrap(rng.random((4, 6, 3))))
    keys = [2, slice(1, 5), [3, 0, 3], ([1, 2], slice(0, 4)), (..., np.array([5, 0, 2]))]
    for key in keys:
        full = (key if isinstance(key, tuple) else (key,)) + (slice(None), slice(None))
        sub = split[key]
        for got, want in ((sub.frames, split.frames[full]), (sub.frames_inv, split.frames_inv[full])):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_splitting_transversal_drops_the_center(skew_sys, rng):
    split = qs.splitting_at(skew_sys, qs.wrap(rng.random((5, 3))))
    coeffs = rng.standard_normal((5, 3))
    given = coeffs.copy()
    trans = split.transversal(coeffs)
    assert np.array_equal(coeffs, given)
    no_center = coeffs.copy()
    no_center[:, C] = 0.0
    assert np.array_equal(trans, einsum_assemble(split, no_center))
    assert np.max(np.abs(split.coeffs(trans)[:, C])) < 1e-15


def test_splitting_invariance_under_differential(skew_sys, rng):
    pts = qs.wrap(rng.random((50, 3)))
    split = qs.splitting_at(skew_sys, pts)
    fwd = skew_sys.forward(pts)
    split_fwd = qs.splitting_at(skew_sys, fwd)
    J = skew_sys.differential(pts)
    for b in (S, U):
        pushed = np.einsum("kij,kj->ki", J, split.frames[..., :, b])
        ang = sin_angle(pushed, split_fwd.frames[..., :, b])
        assert np.max(ang) < 1e-8
    # the center direction is exactly invariant
    pushed_c = np.einsum("kij,j->ki", J, E_CENTER)
    assert np.array_equal(pushed_c, np.broadcast_to(E_CENTER, pts.shape))


def test_verify_rates_product_exact(product_sys, rng):
    pts = qs.wrap(rng.random((100, 3)))
    rates = verify_rates(product_sys, pts)
    assert abs(rates.lam - 0.3819660112501051) < 1e-9
    assert abs(rates.mu - 2.618033988749895) < 1e-9


def test_verify_rates_skew_ordering(skew_sys, rng):
    pts = qs.wrap(rng.random((100, 3)))
    rates = verify_rates(skew_sys, pts)
    assert rates.lam < 1.0 < rates.mu


def test_large_kappa_rejected():
    with pytest.raises(RateOrderError):
        qs.cat_circle_system(0.3, 0.8)


def test_rate_bound_refuses_stable_expansion():
    # at kappa = 0.6 the stable direction expands at some points, though
    # few random points show it; the closed-form bound refuses it outright
    with pytest.raises(RateOrderError):
        qs.cat_circle_system(0.3, 0.6)
    dense = qs.wrap(np.random.default_rng(3).random((100_000, 3)))
    with pytest.raises(RateOrderError, match=r"lam=1\.1"):
        verify_rates(qs.cat_circle_system(0.3, 0.6, validate=False), dense)
    # the stable side of the bound admits |kappa| < 0.45269
    qs.cat_circle_system(0.3, 0.4526)
    with pytest.raises(RateOrderError):
        qs.cat_circle_system(0.3, -0.4527)


@pytest.mark.parametrize("kappa", [0.02, 0.2, 0.45])
def test_verify_rates_within_closed_form(kappa):
    dense = qs.wrap(np.random.default_rng(5).random((20_000, 3)))
    measured = verify_rates(qs.cat_circle_system(0.3, kappa), dense)
    bound = rate_bounds(kappa)
    assert LAM < measured.lam <= bound.lam < 1.0
    assert 1.0 < bound.mu <= measured.mu < MU


def test_rate_ordering_validation():
    with pytest.raises(RateOrderError):
        qs.HyperbolicityRates(1.1, 2.6)
    with pytest.raises(RateOrderError):
        qs.HyperbolicityRates(0.4, 0.9)
    qs.HyperbolicityRates(0.4, 2.6)


def test_splitting_convergence_guard():
    # every system sums the fewest slope-series terms whose tails meet DIRECTION_TOL
    for kappa in [0.0, 1e-300, 0.005, 0.02, 0.1, 0.3, 0.4526, -0.02]:
        n = qs.cat_circle_system(0.3, kappa).n_split
        assert max(slope_bounds(kappa, n)) <= DIRECTION_TOL
        if n > 0:
            assert max(slope_bounds(kappa, n - 1)) > DIRECTION_TOL


@pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan])
def test_non_finite_kappa_refused(kappa):
    # the series length could not be derived: inf never ends the search, nan gives 0 terms
    with pytest.raises(ValueError, match="kappa and 2 pi kappa must be finite"):
        qs.CatCircleSystem(0.3, kappa)
    with pytest.raises(ValueError, match="kappa and 2 pi kappa must be finite"):
        qs.cat_circle_system(0.3, kappa, validate=False)


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(0.0, 1.0, exclude_max=True),
    kappa=st.floats(0.005, 0.05),
    shift=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    n_split=st.sampled_from([2, 26, 40]),
    seed=st.integers(0, 2**16),
)
def test_splitting_matches_power_iteration(alpha, kappa, shift, n_split, seed):
    # the slope series with n terms is n power-iteration pushes of the seed direction
    sys = qs.cat_circle_system(alpha, kappa, shift=shift)
    sys.n_split = n_split
    pts = qs.wrap(np.random.default_rng(seed).random((4, 16, 3)))
    split = qs.splitting_at(sys, pts)
    frames, frames_inv, _ = power_splitting(sys, pts, n_split)
    assert np.max(np.abs(split.frames - frames)) < 1e-14
    assert np.max(np.abs(split.frames_inv - frames_inv)) < 1e-14
    eye = np.broadcast_to(np.eye(3), frames.shape)
    assert np.max(np.abs(split.frames @ split.frames_inv - eye)) < 1e-14


@settings(max_examples=20, deadline=None)
@given(
    kappa=st.floats(0.005, 0.45),
    shift=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    n=st.sampled_from([1, 2, 10, 26]),
    seed=st.integers(0, 2**16),
)
def test_slope_tail_bounds_direction_error(kappa, shift, n, seed):
    # n terms against 60 more: the distance of the unit directions stays
    # within the geometric tail bound (plus a few ulps of rounding)
    sys = qs.cat_circle_system(0.3, kappa, shift=shift)
    sys.n_split = n
    pts = qs.wrap(np.random.default_rng(seed).random((4, 16, 3)))
    frames = qs.splitting_at(sys, pts).frames
    deep = power_splitting(sys, pts, n + 60)[0]
    for bundle, tail in zip((S, U), slope_bounds(kappa, n)):
        err = np.linalg.norm(frames[..., :, bundle] - deep[..., :, bundle], axis=-1)
        assert np.max(err) <= tail + 1e-15


def test_leaf_dist_is_base_distance():
    a = np.array([0.9, 0.1, 0.3])
    b = np.array([0.1, 0.1, 0.8])
    assert abs(qs.leaf_dist(a, b) - 0.2) < 1e-15


def test_unstable_seed_direction_constant():
    assert abs(np.linalg.norm(E_UNSTABLE) - 1.0) < 1e-15
    assert E_UNSTABLE[2] == 0.0
