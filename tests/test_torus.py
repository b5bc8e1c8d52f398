import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import quasishadow as qs
from quasishadow.errors import ChartError
from quasishadow.systems import ANALYTIC, CatCircleSystem, splitting_at
from quasishadow.torus import norm, planar

# finite coordinates where x - floor(x) needs care: signed zeros, the smallest
# subnormals, a tiny negative that rounds up to 1.0, and one ulp below an integer
FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-20]),
    st.integers(-(2**40), 2**40).map(lambda k: math.nextafter(float(k), -math.inf)),
    st.floats(allow_nan=False, allow_infinity=False),
)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5)
# C order, or component-major as torus.planar lays out the solver's batch arrays
LAYOUTS = st.sampled_from(["C", "component-major"])


def _laid_out(x, layout):
    """A copy of x in ``layout``; a 0-d or 1-d array has one layout."""
    out = planar(x.shape) if layout == "component-major" and x.ndim else np.empty(x.shape)
    out[...] = x
    return out


def _has_layout(a, layout):
    """Whether a is contiguous in ``layout`` (an empty array is, in every layout)."""
    if layout == "component-major" and a.ndim:
        a = np.moveaxis(a, -1, 0)
    return a.flags.c_contiguous


def _same_bits(a, b):
    """Equal shapes and bit patterns, read in index order whatever the memory layout."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_wrap_examples():
    assert np.allclose(qs.wrap([1.5, -0.25, 0.0]), [0.5, 0.75, 0.0], atol=1e-15)
    assert np.array_equal(qs.wrap([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
    assert np.array_equal(qs.wrap([2.0, 3.0, -1.0]), [0.0, 0.0, 0.0])


def test_wrap_always_lands_in_unit_interval():
    out = qs.wrap([-1e-17, 0.9999999999999999, 5.25, -3.75])
    assert np.all((out >= 0.0) & (out < 1.0))


def test_wrap_rejects_nonfinite():
    with pytest.raises(ChartError):
        qs.wrap([np.nan, 0.0, 0.0])
    with pytest.raises(ChartError):
        qs.wrap([0.0, np.inf, 0.0])


@settings(max_examples=200, deadline=None)
@given(x=hnp.arrays(np.float64, SHAPES, elements=FINITE), layout=LAYOUTS)
def test_wrap_is_np_mod_on_finite_input(x, layout):
    # the bits of np.mod(x, 1.0), whose 1.0 for tiny negative x resets to +0.0,
    # in the layout of the input
    want = np.mod(x, 1.0, out=np.empty(x.shape))
    want[want == 1.0] = 0.0
    got = qs.wrap(_laid_out(x, layout))
    assert got.shape == x.shape
    assert got.tobytes() == want.tobytes()
    assert _has_layout(got, layout)


@settings(max_examples=100, deadline=None)
@given(
    x=hnp.arrays(np.float64, SHAPES, elements=FINITE),
    bad=st.sampled_from([math.inf, -math.inf, math.nan]),
    slot=st.integers(0, 2**16),
    layout=LAYOUTS,
)
def test_wrap_refuses_non_finite_input_without_a_warning(x, bad, slot, layout):
    # an empty array holds no bad value: it wraps to an empty array, also without a warning
    if x.size:
        x.reshape(-1)[slot % x.size] = bad
    x = _laid_out(x, layout)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not x.size:
            assert qs.wrap(x).shape == x.shape
            return
        with pytest.raises(ChartError, match="non-finite"):
            qs.wrap(x)


def test_planar_lays_out_each_coordinate_as_one_plane():
    a = planar((2, 5, 3))
    assert a.shape == (2, 5, 3)
    assert all(a[..., j].flags.c_contiguous for j in range(3))
    assert _has_layout(a, "component-major") and not a.flags.c_contiguous


# batch shapes (W, 3) and (B, W, 3), empty ones included
BATCH_SHAPES = st.one_of(
    st.tuples(st.integers(0, 9), st.just(3)),
    st.tuples(st.integers(1, 4), st.integers(0, 9), st.just(3)),
)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    shape=BATCH_SHAPES,
    alpha=st.floats(0.0, 1.0),
    kappa=st.sampled_from([0.0, 0.02, 0.3]),
    shift=st.sampled_from([None, (1e-3, -2e-4, 5e-4)]),
)
def test_batch_maps_ignore_the_memory_layout(data, shape, alpha, kappa, shift):
    # every map the solver runs on its batch arrays gives the bits of the
    # C-ordered input on a component-major copy; wrap and the system maps
    # return the component-major layout they are given
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 2.0)))
    # tangent vectors inside the chart: |v| < 0.5
    v = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-0.28, 0.28)))
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    y = qs.wrap(x + 0.5 * v)
    maps = {
        "wrap": lambda x, v, y: qs.wrap(x),
        "minimal_rep": lambda x, v, y: qs.minimal_rep(x),
        "norm": lambda x, v, y: norm(x),
        "dist": lambda x, v, y: qs.dist(x, y),
        "logmap": lambda x, v, y: qs.logmap(x, y),
        "expmap": lambda x, v, y: qs.expmap(x, v),
        "forward": lambda x, v, y: sys.forward(x),
        "inverse": lambda x, v, y: sys.inverse(x),
    }
    splits = {"ANALYTIC": ANALYTIC}
    splits.update({f"kappa={k}": splitting_at(CatCircleSystem(alpha, k), x) for k in (0.02, 0.3)})
    for label, split in splits.items():
        for product in ("coeffs", "center_coeff", "transversal"):
            maps[f"{product} ({label})"] = lambda x, v, y, f=getattr(split, product): f(v)
    planes = [_laid_out(a, "component-major") for a in (x, v, y)]
    for name, f in maps.items():
        want, got = f(x, v, y), f(*planes)
        assert _same_bits(got, want), name
        if name in ("wrap", "forward", "inverse"):
            assert _has_layout(got, "component-major"), name


def test_dist_examples():
    assert abs(qs.dist([0.9, 0, 0], [0.1, 0, 0]) - 0.2) < 1e-15
    assert qs.dist([0.3, 0.4, 0.5], [0.3, 0.4, 0.5]) == 0.0
    assert abs(qs.dist([0.25, 0.25, 0], [0.5, 0.5, 0]) - 0.25 * np.sqrt(2.0)) < 1e-15


def test_dist_symmetry_triangle_translation(rng):
    x, y, z, t = qs.wrap(rng.random((4, 200, 3)))
    assert np.allclose(qs.dist(x, y), qs.dist(y, x), atol=1e-15)
    assert np.all(qs.dist(x, z) <= qs.dist(x, y) + qs.dist(y, z) + 1e-12)
    shifted = qs.dist(qs.wrap(x + t), qs.wrap(y + t))
    assert np.allclose(shifted, qs.dist(x, y), atol=1e-12)


def test_exp_examples():
    out = qs.expmap([0.95, 0.5, 0.5], [0.1, 0.0, 0.0])
    assert np.allclose(out, [0.05, 0.5, 0.5], atol=1e-15)
    x = np.array([0.3, 0.4, 0.5])
    assert np.array_equal(qs.expmap(x, np.zeros(3)), x)
    # boundary-norm vector: components stay below the per-coordinate threshold
    p = qs.expmap([0.0, 0.0, 0.0], [0.3, 0.4, 0.0])
    assert np.allclose(p, [0.3, 0.4, 0.0], atol=1e-15)
    assert abs(qs.dist([0.0, 0.0, 0.0], p) - 0.5) < 1e-15


def test_exp_rejects_large_vectors():
    with pytest.raises(ChartError):
        qs.expmap([0.0, 0.0, 0.0], [0.6, 0.0, 0.0])


def test_log_examples():
    v = qs.logmap([0.05, 0, 0], [0.95, 0, 0])
    assert np.allclose(v, [-0.1, 0, 0], atol=1e-15)
    x = np.array([0.7, 0.1, 0.9])
    assert np.array_equal(qs.logmap(x, x), np.zeros(3))


def test_log_rejects_far_points():
    with pytest.raises(ChartError):
        qs.logmap([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])


def test_exp_log_roundtrip_property(rng):
    # 1000 random charts with |v| < 0.4
    x = qs.wrap(rng.random((1000, 3)))
    v = rng.standard_normal((1000, 3))
    v *= (0.4 * rng.random(1000) ** (1 / 3) / np.linalg.norm(v, axis=1))[:, None]
    y = qs.expmap(x, v)
    assert np.max(np.abs(qs.logmap(x, y) - v)) < 1e-14
    # metric identity d(x, exp_x v) = |v|
    assert np.max(np.abs(qs.dist(x, y) - np.linalg.norm(v, axis=1))) < 1e-14


def test_log_exp_roundtrip_property(rng):
    x = qs.wrap(rng.random((1000, 3)))
    y = qs.expmap(x, qs.logmap(x, qs.wrap(x + 0.2 * (rng.random((1000, 3)) - 0.5))))
    z = qs.wrap(x + 0.2 * (rng.random((1000, 3)) - 0.5))  # fresh targets
    back = qs.expmap(x, qs.logmap(x, z))
    assert np.max(qs.dist(back, z)) < 1e-14
    assert y.shape == x.shape


def test_minimal_rep_range(rng):
    d = qs.minimal_rep(rng.standard_normal((500, 3)) * 3.0)
    assert np.all(np.abs(d) <= 0.5)


def test_chart_config_validation():
    qs.SolverConfig(rho0=0.5, rho=0.05)
    with pytest.raises(qs.ConfigError, match="rho0 must lie in"):
        qs.SolverConfig(rho0=0.6)
    with pytest.raises(qs.ConfigError, match="rho must lie in"):
        qs.SolverConfig(rho0=0.5, rho=0.25)
    with pytest.raises(qs.ConfigError, match="rho must lie in"):
        qs.SolverConfig(rho0=0.5, rho=0.0)
