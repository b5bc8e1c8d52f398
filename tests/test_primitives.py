"""Torus primitives and array maps against their numpy spellings, bit for bit.

``wrap`` computes x - floor(x), ``norm`` an index-order sum of squares, and
``forward`` / ``inverse`` write their base columns out instead of
multiplying by the cat matrix.  Each must give the bits of the form in
oracles.py, so results are compared by bit pattern: -0.0 against 0.0 would
show.  The slope series rotates e^{2 pi i b} instead of stepping the
coordinates, so it is held to a bound against the exact series and the
float walk, and to its own bits where the wrapped input is the same.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quasishadow import systems
from quasishadow.errors import ChartError
from quasishadow.systems import CatCircleSystem, splitting_at
from quasishadow.torus import norm, wrap

from oracles import (
    exact_slopes,
    linalg_norm,
    matmul_forward,
    matmul_inverse,
    matmul_slopes,
    mod_wrap,
)

# -1e-20 rounds up to 1.0 (then resets to 0); 2**52 + 0.5 rounds to 2**52 and
# 2**51 + 0.5 is the largest half-integer; 5e-324 is the smallest subnormal
EDGES = [
    0.0, -0.0, -1e-20, 5e-324, -5e-324, math.nextafter(1.0, 0.0), 1.0, -1.0, 2.0, -2.0,
    1e15, -1e15, 2.0**52 + 0.5, -(2.0**52 + 0.5), 2.0**51 + 0.5, -(2.0**51 + 0.5),
]
coords = st.one_of(st.sampled_from(EDGES), st.floats(-4.0, 4.0), st.floats(-1e16, 1e16))
# squares that underflow to subnormals or overflow to inf, and comparable
# magnitudes, where the order of the two additions shows in the last bit
components = st.one_of(
    st.sampled_from(EDGES + [1e-160, 1e-170, 1e154, 1e155, 1e300, math.inf, -math.inf]),
    st.floats(allow_nan=False),
    st.floats(-10.0, 10.0),
)
# (3,), (W, 3), (B, W, 3) and empty arrays, before the view below is taken
shapes = st.one_of(
    st.just((3,)),
    st.tuples(st.integers(0, 12), st.just(3)),
    st.tuples(st.integers(1, 4), st.integers(0, 9), st.just(3)),
)
# views keep the coordinate axis; a single point is viewed backwards
VIEWS = {
    "whole": lambda a: a,
    "drop_first_point": lambda a: a[..., 1:, :] if a.ndim > 1 else a[::-1],
    "swapaxes": lambda a: a.swapaxes(0, -2) if a.ndim > 1 else a[::-1],
    "every_other": lambda a: a[::2] if a.ndim > 1 else a[::-1],
}
views = st.sampled_from(sorted(VIEWS))


def _bits(a):
    return np.asarray(a, float).view(np.int64)


def _same_bits(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shape=shapes, view=views)
def test_wrap_matches_mod_wrap(data, shape, view):
    x = VIEWS[view](data.draw(hnp.arrays(np.float64, shape, elements=coords)))
    out = wrap(x)
    assert _same_bits(out, mod_wrap(x))
    assert np.all((out >= 0.0) & (out < 1.0))


@pytest.mark.parametrize("x", EDGES)
def test_wrap_edges_and_0d_input(x):
    out = wrap(x)
    assert isinstance(out, np.ndarray) and out.shape == ()
    assert _same_bits(out, mod_wrap(x))
    assert _same_bits(wrap(np.float64(x)), mod_wrap(x))
    assert _same_bits(wrap([x]), mod_wrap([x]))


def test_wrap_resets_round_up_and_signed_zero():
    assert np.mod(-1e-20, 1.0) == 1.0
    assert _bits(wrap(-1e-20)) == 0 and _bits(wrap(-0.0)) == 0 and _bits(wrap(-3.0)) == 0
    assert wrap(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("slot", range(3))
def test_wrap_rejects_nonfinite_in_any_slot(bad, slot):
    x = np.full((2, 4, 3), 0.25)
    x[1, 2, slot] = bad
    with pytest.raises(ChartError):
        wrap(x)
    with pytest.raises(ChartError):
        wrap(x[1, 2])
    with pytest.raises(ChartError):
        wrap(bad)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shape=shapes, view=views, width=st.sampled_from([2, 3]))
def test_norm_matches_linalg_norm(data, shape, view, width):
    v = VIEWS[view](data.draw(hnp.arrays(np.float64, shape, elements=components)))[..., :width]
    with np.errstate(over="ignore"):
        got, want = norm(v), linalg_norm(v)
        assert _same_bits(got, want)
        assert _same_bits(norm(v, keepdims=True), linalg_norm(v, keepdims=True))
    assert np.ndim(got) == np.ndim(want)


def test_norm_sums_in_index_order():
    # 110 of these vectors round differently under v0^2 + (v1^2 + v2^2)
    v = np.random.default_rng(0).standard_normal((1000, 3))
    assert _same_bits(norm(v), linalg_norm(v))
    assert _same_bits(norm(v[:, :2]), linalg_norm(v[:, :2]))


def test_norm_subnormal_and_overflow():
    with np.errstate(over="ignore"):
        for v in ([5e-324, 5e-324, 0.0], [1e-160, 3e-170], [1e155, 1.0, 0.0], [1e300, -1e300]):
            assert _same_bits(norm(v), linalg_norm(v))
        assert norm([1e155, 0.0, 0.0]) == math.inf
    assert norm([1e-170, 0.0, 0.0]) == 0.0 and norm([1e-160, 0.0]) > 0.0


kappas = st.sampled_from([0.0, 0.02, 0.3])
shifts = st.tuples(*[st.one_of(st.just(0.0), st.floats(-1e-2, 1e-2))] * 3)
points = st.one_of(st.sampled_from(EDGES), st.floats(-1.0, 2.0))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    alpha=st.floats(0.0, 1.0),
    kappa=kappas,
    shift=shifts,
    shape=shapes,
    view=views,
)
def test_array_maps_match_matmul_oracles(data, alpha, kappa, shift, shape, view):
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    x = VIEWS[view](data.draw(hnp.arrays(np.float64, shape, elements=points)))
    assert _same_bits(sys.forward(x), matmul_forward(sys, x))
    assert _same_bits(sys.inverse(x), matmul_inverse(sys, x))


# bound on the distance of _slopes to the exact series and to the float walk;
# the rotation and the walk both stay within 2.3e-15 of the exact series at
# |kappa| = 0.45 on random points, the exact oracle within 9e-16
SLOPE_TOL = 1e-14


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    alpha=st.floats(0.0, 1.0),
    kappa=kappas,
    shift=shifts,
    view=views,
    n=st.sampled_from([1, 2, 40]),
)
def test_slopes_match_matmul_oracle(data, alpha, kappa, shift, view, n):
    # base coordinates in [0, 1), in [-1, 2] with the edge values, one point,
    # and views of stacked windows; the float walk wraps only after its first
    # step and takes cos(2 pi x) of x itself, so it is given x mod 1
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    shape = data.draw(st.sampled_from([(3,), (1, 3), (7, 3), (2, 5, 3)]))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    elements = data.draw(st.sampled_from([unit, points]))
    x = VIEWS[view](data.draw(hnp.arrays(np.float64, shape, elements=elements)))
    before = x.copy()
    got = systems._slopes(sys, x, n)
    assert got.shape == x.shape[:-1] + (2,)
    # a view may hold no point
    assert np.max(np.abs(got - exact_slopes(sys, x, n)), initial=0.0) <= SLOPE_TOL
    assert np.max(np.abs(got - matmul_slopes(sys, mod_wrap(x), n)), initial=0.0) <= SLOPE_TOL
    assert _same_bits(x, before)  # the input is not stepped


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kappa=st.floats(-0.45, 0.45),
    shift=st.one_of(st.none(), st.tuples(*[st.floats(-0.5, 0.5)] * 3)),
    n_points=st.integers(1, 6),
)
def test_slopes_match_exact_oracle(data, kappa, shift, n_points):
    # points in [0, 1) lifted by integers: the series wraps once, so the
    # lifted points and x mod 1 have the same slopes, bit for bit, and so does
    # each point on its own
    sys = CatCircleSystem(0.3, kappa, shift=shift)
    unit = data.draw(hnp.arrays(np.float64, (n_points, 3), elements=st.floats(0.0, 1.0, exclude_max=True)))
    lifts = data.draw(hnp.arrays(np.float64, (n_points, 3), elements=st.integers(-3, 3).map(float)))
    x = unit + lifts
    got = systems._slopes(sys, x, sys.n_split)
    assert np.max(np.abs(got - exact_slopes(sys, x, sys.n_split))) <= SLOPE_TOL
    assert _same_bits(got, systems._slopes(sys, x - lifts, sys.n_split))
    for k in range(n_points):
        assert _same_bits(got[k], systems._slopes(sys, x[k], sys.n_split))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308, -1e308])
@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("shift", [None, (1e-3, -2e-4, 0.0)])
def test_slopes_reject_a_non_finite_base_orbit(bad, slot, shift):
    # a non-finite base coordinate raises the ChartError of wrap; +-1e308 are
    # integers, 0 mod 1, and the theta coordinate does not enter the series
    sys = CatCircleSystem(0.3, 0.02, shift=shift)
    for shape in ((3,), (2, 5, 3)):
        x = np.full(shape, 0.25)
        idx = (1, 2, slot) if len(shape) == 3 else slot
        x[idx] = bad
        if slot == 2 or math.isfinite(bad):
            same = np.full(shape, 0.25)
            same[idx] = 0.25 if slot == 2 else 0.0
            assert _same_bits(systems._slopes(sys, x, 27), systems._slopes(sys, same, 27))
            continue
        with pytest.raises(ChartError, match="non-finite coordinate"):
            systems._slopes(sys, x, 27)


def test_splitting_frames_unchanged(monkeypatch):
    # the frames are written from the slopes they keep; against the frames of
    # the exact series and of the float walk they differ by the slopes' error
    sys = CatCircleSystem(0.3, 0.02, shift=(1e-3, -2e-4, 0.0))
    x = np.random.default_rng(7).random((4, 60, 3))
    split = splitting_at(sys, x)
    assert _same_bits(split.slopes, systems._slopes(sys, x, sys.n_split))
    for oracle in (exact_slopes, matmul_slopes):
        monkeypatch.setattr(systems, "_slopes", oracle)
        reference = splitting_at(sys, x)
        assert np.max(np.abs(split.frames - reference.frames)) <= SLOPE_TOL
        assert np.max(np.abs(split.frames_inv - reference.frames_inv)) <= SLOPE_TOL
