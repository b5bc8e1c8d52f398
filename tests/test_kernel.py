"""The float walks against the array maps and the one-point loops they inline.

Every comparison is exact: the one-point kernel of oracles.py (``step``,
``step_inverse``) repeats the operation order of ``forward`` / ``inverse``,
and the walks step the same formulas inline, so orbits, noisy orbits, near
returns, base walks and leaf residuals must come out bit-identical to the
array-map loops and to the loops of ``step`` calls in oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasishadow as qs
from quasishadow import orbits
from quasishadow.errors import ChartError, SearchError
from quasishadow.systems import CatCircleSystem, _backward_walk, _forward_walk
from quasishadow.torus import wrap, wrap_float

from oracles import (
    array_leaf_residual,
    array_near_return,
    array_noisy_points,
    array_orbit,
    step,
    step_inverse,
    stepped_noisy,
    stepped_orbit,
)

unit = st.floats(0.0, 1.0, exclude_max=True)
# 0 with a tiny negative shift is where np.mod rounds up to 1.0 and wrap resets to 0
alphas = st.one_of(st.just(0.0), unit)
shifts = st.tuples(
    *[st.one_of(st.sampled_from([-1e-20, -5e-324, 0.0]), st.floats(-1e-3, 1e-3))] * 3
)
points = st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0 - 2.0**-53]), unit)] * 3)
# unwrapped step inputs, as the array maps accept them
raw_points = st.tuples(
    *[st.one_of(st.sampled_from([0.0, -0.0, -1e-20, 1.0 - 2.0**-53]), st.floats(-2.0, 3.0))] * 3
)
kappas = st.sampled_from([0.0, 0.02, 0.3])
# no shift, or one with signed zeros, tiny negatives and small offsets
signed_shifts = st.one_of(
    st.none(),
    st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, -1e-20, -5e-324]), st.floats(-1e-3, 1e-3))] * 3),
)
# the empty walk, one step, and walks around a near-return chunk
lengths = st.sampled_from([0, 1, orbits._WALK_CHUNK - 1, orbits._WALK_CHUNK, orbits._WALK_CHUNK + 1])


def _same_bits(a, b):
    """Equal shapes and bit patterns (tells -0.0 from 0.0, which the CSVs would print)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _forward(sys, p):
    return tuple(sys.forward(np.array(p)).tolist())


def _inverse(sys, p):
    return tuple(sys.inverse(np.array(p)).tolist())


@settings(max_examples=60, deadline=None)
@given(alpha=alphas, kappa=kappas, shift=shifts, p=raw_points)
def test_step_matches_array_maps(alpha, kappa, shift, p):
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    assert _same_bits(step(sys, *p), _forward(sys, p))
    assert _same_bits(step_inverse(sys, *p), _inverse(sys, p))


def test_step_matches_array_maps_on_a_batch():
    # the batched maps call np.sin on arrays, the kernel math.sin on scalars
    sys = CatCircleSystem(0.37, 0.3, shift=(1e-3, -2e-3, 5e-4))
    pts = np.random.default_rng(5).uniform(-1.0, 2.0, (5000, 3))
    fwd, inv = sys.forward(pts).tolist(), sys.inverse(pts).tolist()
    for p, f, b in zip(pts.tolist(), fwd, inv):
        assert _same_bits(step(sys, *p), f)
        assert _same_bits(step_inverse(sys, *p), b)


def test_step_wrap_edges():
    # -1e-20 % 1.0 rounds to 1.0, which wrap maps to 0.0 on both paths
    assert np.mod(-1e-20, 1.0) == 1.0 and -1e-20 % 1.0 == 1.0
    down = CatCircleSystem(0.0, 0.3, shift=(-1e-20, -1e-20, -1e-20))
    assert _same_bits(step(down, 0.0, 0.0, 0.0), _forward(down, (0.0, 0.0, 0.0)))
    assert _same_bits(down.orbit((0.0, 0.0, 0.0), 5), np.zeros((6, 3)))
    up = CatCircleSystem(0.0, 0.3, shift=(1e-20, 1e-20, 1e-20))
    # inverse: z = -1e-20 gives b = (0, -1e-20) and theta -1e-20
    assert _same_bits(step_inverse(up, 0.0, 0.0, 0.0), _inverse(up, (0.0, 0.0, 0.0)))
    assert _same_bits(step_inverse(up, 0.0, 0.0, 0.0), np.zeros(3))


@settings(max_examples=30, deadline=None)
@given(alpha=alphas, kappa=kappas, shift=shifts, x0=points, n=st.integers(1, 80))
def test_orbit_matches_array_loop(alpha, kappa, shift, x0, n):
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    assert _same_bits(sys.orbit(x0, n), array_orbit(sys, x0, n))


@settings(max_examples=30, deadline=None)
@given(
    alpha=alphas,
    kappa=kappas,
    shift=shifts,
    x0=points,
    n=st.integers(1, 40),
    noise=st.sampled_from([0.0, 1e-4, 1e-2]),
    seed=st.integers(0, 2**16),
)
def test_generate_noisy_matches_array_loop(alpha, kappa, shift, x0, n, noise, seed):
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    orbit = qs.generate_noisy(sys, x0, n, noise, seed)
    assert _same_bits(orbit.points, array_noisy_points(sys, x0, n, noise, seed))


def _rows(walk):
    """The points of a flat walk as an (n, 3) array."""
    return np.frombuffer(walk).reshape(-1, 3)


@settings(max_examples=40, deadline=None)
@given(alpha=alphas, kappa=kappas, shift=signed_shifts, x0=points, n=lengths)
def test_walks_match_stepped_oracle(alpha, kappa, shift, x0, n):
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    start = wrap(x0).tolist()
    ahead, back = stepped_orbit(sys, x0, n), stepped_orbit(sys, x0, n, step_inverse)
    assert _same_bits(sys.orbit(x0, n), ahead)
    assert _same_bits(_rows(_backward_walk(sys, start, n)), back)
    # zero noise adds +0.0 to coordinates in [0, 1): the noisy walks step the same points
    still = np.zeros((n, 3))
    assert _same_bits(_rows(_forward_walk(sys, start, n, still)), ahead)
    assert _same_bits(_rows(_backward_walk(sys, start, n, still)), back)
    # the base walk keeps the last base point and the start's theta
    assert _same_bits(_forward_walk(sys, start, n, base_only=True), [*ahead[-1, :2], start[2]])


@settings(max_examples=30, deadline=None)
@given(
    alpha=alphas,
    kappa=kappas,
    shift=signed_shifts,
    x0=points,
    n=lengths.filter(bool),
    noise=st.sampled_from([0.0, 1e-20, 1e-4, 1e-2]),
    seed=st.integers(0, 2**16),
)
def test_generate_noisy_matches_stepped_oracle(alpha, kappa, shift, x0, n, noise, seed):
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    orbit = qs.generate_noisy(sys, x0, n, noise, seed)
    assert _same_bits(orbit.points, stepped_noisy(sys, x0, n, noise, seed))


def test_walks_wrap_tiny_negative_sums_to_zero():
    # -1e-20 % 1.0 rounds to 1.0: the walks redo such a step with wrap_float, which gives 0.0
    n, origin, zeros = orbits._WALK_CHUNK + 1, (0.0, 0.0, 0.0), np.zeros((orbits._WALK_CHUNK + 2, 3))
    down = CatCircleSystem(0.0, 0.3, shift=(-1e-20, -1e-20, -1e-20))
    assert _same_bits(down.orbit(origin, n), zeros)
    assert _same_bits(_forward_walk(down, origin, n, base_only=True), zeros[0])
    # inverse: z = -1e-20 gives b = (0, -1e-20) and theta -1e-20
    up = CatCircleSystem(0.0, 0.3, shift=(1e-20, 1e-20, 1e-20))
    assert _same_bits(_rows(_backward_walk(up, origin, n)), zeros)
    assert _same_bits(qs.generate_noisy(up, origin, n, 0.0, seed=0).points[: n + 1], zeros)
    # noise of -1e-20 on points at the origin, which the unshifted map fixes
    fixed, tiny = CatCircleSystem(0.0, 0.3), np.full((n, 3), -1e-20)
    assert _same_bits(_rows(_forward_walk(fixed, origin, n, tiny)), zeros)
    assert _same_bits(_rows(_backward_walk(fixed, origin, n, tiny)), zeros)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_walks_refuse_non_finite(bad, slot):
    sys = CatCircleSystem(0.3, 0.02, shift=(1e-3, 0.0, -2e-4))
    start, row = [0.1, 0.2, 0.3], np.zeros((1, 3))
    row[0, slot] = bad
    for walk in (_forward_walk, _backward_walk):
        with pytest.raises(ChartError):
            walk(sys, start, 1, row)
    if slot < 2:
        start[slot] = bad
        with pytest.raises(ChartError):
            _forward_walk(sys, start, 1, base_only=True)


def test_backward_walk_refuses_overflowing_sine_argument():
    # a shift near the float limit makes 2 pi b0 overflow: math.sin(inf) raises
    # ValueError where np.sin gives the nan that wrap refuses
    sys = CatCircleSystem(0.3, 0.02, shift=(-1e308, 0.0, 0.0))
    with pytest.raises(ChartError):
        step_inverse(sys, 0.1, 0.2, 0.3)
    with pytest.raises(ChartError):
        _backward_walk(sys, [0.1, 0.2, 0.3], 1)


@settings(max_examples=40, deadline=None)
@given(
    alpha=alphas,
    kappa=kappas,
    shift=shifts,
    x0=points,
    threshold=st.floats(0.02, 0.3),
    mode=st.sampled_from(["point", "leaf"]),
)
def test_find_near_return_matches_array_loop(alpha, kappa, shift, x0, threshold, mode):
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    expected = array_near_return(sys, x0, 150, threshold, mode)
    for chunk in (1, 7, orbits._WALK_CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbits, "_WALK_CHUNK", chunk)
            if expected is None:
                with pytest.raises(SearchError):
                    qs.find_near_return(sys, x0, 150, threshold, mode)
                continue
            nr = qs.find_near_return(sys, x0, 150, threshold, mode)
        assert nr.n == expected[0] and _same_bits(nr.gap, expected[1])
        # the cycle is the walk itself: x0 .. f^(n-1)(x0) with the array map's bits
        assert _same_bits(nr.cycle.points, array_orbit(sys, x0, nr.n - 1))
        assert nr.cycle.cyclic and nr.cycle.leaf_mode == (mode == "leaf")


@pytest.mark.parametrize("chunk", [1, 3, 5, 6, orbits._WALK_CHUNK])
def test_find_near_return_chunk_edges(chunk):
    # the leaf return of (0.1, 0.2) comes at n = 6: on a chunk multiple for
    # chunks 1, 3 and 6, one past one for chunk 5; max_n = 5 just misses it
    sys = CatCircleSystem(1.0 / 12.0, 0.02)
    x0 = (0.1, 0.2, 0.3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_WALK_CHUNK", chunk)
        for max_n in (5, 6, 7, 12, 13):
            expected = array_near_return(sys, x0, max_n, 1e-3, "leaf")
            if expected is None:
                with pytest.raises(SearchError, match=f"within {max_n} steps"):
                    qs.find_near_return(sys, x0, max_n, 1e-3, "leaf")
                continue
            nr = qs.find_near_return(sys, x0, max_n, 1e-3, "leaf")
            assert (nr.n, nr.gap) == expected and nr.n == 6
            assert _same_bits(nr.cycle.points, array_orbit(sys, x0, 5))
        # no return at all: the walk ends on max_n, a chunk multiple or one past it
        for max_n in (2 * chunk, 2 * chunk + 1):
            assert array_near_return(sys, x0, max_n, 1e-12, "point") is None
            with pytest.raises(SearchError, match=f"within {max_n} steps"):
                qs.find_near_return(sys, x0, max_n, 1e-12, "point")


# closings whose cycles the solver admits: near returns (period 6 to 1228,
# shifted and skewed systems among them) and one fiber-chain closing
CLOSINGS = [
    ((1.0 / 12.0, 0.02, None), (0.1, 0.2, 0.3), 1e-3, "leaf"),
    ((1.0 / 12.0, 0.0, None), (0.1, 0.2, 0.3), 1e-3, "point"),
    ((0.0, 0.0, None), (0.13, 0.41, 0.0), 0.01, "leaf"),
    ((0.37, 0.02, (-5e-4, 3e-4, 0.0)), (0.7, 0.05, 0.9), 0.01, "leaf"),
    ((0.37, 0.0, (1e-3, -2e-3, 5e-4)), (0.13, 0.41, 0.0), 0.01, "leaf"),
    ((0.3, 0.0, None), (0.0, 0.0, 0.3), 0.01, "chain"),
]


def test_leaf_residual_matches_array_loop():
    for (alpha, kappa, shift), x0, threshold, mode in CLOSINGS:
        sys = CatCircleSystem(alpha, kappa, shift=shift)
        if mode == "chain":
            leaf = qs.find_periodic_center_leaf_from_leaf_return(sys, x0, 1, threshold)
        else:
            nr = qs.find_near_return(sys, x0, 5000, threshold, mode)
            leaf = qs.find_periodic_center_leaf(sys, nr.cycle)
        expected = array_leaf_residual(sys, leaf.point, leaf.period)
        assert _same_bits(leaf.leaf_residual, expected), (alpha, kappa, shift, x0)


def test_math_sin_matches_np_sin():
    # the kernel's bit-identity rests on the platform libm: math.sin and
    # np.sin (scalar and array loops) must agree on the arguments 2 pi t the
    # maps produce, t in [-1, 2) (inverse takes sin of the unwrapped base)
    t = 2.0 * np.pi * np.random.default_rng(20260).uniform(-1.0, 2.0, 200_000)
    scalar = [float(np.sin(v)) for v in t]
    assert [math.sin(v) for v in t.tolist()] == scalar
    assert np.sin(t).tolist() == scalar


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_step_refuses_non_finite(bad, slot):
    sys = CatCircleSystem(0.3, 0.02)
    p = [0.1, 0.2, 0.3]
    p[slot] = bad
    with np.errstate(invalid="ignore"):
        for one_point, array_map in ((step, sys.forward), (step_inverse, sys.inverse)):
            with pytest.raises(ChartError):
                one_point(sys, *p)
            with pytest.raises(ChartError):
                array_map(np.array(p))


def test_step_refuses_overflowing_sine_argument():
    # 2 pi x0 overflows while 2 x0 + x1 stays finite: np.sin(inf) is nan
    # (then wrap refuses it), math.sin(inf) would raise ValueError
    sys = CatCircleSystem(0.3, 0.02)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ChartError):
            sys.forward(np.array([5e307, 0.0, 0.0]))
    with pytest.raises(ChartError):
        step(sys, 5e307, 0.0, 0.0)
    with pytest.raises(ChartError):
        step_inverse(sys, 5e307, 0.0, 0.0)


@pytest.mark.parametrize("p", [(5e307, 0.0, 0.0), (-5e307, 0.25, 0.5), (8e307, -2e307, -0.0)])
def test_kappa_zero_maps_skip_the_overflowing_sine(p):
    # at kappa = 0 the maps skip the kappa sin term, so an overflowing 2 pi x0
    # no longer turns theta into nan (0 sin(inf)): the point is mapped
    sys = CatCircleSystem(0.3, 0.0, shift=(1e-3, 0.0, -2e-4))
    fwd, inv = step(sys, *p), step_inverse(sys, *p)
    assert all(math.isfinite(c) for c in fwd + inv)
    assert _same_bits(fwd, _forward(sys, p))
    assert _same_bits(inv, _inverse(sys, p))


@pytest.mark.parametrize(
    "p", [(math.inf, 0.0, 0.0), (0.0, -math.inf, 0.5), (math.nan, 0.1, 0.2), (0.1, 0.2, math.nan)]
)
def test_kappa_zero_maps_refuse_non_finite(p):
    sys = CatCircleSystem(0.3, 0.0)
    for fn in (
        lambda *q: step(sys, *q),
        lambda *q: step_inverse(sys, *q),
        lambda *q: _forward(sys, q),
        lambda *q: _inverse(sys, q),
    ):
        with pytest.raises(ChartError):
            fn(*p)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_wrap_float_refuses_non_finite(bad):
    with pytest.raises(ChartError):
        wrap_float(bad)


def test_nan_start_refused(skew_sys):
    for bad in (math.nan, math.inf, -math.inf):
        x0 = (bad, 0.2, 0.3)
        with pytest.raises(ChartError):
            skew_sys.orbit(x0, 3)
        with pytest.raises(ChartError):
            qs.generate_noisy(skew_sys, x0, 3, 1e-4, seed=0)
        for mode in ("point", "leaf"):
            with pytest.raises(ChartError):
                qs.find_near_return(skew_sys, x0, 10, 0.1, mode)


def test_orbit_takes_one_point(skew_sys):
    with pytest.raises(ValueError):
        skew_sys.orbit(np.zeros((2, 3)), 3)
    with pytest.raises(ValueError):
        skew_sys.orbit(np.zeros(3), -1)
