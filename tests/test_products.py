"""Frame products and the covering radius against their earlier spellings, bit for bit.

``Splitting.coeffs`` and ``transversal`` sum each row in the
order of ``np.einsum("...ij,...j->...i")`` on C-ordered operands and drop
the frames' exact zeros; ``_covering_radius`` works per axis and takes one
sqrt after the min.  The oracles in oracles.py keep the earlier forms.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quasishadow.applications import _covering_radius
from quasishadow.systems import ANALYTIC, C, CatCircleSystem, Splitting, splitting_at

from oracles import chunked_covering_radius, einsum_coeffs, einsum_transversal

kappas = st.sampled_from([0.0, 0.02, 0.3])
# shares of the slots set to +0.0 and to -0.0
zero_shares = st.tuples(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.sampled_from([0.0, 0.1, 0.5, 1.0]))


def _same_bits(a, b):
    """Equal shapes and bit patterns (tells -0.0 from 0.0)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _draw(seed, shape, zeros):
    """Values over many magnitudes, with the given shares of slots set to +0.0 and -0.0."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3, shape)
    u = rng.random(shape)
    v[u < zeros[0]] = 0.0
    v[(u >= zeros[0]) & (u < zeros[0] + zeros[1])] = -0.0
    return v


def _layouts(split, v):
    """The operand layouts the solver passes: windows, cyclic sources, stepped views, empty."""
    W = v.shape[-2]
    cyclic_src = (np.arange(W) - 1) % W
    yield split, v
    for key in (slice(1, None), slice(None, -1), cyclic_src, slice(None, None, 2), slice(0, 0)):
        yield split[..., key], v[..., key, :]


def _check_products(split, v):
    for s, w in _layouts(split, v):
        assert _same_bits(s.coeffs(w), einsum_coeffs(s, w))
        before = w.copy()
        assert _same_bits(s.transversal(w), einsum_transversal(s, w))
        assert _same_bits(w, before)


@settings(max_examples=60, deadline=None)
@given(
    kappa=kappas,
    seed=st.integers(0, 2**32 - 1),
    zeros=zero_shares,
    batch=st.integers(1, 3),
    W=st.integers(1, 9),
)
def test_products_match_einsum(kappa, seed, zeros, batch, W):
    sys = CatCircleSystem(0.3, kappa)
    pts = np.random.default_rng(seed).random((batch, W, 3))
    split = splitting_at(sys, pts)
    assert split.constant == (kappa == 0.0)
    _check_products(split, _draw(seed + 1, (batch, W, 3), zeros))


def test_products_match_einsum_on_a_solver_batch():
    # the shape of a stability chunk: 32 windows of 401 points
    pts = np.random.default_rng(3).random((32, 401, 3))
    for kappa in (0.0, 0.02):
        split = splitting_at(CatCircleSystem(0.3, kappa), pts)
        _check_products(split, _draw(4, pts.shape, (0.05, 0.05)))


def test_products_match_einsum_on_one_vector():
    # one point, one frame: the shapes the verification and the tests pass
    split = splitting_at(CatCircleSystem(0.3, 0.02), np.array([0.1, 0.7, 0.2]))
    for s in (ANALYTIC, split):
        for v in ([0.3, -0.0, 2.0], [-0.0, -0.0, -0.0], [1e-9, 0.5, -0.0]):
            assert _same_bits(s.coeffs(v), einsum_coeffs(s, v))
            assert _same_bits(s.transversal(v), einsum_transversal(s, v))


def test_exact_frame_entries():
    # the zeros and ones the products skip and copy
    split = splitting_at(CatCircleSystem(0.3, 0.3), np.random.default_rng(0).random((50, 3)))
    for s in (ANALYTIC, split):
        assert np.all(s.frames[..., :, C] == [0.0, 0.0, 1.0])
        assert np.all(s.frames_inv[..., :, 2] == [0.0, 1.0, 0.0])
    assert np.all(ANALYTIC.frames[2] == [0.0, 1.0, 0.0])
    assert np.all(ANALYTIC.frames_inv[C] == [0.0, 0.0, 1.0])


def test_products_ignore_memory_layout():
    # einsum sums Fortran-ordered per-point operands in another order; the
    # explicit sums give the same bits on C- and F-ordered copies of one input
    pts = np.random.default_rng(5).random((32, 401, 3))
    v = _draw(6, pts.shape, (0.05, 0.05))
    vf = np.asfortranarray(v)
    for kappa in (0.0, 0.02):
        split = splitting_at(CatCircleSystem(0.3, kappa), pts)
        fsplit = Splitting(np.asfortranarray(split.frames), np.asfortranarray(split.frames_inv))
        for name in ("coeffs", "transversal"):
            c_form = getattr(split, name)(v)
            assert _same_bits(getattr(fsplit, name)(vf), c_form)
            assert _same_bits(getattr(split, name)(vf), c_form)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_probes=st.integers(0, 200),
    n_points=st.integers(0, 40),
    duplicates=st.integers(0, 5),
)
def test_covering_radius_matches_chunked_norm(seed, n_probes, n_points, duplicates):
    rng = np.random.default_rng(seed)
    probes = rng.random((n_probes, 3))
    points = rng.random((n_points, 3))
    if n_points:
        points = np.concatenate([points, points[rng.integers(0, n_points, duplicates)]])
    got = _covering_radius(probes, points)
    assert got.hex() == chunked_covering_radius(probes, points).hex()


def test_covering_radius_edges():
    probes = np.random.default_rng(8).random((130, 3))
    assert _covering_radius(probes, np.empty((0, 3))) == float("inf")
    assert _covering_radius(np.empty((0, 3)), probes) == 0.0
    # every probe is a point: the radius is an exact zero
    assert _covering_radius(probes, probes[::-1]).hex() == (0.0).hex()
    grid = np.stack(np.meshgrid(*[np.arange(10) / 10] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    shifted = (grid + 0.05) % 1.0
    assert _covering_radius(shifted, grid).hex() == chunked_covering_radius(shifted, grid).hex()
