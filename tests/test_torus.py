import numpy as np
import pytest

import quasishadow as qs
from quasishadow.errors import ChartError


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
