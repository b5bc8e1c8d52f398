import numpy as np
import pytest

import quasishadow as qs
from quasishadow.cli import to_json
from quasishadow.errors import SearchError

from oracles import measure_defect, product_map, scan_near_return, true_window


def test_true_orbit_zero_defect(product_sys):
    orbit = true_window(product_sys, (0.11, 0.23, 0.5), 50)
    assert measure_defect(product_sys, orbit)[0] == 0.0
    assert qs.shadow(product_sys, orbit).diagnostics.defect == 0.0


def test_noise_zero_two_sided_defect_is_roundoff(product_sys):
    orbit = qs.generate_noisy(product_sys, (0.11, 0.23, 0.5), 50, 0.0, seed=1)
    # backward half goes through f(f^{-1}(x)), exact only up to float rounding
    assert measure_defect(product_sys, orbit)[0] <= 1e-15


def test_generate_noisy_deterministic(product_sys):
    a = qs.generate_noisy(product_sys, (0.11, 0.23, 0.5), 30, 1e-4, seed=42)
    b = qs.generate_noisy(product_sys, (0.11, 0.23, 0.5), 30, 1e-4, seed=42)
    assert np.array_equal(a.points, b.points)
    assert to_json(a) == to_json(b)


def test_generate_noisy_defect_bounded(product_sys):
    orbit = qs.generate_noisy(product_sys, (0.11, 0.23, 0.5), 200, 1e-4, seed=3)
    assert 0.0 < measure_defect(product_sys, orbit)[0] <= 1e-4
    assert len(orbit) == 401
    assert orbit.ks[0] == -200 and orbit.ks[-1] == 200


def test_generate_noisy_defect_bounded_100_seeds(product_sys):
    for seed in range(100):
        orbit = qs.generate_noisy(product_sys, (0.11, 0.23, 0.5), 10, 1e-3, seed=seed)
        assert measure_defect(product_sys, orbit)[0] <= 1e-3


def test_generate_noisy_rejects_large_noise(product_sys):
    with pytest.raises(ValueError):
        qs.generate_noisy(product_sys, (0.1, 0.2, 0.3), 10, 0.05, seed=0)


def test_window_needs_two_points():
    with pytest.raises(ValueError):
        qs.PseudoOrbit(np.array([[0.1, 0.2, 0.3]]), cyclic=False)
    qs.PseudoOrbit(np.array([[0.1, 0.2, 0.3]]), cyclic=True)  # single-point cycle ok


def test_measure_defect_tampered_point(product_sys):
    orbit = true_window(product_sys, (0.11, 0.23, 0.5), 10)
    pts = orbit.points.copy()
    j = 13  # row index of k = 3
    pts[j] = qs.wrap(pts[j] + np.array([1e-3, 0.0, 0.0]))
    tampered = qs.PseudoOrbit(pts, k_start=-10)
    res = qs.shadow(product_sys, tampered)
    expected = max(
        qs.dist(product_sys.forward(pts[j - 1]), pts[j]),
        qs.dist(product_sys.forward(pts[j]), pts[j + 1]),
    )
    assert res.diagnostics.defect == expected
    assert res.defect_index in (2, 3)
    assert (res.diagnostics.defect, res.defect_index) == measure_defect(product_sys, tampered)


def test_measure_defect_cyclic_includes_wrap(product_sys):
    pts = product_sys.orbit((0.11, 0.23, 0.5), 4)  # 5 points, not a cycle
    orbit = qs.PseudoOrbit(pts, cyclic=True)
    wrap_gap = qs.dist(product_sys.forward(pts[-1]), pts[0])
    assert measure_defect(product_sys, orbit) == (wrap_gap, 4)
    # the solver measures the same wrap gap and refuses it at the gate
    with pytest.raises(qs.AdmissibilityError, match=f"defect {wrap_gap:.6g} predicts"):
        qs.shadow(product_sys, orbit)


def test_find_near_return_fixed_fiber_leaf_mode():
    sys0 = qs.cat_circle_system(alpha=0.0, kappa=0.0)
    nr = qs.find_near_return(sys0, (0.0, 0.0, 0.3), 10, 0.5, mode="leaf")
    assert nr.n == 1
    assert nr.gap == 0.0


def test_find_near_return_matches_scan_oracle():
    sys0 = qs.cat_circle_system(alpha=1.0 / 12.0, kappa=0.0)
    nr = qs.find_near_return(sys0, (0.1, 0.2, 0.3), 5000, 1e-3, mode="leaf")
    oracle = scan_near_return(
        lambda z: product_map(z, 1.0 / 12.0), (0.1, 0.2, 0.3), 5000, 1e-3, base_only=True
    )
    assert oracle is not None
    assert nr.n == oracle[0] == 6
    assert abs(nr.gap - oracle[1]) < 1e-18


def test_point_gap_dominates_leaf_gap(product_sys):
    x0 = qs.wrap((0.1, 0.2, 0.3))
    z = x0.copy()
    for n in range(1, 40):
        z = product_sys.forward(z)
        assert qs.dist(x0, z) >= qs.leaf_dist(x0, z)


def test_find_near_return_exhausts(product_sys):
    with pytest.raises(SearchError):
        qs.find_near_return(product_sys, (0.137, 0.411, 0.0), 5, 1e-9, mode="point")


def test_near_return_cycle_fixed_point():
    sys0 = qs.cat_circle_system(alpha=0.0, kappa=0.0)
    nr = qs.find_near_return(sys0, (0.0, 0.0, 0.3), 10, 0.5, mode="leaf")
    cyc = nr.cycle
    assert len(cyc) == 1 and cyc.cyclic
    assert measure_defect(sys0, cyc)[0] == 0.0
    assert qs.shadow(sys0, cyc, qs.SolverConfig(variant="tau2")).diagnostics.defect == 0.0


def test_near_return_cycle_point_mode_defect_equals_gap():
    sys0 = qs.cat_circle_system(alpha=1.0 / 12.0, kappa=0.0)
    nr = qs.find_near_return(sys0, (0.1, 0.2, 0.3), 5000, 1e-3, mode="point")
    cyc = nr.cycle
    assert nr.n == 12
    res = qs.shadow(sys0, cyc)
    assert res.diagnostics.defect == nr.gap
    assert res.defect_index == len(cyc) - 1


def test_near_return_cycle_leaf_mode_measures_fiberwise(product_sys):
    # fiber rotation 0.3 makes the pointwise wrap gap large; the leaf-wise
    # defect is the base gap of the near return
    nr = qs.find_near_return(product_sys, (0.1, 0.2, 0.3), 5000, 1e-3, mode="leaf")
    cyc = nr.cycle
    assert cyc.leaf_mode
    res = qs.shadow(product_sys, cyc, qs.SolverConfig(variant="tau2"))
    assert res.diagnostics.defect == nr.gap
    assert (res.diagnostics.defect, res.defect_index) == measure_defect(product_sys, cyc)
    pointwise = qs.dist(product_sys.forward(cyc.points[-1]), cyc.points[0])
    assert pointwise > 0.1  # the fiber jump the slide has to absorb


def test_orbit_serialization_roundtrip(tmp_path, product_sys):
    orbit = qs.generate_noisy(product_sys, (0.11, 0.23, 0.5), 5, 1e-4, seed=9)
    payload = to_json(orbit)
    assert set(payload) == {"points", "cyclic", "k_start", "leaf_mode"}
    assert payload["k_start"] == -5
    assert np.array_equal(np.asarray(payload["points"]), orbit.points)
    path = tmp_path / "orbit.csv"
    orbit.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "k,x1,x2,x3"
    assert len(rows) == len(orbit) + 1
    first = rows[1].split(",")
    assert int(first[0]) == -5
    assert float(first[1]) == orbit.points[0, 0]  # 17 significant digits round-trip
