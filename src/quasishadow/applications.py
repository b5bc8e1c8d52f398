"""Periodic center leaves from near returns, and quasi-stability semiconjugacies.

Both constructions ride on the cyclic / windowed quasi-shadowing solver:
a near return closes into a cyclic pseudo orbit whose periodic tracing
sequence pins down a periodic center fiber, and the orbits of a nearby
map g, read as pseudo orbits of f, shadow into a map h with
h(g(x)) = tau_{g(x)}(f(h(x))) up to solver tolerance.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuasiShadowError, SearchError
from .orbits import NearReturn, PseudoOrbit, make_cyclic, measure_defect
from .solver import ContractionEstimates, ShadowResult, SolverConfig, shadow, shadow_batch
from .systems import C, CatCircleSystem, Splitting, leaf_dist, splitting_at
from .torus import RHO0_DEFAULT, dist, expmap, logmap, minimal_rep, wrap

# grid points solved as one batch: large enough that per-call overhead
# vanishes, small enough that the batch's arrays stay a few megabytes
_GRID_CHUNK = 32


@dataclass
class PeriodicCenterLeaf:
    """A representative point on a fiber that the period-th iterate maps to itself.

    ``leaf_residual`` is the measured base gap between the fiber of the
    representative and its period-th image; verifying by iteration
    amplifies float error of the representative by the unstable product,
    so the residual scales like mu^period times the solve accuracy.
    """

    point: np.ndarray
    period: int
    leaf_residual: float
    trace_max: float
    result: ShadowResult
    chain_start: np.ndarray | None = None


def _closing_config(cfg: SolverConfig | None) -> SolverConfig:
    cfg = cfg if cfg is not None else SolverConfig(variant="tau2")
    if cfg.variant == "tau1":
        cfg = replace(cfg, variant="tau2")
    return cfg


def _leaf_residual(sys: CatCircleSystem, p: np.ndarray, period: int) -> float:
    z = p
    for _ in range(period):
        z = sys.forward(z)
    return float(leaf_dist(p, z))


def find_periodic_center_leaf(
    sys: CatCircleSystem,
    near_return: NearReturn,
    cfg: SolverConfig | None = None,
) -> PeriodicCenterLeaf:
    """Close a near return into a cyclic pseudo orbit and trace it periodically.

    The tracing sequence of the period-n cyclic orbit is itself periodic,
    so the fiber of y_0 returns to itself after n steps; y_0 is the
    representative.  Fiber-sliding variants only (tau2 default, tau3 for
    pointwise returns).
    """
    cfg = _closing_config(cfg)
    orbit = make_cyclic(sys, near_return)
    res = shadow(sys, orbit, cfg)
    p = res.y[0]
    return PeriodicCenterLeaf(
        point=p,
        period=near_return.n,
        leaf_residual=_leaf_residual(sys, p, near_return.n),
        trace_max=res.max_trace_dist,
        result=res,
    )


def find_periodic_center_leaf_from_leaf_return(
    sys: CatCircleSystem,
    x,
    n: int,
    delta: float,
    cfg: SolverConfig | None = None,
    max_chain: int = 10000,
) -> PeriodicCenterLeaf:
    """Periodic center leaf from a fiber that nearly returns to itself after n steps.

    Builds the anchor chain x_0 = x, x_i = nearest point of the fiber of x
    to f^n(x_{i-1}), stops at the first pair i < j with
    d(x_i, x_j) < delta - d(f^n(x_{j-1}), x_j), and solves the cyclic
    pseudo orbit of period n (j - i) assembled from the chain segments.
    The returned ``chain_start`` is x_i, the fiber point the representative
    traces.
    """
    cfg = _closing_config(cfg)
    x = wrap(x)
    base = x[:2]
    thetas = [float(x[2])]
    pair = None
    gap = None
    for m in range(1, max_chain + 1):
        anchor = np.array([base[0], base[1], thetas[m - 1]])
        z = anchor
        for _ in range(n):
            z = sys.forward(z)
        gap = float(leaf_dist(x, z))
        if gap >= delta:
            raise SearchError(
                f"fiber return gap {gap:.6g} is not below delta={delta:g}"
            )
        theta_m = float(z[2])
        # the new anchor is the exact circular minimizer on the fiber, so
        # anchor distances reduce to circle distances between thetas
        older = np.asarray(thetas)
        circ = np.abs(minimal_rep(older - theta_m))
        hits = np.flatnonzero(circ < delta - gap)
        if hits.size:
            pair = (int(hits[0]), m)
            thetas.append(theta_m)
            break
        thetas.append(theta_m)
    if pair is None:
        raise SearchError(
            f"no recurrence pair on the fiber within {max_chain} chain steps"
        )
    lo, hi = pair
    segments = []
    for idx in range(lo, hi):
        anchor = np.array([base[0], base[1], thetas[idx]])
        segments.append(sys.orbit(anchor, n - 1))
    cyc = PseudoOrbit(np.concatenate(segments, axis=0), cyclic=True)
    cyc.defect, cyc.defect_index = measure_defect(sys, cyc)
    res = shadow(sys, cyc, cfg)
    period = n * (hi - lo)
    p = res.y[0]
    return PeriodicCenterLeaf(
        point=p,
        period=period,
        leaf_residual=_leaf_residual(sys, p, period),
        trace_max=res.max_trace_dist,
        result=res,
        chain_start=np.array([base[0], base[1], thetas[lo]]),
    )


@dataclass
class ConjugacyMap:
    """Gridwise semiconjugacy data: h values, displacements, step residuals.

    ``values_at_g`` and ``center_at_g`` come from an independent solve at
    g(x); the residual compares h(g(x)) with the center-corrected image of
    f(h(x)).
    """

    grid: np.ndarray
    values: np.ndarray
    values_at_g: np.ndarray
    center_at_g: np.ndarray
    window: int
    displacement: np.ndarray
    residuals: np.ndarray
    perturbation_size: float
    max_displacement: float
    residual_max: float
    residual_mean: float
    center_residual: float
    failures: list

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["x1", "x2", "x3", "h1", "h2", "h3", "displacement", "residual"]
            )
            for x, h, dd, r in zip(self.grid, self.values, self.displacement, self.residuals):
                writer.writerow(
                    [format(v, ".17g") for v in x]
                    + [format(v, ".17g") for v in h]
                    + [format(dd, ".17g"), format(r, ".17g")]
                )


def grid_points(per_axis: int) -> np.ndarray:
    """Uniform lattice of per_axis^3 points on T^3."""
    t = np.arange(per_axis) / per_axis
    return np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)


def perturbation_size(sys_f: CatCircleSystem, sys_g: CatCircleSystem, points) -> float:
    """Measured sup of dist(f(x), g(x)) over the sample points."""
    return float(np.max(dist(sys_f.forward(points), sys_g.forward(points))))


def _centers(
    sys_f: CatCircleSystem,
    cfg: SolverConfig,
    pts: np.ndarray,
    gaps: np.ndarray,
    split: Splitting | None,
    members: list,
    start: int,
    window: int,
    est: ContractionEstimates | None,
) -> tuple[dict, ContractionEstimates | None]:
    """Trace the windows pts[b, start : start + 2 window + 1] of the members b as pseudo orbits of f.

    ``gaps[b, j]`` is the one-step error dist(f(pts[b, j]), pts[b, j + 1]).
    Returns {b: (y_0, correction_0) or the error of the window} and the
    probed constants.  While ``est`` is None the windows are solved one at
    a time, each probed on its own, until one solves; its constants serve
    the remaining windows, which are solved as one batch.
    """
    n = 2 * window + 1

    def solve(batch, est):
        orbits = []
        for b in batch:
            seg = gaps[b, start : start + n - 1]
            j = int(np.argmax(seg))
            orbits.append(
                PseudoOrbit(
                    pts[b, start : start + n],
                    k_start=-window,
                    defect=float(seg[j]),
                    defect_index=j - window,
                )
            )
        sub = None if split is None else split[batch, start : start + n]
        return shadow_batch(sys_f, orbits, cfg, est, sub)

    results: list = []
    while est is None and len(results) < len(members):
        results += solve(members[len(results) : len(results) + 1], None)
        if isinstance(results[-1], ShadowResult):
            est = results[-1].diagnostics
    if len(results) < len(members):
        results += solve(members[len(results) :], est)
    centers = {
        b: res if isinstance(res, QuasiShadowError)
        else (res.y[window].copy(), res.corrections[window].copy())
        for b, res in zip(members, results)
    }
    return centers, est


def build_semiconjugacy(
    sys_f: CatCircleSystem,
    sys_g: CatCircleSystem,
    grid,
    cfg: SolverConfig | None = None,
    window: int = 200,
) -> ConjugacyMap:
    """Quasi-stability map h on a sample grid.

    For each grid point x the orbit of x under g, read on the window
    [-window, window], is a pseudo orbit of f; its tracing sequence gives
    h(x) = y_0 and the solved center corrections.  A second solve centered
    at g(x) supplies the data for the semiconjugacy residual
    dist(h(g(x)), tau_{g(x)}(f(h(x)))).

    The grid is solved in chunks of ``_GRID_CHUNK`` points, each as two
    :func:`shadow_batch` calls (the x-windows, then the g(x)-windows of the
    points whose x-window solved).  The two windows of a point share 2W of
    their 2W + 1 points, so the numerical splitting is computed once on the
    2W + 2 points of its g-orbit and sliced for both.  The probed
    admissibility constants come from the first grid point whose x-window
    solves (each earlier point is probed on its own) and are reused for
    every later window.  A grid point fails with the first error of its
    x-window, else of its g(x)-window; failures are collected, not fatal.
    """
    cfg = cfg if cfg is not None else SolverConfig(variant="tau1")
    cfg = replace(cfg, variant="tau1")
    grid = wrap(np.asarray(grid, float).reshape(-1, 3))
    n_pts = len(grid)
    rows = np.empty((2 * window + 2, n_pts, 3))
    rows[window] = grid
    z = grid
    for j in range(window + 1):
        z = sys_g.forward(z)
        rows[window + 1 + j] = z
    z = grid
    for j in range(window):
        z = sys_g.inverse(z)
        rows[window - 1 - j] = z

    values = np.full((n_pts, 3), np.nan)
    values_g = np.full((n_pts, 3), np.nan)
    center_g = np.full((n_pts, 3), np.nan)
    displacement = np.full(n_pts, np.nan)
    residuals = np.full(n_pts, np.nan)
    errors: dict = {}
    est = None
    for lo in range(0, n_pts, _GRID_CHUNK):
        chunk = np.arange(lo, min(lo + _GRID_CHUNK, n_pts))
        pts = rows[:, chunk].swapaxes(0, 1)
        split = None
        if sys_f.splitting_mode != "analytic":
            split = splitting_at(sys_f, pts, strict=False)
        gaps = dist(sys_f.forward(pts[:, :-1]), pts[:, 1:])
        at_x, est = _centers(sys_f, cfg, pts, gaps, split, list(range(len(chunk))), 0, window, est)
        solved = [b for b, res in at_x.items() if not isinstance(res, QuasiShadowError)]
        at_g, est = _centers(sys_f, cfg, pts, gaps, split, solved, 1, window, est)
        for b, res in at_x.items():
            if isinstance(res, QuasiShadowError):
                errors[chunk[b]] = res
        for b, res in at_g.items():
            if isinstance(res, QuasiShadowError):
                errors[chunk[b]] = res
                continue
            values[chunk[b]] = at_x[b][0]
            values_g[chunk[b]], center_g[chunk[b]] = res

    rho0 = cfg.chart.rho0
    ok = ~np.isnan(values[:, 0])
    gx = rows[window + 1, ok]
    target = expmap(gx, center_g[ok] + logmap(gx, sys_f.forward(values[ok]), rho0), rho0)
    displacement[ok] = dist(grid[ok], values[ok])
    residuals[ok] = dist(values_g[ok], target)
    if ok.any():
        split = splitting_at(sys_f, grid[ok])
        log_h = logmap(grid[ok], values[ok], rho0)
        center_res = float(np.max(np.abs(split.coeffs(log_h)[:, C])))
        max_disp = float(np.max(displacement[ok]))
        res_max = float(np.max(residuals[ok]))
        res_mean = float(np.mean(residuals[ok]))
    else:
        center_res = max_disp = res_max = res_mean = float("nan")
    return ConjugacyMap(
        grid=grid,
        values=values,
        values_at_g=values_g,
        center_at_g=center_g,
        window=window,
        displacement=displacement,
        residuals=residuals,
        perturbation_size=perturbation_size(sys_f, sys_g, grid),
        max_displacement=max_disp,
        residual_max=res_max,
        residual_mean=res_mean,
        center_residual=center_res,
        failures=[(int(p), f"{type(exc).__name__}: {exc}") for p, exc in sorted(errors.items())],
    )


def verify_semiconjugacy(
    cmap: ConjugacyMap,
    sys_f: CatCircleSystem,
    sys_g: CatCircleSystem,
    probe_points=None,
    rho0: float = RHO0_DEFAULT,
) -> dict:
    """Recompute the intertwining residuals from the stored map data.

    Also certifies a finite surjectivity proxy: the image of the grid
    under h must be dense to within 2 * (grid covering radius + max
    displacement), measured against ``probe_points`` (the grid itself by
    default).
    """
    ok = ~np.isnan(cmap.displacement)
    gx = sys_g.forward(cmap.grid[ok])
    target = expmap(
        gx,
        cmap.center_at_g[ok] + logmap(gx, sys_f.forward(cmap.values[ok]), rho0),
        rho0,
    )
    residuals = dist(cmap.values_at_g[ok], target)
    probes = cmap.grid if probe_points is None else wrap(np.asarray(probe_points, float).reshape(-1, 3))
    image = cmap.values[ok]
    covering = _covering_radius(probes, image)
    grid_covering = _covering_radius(probes, cmap.grid)
    bound = 2.0 * (grid_covering + cmap.max_displacement)
    return {
        "residual_max": float(np.max(residuals)) if residuals.size else float("nan"),
        "residual_mean": float(np.mean(residuals)) if residuals.size else float("nan"),
        "pairs_checked": int(ok.sum()),
        "density_radius": covering,
        "density_bound": bound,
        "grid_covering_radius": grid_covering,
        "failures": len(cmap.failures),
    }


def _covering_radius(probes: np.ndarray, points: np.ndarray, chunk: int = 64) -> float:
    """max over probes of the distance to the nearest point of ``points`` (inf when empty)."""
    if len(points) == 0:
        return float("inf")
    worst = 0.0
    for lo in range(0, len(probes), chunk):
        block = probes[lo : lo + chunk]
        d = minimal_rep(block[:, None, :] - points[None, :, :])
        nearest = np.min(np.linalg.norm(d, axis=-1), axis=1)
        worst = max(worst, float(np.max(nearest)))
    return worst
