"""Periodic center leaves from near returns, and quasi-stability semiconjugacies.

Both constructions ride on the cyclic / windowed quasi-shadowing solver:
a near return closes into a cyclic pseudo orbit whose periodic tracing
sequence pins down a periodic center fiber, and the orbits of a nearby
map g, read as pseudo orbits of f, shadow into a map h with
h(g(x)) = tau_{g(x)}(f(h(x))) up to solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuasiShadowError, SearchError
from .orbits import NearReturn, PseudoOrbit, make_cyclic, write_table
from .solver import ShadowResult, SolverConfig, shadow, shadow_batch
from .systems import C, CatCircleSystem, leaf_dist, splitting_at, splitting_error
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


# the semiconjugacy traces with tau1 whatever variant is requested
SEMICONJUGACY_VARIANT = "tau1"


def closing_variant(variant: str) -> str:
    """The variant a closing solve runs for a requested one: tau1 cannot slide along fibers."""
    return "tau2" if variant == "tau1" else variant


def _closing_config(cfg: SolverConfig | None) -> SolverConfig:
    cfg = cfg if cfg is not None else SolverConfig()
    return replace(cfg, variant=closing_variant(cfg.variant))


def _leaf_residual(sys: CatCircleSystem, p: np.ndarray, period: int) -> float:
    """Base gap between the fiber of p and f^period(p), iterated on the float kernel."""
    z = p.tolist()
    for _ in range(period):
        z = sys.step(*z)
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
    if n < 1:
        raise ValueError("n must be >= 1")
    cfg = _closing_config(cfg)
    x = wrap(x)
    base = x[:2].tolist()
    thetas = [float(x[2])]
    walks = []  # walks[i]: x_i .. f^n(x_i); orbit's wrap keeps the anchor's bits, all in [0, 1)
    for m in range(1, max_chain + 1):
        walks.append(sys.orbit((base[0], base[1], thetas[m - 1]), n))
        z = walks[-1][-1]
        gap = leaf_dist(x, z)
        if gap >= delta:
            raise SearchError(f"fiber return gap {gap:.6g} is not below delta={delta:g}")
        # the new anchor is the exact circular minimizer on the fiber, so
        # anchor distances reduce to circle distances between thetas
        hits = np.flatnonzero(np.abs(minimal_rep(np.asarray(thetas) - z[2])) < delta - gap)
        thetas.append(z[2])
        if hits.size:
            lo, hi = int(hits[0]), m
            break
    else:
        raise SearchError(f"no recurrence pair on the fiber within {max_chain} chain steps")
    res = shadow(sys, PseudoOrbit(np.concatenate([w[:n] for w in walks[lo:hi]]), cyclic=True), cfg)
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
        header = ["x1", "x2", "x3", "h1", "h2", "h3", "displacement", "residual"]
        cols = [self.grid, self.values, self.displacement, self.residuals]
        write_table(path, header, np.column_stack(cols), index=False)


def grid_points(per_axis: int) -> np.ndarray:
    """Uniform lattice of per_axis^3 points on T^3."""
    if per_axis < 1:
        raise ValueError("per_axis must be >= 1")
    t = np.arange(per_axis) / per_axis
    return np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)


def perturbation_size(sys_f: CatCircleSystem, sys_g: CatCircleSystem, points) -> float:
    """Measured sup of dist(f(x), g(x)) over the sample points."""
    return float(np.max(dist(sys_f.forward(points), sys_g.forward(points))))


def build_semiconjugacy(
    sys_f: CatCircleSystem,
    sys_g: CatCircleSystem,
    grid,
    cfg: SolverConfig | None = None,
    *,
    window: int,
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
    their 2W + 1 points, so the splitting is computed once on the 2W + 2
    points of its g-orbit and sliced for both.  Every window is admitted
    on its own defect, which :func:`shadow_batch` measures against f, and
    on its own closed-form constants.  A grid point fails with the
    first error of its x-window, else of its g(x)-window; failures are
    collected, not fatal.  A system whose splitting :func:`splitting_error`
    refuses fails every grid point before any orbit or frame is computed.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    cfg = replace(cfg if cfg is not None else SolverConfig(), variant=SEMICONJUGACY_VARIANT)
    grid = wrap(np.asarray(grid, float).reshape(-1, 3))
    n_pts = len(grid)
    values = np.full((n_pts, 3), np.nan)
    values_g = np.full((n_pts, 3), np.nan)
    center_g = np.full((n_pts, 3), np.nan)
    displacement = np.full(n_pts, np.nan)
    residuals = np.full(n_pts, np.nan)
    errors: list = [None] * n_pts  # the first error of every grid point

    def solve(pts, split, lo: int, members: list, start: int) -> dict:
        """(y_0, correction_0) by member b, for the windows pts[b, start : start + 2W + 1] solved.

        The windows of the members are solved as one batch, and the error of
        a window that fails goes to grid point lo + b.
        """
        n = 2 * window + 1
        orbits = [PseudoOrbit(pts[b, start : start + n], k_start=-window) for b in members]
        results = shadow_batch(sys_f, orbits, cfg, split[members, start : start + n])
        solved = {}
        for b, res in zip(members, results):
            if isinstance(res, QuasiShadowError):
                errors[lo + b] = res
            else:
                solved[b] = res.y[window].copy(), res.corrections[window].copy()
        return solved

    refusal = splitting_error(sys_f)
    if refusal is not None:
        errors = [refusal] * n_pts
    else:
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
        for lo in range(0, n_pts, _GRID_CHUNK):
            pts = rows[:, np.arange(lo, min(lo + _GRID_CHUNK, n_pts))].swapaxes(0, 1)
            split = splitting_at(sys_f, pts)
            at_x = solve(pts, split, lo, list(range(len(pts))), 0)
            for b, (y_g, center) in solve(pts, split, lo, list(at_x), 1).items():
                values[lo + b] = at_x[b][0]
                values_g[lo + b], center_g[lo + b] = y_g, center

    rho0 = cfg.rho0
    ok = ~np.isnan(values[:, 0])
    if ok.any():
        gx = rows[window + 1, ok]
        target = expmap(gx, center_g[ok] + logmap(gx, sys_f.forward(values[ok]), rho0), rho0)
        displacement[ok] = dist(grid[ok], values[ok])
        residuals[ok] = dist(values_g[ok], target)
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
        failures=[(p, f"{type(exc).__name__}: {exc}") for p, exc in enumerate(errors) if exc],
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
    # per axis on (chunk, N) planes, squares summed in torus.norm's order; sqrt is monotone
    # and correctly rounded, so one sqrt after the min and max gives the bits of the norms
    worst = 0.0
    for lo in range(0, len(probes), chunk):
        for j in range(points.shape[1]):
            d = probes[lo : lo + chunk, j, None] - points[:, j]
            d -= np.round(d)
            d *= d
            total = d if j == 0 else total + d
        worst = max(worst, float(np.max(np.min(total, axis=1))))
    return math.sqrt(worst)
