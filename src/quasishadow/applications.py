"""Periodic center leaves from near returns, and quasi-stability semiconjugacies.

Both constructions ride on the cyclic / windowed quasi-shadowing solver.
A closing traces a cyclic pseudo orbit (the walk of a near return, or an
anchor chain along one fiber) through one shared tail, and the periodic
tracing sequence pins down a periodic center fiber.  The orbits of a
nearby map g, read as pseudo orbits of f, shadow into a map h with
h(g(x)) = tau_{g(x)}(f(h(x))) up to solver tolerance; each grid residual
is measured once, while the map is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuasiShadowError, SearchError
from .orbits import PseudoOrbit, as_points, write_table
from .solver import ShadowResult, SolverConfig, shadow, shadow_batch
from .systems import CatCircleSystem, _forward_walk, leaf_dist, splitting_at
from .torus import dist, expmap, logmap, minimal_rep, wrap

# grid points solved as one batch: large enough that per-call overhead
# vanishes, small enough that the batch's arrays stay a few megabytes
_GRID_CHUNK = 32
# probes measured at once by _covering_radius, on (chunk, N) distance planes
_COVER_CHUNK = 64


@dataclass
class PeriodicCenterLeaf:
    """A representative point on a fiber that the period-th iterate maps to itself.

    ``leaf_residual`` is the measured base gap between the fiber of the
    representative and its period-th image, whose base is walked alone
    (the base never reads theta); verifying by iteration
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
    """The variant a closing runs: tau2 for tau1, else the one requested.

    tau1 is the default, so a closing slides along fibers unless tau3 is
    asked for; tau3 is tau1's solve and closes pointwise returns only.
    """
    return "tau2" if variant == "tau1" else variant


def find_periodic_center_leaf(
    sys: CatCircleSystem,
    cycle: PseudoOrbit,
    cfg: SolverConfig | None = None,
) -> PeriodicCenterLeaf:
    """Trace a cyclic pseudo orbit periodically; y_0 represents its periodic center leaf.

    The tail of both closings: the cycle is the walk of a near return
    (:func:`~quasishadow.orbits.find_near_return`) or an anchor chain along
    one fiber.  The tracing sequence of the period-n cyclic orbit is itself
    periodic, so the fiber of y_0 returns to itself after n steps; the leaf
    residual walks the base of y_0 n times and keeps only the last point
    (:func:`~quasishadow.systems._forward_walk` with ``base_only``), which
    has the base bits of :meth:`CatCircleSystem.orbit`'s last row.
    The solve runs :func:`closing_variant` of the requested variant: tau2
    slides along fibers; tau3 moves along the center, so it admits pointwise
    returns only.  A window (a non-cyclic orbit) raises ValueError.
    """
    if not cycle.cyclic:
        raise ValueError("a periodic center leaf needs a cyclic orbit, got a window")
    cfg = cfg if cfg is not None else SolverConfig()
    res = shadow(sys, cycle, replace(cfg, variant=closing_variant(cfg.variant)))
    p = res.y[0]
    return PeriodicCenterLeaf(
        point=p,
        period=len(cycle),
        leaf_residual=leaf_dist(p, _forward_walk(sys, wrap(p).tolist(), len(cycle), base_only=True)),
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
    cycle = PseudoOrbit(np.concatenate([w[:n] for w in walks[lo:hi]]), cyclic=True)
    leaf = find_periodic_center_leaf(sys, cycle, cfg)
    return replace(leaf, chain_start=np.array([base[0], base[1], thetas[lo]]))


@dataclass
class ConjugacyMap:
    """Gridwise semiconjugacy data: h values, displacements, step residuals.

    ``values_at_g`` and ``center_at_g`` (one center time per point) come from
    an independent solve at g(x); the residual compares h(g(x)) with f(h(x))
    moved by that time along its fiber.  ``perturbation_size`` is the sup of
    dist(f(x), g(x)) over the grid.
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
    collected, not fatal.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    cfg = replace(cfg if cfg is not None else SolverConfig(), variant=SEMICONJUGACY_VARIANT)
    grid = wrap(as_points(grid))
    n_pts = len(grid)
    if not n_pts:
        raise ValueError("grid must hold at least one point")
    values = np.full((n_pts, 3), np.nan)
    values_g = np.full((n_pts, 3), np.nan)
    center_g = np.full(n_pts, np.nan)
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
                solved[b] = res.y[window].copy(), res.corrections[window]
        return solved

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
        move = logmap(gx, sys_f.forward(values[ok]), rho0)
        move[:, 2] += center_g[ok]
        target = expmap(gx, move, rho0)
        displacement[ok] = dist(grid[ok], values[ok])
        residuals[ok] = dist(values_g[ok], target)
        split = splitting_at(sys_f, grid[ok])
        log_h = logmap(grid[ok], values[ok], rho0)
        center_res = float(np.max(np.abs(split.center_coeff(log_h))))
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
        perturbation_size=float(np.max(dist(sys_f.forward(grid), rows[window + 1]))),
        max_displacement=max_disp,
        residual_max=res_max,
        residual_mean=res_mean,
        center_residual=center_res,
        failures=[(p, f"{type(exc).__name__}: {exc}") for p, exc in enumerate(errors) if exc],
    )


def verify_semiconjugacy(cmap: ConjugacyMap, probe_points=None) -> dict:
    """The map's residuals, with a finite surjectivity proxy certified alongside.

    The residuals and failures are those :func:`build_semiconjugacy`
    measured.  The proxy: the image of the grid under h must be dense to
    within 2 * (grid covering radius + max displacement), measured against
    ``probe_points`` (the grid itself by default).
    """
    ok = ~np.isnan(cmap.displacement)
    probes = cmap.grid if probe_points is None else wrap(as_points(probe_points))
    grid_covering = _covering_radius(probes, cmap.grid)
    return {
        "residual_max": cmap.residual_max,
        "residual_mean": cmap.residual_mean,
        "pairs_checked": int(ok.sum()),
        "density_radius": _covering_radius(probes, cmap.values[ok]),
        "density_bound": 2.0 * (grid_covering + cmap.max_displacement),
        "grid_covering_radius": grid_covering,
        "failures": len(cmap.failures),
    }


def _covering_radius(probes: np.ndarray, points: np.ndarray) -> float:
    """max over probes of the distance to the nearest point of ``points`` (inf when empty)."""
    if len(points) == 0:
        return float("inf")
    # per axis on (_COVER_CHUNK, N) planes, squares summed in torus.norm's order; sqrt is monotone
    # and correctly rounded, so one sqrt after the min and max gives the bits of the norms
    worst = 0.0
    for lo in range(0, len(probes), _COVER_CHUNK):
        for j in range(points.shape[1]):
            d = probes[lo : lo + _COVER_CHUNK, j, None] - points[:, j]
            d -= np.round(d)
            d *= d
            total = d if j == 0 else total + d
        worst = max(worst, float(np.max(np.min(total, axis=1))))
    return math.sqrt(worst)
