"""Pseudo orbits: noisy trajectories, defect measurement, near returns, cycles."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import SearchError
from .systems import CatCircleSystem, leaf_dist
from .torus import RHO_DEFAULT, dist, wrap

# generator recorded in reports so runs are reproducible from the config
RNG_KIND = "numpy.random.default_rng (PCG64)"


@dataclass
class PseudoOrbit:
    """A finite window x_k, k = k_start .. k_start + len - 1, or a cyclic list.

    ``defect`` is the measured sup of one-step errors dist(f(x_k), x_{k+1});
    cyclic orbits include the wrap pair (x_{n-1}, x_0), measured fiber-wise
    when ``leaf_mode`` is set (the effective next point is then the fiber
    point nearest to f(x_{n-1}), the exact circular minimizer).
    """

    points: np.ndarray
    cyclic: bool = False
    k_start: int = 0
    leaf_mode: bool = False
    defect: float = 0.0
    defect_index: int = 0
    noise: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        self.points = np.atleast_2d(np.asarray(self.points, float))
        if self.cyclic:
            if len(self.points) < 1:
                raise ValueError("cyclic orbits need at least one point")
        elif len(self.points) < 2:
            raise ValueError("orbit windows need at least two points")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_start, self.k_start + len(self.points))

    def point(self, k: int) -> np.ndarray:
        return self.points[k - self.k_start]

    def write_csv(self, path) -> None:
        d = self.points.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k"] + [f"x{i + 1}" for i in range(d)])
            for k, row in zip(self.ks, self.points):
                writer.writerow([int(k)] + [format(v, ".17g") for v in row])


@dataclass
class NearReturn:
    """An orbit point whose n-th image comes back within ``gap`` of it.

    ``mode`` is "point" for plain distance, "leaf" for the Hausdorff
    distance between center fibers (base distance here).
    """

    point: np.ndarray
    n: int
    gap: float
    mode: str = "point"

    def __post_init__(self) -> None:
        self.point = wrap(self.point)
        if self.mode not in ("point", "leaf"):
            raise ValueError(f"unknown near-return mode {self.mode!r}")


def measure_defect(sys: CatCircleSystem, orbit: PseudoOrbit) -> tuple[float, int]:
    """Sup of one-step errors and the index k of the pair (x_k, x_{k+1}) attaining it."""
    pts = orbit.points
    if orbit.cyclic:
        img = sys.forward(pts)
        nxt = np.roll(pts, -1, axis=0)
    else:
        img = sys.forward(pts[:-1])
        nxt = pts[1:]
    gaps = np.atleast_1d(dist(img, nxt)).astype(float)
    if orbit.cyclic and orbit.leaf_mode:
        gaps[-1] = leaf_dist(img[-1], nxt[-1])
    j = int(np.argmax(gaps))
    return float(gaps[j]), int(orbit.ks[j])


def _measured(orbit: PseudoOrbit, sys: CatCircleSystem) -> PseudoOrbit:
    orbit.defect, orbit.defect_index = measure_defect(sys, orbit)
    return orbit


def _ball_draws(rng: np.random.Generator, count: int, radius: float, dim: int) -> np.ndarray:
    if radius == 0.0:
        return np.zeros((count, dim))
    direction = rng.standard_normal((count, dim))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    # shave a hair off the radius so wrap rounding cannot push the
    # measured one-step error past the nominal noise level
    r = radius * (1.0 - 1e-9) * rng.random(count) ** (1.0 / dim)
    return direction * r[:, None]


def generate_noisy(
    sys: CatCircleSystem,
    x0,
    n_steps: int,
    noise: float,
    seed: int,
    rho: float = RHO_DEFAULT,
) -> PseudoOrbit:
    """Two-sided noisy trajectory through x0 on the window [-n_steps, n_steps].

    Forward points perturb the image inside the noise ball; backward points
    apply the inverse map to a perturbed point.  Either way the one-step
    error equals the drawn offset, so the measured defect stays <= noise.
    Deterministic for a fixed seed.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not 0.0 <= noise < rho:
        raise ValueError(f"noise must lie in [0, rho={rho}), got {noise}")
    x0 = wrap(x0)
    d = x0.shape[-1]
    rng = np.random.default_rng(seed)
    xi = _ball_draws(rng, 2 * n_steps, noise, d)
    pts = np.empty((2 * n_steps + 1, d))
    pts[n_steps] = x0
    x = x0
    for j in range(n_steps):
        x = wrap(sys.forward(x) + xi[j])
        pts[n_steps + 1 + j] = x
    x = x0
    for j in range(n_steps):
        x = sys.inverse(wrap(x + xi[n_steps + j]))
        pts[n_steps - 1 - j] = x
    orbit = PseudoOrbit(pts, cyclic=False, k_start=-n_steps, noise=noise, seed=seed)
    return _measured(orbit, sys)


def true_orbit_window(sys: CatCircleSystem, x0, n_steps: int) -> PseudoOrbit:
    """Zero-defect window built by forward iteration only (exact orbit segment)."""
    pts = sys.orbit(x0, 2 * n_steps)
    orbit = PseudoOrbit(pts, cyclic=False, k_start=-n_steps)
    return _measured(orbit, sys)


def find_near_return(
    sys: CatCircleSystem,
    x0,
    max_n: int,
    threshold: float,
    mode: str = "point",
) -> NearReturn:
    """Smallest n <= max_n with dist(x0, f^n(x0)) < threshold.

    In leaf mode the comparison uses the Hausdorff distance between the
    center fibers, which for circle fibers is the base distance.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if mode not in ("point", "leaf"):
        raise ValueError(f"unknown near-return mode {mode!r}")
    x0 = wrap(x0)
    gap_fn = leaf_dist if mode == "leaf" else dist
    z = x0
    for n in range(1, max_n + 1):
        z = sys.forward(z)
        gap = gap_fn(x0, z)
        if gap < threshold:
            return NearReturn(x0, n, float(gap), mode)
    raise SearchError(
        f"no {mode}-mode return below {threshold:g} within {max_n} steps from {x0.tolist()}"
    )


def make_cyclic(sys: CatCircleSystem, near_return: NearReturn) -> PseudoOrbit:
    """Period-n cyclic pseudo orbit x, f(x), ..., f^(n-1)(x) from a near return.

    Only the wrap pair is inexact; its error is the return gap.  For
    leaf-mode returns the wrap error is accounted fiber-wise, i.e. against
    the point of the starting fiber closest to f^n(x).
    """
    pts = sys.orbit(near_return.point, near_return.n - 1)
    orbit = PseudoOrbit(pts, cyclic=True, leaf_mode=(near_return.mode == "leaf"))
    return _measured(orbit, sys)
