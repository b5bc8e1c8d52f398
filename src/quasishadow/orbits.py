"""Pseudo orbits: noisy trajectories, near returns, cycles."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import SearchError
from .systems import CatCircleSystem
from .torus import RHO_DEFAULT, norm, wrap, wrap_float

# generator recorded in reports so runs are reproducible from the config
RNG_KIND = "numpy.random.default_rng (PCG64)"

# rows turned into Python floats at a time: lists of a whole long table cost megabytes
_ROW_CHUNK = 1024


def _float_rows(table: np.ndarray):
    """The rows of a 2-d array as lists of Python floats, converted a chunk at a time."""
    for lo in range(0, len(table), _ROW_CHUNK):
        yield from table[lo : lo + _ROW_CHUNK].tolist()


def write_table(path, header: list[str], table: np.ndarray, index: bool = True) -> None:
    """CSV of a float table, every value as format(v, ".17g"); the bytes csv.writer writes.

    With ``index`` the first column holds integers and is written as such.
    Lines end with "\r\n", as csv.writer ends them; no value needs quoting.
    """
    first = "%d" if index else "%.17g"
    fmt = first + ",%.17g" * (table.shape[1] - 1) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in _float_rows(table):
            fh.write(fmt % tuple(row))


@dataclass
class PseudoOrbit:
    """A finite window x_k, k = k_start .. k_start + len - 1, or a cyclic list.

    Its defect depends on the map it is read against, so it carries none:
    :func:`~quasishadow.solver.shadow_batch` measures it against the system
    it solves.  Cycles include the wrap pair (x_{n-1}, x_0); with
    ``leaf_mode`` a tau2 solve measures that pair along the fiber, against
    the fiber point nearest to f(x_{n-1}).
    """

    points: np.ndarray
    cyclic: bool = False
    k_start: int = 0
    leaf_mode: bool = False

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

    def write_csv(self, path) -> None:
        header = ["k"] + [f"x{i + 1}" for i in range(self.points.shape[1])]
        write_table(path, header, np.column_stack([self.ks, self.points]))


@dataclass
class NearReturn:
    """A cyclic pseudo orbit x, f(x), ..., f^(n-1)(x) whose n-th image comes back within ``gap``.

    The cycle is the walk of :func:`find_near_return`, so its one inexact
    pair is the wrap, whose error is ``gap``.  A leaf-mode return ("leaf":
    Hausdorff distance between center fibers, which is the base distance
    here) gives a leaf-mode cycle; "point" compares plain distance.
    """

    cycle: PseudoOrbit
    gap: float

    @property
    def n(self) -> int:
        return len(self.cycle)

    @property
    def point(self) -> np.ndarray:
        return self.cycle.points[0]

    @property
    def mode(self) -> str:
        return "leaf" if self.cycle.leaf_mode else "point"


def _ball_draws(rng: np.random.Generator, count: int, radius: float, dim: int) -> np.ndarray:
    if radius == 0.0:
        return np.zeros((count, dim))
    direction = rng.standard_normal((count, dim))
    direction /= norm(direction, keepdims=True)
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
    apply the inverse map to a perturbed point.  Either way each one-step
    error dist(f(x_k), x_{k+1}) under ``sys`` is its drawn offset up to
    rounding, and the offsets are drawn a hair inside the ball, so every
    error stays at most ``noise``.
    Deterministic for a fixed seed.  Steps on the float kernel
    (:meth:`CatCircleSystem.step`), wrapping twice like ``wrap(forward(x) + xi)``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not 0.0 <= noise < rho:
        raise ValueError(f"noise must lie in [0, rho={rho}), got {noise}")
    x0 = wrap(x0)
    rng = np.random.default_rng(seed)
    xi = _ball_draws(rng, 2 * n_steps, noise, 3)
    pts = np.empty((2 * n_steps + 1, 3))
    pts[n_steps] = x0
    x = x0.tolist()
    for j, (e0, e1, e2) in enumerate(_float_rows(xi[:n_steps])):
        f0, f1, f2 = sys.step(*x)
        x = wrap_float(f0 + e0), wrap_float(f1 + e1), wrap_float(f2 + e2)
        pts[n_steps + 1 + j] = x
    x = x0.tolist()
    for j, (e0, e1, e2) in enumerate(_float_rows(xi[n_steps:])):
        x = sys.step_inverse(wrap_float(x[0] + e0), wrap_float(x[1] + e1), wrap_float(x[2] + e2))
        pts[n_steps - 1 - j] = x
    return PseudoOrbit(pts, k_start=-n_steps)


def true_orbit_window(sys: CatCircleSystem, x0, n_steps: int) -> PseudoOrbit:
    """Zero-defect window built by forward iteration only (exact orbit segment)."""
    return PseudoOrbit(sys.orbit(x0, 2 * n_steps), k_start=-n_steps)


def find_near_return(
    sys: CatCircleSystem,
    x0,
    max_n: int,
    threshold: float,
    mode: str,
) -> NearReturn:
    """Smallest n <= max_n with dist(x0, f^n(x0)) < threshold, with the n points walked.

    In leaf mode the comparison uses the Hausdorff distance between the
    center fibers, which for circle fibers is the base distance.  Steps on
    the float kernel, so the cycle holds the rows of ``sys.orbit(x0, n - 1)``;
    the gap repeats the operation order of :func:`dist`.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if mode not in ("point", "leaf"):
        raise ValueError(f"unknown near-return mode {mode!r}")
    x0 = wrap(x0)
    p0, p1, p2 = z = x0.tolist()
    walk = array("d", z)  # x0 .. f^(n-1)(x0), 24 bytes a point
    leaf = mode == "leaf"
    for _ in range(max_n):
        z = sys.step(*z)
        d0, d1, d2 = z[0] - p0, z[1] - p1, z[2] - p2
        d0, d1, d2 = d0 - round(d0), d1 - round(d1), d2 - round(d2)
        sq = d0 * d0 + d1 * d1
        gap = math.sqrt(sq if leaf else sq + d2 * d2)
        if gap < threshold:
            cycle = PseudoOrbit(np.frombuffer(walk).reshape(-1, 3), cyclic=True, leaf_mode=leaf)
            return NearReturn(cycle, gap)
        walk.extend(z)
    raise SearchError(
        f"no {mode}-mode return below {threshold:g} within {max_n} steps from {x0.tolist()}"
    )
