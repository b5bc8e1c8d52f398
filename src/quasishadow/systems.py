"""Skew products on T^3: a hyperbolic cat-map base driving a circle fiber.

The built-in family is

    F(b, theta) = (A b + w_b mod 1,  theta + alpha + kappa sin(2 pi b_1) + w_theta mod 1)

with A = [[2, 1], [1, 1]].  The fibers {b} x S^1 are invariant circles, so
the center bundle is exactly the vertical direction.  The stable and
unstable bundles keep the cat-map eigendirections in the base; only their
theta slope varies, and for kappa != 0 it is the sum of a closed-form
series along the base orbit (n terms of it are exactly n power-iteration
pushes of the unperturbed eigendirection).  The optional
rigid translation ``shift`` = (w_b, w_theta) perturbs the map without
changing its differential, which makes base-moving perturbations available
for stability experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RateOrderError, SplittingError
from .torus import minimal_rep, wrap

CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
CAT_INV = np.array([[1.0, -1.0], [-1.0, 2.0]])
MU = float((3.0 + np.sqrt(5.0)) / 2.0)
LAM = float((3.0 - np.sqrt(5.0)) / 2.0)


def _unit(v) -> np.ndarray:
    v = np.asarray(v, float)
    return v / np.linalg.norm(v)


# unit eigendirections of the base matrix, embedded in T^3 chart coordinates
E_STABLE = _unit([LAM - 1.0, 1.0, 0.0])
E_UNSTABLE = _unit([MU - 1.0, 1.0, 0.0])
E_CENTER = np.array([0.0, 0.0, 1.0])
_BASE_DIRS = np.stack([E_STABLE, E_UNSTABLE])

# bundle order used throughout the package: stable, center, unstable
S, C, U = 0, 1, 2


@dataclass(frozen=True)
class HyperbolicityRates:
    """One-step stretch factors; construction enforces the hyperbolicity ordering."""

    lam: float
    lam_prime: float
    mu_prime: float
    mu: float

    def __post_init__(self) -> None:
        ok = (
            0.0 < self.lam < 1.0 < self.mu
            and self.lam < self.lam_prime <= self.mu_prime < self.mu
        )
        if not ok:
            raise RateOrderError(
                "rate ordering violated: "
                f"lam={self.lam:.6g}, lam'={self.lam_prime:.6g}, "
                f"mu'={self.mu_prime:.6g}, mu={self.mu:.6g}"
            )


@dataclass(frozen=True)
class SplitConfig:
    """Terms of the slope series (power-iteration depth) and direction-convergence tolerance."""

    n_iter: int = 40
    direction_tol: float = 1e-12


class CatCircleSystem:
    """Partially hyperbolic skew product on T^3 (see module docstring).

    ``alpha`` is the fiber rotation, ``kappa`` the skew strength, ``shift``
    an optional rigid translation.  Measured rates come from
    :func:`verify_rates`.
    """

    center_dimension = 1

    def __init__(
        self,
        alpha: float = 0.0,
        kappa: float = 0.0,
        shift=None,
        splitting_mode: str = "auto",
        split_config: SplitConfig | None = None,
    ) -> None:
        self.alpha = float(alpha) % 1.0
        self.kappa = float(kappa)
        self.shift = np.zeros(3) if shift is None else np.asarray(shift, float)
        if self.shift.shape != (3,):
            raise ValueError("shift must be a 3-vector")
        if splitting_mode == "auto":
            splitting_mode = "analytic" if self.kappa == 0.0 else "numerical"
        if splitting_mode not in ("analytic", "numerical"):
            raise ValueError(f"unknown splitting mode {splitting_mode!r}")
        if splitting_mode == "analytic" and self.kappa != 0.0:
            raise ValueError("analytic splitting is only exact for kappa = 0")
        self.splitting_mode = splitting_mode
        self.split_config = split_config if split_config is not None else SplitConfig()

    def __repr__(self) -> str:
        return (
            f"CatCircleSystem(alpha={self.alpha!r}, kappa={self.kappa!r}, "
            f"shift={self.shift.tolist()!r}, splitting_mode={self.splitting_mode!r})"
        )

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        b = x[..., :2] @ CAT.T
        th = x[..., 2] + self.alpha + self.kappa * np.sin(2.0 * np.pi * x[..., 0])
        return wrap(np.concatenate([b, th[..., None]], axis=-1) + self.shift)

    def inverse(self, x) -> np.ndarray:
        z = np.asarray(x, float) - self.shift
        b = z[..., :2] @ CAT_INV.T
        th = z[..., 2] - self.alpha - self.kappa * np.sin(2.0 * np.pi * b[..., 0])
        return wrap(np.concatenate([b, th[..., None]], axis=-1))

    def differential(self, x) -> np.ndarray:
        """Exact Jacobian of the chart map at x, shape (..., 3, 3); only x[..., 0] enters."""
        b1 = np.asarray(x, float)[..., 0]
        out = np.zeros(b1.shape + (3, 3))
        out[..., :2, :2] = CAT
        out[..., 2, 0] = 2.0 * np.pi * self.kappa * np.cos(2.0 * np.pi * b1)
        out[..., 2, 2] = 1.0
        return out

    def orbit(self, x0, n_steps: int) -> np.ndarray:
        """Points x, f(x), ..., f^(n_steps)(x); shape (n_steps + 1, ..., 3)."""
        x = wrap(x0)
        out = np.empty((n_steps + 1,) + x.shape)
        out[0] = x
        for j in range(n_steps):
            x = self.forward(x)
            out[j + 1] = x
        return out


def cat_circle_system(
    alpha: float = 0.0,
    kappa: float = 0.0,
    *,
    shift=None,
    splitting_mode: str = "auto",
    n_split: int = SplitConfig.n_iter,
    direction_tol: float = SplitConfig.direction_tol,
    validate: bool = True,
    sample_seed: int = 7,
    n_samples: int = 50,
) -> CatCircleSystem:
    """Build a skew-product system and, unless ``validate=False``, check its rates.

    The admissible range of ``kappa`` is enforced empirically: the one-step
    stretch factors measured by :func:`verify_rates` on a seeded random
    sample must respect the strict stable < center < unstable ordering,
    otherwise a :class:`RateOrderError` propagates (kappa too large).
    """
    sys = CatCircleSystem(
        alpha,
        kappa,
        shift=shift,
        splitting_mode=splitting_mode,
        split_config=SplitConfig(n_split, direction_tol),
    )
    if validate and (kappa != 0.0 or shift is not None):
        rng = np.random.default_rng(sample_seed)
        verify_rates(sys, wrap(rng.random((n_samples, 3))))
    return sys


@dataclass
class Splitting:
    """Per-point frames of the invariant splitting and the induced projections.

    ``frames[..., :, i]`` is the unit direction of bundle i in the
    (stable, center, unstable) order; ``frames_inv @ vector`` gives
    splitting coordinates.  Projections are onto one bundle along the sum
    of the other two.  ``change[..., 0]`` and ``change[..., 1]`` hold, at
    each point, the distance between the unit stable (unstable) directions
    from n and from n - 1 terms of the slope series, that is, how far the
    equivalent power iteration moved on its last step (zero when n <= 1,
    None for the analytic splitting).
    """

    frames: np.ndarray
    frames_inv: np.ndarray
    change: np.ndarray | None = None

    def __getitem__(self, key) -> "Splitting":
        """The splitting at a subset of the points; ``key`` indexes the point axes."""
        change = None if self.change is None else self.change[key]
        return Splitting(self.frames[key], self.frames_inv[key], change)

    def projector(self, bundle: int) -> np.ndarray:
        cols = self.frames[..., :, bundle]
        rows = self.frames_inv[..., bundle, :]
        return cols[..., :, None] * rows[..., None, :]

    def coeffs(self, vectors) -> np.ndarray:
        return np.einsum("...ij,...j->...i", self.frames_inv, np.asarray(vectors, float))

    def assemble(self, coeffs) -> np.ndarray:
        return np.einsum("...ij,...j->...i", self.frames, np.asarray(coeffs, float))


_FRAME = np.stack([E_STABLE, E_CENTER, E_UNSTABLE], axis=-1)
# the kappa = 0 splitting: one frame at every point
ANALYTIC = Splitting(_FRAME, np.linalg.inv(_FRAME))


def _slopes(sys: CatCircleSystem, x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Theta slopes of the stable (column 0) and unstable (column 1) directions at x.

    With c(b1) = 2 pi kappa cos(2 pi b1) the theta row of the differential,
    r_s = -e_s[0] sum_{j<n} lam^j c(f^j x) and
    r_u = e_u[0] sum_{1<=j<=n} mu^-j c(f^-j x); only the base orbit enters.
    Returns the slopes from n terms and from n - 1 terms (n terms again
    when n <= 1, so that no change is reported).
    """
    shift = sys.shift[:2]
    fwd = bwd = x[..., :2]
    total = prev = np.zeros(x.shape[:-1] + (2,))
    for j in range(n):
        bwd = wrap((bwd - shift) @ CAT_INV.T)
        cos = np.cos(2.0 * np.pi * np.stack([fwd[..., 0], bwd[..., 0]], axis=-1))
        prev, total = total, total + cos * [LAM**j, MU ** -(j + 1)]
        fwd = wrap(fwd @ CAT.T + shift)
    scale = 2.0 * np.pi * sys.kappa * np.array([-E_STABLE[0], E_UNSTABLE[0]])
    return scale * total, scale * (prev if n > 1 else total)


def _directions(slopes: np.ndarray) -> np.ndarray:
    """Unit stable and unstable directions, shape (..., 2, 3), for slopes of shape (..., 2)."""
    vec = _BASE_DIRS + slopes[..., None] * E_CENTER
    return vec / np.sqrt(1.0 + slopes**2)[..., None]


def splitting_error(change: np.ndarray | None, cfg: SplitConfig) -> SplittingError | None:
    """The error for a set of points whose slope series has not converged, else None.

    ``change`` is ``Splitting.change`` at those points; the stable
    direction is judged first, and the message names the largest move.
    """
    if change is None:
        return None
    for col, kind in ((0, "stable"), (1, "unstable")):
        worst = float(np.max(change[..., col]))
        if worst > cfg.direction_tol:
            return SplittingError(
                f"{kind} direction moved by {worst:.3g} on the last of "
                f"{cfg.n_iter} power-iteration steps (tol {cfg.direction_tol:g})"
            )
    return None


def splitting_at(
    sys: CatCircleSystem, x, cfg: SplitConfig | None = None, strict: bool = True
) -> Splitting:
    """Invariant splitting frames at x (vectorized over leading axes).

    For kappa != 0 the stable and unstable slopes are ``cfg.n_iter`` terms
    of their series (see :func:`_slopes`) and the inverse frames are
    explicit.  With ``strict`` a :class:`SplittingError` is raised when the
    series has not converged at some point; otherwise the caller judges
    ``change`` point by point (see :func:`splitting_error`).
    """
    cfg = cfg if cfg is not None else sys.split_config
    x = np.asarray(x, float)
    shape = x.shape[:-1] + (3, 3)
    if sys.splitting_mode == "analytic":
        return Splitting(
            np.broadcast_to(ANALYTIC.frames, shape).copy(),
            np.broadcast_to(ANALYTIC.frames_inv, shape).copy(),
        )
    slopes, shorter = _slopes(sys, x, cfg.n_iter)
    dirs = _directions(slopes)
    change = np.linalg.norm(dirs - _directions(shorter), axis=-1)
    center = np.broadcast_to(E_CENTER, x.shape)
    frames = np.stack([dirs[..., 0, :], center, dirs[..., 1, :]], axis=-1)
    # the base eigendirections are orthonormal (CAT is symmetric), so the dual rows are explicit
    norms = np.sqrt(1.0 + slopes**2)
    rows = [norms[..., :1] * E_STABLE, E_CENTER - slopes @ _BASE_DIRS, norms[..., 1:] * E_UNSTABLE]
    frames_inv = np.stack(rows, axis=-2)
    split = Splitting(frames, frames_inv, change)
    err = splitting_error(split.change, cfg) if strict else None
    if err is not None:
        raise err
    return split


def verify_rates(sys: CatCircleSystem, points, cfg: SplitConfig | None = None) -> HyperbolicityRates:
    """Empirical one-step rate estimate over sample points.

    Returns (max stable stretch, min center stretch, max center stretch,
    min unstable stretch); raises :class:`RateOrderError` when the
    partially hyperbolic ordering fails, which signals kappa too large.
    """
    split = splitting_at(sys, points, cfg)
    J = sys.differential(points)

    def stretch(bundle: int) -> np.ndarray:
        pushed = np.einsum("...ij,...j->...i", J, split.frames[..., :, bundle])
        return np.linalg.norm(pushed, axis=-1)

    s, c, u = stretch(S), stretch(C), stretch(U)
    return HyperbolicityRates(float(s.max()), float(c.min()), float(c.max()), float(u.min()))


def leaf_dist(x, y):
    """Hausdorff distance between the circle fibers through x and y.

    For vertical fibers this is exactly the base distance.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = np.linalg.norm(minimal_rep(y[..., :2] - x[..., :2]), axis=-1)
    return float(d) if np.ndim(d) == 0 else d


def center_flow(x, t) -> np.ndarray:
    """Unit-speed flow along the center field: theta -> theta + t."""
    x = np.asarray(x, float)
    out = x.copy()
    out[..., 2] = out[..., 2] + np.asarray(t, float)
    return wrap(out)
