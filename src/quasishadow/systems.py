"""Skew products on T^3: a hyperbolic cat-map base driving a circle fiber.

The built-in family is

    F(b, theta) = (A b + w_b mod 1,  theta + alpha + kappa sin(2 pi b_1) + w_theta mod 1)

with A = [[2, 1], [1, 1]].  The fibers {b} x S^1 are invariant circles, so
the center bundle is exactly the vertical direction.  The stable and
unstable bundles are the cat-map eigendirections when kappa = 0 and are
computed by power iteration along orbit segments otherwise.  The optional
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
    """Power-iteration depth and direction-convergence tolerance."""

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
        """Exact Jacobian of the chart map at x, shape (..., 3, 3)."""
        return self._jacobian(np.asarray(x, float)[..., 0])

    def _jacobian(self, b1) -> np.ndarray:
        """The differential at points whose first base coordinate is b1; nothing else enters."""
        b1 = np.asarray(b1, float)
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
    of the other two.  ``change[..., 0]`` and ``change[..., 1]`` hold how
    far the stable and unstable power-iteration directions moved on their
    last step at each point (None for the analytic splitting).
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


def _power_direction(
    sys: CatCircleSystem, x: np.ndarray, cfg: SplitConfig, unstable: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Invariant direction by normalized push along an orbit segment of length n_iter.

    Convergence is judged at the target point: the full iteration is
    compared there with the iteration seeded one orbit step closer (one
    push shorter).  Returns the directions and, per point, how far they
    moved between the two (zero when n_iter <= 1).
    """
    n = cfg.n_iter
    x = np.asarray(x, float)
    step = sys.inverse if unstable else sys.forward
    # the differential depends on b_1 alone, so only that column of the
    # orbit segment is kept
    b1 = [x[..., 0]]
    z = x
    for _ in range(n):
        z = step(z)
        b1.append(z[..., 0].copy())
    seed = E_UNSTABLE if unstable else E_STABLE
    v = np.broadcast_to(seed, x.shape).copy()  # seeded at the far end
    w = np.broadcast_to(seed, x.shape).copy()  # seeded one step in, lags one push
    for j in range(n, 0, -1):
        if unstable:
            jac = sys._jacobian(b1[j])
            v = np.einsum("...ij,...j->...i", jac, v)
            if j < n:
                w = np.einsum("...ij,...j->...i", jac, w)
        else:
            jac = sys._jacobian(b1[j - 1])
            v = np.linalg.solve(jac, v[..., None])[..., 0]
            if j < n:
                w = np.linalg.solve(jac, w[..., None])[..., 0]
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        if j < n:
            w = w / np.linalg.norm(w, axis=-1, keepdims=True)
    change = np.zeros(v.shape[:-1])
    if n > 1:
        sgn = np.sign(np.einsum("...i,...i->...", v, w))
        sgn = np.where(sgn == 0.0, 1.0, sgn)
        change = np.linalg.norm(v - sgn[..., None] * w, axis=-1)
    # orient toward the unperturbed eigendirection
    sign = np.sign(np.einsum("...i,i->...", v, seed))
    sign = np.where(sign == 0.0, 1.0, sign)
    return v * sign[..., None], change


def splitting_error(change: np.ndarray | None, cfg: SplitConfig) -> SplittingError | None:
    """The error for a set of points whose power iteration has not converged, else None.

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

    With ``strict`` a :class:`SplittingError` is raised when the power
    iteration has not converged at some point; otherwise the caller judges
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
    e_s, change_s = _power_direction(sys, x, cfg, unstable=False)
    e_u, change_u = _power_direction(sys, x, cfg, unstable=True)
    e_c = np.broadcast_to(E_CENTER, x.shape)
    frames = np.stack([e_s, e_c, e_u], axis=-1)
    split = Splitting(frames, np.linalg.inv(frames), np.stack([change_s, change_u], axis=-1))
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
