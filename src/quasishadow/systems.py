"""Skew products on T^3: a hyperbolic cat-map base driving a circle fiber.

The built-in family is

    F(b, theta) = (A b + w_b mod 1,  theta + alpha + kappa sin(2 pi b_1) + w_theta mod 1)

with A = [[2, 1], [1, 1]].  The fibers {b} x S^1 are invariant circles, so
the center bundle is exactly the vertical direction.  The stable and
unstable bundles keep the cat-map eigendirections in the base; only their
theta slope varies, and for kappa != 0 it is the sum of a closed-form
series along the base orbit (n terms of it are exactly n power-iteration
pushes of the unperturbed eigendirection).  Its terms are bounded by
2 pi |kappa| times geometric weights, so the slopes, the tails and the
rates have closed-form bounds (:func:`slope_bounds`, :func:`rate_bounds`;
Hirsch, Pugh & Shub, *Invariant Manifolds*, 1977).  The optional
rigid translation ``shift`` = (w_b, w_theta) perturbs the map without
changing its differential, which makes base-moving perturbations available
for stability experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RateOrderError, SplittingError
from .torus import minimal_rep, norm, wrap, wrap_float

CAT = np.array([[2.0, 1.0], [1.0, 1.0]])
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
    """Stable and unstable one-step stretch factors (the center one is 1); 0 < lam < 1 < mu."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0 < self.mu:
            raise RateOrderError(f"rate ordering violated: lam={self.lam:.6g}, mu={self.mu:.6g}")


@dataclass(frozen=True)
class SplitConfig:
    """Terms of the slope series and the bound on the error of its unit directions."""

    n_iter: int = 40
    direction_tol: float = 1e-12


class CatCircleSystem:
    """Partially hyperbolic skew product on T^3 (see module docstring).

    ``alpha`` is the fiber rotation, ``kappa`` the skew strength, ``shift``
    an optional rigid translation, and ``split_config`` the slope-series
    truncation of :func:`splitting_at`.  The center foliation is linear
    exactly when kappa = 0, where one analytic frame serves every point.
    The rates are bounded in closed form by :func:`rate_bounds`.

    :meth:`forward` and :meth:`inverse` map arrays of points.  Loops that
    step one point at a time (:meth:`orbit`, noisy orbits, near-return
    searches, leaf residuals) run on :meth:`step` and :meth:`step_inverse`,
    which take three Python floats and repeat the operation order of the
    array maps.  Their results are bit-identical as long as ``math.sin``
    and ``np.sin`` agree, which rests on the platform's libm; the test
    suite checks it.  At kappa = 0 all four skip the kappa sin term, whose +-0.0 :func:`wrap`
    makes +0.0; only an overflowing 2 pi x_0 (0 sin(inf) = nan) is now mapped, not refused.
    """

    center_dimension = 1

    def __init__(
        self,
        alpha: float = 0.0,
        kappa: float = 0.0,
        shift=None,
        split_config: SplitConfig | None = None,
    ) -> None:
        self.alpha = float(alpha) % 1.0
        self.kappa = float(kappa)
        self.shift = np.zeros(3) if shift is None else np.asarray(shift, float)
        if self.shift.shape != (3,):
            raise ValueError("shift must be a 3-vector")
        self._shift_floats = tuple(self.shift.tolist())
        self.split_config = split_config if split_config is not None else SplitConfig()

    def __repr__(self) -> str:
        shift = self.shift.tolist()
        return f"CatCircleSystem(alpha={self.alpha!r}, kappa={self.kappa!r}, shift={shift!r})"

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        out = np.empty(x.shape)
        out[..., 0], out[..., 1] = _cat(x[..., 0], x[..., 1])
        out[..., 2] = x[..., 2] + self.alpha
        if self.kappa != 0.0:
            out[..., 2] += self.kappa * np.sin(2.0 * np.pi * x[..., 0])
        out += self.shift
        return wrap(out)

    def inverse(self, x) -> np.ndarray:
        z = np.asarray(x, float) - self.shift
        out = np.empty(z.shape)
        out[..., 0], out[..., 1] = _cat_inv(z[..., 0], z[..., 1])
        out[..., 2] = z[..., 2] - self.alpha
        if self.kappa != 0.0:
            out[..., 2] -= self.kappa * np.sin(2.0 * np.pi * out[..., 0])
        return wrap(out)

    def step(self, x0: float, x1: float, x2: float) -> tuple[float, float, float]:
        """:meth:`forward` of one point given as three Python floats."""
        s0, s1, s2 = self._shift_floats
        theta = x2 + self.alpha
        if self.kappa != 0.0:
            theta += self.kappa * _sin_2pi(x0)
        return wrap_float((2.0 * x0 + x1) + s0), wrap_float((x0 + x1) + s1), wrap_float(theta + s2)

    def step_inverse(self, x0: float, x1: float, x2: float) -> tuple[float, float, float]:
        """:meth:`inverse` of one point given as three Python floats."""
        s0, s1, s2 = self._shift_floats
        z0, z1 = x0 - s0, x1 - s1
        b0 = z0 - z1
        theta = (x2 - s2) - self.alpha
        if self.kappa != 0.0:
            theta -= self.kappa * _sin_2pi(b0)
        return wrap_float(b0), wrap_float(-z0 + 2.0 * z1), wrap_float(theta)

    def differential(self, x) -> np.ndarray:
        """Exact Jacobian of the chart map at x, shape (..., 3, 3); only x[..., 0] enters."""
        b1 = np.asarray(x, float)[..., 0]
        out = np.zeros(b1.shape + (3, 3))
        out[..., :2, :2] = CAT
        out[..., 2, 0] = 2.0 * np.pi * self.kappa * np.cos(2.0 * np.pi * b1)
        out[..., 2, 2] = 1.0
        return out

    def orbit(self, x0, n_steps: int) -> np.ndarray:
        """Points x, f(x), ..., f^(n_steps)(x) of one point x; shape (n_steps + 1, 3).

        Steps on :meth:`step`, so the rows equal those of iterating :meth:`forward`.
        """
        x = wrap(x0)
        if x.shape != (3,):
            raise ValueError("orbit starts from one point, a 3-vector")
        out = np.empty((n_steps + 1, 3))
        out[0] = x
        p = x.tolist()
        for j in range(1, n_steps + 1):
            p = self.step(*p)
            out[j] = p
        return out


def _cat(b0, b1):
    """CAT @ (b0, b1), one coordinate at a time.

    The products by 1 and 2 are exact, so one rounded sum per coordinate
    gives the bits of the matrix product in any summation order.
    """
    return 2.0 * b0 + b1, b0 + b1


def _cat_inv(z0, z1):
    """CAT^-1 @ (z0, z1) with CAT^-1 = [[1, -1], [-1, 2]], one coordinate at a time."""
    return z0 - z1, -z0 + 2.0 * z1


def _sin_2pi(t: float) -> float:
    """sin(2 pi t) as the array maps compute it; nan where ``np.sin`` gives nan (t = +-inf)."""
    try:
        return math.sin(2.0 * math.pi * t)
    except ValueError:
        return math.nan


def cat_circle_system(
    alpha: float = 0.0,
    kappa: float = 0.0,
    *,
    shift=None,
    n_split: int = SplitConfig.n_iter,
    direction_tol: float = SplitConfig.direction_tol,
    validate: bool = True,
) -> CatCircleSystem:
    """Build a skew-product system and, unless ``validate=False``, check it in closed form.

    :func:`rate_bounds` refuses |kappa| >= 0.4527 and :func:`splitting_error`
    an ``n_split`` whose series tail exceeds ``direction_tol``.  The splitting
    follows from ``kappa`` (:func:`splitting_at`): analytic at kappa = 0,
    the ``n_split``-term slope series otherwise.
    """
    split = SplitConfig(n_split, direction_tol)
    sys = CatCircleSystem(alpha, kappa, shift=shift, split_config=split)
    if validate:
        rate_bounds(sys.kappa)
        if (err := splitting_error(sys)) is not None:
            raise err
    return sys


# exact entries of every frame (None: varies by point): the center column of
# ``frames`` is (0, 0, 1) and the theta column of ``frames_inv`` is (0, 1, 0)
_FRAME_ENTRIES = ((None, 0.0, None), (None, 0.0, None), (None, 1.0, None))
_INVERSE_ENTRIES = ((None, None, 0.0), (None, None, 1.0), (None, None, 0.0))


def _product(m: np.ndarray, v, entries, skip: int | None = None) -> np.ndarray:
    """m @ v over the last axes, row i summed as ((0.0 + m_i0 v_0) + m_i2 v_2) + m_i1 v_1.

    numpy 2.4.6 sums the ``...ij,...j`` contraction of C-ordered operands
    so, and the recorded outputs were made with it.  Terms whose entry
    (``entries``, or all of a (3, 3) m) is exactly 0 are dropped, as is
    column ``skip``: adding +-0.0 to a sum that starts from +0.0 keeps its
    bits for finite v.  An entry 1 adds v_j itself, and the trailing + 0.0
    gives the bits of the leading one.
    """
    v = np.asarray(v, float)
    out = np.empty(np.broadcast_shapes(m.shape[:-1], v.shape))
    for i, row in enumerate(m.tolist() if m.ndim == 2 else entries):
        terms = []
        for j in (0, 2, 1):
            e = 0.0 if j == skip else row[j]
            if e == 1.0:
                terms.append(v[..., j])
            elif e != 0.0:
                terms.append((m[..., i, j] if e is None else e) * v[..., j])
        np.add(sum(terms[1:], terms[0]) if terms else 0.0, 0.0, out=out[..., i])
    return out


@dataclass
class Splitting:
    """Frames of the invariant splitting and every product with them.

    ``frames[..., :, i]`` is the unit direction of bundle i in the
    (stable, center, unstable) order; ``frames_inv @ vector`` gives
    splitting coordinates.  One (3, 3) frame serves every point (kappa = 0,
    :data:`ANALYTIC`), else there is one per point.
    """

    frames: np.ndarray
    frames_inv: np.ndarray

    @property
    def constant(self) -> bool:
        """Whether one frame serves every point."""
        return self.frames.ndim == 2

    def __getitem__(self, key) -> "Splitting":
        """The splitting at a subset of the points (``key`` indexes the point axes)."""
        if self.constant:
            return self
        key = (key if isinstance(key, tuple) else (key,)) + (slice(None), slice(None))
        return Splitting(self.frames[key], self.frames_inv[key])

    def coeffs(self, vectors) -> np.ndarray:
        return _product(self.frames_inv, vectors, _INVERSE_ENTRIES)

    def assemble(self, coeffs) -> np.ndarray:
        return _product(self.frames, coeffs, _FRAME_ENTRIES)

    def transversal(self, coeffs) -> np.ndarray:
        """The ambient stable + unstable part of ``coeffs``; the center coefficient is ignored."""
        return _product(self.frames, coeffs, _FRAME_ENTRIES, skip=C)


_FRAME = np.stack([E_STABLE, E_CENTER, E_UNSTABLE], axis=-1)
# the kappa = 0 splitting: one frame at every point
ANALYTIC = Splitting(_FRAME, np.linalg.inv(_FRAME))


def _slopes(sys: CatCircleSystem, x: np.ndarray, n: int) -> np.ndarray:
    """Theta slopes of the stable (column 0) and unstable (column 1) directions at x.

    With c(b1) = 2 pi kappa cos(2 pi b1) the theta row of the differential,
    r_s = -e_s[0] sum_{j<n} lam^j c(f^j x) and
    r_u = e_u[0] sum_{1<=j<=n} mu^-j c(f^-j x); only the base orbit enters.
    """
    shift = sys.shift[:2]
    fwd = bwd = x[..., :2]
    total = np.zeros(x.shape[:-1] + (2,))
    for j in range(n):
        z = bwd - shift
        bwd = np.empty(z.shape)
        bwd[..., 0], bwd[..., 1] = _cat_inv(z[..., 0], z[..., 1])
        bwd = wrap(bwd)
        cos = np.cos(2.0 * np.pi * np.stack([fwd[..., 0], bwd[..., 0]], axis=-1))
        total = total + cos * [LAM**j, MU ** -(j + 1)]
        step = np.empty(fwd.shape)
        step[..., 0], step[..., 1] = _cat(fwd[..., 0], fwd[..., 1])
        step += shift
        fwd = wrap(step)
    return 2.0 * np.pi * sys.kappa * np.array([-E_STABLE[0], E_UNSTABLE[0]]) * total


def slope_bounds(kappa: float, n: int = 0) -> np.ndarray:
    """Tails R_s lam^n and R_u mu^-n of the stable and unstable slope series after n terms.

    n = 0 bounds the slopes and every partial sum; as a unit direction moves
    no more than its slope, the tails bound the error of the n-term directions.
    """
    weights = [-E_STABLE[0] * LAM**n / (1.0 - LAM), E_UNSTABLE[0] * MU**-n / (MU - 1.0)]
    return 2.0 * np.pi * abs(kappa) * np.array(weights)


def rate_bounds(kappa: float) -> HyperbolicityRates:
    """Closed-form rates; raises :class:`RateOrderError` for |kappa| >= 0.4527.

    E^s stretches by lam sqrt(1 + r_s(fx)^2) / sqrt(1 + r_s(x)^2), at most
    lam sqrt(1 + R_s^2); E^u by at least mu / sqrt(1 + R_u^2), which stays
    above 1 for |kappa| < 0.7325; E^c by exactly 1.
    """
    r_s, r_u = slope_bounds(kappa)
    lam, mu = LAM * np.hypot(1.0, r_s), MU / np.hypot(1.0, r_u)
    return HyperbolicityRates(float(lam), float(mu))


def splitting_error(sys: CatCircleSystem) -> SplittingError | None:
    """The error when a series tail after ``n_iter`` terms exceeds ``direction_tol``, else None.

    :func:`slope_bounds` holds at every point, so this is one verdict for
    the system; the stable side is judged first.
    """
    cfg = sys.split_config
    for tail, kind in zip(slope_bounds(sys.kappa, cfg.n_iter), ("stable", "unstable")):
        if tail > cfg.direction_tol:
            return SplittingError(
                f"{kind} direction error bound {tail:.3g} after {cfg.n_iter} "
                f"slope-series terms exceeds tol {cfg.direction_tol:g}"
            )
    return None


def splitting_at(sys: CatCircleSystem, x) -> Splitting:
    """Invariant splitting at x: :data:`ANALYTIC` at kappa = 0, else one frame per point.

    The stable and unstable slopes are ``sys.split_config.n_iter`` terms
    of their series (see :func:`_slopes`; :func:`splitting_error` bounds
    the truncation) and the inverse frames are explicit.
    """
    if sys.kappa == 0.0:
        return ANALYTIC
    x = np.asarray(x, float)
    slopes = _slopes(sys, x, sys.split_config.n_iter)
    norms = np.sqrt(1.0 + slopes**2)
    dirs = (_BASE_DIRS + slopes[..., None] * E_CENTER) / norms[..., None]
    center = np.broadcast_to(E_CENTER, x.shape)
    frames = np.stack([dirs[..., 0, :], center, dirs[..., 1, :]], axis=-1)
    # the base eigendirections are orthonormal (CAT is symmetric), so the dual rows are explicit
    rows = [norms[..., :1] * E_STABLE, E_CENTER - slopes @ _BASE_DIRS, norms[..., 1:] * E_UNSTABLE]
    return Splitting(frames, np.stack(rows, axis=-2))


def leaf_dist(x, y):
    """Hausdorff distance between the circle fibers through x and y.

    For vertical fibers this is exactly the base distance.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = norm(minimal_rep(y[..., :2] - x[..., :2]))
    return float(d) if np.ndim(d) == 0 else d


def center_flow(x, t) -> np.ndarray:
    """Unit-speed flow along the center field: theta -> theta + t."""
    x = np.asarray(x, float)
    out = x.copy()
    out[..., 2] = out[..., 2] + np.asarray(t, float)
    return wrap(out)
