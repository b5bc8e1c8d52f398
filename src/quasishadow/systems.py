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
Hirsch, Pugh & Shub, *Invariant Manifolds*, 1977).  Each system sums the
fewest terms whose tails are at most :data:`DIRECTION_TOL`, so the series
length follows from kappa alone.  The base orbit is linear, so the series
rotates e^{2 pi i b} along it instead of taking a cosine per term
(:func:`_slopes`), and the frames, their inverses and the transfer
multipliers along an orbit are closed-form in the two slopes
(:meth:`Splitting.from_slopes`).  The optional rigid translation
``shift`` = (w_b, w_theta) perturbs the map without changing its
differential, which makes base-moving perturbations available for
stability experiments.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ChartError, RateOrderError
from .torus import minimal_rep, norm, planar, wrap, wrap_float

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

# bundle order used throughout the package: stable, center, unstable
S, C, U = 0, 1, 2

# bound on the error of the unit stable and unstable directions of splitting_at
DIRECTION_TOL = 1e-12


@dataclass(frozen=True)
class HyperbolicityRates:
    """Stable and unstable one-step stretch factors (the center one is 1); 0 < lam < 1 < mu."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if not 0.0 < self.lam < 1.0 < self.mu:
            raise RateOrderError(f"rate ordering violated: lam={self.lam:.6g}, mu={self.mu:.6g}")


class CatCircleSystem:
    """Partially hyperbolic skew product on T^3 (see module docstring).

    ``alpha`` is the fiber rotation, ``kappa`` the skew strength (2 pi kappa
    finite, else ValueError) and ``shift`` an optional rigid translation.
    ``n_split`` is the number of slope-series terms :func:`splitting_at`
    sums: the fewest whose tails (:func:`slope_bounds`) are both at most
    :data:`DIRECTION_TOL`, so 0 at kappa = 0, 27 at 0.02 and 30 at 0.3.
    The center foliation is linear exactly when kappa = 0, where one
    analytic frame serves every point.  The rates are bounded in closed
    form by :func:`rate_bounds`.

    :meth:`forward` and :meth:`inverse` map arrays of points.  The walks
    that step one point at a time (:meth:`orbit`, which near-return searches
    walk, the leaf residual's base walk and the two halves of a noisy orbit)
    run :func:`_forward_walk` and :func:`_backward_walk`, loops on Python
    floats that repeat the operation order of the array maps.  Their results
    are bit-identical as long as ``math.sin`` and ``np.sin`` agree, which
    rests on the platform's libm; the test suite checks it.  At kappa = 0
    the maps and the walks skip the kappa sin term, whose +-0.0 :func:`wrap`
    makes +0.0; only an overflowing 2 pi x_0 (0 sin(inf) = nan) is now
    mapped, not refused.  The array maps also skip adding an all-zero
    ``shift``, for the same reason.
    """

    def __init__(self, alpha: float = 0.0, kappa: float = 0.0, shift=None) -> None:
        self.alpha = float(alpha) % 1.0
        self.kappa = float(kappa)
        if not np.isfinite(slope_bounds(self.kappa)).all():
            raise ValueError(f"kappa and 2 pi kappa must be finite, got {kappa!r}")
        self.n_split = 0
        while max(slope_bounds(self.kappa, self.n_split)) > DIRECTION_TOL:
            self.n_split += 1
        self.shift = np.zeros(3) if shift is None else np.asarray(shift, float)
        if self.shift.shape != (3,):
            raise ValueError("shift must be a 3-vector")
        # adding +-0.0 changes at most the sign of a zero, which wrap resets
        self._shifted = bool(self.shift.any())

    def __repr__(self) -> str:
        shift = self.shift.tolist()
        return f"CatCircleSystem(alpha={self.alpha!r}, kappa={self.kappa!r}, shift={shift!r})"

    def forward(self, x) -> np.ndarray:
        """F(x), wrapped, into a new array of x's layout.

        CAT @ b runs one coordinate at a time: its products by 1 and 2 are
        exact, so one rounded sum per coordinate gives the bits of the matrix
        product in any summation order.
        """
        x = np.asarray(x, float)
        out = np.empty_like(x)
        b0, b1 = x[..., 0], x[..., 1]
        u0, u1, u2 = out[..., 0], out[..., 1], out[..., 2]
        np.multiply(b0, 2.0, out=u0)
        np.add(u0, b1, out=u0)
        np.add(b0, b1, out=u1)
        np.add(x[..., 2], self.alpha, out=u2)
        if self.kappa != 0.0:
            np.add(u2, self.kappa * np.sin(2.0 * np.pi * b0), out=u2)
        if self._shifted:
            out += self.shift
        return wrap(out)

    def inverse(self, x) -> np.ndarray:
        """F^-1(x), wrapped, into a new array of x's layout; CAT^-1 = [[1, -1], [-1, 2]]."""
        z = np.asarray(x, float)
        if self._shifted:
            z = z - self.shift
        out = np.empty_like(z)
        z0, z1 = z[..., 0], z[..., 1]
        u0, u1, u2 = out[..., 0], out[..., 1], out[..., 2]
        np.subtract(z0, z1, out=u0)
        # -z0 + 2 z1, rounded once
        np.multiply(z1, 2.0, out=u1)
        np.subtract(u1, z0, out=u1)
        np.subtract(z[..., 2], self.alpha, out=u2)
        if self.kappa != 0.0:
            np.subtract(u2, self.kappa * np.sin(2.0 * np.pi * u0), out=u2)
        return wrap(out)

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

        Walks on :func:`_forward_walk`, so the rows equal those of iterating :meth:`forward`.
        """
        x = wrap(x0)
        if x.shape != (3,):
            raise ValueError("orbit starts from one point, a 3-vector")
        if n_steps < 0:
            raise ValueError("n_steps must be >= 0")
        return np.frombuffer(_forward_walk(self, x.tolist(), n_steps)).reshape(-1, 3)


def _noise_rows(noise: np.ndarray | None, n_steps: int):
    """The rows of an (n_steps, 3) float array as tuples of Python floats, or n_steps Nones."""
    if noise is None:
        return repeat(None, n_steps)
    flat = iter(memoryview(np.ascontiguousarray(noise, float).reshape(-1)))
    return zip(flat, flat, flat)


def _forward_walk(sys: CatCircleSystem, p, n_steps: int, noise=None, base_only: bool = False) -> array:
    """p and its n_steps images under :meth:`CatCircleSystem.forward`, stepped on Python floats.

    ``p`` is three floats in [0, 1); the result is a flat ``array("d")`` of
    the n_steps + 1 points.  Each coordinate is summed in the array map's
    order and reduced by ``% 1.0``; a step with a coordinate that is not
    below 1.0 (the 1.0 of a tiny negative sum, the nan of a non-finite one)
    is redone by :func:`wrap_float`, so 1.0 becomes 0.0 and nan raises
    :class:`ChartError`, as :func:`wrap` does.  With ``noise``, an
    (n_steps, 3) array, each image is moved by its row and wrapped again:
    the forward half of a noisy orbit.  With ``base_only`` theta is not
    stepped and only the last point is kept, with p's theta; the base never
    reads theta, so the base has the bits of the full walk.
    """
    alpha, kappa, turn = sys.alpha, sys.kappa, 2.0 * math.pi
    s0, s1, s2 = sys.shift.tolist()
    x0, x1, x2 = p
    out = array("d", p) * (1 if base_only else n_steps + 1)
    i = 0
    for e in _noise_rows(noise, n_steps):
        u0, u1 = (2.0 * x0 + x1) + s0, (x0 + x1) + s1
        y0, y1 = u0 % 1.0, u1 % 1.0
        if base_only:
            if not (y0 < 1.0 and y1 < 1.0):
                y0, y1 = wrap_float(u0), wrap_float(u1)
            x0, x1 = y0, y1
            continue
        u2 = x2 + alpha
        if kappa != 0.0:
            u2 += kappa * math.sin(turn * x0)
        u2 += s2
        y2 = u2 % 1.0
        if not (y0 < 1.0 and y1 < 1.0 and y2 < 1.0):
            y0, y1, y2 = wrap_float(u0), wrap_float(u1), wrap_float(u2)
        if e is not None:
            u0, u1, u2 = y0 + e[0], y1 + e[1], y2 + e[2]
            y0, y1, y2 = u0 % 1.0, u1 % 1.0, u2 % 1.0
            if not (y0 < 1.0 and y1 < 1.0 and y2 < 1.0):
                y0, y1, y2 = wrap_float(u0), wrap_float(u1), wrap_float(u2)
        i += 3
        x0 = out[i] = y0
        x1 = out[i + 1] = y1
        x2 = out[i + 2] = y2
    if base_only:
        out[0], out[1] = x0, x1
    return out


def _backward_walk(sys: CatCircleSystem, p, n_steps: int, noise=None) -> array:
    """p and n_steps points back, each the :meth:`CatCircleSystem.inverse` of the one before.

    As :func:`_forward_walk`, on Python floats in the array map's order.
    With ``noise``, an (n_steps, 3) array, each point is moved by its row and
    wrapped before it is mapped: the backward half of a noisy orbit.  A
    sine argument that overflows (only a shift near the float limit makes
    one) raises the :class:`ChartError` of the nan theta it stands for.
    """
    alpha, kappa, turn = sys.alpha, sys.kappa, 2.0 * math.pi
    s0, s1, s2 = sys.shift.tolist()
    x0, x1, x2 = p
    out = array("d", p) * (n_steps + 1)
    i = 0
    try:
        for e in _noise_rows(noise, n_steps):
            if e is not None:
                u0, u1, u2 = x0 + e[0], x1 + e[1], x2 + e[2]
                x0, x1, x2 = u0 % 1.0, u1 % 1.0, u2 % 1.0
                if not (x0 < 1.0 and x1 < 1.0 and x2 < 1.0):
                    x0, x1, x2 = wrap_float(u0), wrap_float(u1), wrap_float(u2)
            z0, z1 = x0 - s0, x1 - s1
            u0, u1 = z0 - z1, -z0 + 2.0 * z1
            u2 = (x2 - s2) - alpha
            if kappa != 0.0:
                u2 -= kappa * math.sin(turn * u0)
            x0, x1, x2 = u0 % 1.0, u1 % 1.0, u2 % 1.0
            if not (x0 < 1.0 and x1 < 1.0 and x2 < 1.0):
                x0, x1, x2 = wrap_float(u0), wrap_float(u1), wrap_float(u2)
            i += 3
            out[i], out[i + 1], out[i + 2] = x0, x1, x2
    except ValueError:  # math.sin(+-inf)
        raise ChartError("non-finite coordinate in point") from None
    return out


def cat_circle_system(
    alpha: float = 0.0,
    kappa: float = 0.0,
    *,
    shift=None,
    validate: bool = True,
) -> CatCircleSystem:
    """Build a skew-product system and, unless ``validate=False``, check its rates.

    :func:`rate_bounds` refuses |kappa| >= 0.4527.  The splitting follows
    from ``kappa`` (:func:`splitting_at`): analytic at kappa = 0, the
    ``n_split``-term slope series otherwise.
    """
    sys = CatCircleSystem(alpha, kappa, shift=shift)
    if validate:
        rate_bounds(sys.kappa)
    return sys


# exact entries of every frame (None: varies by point): the center column of
# ``frames`` is (0, 0, 1) and the theta column of ``frames_inv`` is (0, 1, 0)
_FRAME_ENTRIES = ((None, 0.0, None), (None, 0.0, None), (None, 1.0, None))
_INVERSE_ENTRIES = ((None, None, 0.0), (None, None, 1.0), (None, None, 0.0))


def _product(m: np.ndarray, v, entries, skip: int | None = None, rows=(0, 1, 2), out=None) -> np.ndarray:
    """m @ v over the last axes, row i summed as ((0.0 + m_i0 v_0) + m_i2 v_2) + m_i1 v_1.

    numpy 2.4.6 sums the ``...ij,...j`` contraction of C-ordered operands
    so, and the recorded outputs were made with it.  Terms whose entry
    (``entries``, or all of a (3, 3) m) is exactly 0 are dropped, as is
    column ``skip``: adding +-0.0 to a sum that starts from +0.0 keeps its
    bits for finite v.  An entry 1 adds v_j itself, and the trailing + 0.0
    gives the bits of the leading one.  Only the ``rows`` of m are summed,
    into that many output columns of ``out``, a new component-major array
    (:func:`~quasishadow.torus.planar`) when not given.
    """
    v = np.asarray(v, float)
    if out is None:
        out = planar(np.broadcast_shapes(m.shape[:-2], v.shape[:-1]) + (len(rows),))
    table = m.tolist() if m.ndim == 2 else entries
    for k, i in enumerate(rows):
        row, terms = table[i], []
        for j in (0, 2, 1):
            e = 0.0 if j == skip else row[j]
            if e == 1.0:
                terms.append(v[..., j])
            elif e != 0.0:
                terms.append((m[..., i, j] if e is None else e) * v[..., j])
        np.add(sum(terms[1:], terms[0]) if terms else 0.0, 0.0, out=out[..., k])
    return out


@dataclass
class Splitting:
    """Frames of the invariant splitting and every product with them.

    ``frames[..., :, i]`` is the unit direction of bundle i in the
    (stable, center, unstable) order; ``frames_inv @ vector`` gives
    splitting coordinates.  One (3, 3) frame serves every point (kappa = 0,
    :data:`ANALYTIC`), else there is one per point, written by
    :meth:`from_slopes` from the theta ``slopes`` (r_s, r_u) of the stable
    and unstable directions, shape (..., 2), which it keeps:
    :class:`~quasishadow.solver.OrbitOperators` reads the transfer
    multipliers of per-point frames from them.  The constant frame has none.
    """

    frames: np.ndarray
    frames_inv: np.ndarray
    slopes: np.ndarray | None = None

    @classmethod
    def from_slopes(cls, slopes) -> "Splitting":
        """The per-point splitting whose stable and unstable directions have theta slopes ``slopes``.

        With n = sqrt(1 + r^2) the directions are (e[0], e[1], r) / n for the
        unit base eigendirections e.  Those are orthonormal (CAT is
        symmetric), so the dual rows are explicit: n_s (e_s[0], e_s[1], 0),
        (-(r_s e_s[0] + r_u e_u[0]), -(r_s e_s[1] + r_u e_u[1]), 1) and
        n_u (e_u[0], e_u[1], 0).
        """
        r = np.asarray(slopes, float)
        r_s, r_u = r[..., 0], r[..., 1]
        n_s, n_u = np.sqrt(1.0 + r_s * r_s), np.sqrt(1.0 + r_u * r_u)
        # written entry by entry into contiguous rows, then laid out C-ordered
        F, F_inv = np.zeros((2, 3, 3) + r.shape[:-1])
        for i, e, r_i, n_i in ((S, E_STABLE, r_s, n_s), (U, E_UNSTABLE, r_u, n_u)):
            np.divide(e[0], n_i, out=F[0, i, ...])
            np.divide(e[1], n_i, out=F[1, i, ...])
            np.divide(r_i, n_i, out=F[2, i, ...])
            np.multiply(n_i, e[0], out=F_inv[i, 0, ...])
            np.multiply(n_i, e[1], out=F_inv[i, 1, ...])
        for j in (0, 1):
            center = F_inv[C, j, ...]
            np.multiply(r_s, E_STABLE[j], out=center)
            center += r_u * E_UNSTABLE[j]
            np.subtract(0.0, center, out=center)
        F[2, C] = F_inv[C, 2] = 1.0
        frames, frames_inv = (np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1))) for a in (F, F_inv))
        return cls(frames, frames_inv, r)

    @property
    def constant(self) -> bool:
        """Whether one frame serves every point."""
        return self.frames.ndim == 2

    def __getitem__(self, key) -> "Splitting":
        """The splitting at a subset of the points (``key`` indexes the point axes)."""
        if self.constant:
            return self
        key = key if isinstance(key, tuple) else (key,)
        frame_key = key + (slice(None), slice(None))
        slopes = None if self.slopes is None else self.slopes[key + (slice(None),)]
        return Splitting(self.frames[frame_key], self.frames_inv[frame_key], slopes)

    def coeffs(self, vectors, out=None) -> np.ndarray:
        """Splitting coordinates frames_inv @ vectors, into ``out`` when given."""
        return _product(self.frames_inv, vectors, _INVERSE_ENTRIES, out=out)

    def center_coeff(self, vectors) -> np.ndarray:
        """``coeffs(vectors)[..., C]``, with only the center row summed."""
        return _product(self.frames_inv, vectors, _INVERSE_ENTRIES, rows=(C,))[..., 0]

    def transversal(self, coeffs) -> np.ndarray:
        """The ambient stable + unstable part of ``coeffs``; the center coefficient is ignored."""
        return _product(self.frames, coeffs, _FRAME_ENTRIES, skip=C)


_FRAME = np.stack([E_STABLE, E_CENTER, E_UNSTABLE], axis=-1)
# the kappa = 0 splitting: one frame at every point
ANALYTIC = Splitting(_FRAME, np.linalg.inv(_FRAME))


_RENORMALISE = 32  # products between two renormalisations of the rotations in _slopes
# cos and sin of q quarter turns, exact
_QUARTER_COS = np.array([1.0, 0.0, -1.0, 0.0])
_QUARTER_SIN = np.array([0.0, 1.0, 0.0, -1.0])


def _slopes(sys: CatCircleSystem, x: np.ndarray, n: int) -> np.ndarray:
    """Theta slopes of the stable (column 0) and unstable (column 1) directions at x.

    With c(b1) = 2 pi kappa cos(2 pi b1) the theta row of the differential,
    r_s = -e_s[0] sum_{j<n} lam^j c(f^j x) and
    r_u = e_u[0] sum_{1<=j<=n} mu^-j c(f^-j x); only the base orbit enters.

    The terms are rotations, not cosines.  The base coordinates are wrapped
    once (:func:`wrap` raises the :class:`ChartError` of a non-finite one),
    so x and x plus integers have the same slopes, and z_i = e^{2 pi i b_i}
    is seeded with one cos and one sin per coordinate, taken of b_i less its
    nearest quarter turn.  The base orbit then steps as complex products:
    forward z1 <- z0 z1, then z0 <- z0 z1; inverse z0 <- z0 conj(z1), then
    z1 <- z1 conj(z0).  Carried as (conj(z0 z1), z0), the inverse orbit
    takes the same two products as the forward one, carried as (z1, z0), so
    both step together in two (2, N) arrays whose rows are (forward,
    inverse), and the second array holds both e^{2 pi i (CAT^{+-j} b)_0}.
    The base map is affine, f^j(b) = CAT^j b + f^j(0), so a shift steps the
    unshifted orbits and multiplies their terms by e^{2 pi i f^{+-j}(0)_0}.  Term j adds lam^j Re(z0) of the forward orbit and
    mu^-j Re(z0) of the inverse one, so the loop takes no cos, floor or mask.
    A phase error grows like mu^j along either orbit, and the weights lam^j
    and mu^-j cancel that growth, as they did for the float walk that
    stepped the wrapped coordinates.  Modulus errors grow like mu^j too, and
    no weight cancels them, so both arrays are divided by their moduli every
    _RENORMALISE products (term 32 is the first to read them; a validated
    system sums at most 31 terms).  On random points at |kappa| = 0.45 and
    n <= 80 the series is within 3.7e-15 of the exact one, and the tests
    hold it to 1e-14 (tests/test_primitives.py).  numpy rounds the complex
    product and ``np.abs`` alike at every element of a contiguous array of
    two or more, and each point is its own column, so a point's slopes do
    not depend on the array it comes in.
    """
    b = wrap(np.asarray(x, float)[..., :2]).reshape(-1, 2).T
    # e^{2 pi i b} = i^q e^{2 pi i (b - q/4)}: the subtraction is exact, and
    # 2 pi (b - q/4), at most pi/4, rounds less than 2 pi b would
    q = np.rint(4.0 * b)
    turn = 2.0 * np.pi * (b - 0.25 * q)
    c, s = np.cos(turn), np.sin(turn)
    q = q.astype(np.intp) & 3
    qc, qs = _QUARTER_COS[q], _QUARTER_SIN[q]
    cos, sin = c * qc - s * qs, s * qc + c * qs
    # rows (forward, inverse): first = (z1, conj(z0 z1)), second = (z0, z0)
    first, second = np.empty((2, 2, b.shape[1]), complex)
    first.real[0], first.imag[0] = cos[1], sin[1]
    first.real[1] = cos[0] * cos[1] - sin[0] * sin[1]
    first.imag[1] = -(sin[0] * cos[1] + cos[0] * sin[1])
    second.real[:], second.imag[:] = cos[0], sin[0]
    weights = np.array([[LAM**k if k < n else 0.0, MU**-k if k else 0.0] for k in range(n + 1)])
    s0, s1 = sys.shift[:2].tolist()
    shifted = s0 != 0.0 or s1 != 0.0
    if shifted:
        # first coordinates of f^k(0) and f^-k(0), walked as the maps step
        origin = (0.0, 0.0, 0.0)
        walks = (_forward_walk(sys, origin, n), _backward_walk(sys, origin, n))
        phases = np.column_stack([np.frombuffer(walk)[::3] for walk in walks])
        weights, weights_sin = weights * np.cos(2.0 * np.pi * phases), weights * np.sin(2.0 * np.pi * phases)
    total, t = np.zeros(b.shape), np.empty(b.shape)
    for k in range(n + 1):
        np.multiply(second.real, weights[k, :, None], out=t)
        np.add(total, t, out=total)
        if shifted:
            np.multiply(second.imag, weights_sin[k, :, None], out=t)
            np.subtract(total, t, out=total)
        if k < n:
            np.multiply(first, second, out=first)
            np.multiply(second, first, out=second)
            if (k + 1) % _RENORMALISE == 0:
                np.divide(first, np.abs(first), out=first)
                np.divide(second, np.abs(second), out=second)
    c = 2.0 * np.pi * sys.kappa * np.array([[-E_STABLE[0]], [E_UNSTABLE[0]]])
    # each component contiguous; the component axis is last
    return np.moveaxis((c * total).reshape((2,) + np.shape(x)[:-1]), 0, -1)


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


def splitting_at(sys: CatCircleSystem, x) -> Splitting:
    """Invariant splitting at x: :data:`ANALYTIC` at kappa = 0, else one frame per point.

    The stable and unstable slopes are ``sys.n_split`` terms of their
    series (see :func:`_slopes`), so the unit directions are within
    :data:`DIRECTION_TOL` of the invariant ones; :meth:`Splitting.from_slopes`
    writes the frames and their explicit inverses.
    """
    if sys.kappa == 0.0:
        return ANALYTIC
    return Splitting.from_slopes(_slopes(sys, x, sys.n_split))


def leaf_dist(x, y):
    """Hausdorff distance between the circle fibers through x and y.

    For vertical fibers this is exactly the base distance.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = norm(minimal_rep(y[..., :2] - x[..., :2]))
    return float(d) if np.ndim(d) == 0 else d
