"""Independent oracle computations used across the test suite.

Most of this is built from first principles (inline map formulas, dense
linear algebra, brute-force scans) so library results can be checked
against a second, unrelated code path.  ``eta_lipschitz_fd`` and the
measurement section at the end are the exception: they drive the
library's own operators with differences, random probes, samples and
other starting points, and the tests compare what they find with the
closed-form bounds that gate every solve and with the solver's results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from quasishadow.orbits import PseudoOrbit, _ball_draws
from quasishadow.solver import _SCAN_BLOCK, _SCAN_TINY, OrbitOperators, SolverConfig
from quasishadow.systems import C, S, U, HyperbolicityRates, splitting_at
from quasishadow.torus import dist, minimal_rep, norm, wrap, wrap_float

ACAT = np.array([[2.0, 1.0], [1.0, 1.0]])
MU = float((3.0 + np.sqrt(5.0)) / 2.0)
LAM = float((3.0 - np.sqrt(5.0)) / 2.0)


def minrep(d):
    d = np.asarray(d, float)
    return d - np.round(d)


def true_window(sys, x0, n_steps):
    """Zero-defect window on [-n_steps, n_steps]: the orbit of x0, read from k = -n_steps."""
    return PseudoOrbit(sys.orbit(x0, 2 * n_steps), k_start=-n_steps)


def product_map(x, alpha):
    """The kappa = 0 skew product, written out independently."""
    x = np.asarray(x, float)
    b = (x[..., :2] @ ACAT.T) % 1.0
    th = (x[..., 2] + alpha) % 1.0
    return np.concatenate([b, th[..., None]], axis=-1)


def eigen_frames():
    """Unit frame [e_s, e_c, e_u] from a dense eigendecomposition of the base."""
    w, vecs = np.linalg.eig(ACAT)
    i_s, i_u = int(np.argmin(w)), int(np.argmax(w))
    e_s = np.array([vecs[0, i_s], vecs[1, i_s], 0.0])
    e_u = np.array([vecs[0, i_u], vecs[1, i_u], 0.0])
    e_s /= np.linalg.norm(e_s)
    e_u /= np.linalg.norm(e_u)
    if e_s[1] < 0:
        e_s = -e_s
    if e_u[1] < 0:
        e_u = -e_u
    return np.stack([e_s, np.array([0.0, 0.0, 1.0]), e_u], axis=-1)


def dense_stable_window(mult, rhs):
    """Stable block solve, zero inflow at the left edge, by a dense LU."""
    n = len(rhs)
    mat = np.eye(n)
    for k in range(1, n):
        mat[k, k - 1] = -mult[k - 1]
    return np.linalg.solve(mat, np.asarray(rhs, float))


def dense_unstable_window(mult, rhs):
    """Unstable block solve, zero pinned at the right edge, by a dense LU."""
    n = len(rhs)
    mat = np.zeros((n, n))
    r = np.zeros(n)
    for row in range(n - 1):
        k = row + 1
        mat[row, k] = 1.0
        mat[row, k - 1] = -mult[k - 1]
        r[row] = rhs[k]
    mat[n - 1, n - 1] = 1.0
    return np.linalg.solve(mat, r)


def dense_block_cyclic(mult, rhs):
    """Cyclic block solve v_k - mult_k v_{k-1 mod n} = r_k by a dense LU."""
    n = len(rhs)
    mat = np.eye(n)
    for k in range(n):
        mat[k, (k - 1) % n] -= mult[k]
    return np.linalg.solve(mat, np.asarray(rhs, float))


def _align(mult: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape step-major multipliers (L, *orbits) to broadcast against (L, ..., *orbits)."""
    return mult.reshape(mult.shape[:1] + (1,) * (ndim - mult.ndim) + mult.shape[1:])


def blocked_affine_scan(mult: np.ndarray, rhs: np.ndarray, init=0.0) -> np.ndarray:
    """The solver's affine scan as a python loop over blocks of _SCAN_BLOCK steps.

    First-order recursion s_j = mult[j] * s_{j-1} + rhs[j], s_{-1} = init,
    shapes as in :func:`quasishadow.solver._affine_scan`.  Each block runs
    its own cumulative product and sum; a block with a multiplier below
    _SCAN_TINY runs the plain loop.  The library's block-parallel scan must
    give these bits.
    """
    mult = np.asarray(mult, float)
    rhs = np.asarray(rhs, float)
    L = mult.shape[0]
    out = np.empty(rhs.shape)
    carry = np.zeros(rhs.shape[1:]) + init
    for lo in range(0, L, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, L)
        m = mult[lo:hi]
        if np.min(np.abs(m)) < _SCAN_TINY:
            for j in range(lo, hi):
                carry = mult[j] * carry + rhs[j]
                out[j] = carry
            continue
        q = _align(np.cumprod(m, axis=0), rhs.ndim)
        block = q * (carry + np.cumsum(rhs[lo:hi] / q, axis=0))
        out[lo:hi] = block
        carry = block[-1]
    return out


def _frame_defects(points, alpha, cyclic):
    frames = eigen_frames()
    pts = np.asarray(points, float)
    if cyclic:
        img = product_map(pts, alpha)
        nxt = np.roll(pts, -1, axis=0)
        amb = minrep(img - nxt)
        r = np.roll(amb, 1, axis=0) @ frames  # row k holds the defect into point k
    else:
        img = product_map(pts[:-1], alpha)
        amb = minrep(img - pts[1:])
        r = np.zeros((len(pts), 3))
        r[1:] = amb @ frames  # orthonormal frame: coefficients via transpose
    return frames, r


def dense_tau1_window(points, alpha):
    """Window fixed point of the kappa = 0 tracing problem by dense solves.

    Returns (y points, transversal ambient, center correction ambient).
    """
    frames, r = _frame_defects(points, alpha, cyclic=False)
    W = len(points)
    s = dense_stable_window(np.full(W - 1, LAM), r[:, 0])
    t = dense_unstable_window(np.full(W - 1, MU), r[:, 2])
    u = np.zeros((W, 3))
    u[:, 2] = -r[:, 1]  # center correction, ambient theta component
    v_amb = s[:, None] * frames[:, 0] + t[:, None] * frames[:, 2]
    y = (np.asarray(points, float) + v_amb) % 1.0
    u_amb = u.copy()
    return y, v_amb, u_amb


def dense_tau1_cyclic(points, alpha):
    """Cyclic fixed point of the kappa = 0 tracing problem by dense solves."""
    frames, r = _frame_defects(points, alpha, cyclic=True)
    n = len(points)
    s = dense_block_cyclic(np.full(n, LAM), r[:, 0])
    t = dense_block_cyclic(np.full(n, MU), r[:, 2])
    v_amb = s[:, None] * frames[:, 0] + t[:, None] * frames[:, 2]
    y = (np.asarray(points, float) + v_amb) % 1.0
    u_amb = np.zeros((n, 3))
    u_amb[:, 2] = -r[:, 1]
    return y, v_amb, u_amb


def periodic_base_point(b0, n):
    """Exact period-n base point near the orbit of b0, solved in the eigenbasis.

    Solves (A^n - I) c = -(A^n b0 - b0) componentwise; the unstable
    component divides by mu^n - 1, which is treated as infinite when it
    overflows.
    """
    b = np.asarray(b0, float)
    z = b.copy()
    for _ in range(n):
        z = (ACAT @ z) % 1.0
    d = minrep(z - b)
    frames = eigen_frames()
    e_s, e_u = frames[:2, 0], frames[:2, 2]
    d_s, d_u = float(d @ e_s), float(d @ e_u)
    c_s = d_s / (1.0 - LAM ** n)
    with np.errstate(over="ignore"):
        mu_n = MU ** n
    c_u = 0.0 if np.isinf(mu_n) else -d_u / (mu_n - 1.0)
    return (b + c_s * e_s + c_u * e_u) % 1.0


def scan_near_return(map_fn, x0, max_n, threshold, base_only):
    """Brute-force first-return scan; returns (n, gap) or None."""
    x0 = np.asarray(x0, float)
    z = x0.copy()
    for n in range(1, max_n + 1):
        z = map_fn(z)
        d = minrep(z - x0)
        if base_only:
            d = d[:2]
        gap = float(np.linalg.norm(d))
        if gap < threshold:
            return n, gap
    return None


def fd_jacobian(map_fn, x, h=1e-6):
    """Central-difference Jacobian with wrap-aware differences."""
    x = np.asarray(x, float)
    d = len(x)
    out = np.zeros((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        out[:, i] = minrep(map_fn((x + e) % 1.0) - map_fn((x - e) % 1.0)) / (2.0 * h)
    return out


def sin_angle(a, b):
    """Sine of the angle between two direction vectors (sign-insensitive)."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    return np.linalg.norm(np.cross(a, b), axis=-1)


def _power_direction(sys, x, n, unstable):
    """Invariant direction by normalized pushes of the differential along an orbit segment.

    Seeded with the unperturbed eigendirection n steps away (backward pushes
    for the stable direction, forward for the unstable one).  Also returns
    how far the direction moved against the push seeded one step closer
    (zero when n <= 1).
    """
    x = np.asarray(x, float)
    step = sys.inverse if unstable else sys.forward
    pts = [x]
    for _ in range(n):
        pts.append(step(pts[-1]))
    seed = eigen_frames()[:, 2 if unstable else 0]
    v = np.broadcast_to(seed, x.shape).copy()  # seeded at the far end
    w = np.broadcast_to(seed, x.shape).copy()  # seeded one step in, lags one push
    for j in range(n, 0, -1):
        if unstable:
            jac = sys.differential(pts[j])
            push = lambda u: np.einsum("...ij,...j->...i", jac, u)  # noqa: E731
        else:
            jac = sys.differential(pts[j - 1])
            push = lambda u: np.linalg.solve(jac, u[..., None])[..., 0]  # noqa: E731
        v = push(v)
        v = v / np.linalg.norm(v, axis=-1, keepdims=True)
        if j < n:
            w = push(w)
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


def power_splitting(sys, x, n):
    """Splitting frames by power iteration: (frames, inverse frames, change).

    ``frames[..., :, i]`` is the unit direction of bundle i in the
    (stable, center, unstable) order, the center being the fiber direction;
    ``change[..., 0]`` and ``change[..., 1]`` hold how far the stable and
    unstable directions moved on their last push.
    """
    x = np.asarray(x, float)
    e_s, change_s = _power_direction(sys, x, n, unstable=False)
    e_u, change_u = _power_direction(sys, x, n, unstable=True)
    e_c = np.broadcast_to([0.0, 0.0, 1.0], x.shape)
    frames = np.stack([e_s, e_c, e_u], axis=-1)
    return frames, np.linalg.inv(frames), np.stack([change_s, change_u], axis=-1)


def _plane_basis(frames):
    """Orthonormal basis (q1, q2) of span(e_s, e_u) at every point, by Gram-Schmidt."""
    e_s, e_u = frames[..., :, 0], frames[..., :, 2]
    q1 = e_s / np.linalg.norm(e_s, axis=-1, keepdims=True)
    q2 = e_u - np.sum(e_u * q1, axis=-1, keepdims=True) * q1
    return q1, q2 / np.linalg.norm(q2, axis=-1, keepdims=True)


def pointwise_norm_equivalence(frames, n_angles=3600):
    """Brute-force sup of (|u| + |v|) / |u + v|, u on the center line, v in span(e_s, e_u).

    For unit directions u and v the ratio peaks at equal lengths, where it is
    2 / |u + v|; the scan runs v over ``n_angles`` directions of the
    transversal plane at every point (u = -e_c is the scan of -v).
    """
    frames = np.asarray(frames, float).reshape(-1, 3, 3)
    q1, q2 = _plane_basis(frames)
    t = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)[:, None, None]
    v = np.cos(t) * q1 + np.sin(t) * q2
    return float(np.max(2.0 / np.linalg.norm(frames[:, :, 1] + v, axis=-1)))


def eta_lipschitz_fd(ops, seed, samples=4, h=1e-3):
    """Lipschitz estimate of ``ops.eta`` on the ``ops.cfg.epsilon`` ball from central differences.

    eta_k depends on v_{k-1} alone, so moving every point at once along one
    direction of its transversal plane gives the derivative of every step in
    that direction.  Returns the largest spectral norm of the per-step 3x2
    derivatives (ambient in, ambient out) at ``samples`` random sequences
    with |v_k| = 0.9 epsilon.
    """
    W, epsilon = ops.n_points, ops.cfg.epsilon
    frames = np.broadcast_to(ops.split.frames, (W, 3, 3))
    frames_inv = np.broadcast_to(ops.split.frames_inv, (W, 3, 3))
    q = np.stack(_plane_basis(frames), axis=-1)  # (W, 3, 2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        t = rng.uniform(0.0, 2.0 * np.pi, W)
        v_amb = 0.9 * epsilon * (q @ np.stack([np.cos(t), np.sin(t)], axis=-1)[..., None])[..., 0]
        jac = np.empty((W, 3, 2))
        for m in range(2):
            step = np.einsum("kij,kj->ki", frames_inv, h * q[..., m])
            plus = ops.eta(np.einsum("kij,kj->ki", frames_inv, v_amb) + step)
            minus = ops.eta(np.einsum("kij,kj->ki", frames_inv, v_amb) - step)
            jac[..., m] = np.einsum("kij,kj->ki", frames, plus - minus) / (2.0 * h)
        worst = max(worst, float(np.max(np.linalg.norm(jac, ord=2, axis=(-2, -1)))))
    return worst


# --- torus primitives and array maps in their numpy spellings -----------------
# ``torus.wrap`` and ``torus.norm`` compute x - floor(x) and an index-order sum
# of squares; the library's array maps write their columns out instead of
# multiplying by the base matrix.  All must give the bits of these forms.  The
# slope series is the exception: ``systems._slopes`` rotates e^{2 pi i b}, and
# the two oracles below bound it, the exact one and the earlier float walk.

ACAT_INV = np.array([[1.0, -1.0], [-1.0, 2.0]])


def mod_wrap(a):
    """Coordinates mod 1 by ``np.mod``, with the 1.0 it rounds up to reset to 0.0."""
    out = np.mod(np.asarray(a, float), 1.0)
    return np.where(out >= 1.0, 0.0, out)


def linalg_norm(v, keepdims=False):
    return np.linalg.norm(np.asarray(v, float), axis=-1, keepdims=keepdims)


def matmul_forward(sys, x):
    """The skew-product map as a base matrix product and a concatenated fiber column."""
    x = np.asarray(x, float)
    b = x[..., :2] @ ACAT.T
    th = x[..., 2] + sys.alpha + sys.kappa * np.sin(2.0 * np.pi * x[..., 0])
    return mod_wrap(np.concatenate([b, th[..., None]], axis=-1) + sys.shift)


def matmul_inverse(sys, x):
    z = np.asarray(x, float) - sys.shift
    b = z[..., :2] @ ACAT_INV.T
    th = z[..., 2] - sys.alpha - sys.kappa * np.sin(2.0 * np.pi * b[..., 0])
    return mod_wrap(np.concatenate([b, th[..., None]], axis=-1))


def _eigen_first_components():
    """First components of the unit eigendirections, normalized as the library does."""
    e_s, e_u = np.array([LAM - 1.0, 1.0, 0.0]), np.array([MU - 1.0, 1.0, 0.0])
    return np.array([-e_s[0] / np.linalg.norm(e_s), e_u[0] / np.linalg.norm(e_u)])


def matmul_slopes(sys, x, n):
    """The slope series with the base orbit stepped by matrix products and wrapped each step.

    The float walk that ``systems._slopes`` summed before it rotated
    e^{2 pi i b}; it takes ``np.cos`` of every point and does not wrap x itself.
    """
    shift = sys.shift[:2]
    fwd = bwd = np.asarray(x, float)[..., :2]
    total = np.zeros(fwd.shape)
    for j in range(n):
        bwd = mod_wrap((bwd - shift) @ ACAT_INV.T)
        cos = np.cos(2.0 * np.pi * np.stack([fwd[..., 0], bwd[..., 0]], axis=-1))
        total = total + cos * [LAM**j, MU ** -(j + 1)]
        fwd = mod_wrap(fwd @ ACAT.T + shift)
    return 2.0 * np.pi * sys.kappa * _eigen_first_components() * total


def exact_slopes(sys, x, n):
    """The slope series on the exact base orbit: ``math.cos`` of each point rounded once.

    Floats are dyadic rationals, so ``Fraction`` steps b -> CAT b + w mod 1
    and its inverse without rounding, from x mod 1.
    """
    x = np.asarray(x, float)
    w0, w1 = (Fraction(v) for v in sys.shift[:2].tolist())
    weights = [[LAM**j for j in range(n)], [MU ** -(j + 1) for j in range(n)]]
    out = np.empty(x.shape[:-1] + (2,))
    for idx in np.ndindex(x.shape[:-1]):
        b0, b1 = (Fraction(v) % 1 for v in x[idx][:2].tolist())
        f, g, terms = (b0, b1), (b0, b1), ([], [])
        for j in range(n):
            z0, z1 = g[0] - w0, g[1] - w1
            g = ((z0 - z1) % 1, (2 * z1 - z0) % 1)
            terms[0].append(weights[0][j] * math.cos(2.0 * math.pi * float(f[0])))
            terms[1].append(weights[1][j] * math.cos(2.0 * math.pi * float(g[0])))
            f = ((2 * f[0] + f[1] + w0) % 1, (f[0] + f[1] + w1) % 1)
        out[idx] = [math.fsum(t) for t in terms]
    return 2.0 * np.pi * sys.kappa * _eigen_first_components() * out


def matmul_transfer(ops):
    """alpha, beta_u, off_block and norm_equivalence of ``ops`` from stacked 3x3 products.

    The spelling ``OrbitOperators`` used before it read the multipliers
    from the slopes: M_k = frames_inv[dst] @ Df(x_src) @ frames[src], the
    block entries M_ss and M_uu, and for each row i of M without them
    max_k |M_is| max|row_s| + max_k |M_iu| max|row_u| over the rows of frames_inv.
    """
    split, X = ops.split, ops.points
    M = split[..., ops.step_dst].frames_inv @ ops.sys.differential(X[..., ops.step_src, :])
    M = M @ split[..., ops.step_src].frames
    alpha, beta_u = M[..., S, S].copy(), M[..., U, U].copy()
    M[..., S, S] = M[..., U, U] = 0.0
    dual = np.linalg.norm(split.frames_inv[..., [S, U], :], axis=-1).max(axis=-2)
    M = np.abs(M).max(axis=-3)
    off_block = M[..., S] * dual[..., :1] + M[..., U] * dual[..., 1:]
    row = split.frames_inv[..., C, :]
    cos = (np.linalg.norm(row[..., :2], axis=-1) / np.linalg.norm(row, axis=-1)).max(axis=-1)
    return alpha, beta_u, off_block, np.sqrt(2.0 / (1.0 - cos))


# --- frame products and the covering radius in their earlier spellings ---------
# ``Splitting`` sums its products in the order numpy 2.4.6's einsum uses on
# C-ordered operands and drops the frames' exact zeros; ``_covering_radius``
# takes one sqrt after the min.  Both must give the bits of these forms.


def einsum_coeffs(split, vectors):
    return np.einsum("...ij,...j->...i", split.frames_inv, np.asarray(vectors, float))


def einsum_assemble(split, coeffs):
    return np.einsum("...ij,...j->...i", split.frames, np.asarray(coeffs, float))


def einsum_transversal(split, coeffs):
    """The ambient stable + unstable part: a copy of ``coeffs`` with the center zeroed, assembled."""
    us = np.array(coeffs, float)
    us[..., C] = 0.0
    return einsum_assemble(split, us)


def chunked_covering_radius(probes, points, chunk=64):
    """max over probes of the distance to the nearest point: minimal_rep and norm on 64-probe blocks."""
    if len(points) == 0:
        return float("inf")
    worst = 0.0
    for lo in range(0, len(probes), chunk):
        block = probes[lo : lo + chunk]
        d = minimal_rep(block[:, None, :] - points[None, :, :])
        nearest = np.min(norm(d), axis=1)
        worst = max(worst, float(np.max(nearest)))
    return worst


def measure_defect(sys, orbit):
    """Sup of the one-step errors dist(f(x_k), x_{k+1}) of an orbit and the k attaining it.

    Cycles include the wrap pair (x_{n-1}, x_0); in leaf mode it is the
    distance between fibers, the base part of the gap.  The solver
    measures the same rule on stacked orbits inside ``shadow_batch``.
    """
    pts = orbit.points
    nxt = np.roll(pts, -1, axis=0)
    if not orbit.cyclic:
        pts, nxt = pts[:-1], nxt[:-1]
    diff = minrep(nxt - sys.forward(pts))
    if orbit.cyclic and orbit.leaf_mode:
        diff[-1, 2] = 0.0
    gaps = np.linalg.norm(diff, axis=-1)
    j = int(np.argmax(gaps))
    return float(gaps[j]), orbit.k_start + j


# --- single-point loops on the array maps -------------------------------------
# The loops below step one point at a time through the matrix-product maps
# above (numpy arrays, np.sin, np.mod), the way the library did before its
# float step kernel; the kernel must reproduce them bit for bit.


def _norm(d):
    return float(linalg_norm(minrep(d)))


def array_orbit(sys, x0, n_steps):
    """Points x, f(x), ..., f^n(x) from n calls of the array map on one point."""
    x = mod_wrap(x0)
    out = np.empty((n_steps + 1, 3))
    out[0] = x
    for j in range(n_steps):
        x = matmul_forward(sys, x)
        out[j + 1] = x
    return out


def array_noisy_points(sys, x0, n_steps, noise, seed):
    """The points of ``generate_noisy``: the same draws, stepped by the array maps."""
    x0 = mod_wrap(x0)
    rng = np.random.default_rng(seed)
    xi = np.zeros((2 * n_steps, 3))
    if noise != 0.0:
        direction = rng.standard_normal((2 * n_steps, 3))
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        r = noise * (1.0 - 1e-9) * rng.random(2 * n_steps) ** (1.0 / 3)
        xi = direction * r[:, None]
    pts = np.empty((2 * n_steps + 1, 3))
    pts[n_steps] = x0
    x = x0
    for j in range(n_steps):
        x = mod_wrap(matmul_forward(sys, x) + xi[j])
        pts[n_steps + 1 + j] = x
    x = x0
    for j in range(n_steps):
        x = matmul_inverse(sys, mod_wrap(x + xi[n_steps + j]))
        pts[n_steps - 1 - j] = x
    return pts


def array_near_return(sys, x0, max_n, threshold, mode):
    """First n <= max_n with gap(x0, f^n x0) < threshold, as (n, gap), or None.

    The gap is the torus distance (leaf mode: of the base coordinates),
    taken as ``np.linalg.norm(..., axis=-1)`` of the minimal representative.
    """
    x0 = mod_wrap(x0)
    dims = 2 if mode == "leaf" else 3
    z = x0
    for n in range(1, max_n + 1):
        z = matmul_forward(sys, z)
        gap = _norm(z[:dims] - x0[:dims])
        if gap < threshold:
            return n, gap
    return None


def array_leaf_residual(sys, p, period):
    """Base distance between p and f^period(p), iterating the array map."""
    z = np.asarray(p, float)
    for _ in range(period):
        z = matmul_forward(sys, z)
    return _norm(z[:2] - np.asarray(p, float)[:2])


# The one-point float kernel the library's walks inline: three Python
# floats mapped in the operation order of ``forward`` / ``inverse``, and
# the loops that stepped it one call at a time; the walks must equal them
# bit for bit.


def _sin_2pi(t: float) -> float:
    """sin(2 pi t) as the array maps compute it; nan where ``np.sin`` gives nan (t = +-inf)."""
    try:
        return math.sin(2.0 * math.pi * t)
    except ValueError:
        return math.nan


def step(sys, x0: float, x1: float, x2: float) -> tuple[float, float, float]:
    """``sys.forward`` of one point given as three Python floats."""
    s0, s1, s2 = sys.shift.tolist()
    theta = x2 + sys.alpha
    if sys.kappa != 0.0:
        theta += sys.kappa * _sin_2pi(x0)
    return wrap_float((2.0 * x0 + x1) + s0), wrap_float((x0 + x1) + s1), wrap_float(theta + s2)


def step_inverse(sys, x0: float, x1: float, x2: float) -> tuple[float, float, float]:
    """``sys.inverse`` of one point given as three Python floats."""
    s0, s1, s2 = sys.shift.tolist()
    z0, z1 = x0 - s0, x1 - s1
    b0 = z0 - z1
    theta = (x2 - s2) - sys.alpha
    if sys.kappa != 0.0:
        theta -= sys.kappa * _sin_2pi(b0)
    return wrap_float(b0), wrap_float(-z0 + 2.0 * z1), wrap_float(theta)


def stepped_orbit(sys, x0, n_steps, one_point=step):
    """Points x, g(x), ..., g^n(x) from n calls of ``one_point`` (g = f, or f^-1 for :func:`step_inverse`)."""
    x = tuple(wrap(x0).tolist())
    out = [x]
    for _ in range(n_steps):
        x = one_point(sys, *x)
        out.append(x)
    return np.array(out)


def stepped_noisy(sys, x0, n_steps, noise, seed):
    """The points of ``generate_noisy`` as its step-per-call loops made them, from the same draws."""
    x0 = wrap(x0)
    xi = _ball_draws(np.random.default_rng(seed), 2 * n_steps, noise, 3)
    forward, backward = [], []  # x_1 .. x_n and x_-1 .. x_-n
    x = x0.tolist()
    for e0, e1, e2 in xi[:n_steps].tolist():
        f0, f1, f2 = step(sys, *x)
        x = wrap_float(f0 + e0), wrap_float(f1 + e1), wrap_float(f2 + e2)
        forward.append(x)
    x = x0.tolist()
    for e0, e1, e2 in xi[n_steps:].tolist():
        x = step_inverse(sys, wrap_float(x[0] + e0), wrap_float(x[1] + e1), wrap_float(x[2] + e2))
        backward.append(x)
    return np.concatenate([np.reshape(backward[::-1], (-1, 3)), x0[None], np.reshape(forward, (-1, 3))])


def csv_writer_bytes(path, header, rows):
    """Write rows as the library's CSV writers did: csv.writer, floats as format(v, ".17g")."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, int) else format(v, ".17g") for v in row])
    with open(path, "rb") as fh:
        return fh.read()


# --- measurements of the library's constants ----------------------------------
# Maxima over probes underestimate suprema, so no solve gates on them.


def norm_sup(ops, coeffs):
    """Sup norm max_k |w_k| of coefficient sequences, on the assembled ambient vectors."""
    return norm(einsum_assemble(ops.split, coeffs)).max(axis=-1)


def projector(split, bundle):
    """Projection onto one bundle along the sum of the other two, shape (..., 3, 3)."""
    return split.frames[..., :, bundle, None] * split.frames_inv[..., None, bundle, :]


@dataclass(frozen=True)
class ContractionEstimates:
    """Measured constants of the fixed-point scheme (probe maxima, not bounds).

    ``norm_equivalence`` is the sequence-norm constant of
    |w| <= |w|_1 <= L |w| (its suprema may sit at different indices, so it
    can reach the sum of the two projection norms); the pointwise variant
    bounds (|u_k| + |v_k|) / |w_k| at a single index and equals sqrt(2)
    for an orthogonal splitting.
    """

    norm_equivalence: float
    norm_equivalence_pointwise: float
    lambda_tilde: float  # worst stable / inverse-unstable block factor
    eta_lipschitz: float  # measured Lipschitz constant of eta on the epsilon ball
    p_inv_norm: float  # measured solver-norm operator norm of P^{-1}
    observed_contraction: float  # measured Lipschitz factor of Phi
    probes: int


def estimate_contraction(sys, orbit, cfg=None, probes=8, seed=20240):
    """Probe-based measurement of the scheme's constants on this orbit for ``cfg``.

    All quantities are maxima over ``probes`` random probes (at least 2)
    drawn with ``seed``: the norm equivalence constant,
    the Lipschitz constant of eta on the epsilon ball, the solver-norm
    operator norm of P^{-1}, and the Lipschitz factor of Phi on
    transversal pairs.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if probes < 2:
        raise ValueError(f"probes must be >= 2, got {probes}")
    ops = OrbitOperators(sys, orbit.points, orbit.cyclic, cfg)
    rng = np.random.default_rng(seed)

    def draw(center, solver_norm):
        """Random sequences of norm in [eps / 4, eps], with or without a center part."""
        draws = rng.standard_normal((probes, ops.n_points, 3))
        if not center:
            draws[..., C] = 0.0
        norms = ops.norm_one(draws) if solver_norm else norm_sup(ops, draws)
        return draws * (cfg.epsilon * (0.25 + 0.75 * rng.random(probes)) / norms)[:, None, None]

    w_full = draw(center=True, solver_norm=True)
    big_l = float(np.max(ops.norm_one(w_full) / norm_sup(ops, w_full)))
    split_norm = np.abs(w_full[..., C]) + norm(ops.split.transversal(w_full))
    full_norm = norm(einsum_assemble(ops.split, w_full))
    big_l_pt = float(np.max(split_norm / full_norm))

    v_a = draw(center=False, solver_norm=False)
    v_b = draw(center=False, solver_norm=False)
    d_eta = ops.eta(v_a) - ops.eta(v_b)
    c_delta = float(np.max(norm_sup(ops, d_eta) / norm_sup(ops, v_a - v_b)))

    r = draw(center=True, solver_norm=True)
    p_inv = float(np.max(ops.norm_one(ops.solve_p(r)) / ops.norm_one(r)))

    u_a = draw(center=False, solver_norm=True)
    u_b = draw(center=False, solver_norm=True)
    d_phi = ops.phi(ops.eta(u_a)) - ops.phi(ops.eta(u_b))
    observed = float(np.max(ops.norm_one(d_phi) / ops.norm_one(u_a - u_b)))
    return ContractionEstimates(
        norm_equivalence=big_l,
        norm_equivalence_pointwise=big_l_pt,
        lambda_tilde=float(ops.lambda_tilde),
        eta_lipschitz=c_delta,
        p_inv_norm=p_inv,
        observed_contraction=observed,
        probes=probes,
    )


def fixed_point_from(sys, orbit, start, cfg=None, max_steps=200):
    """The fixed point of Phi reached from the coefficients ``start``: (y, corrections, delta_history).

    Iterates ``ops.phi(ops.eta(w))`` on the orbit alone, with the variant
    and tolerance of ``cfg``, until the update ``ops.norm_one(w_new - w)``
    drops below ``cfg.fixed_point_tol``; no gate, no epsilon ball.  The
    corrections are read off as a solve reports them: the center
    coefficients (tau1 and tau3), or the theta gaps from f(y_{k-1}) to y_k
    (tau2, zero in a window's row 0).
    """
    cfg = cfg if cfg is not None else SolverConfig()
    ops = OrbitOperators(sys, orbit.points, orbit.cyclic, cfg)
    w = np.array(start, float)
    deltas = []
    for _ in range(max_steps):
        w_new = ops.phi(ops.eta(w))
        deltas.append(ops.norm_one(w_new - w))
        w = w_new
        if deltas[-1] < cfg.fixed_point_tol:
            y = wrap(ops.points + ops.split.transversal(w))
            if cfg.variant in ("tau1", "tau3"):
                corrections = w[..., C].copy()
            else:
                corrections = np.zeros(len(y))
                corrections[ops.step_dst] = minimal_rep(y[ops.step_dst, 2] - sys.forward(y[ops.step_src])[..., 2])
            return y, corrections, np.array(deltas)
    raise AssertionError(f"no fixed point within {max_steps} steps")


def center_flow_step_residual(sys, res):
    """Largest dist(y_k, wrap(f(y_{k-1}) + (0, 0, t_k))) over the steps of a result with center times t_k.

    The target flows f(y_{k-1}) along its vertical fiber for the time t_k,
    with no chart at x_k: the step relation of the center-foliation
    statement (tau3), read without the solver's own target.
    """
    dst = np.arange(len(res.y)) if res.cyclic else np.arange(1, len(res.y))
    flowed = sys.forward(res.y[dst - 1])
    flowed[:, 2] += res.corrections[dst]
    return float(np.max(dist(res.y[dst], wrap(flowed))))


def fiber_slide(split, d_base):
    """Move along the vertical fiber that turns a base offset into a transversal vector.

    Solves d_base = a e_s + c e_u for the base parts of the stable and
    unstable directions of ``split`` (a 2x2 linear solve per point by
    Cramer's rule) and returns the coefficients (a, 0, c) and the ambient
    move a e_s + c e_u, assembled by einsum.
    """
    E = split.frames[..., :2, :][..., [S, U]]
    det = E[..., 0, 0] * E[..., 1, 1] - E[..., 0, 1] * E[..., 1, 0]
    a = (E[..., 1, 1] * d_base[..., 0] - E[..., 0, 1] * d_base[..., 1]) / det
    c = (-E[..., 1, 0] * d_base[..., 0] + E[..., 0, 0] * d_base[..., 1]) / det
    w = np.zeros(a.shape + (3,))
    w[..., S] = a
    w[..., U] = c
    return w, einsum_assemble(split, w)


def transversal_slide(sys, x, z):
    """Move z along its fiber onto the transversal disk through x.

    The result keeps the base coordinates of z and lies in the span of the
    stable and unstable directions at x (a 2x2 linear solve in the chart).
    """
    x = wrap(x)
    z = np.asarray(z, float)
    return wrap(x + fiber_slide(splitting_at(sys, x), minimal_rep(z[..., :2] - x[:2]))[1])


def tau2_lipschitz(sys, x, n_samples=200, radius=0.04, seed=0):
    """Measured Lipschitz constant of the fiber slide at x over random nearby points."""
    x = wrap(x)
    rng = np.random.default_rng(seed)
    offsets = rng.standard_normal((n_samples, 3))
    offsets *= (radius * rng.random(n_samples) ** (1 / 3) / norm(offsets))[:, None]
    ys = wrap(x + offsets)
    slid = transversal_slide(sys, x, ys)
    return float(np.max(dist(slid, x) / dist(ys, x)))


def verify_rates(sys, points):
    """Measured one-step rates over sample points (the closed form is ``rate_bounds``).

    Returns (max stable stretch, min unstable stretch); raises
    ``RateOrderError`` when the partially hyperbolic ordering fails, which
    signals kappa too large.
    """
    pushed = sys.differential(points) @ splitting_at(sys, points).frames
    s, u = (norm(pushed[..., :, b]) for b in (S, U))
    return HyperbolicityRates(float(s.max()), float(u.min()))
