"""Quasi-shadowing fixed-point solver on truncated and cyclic sequence spaces.

Given a pseudo orbit {x_k} of a partially hyperbolic system, the tracing
sequence y_k = exp_{x_k}(v_k) comes from a fixed point of

    Phi(w) = P^{-1} eta(v),        w = (center part u, transversal part v),

where beta(v)_k pushes v_{k-1} through the map in exponential charts, A is
the block (stable + unstable) linearization of beta at 0, eta = beta - A,
and P w = -u + (id - A) v.  In frame coordinates the stable block of
(id - A)^{-1} is a forward recursion pinned to zero at the left window
edge; the unstable bundle of f is the stable bundle of f^{-1}, so the
unstable block is the same recursion on the reversed sequence.  Divided
by the slope factors n = sqrt(1 + r^2) of the frames, each recursion has
one scalar rate, lam or 1 / mu, and runs as a blocked scan of that rate.
Cyclic orbits close it exactly with a rank-one correction.

Sequence iterates are stored as coefficient arrays c of shape (W, 3), or
(B, W, 3) for a batch of B orbits solved together, in the per-point
(stable, center, unstable) frames; like the batch's points and tangent
vectors they are component-major (:func:`~quasishadow.torus.planar`).
The solver norm is max_k |center_k| + max_k |transversal_k|, the
transversal parts taken as assembled ambient vectors.

Variants: ``tau1`` moves along the center direction and ``tau3`` along the
center foliation, the paper's two statements.  The foliation is the vertical
circle fibers in a flat chart, so both moves are theta -> theta + t_k: one
solve under two names.  ``tau2`` slides along the fiber onto the transversal
disk through x_k: its beta drops the center coefficient, and its t_k lands
f(y_{k-1}) on that disk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AdmissibilityError,
    ChartError,
    ConfigError,
    ConvergenceError,
    QuasiShadowError,
)
from .orbits import PseudoOrbit, write_table
from .systems import (
    E_STABLE,
    E_UNSTABLE,
    LAM,
    MU,
    C,
    S,
    U,
    CatCircleSystem,
    Splitting,
    splitting_at,
)
from .torus import RHO0_DEFAULT, RHO_DEFAULT, dist, expmap, logmap, minimal_rep, norm, planar, wrap

VARIANTS = ("tau1", "tau2", "tau3")

# blocked-scan chunk: one cumulative product of _SCAN_BLOCK equal rates serves every block
_SCAN_BLOCK = 64


def _affine_scan(rate: float, rhs: np.ndarray, init=0.0) -> np.ndarray:
    """First-order recursion s_j = rate * s_{j-1} + rhs[..., j], s_{-1} = init, for one scalar rate.

    ``rhs`` has shape (..., L), and ``init`` broadcasts against its leading
    axes.  The steps are cut into blocks of _SCAN_BLOCK, the last one padded
    with zeros, and every block is solved at once from the powers
    q_i = rate^(i+1), one cumulative product of equal rates that serves
    every block: a block's values are q * (carry + cumsum(rhs / q)), and the
    only python-level loop carries each block's last value into the next,
    so it runs L / _SCAN_BLOCK times.  Each row is scanned on its own, so
    its bits do not depend on the others.  The rate must be nonzero with
    |rate|^_SCAN_BLOCK normal (the cat map's rates are about 0.38).
    """
    rhs = np.asarray(rhs, float)
    lead, L = rhs.shape[:-1], rhs.shape[-1]
    q = np.cumprod(np.full(min(L, _SCAN_BLOCK), rate))
    blocks = np.zeros(lead + (-(-L // _SCAN_BLOCK), len(q)))
    values = blocks.reshape(lead + (-1,))[..., :L]
    values[...] = rhs
    blocks /= q
    np.cumsum(blocks, axis=-1, out=blocks)
    carries = np.empty(blocks.shape[:-1] + (1,))
    carry = carries[..., 0, 0] = np.zeros(lead) + init
    for b in range(1, carries.shape[-2]):
        carry = q[-1] * (carry + blocks[..., b - 1, -1])
        carries[..., b, 0] = carry
    blocks += carries
    blocks *= q
    return values


def _rate_powers(rate: float, L: int) -> np.ndarray:
    """rate^(j+1), j < L, with the bits of the :func:`_affine_scan` of zeros from 1.

    A block's powers q times its carry 1, q_last, q_last^2, ... (multiplied in sequence).
    """
    q = np.cumprod(np.full(min(L, _SCAN_BLOCK), rate))
    carries = np.cumprod(np.full((L - 1) // _SCAN_BLOCK, q[-1]))
    out = np.tile(q, len(carries) + 1)[:L]
    out[_SCAN_BLOCK:] *= np.repeat(carries, _SCAN_BLOCK)[: L - _SCAN_BLOCK]
    return out


@dataclass(frozen=True)
class SolverConfig:
    """What a solve reads: the variant, tracing radius, stop rule and chart radii.

    ``epsilon`` must stay below ``rho``, the working ball of the transversal
    parts; ``rho0`` bounds the exponential chart.  Orbits carry their boundary.
    """

    variant: str = "tau1"
    epsilon: float = 0.04
    fixed_point_tol: float = 1e-12
    max_iterations: int = 200
    rho0: float = RHO0_DEFAULT
    rho: float = RHO_DEFAULT

    def __post_init__(self) -> None:
        if not 0.0 < self.rho0 <= 0.5:
            raise ConfigError(f"rho0 must lie in (0, 0.5], got {self.rho0}")
        if not 0.0 < self.rho < self.rho0 / 2.0:
            raise ConfigError(f"rho must lie in (0, rho0/2), got {self.rho}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.epsilon < self.rho:
            raise ConfigError(f"epsilon must lie in (0, rho={self.rho}), got {self.epsilon}")
        if not self.fixed_point_tol > 0.0:
            raise ConfigError("fixed_point_tol must be positive")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass(frozen=True)
class ContractionBounds:
    """A-priori constants of one orbit (a row of :meth:`OrbitOperators.bound_table`); the gate."""

    lambda_tilde: float  # worst stable / inverse-unstable block factor
    norm_equivalence_pointwise: float  # L_pt = max_k 1 / sin(phi_k / 2)
    eta_lipschitz: float  # bound on the Lipschitz constant of eta on the epsilon ball
    contraction: float  # bound on the Lipschitz factor of Phi on the epsilon ball
    defect: float
    predicted_radius: float  # L_pt * defect / ((1 - lambda_tilde)(1 - contraction))
    sufficient_condition: bool  # L_pt / (1 - lambda_tilde) * defect < epsilon / 2
    iterations: int = 0
    final_residual: float = float("nan")


@dataclass
class ShadowResult:
    """Tracing sequence with its center times and diagnostics.

    y_k equals exp_{x_k} v_k for the ambient transversal part v_k, which
    ``logmap(x, y)`` reads back.  ``corrections`` holds, for every variant,
    the center time t_k that moves f(y_{k-1}) along its fiber to y_k (0 in a
    window's row 0); for tau2 it is the theta gap from f(y_{k-1}) to y_k.
    The CSV's ``correction_norm`` is |t_k|.
    ``defect_index`` is the k of the pair (x_k, x_{k+1}) whose one-step
    error is ``diagnostics.defect``.
    """

    variant: str
    ks: np.ndarray
    x: np.ndarray
    y: np.ndarray
    corrections: np.ndarray
    diagnostics: ContractionBounds
    defect_index: int
    max_trace_dist: float
    step_residual: float
    center_residual: float
    delta_history: np.ndarray
    cyclic: bool

    def write_csv(self, path, orbit_path=None) -> None:
        """The trajectory CSV; with ``orbit_path`` also the CSV of the pseudo orbit, cut from its lines.

        The pseudo orbit's file, as :meth:`~quasishadow.orbits.PseudoOrbit.write_csv` writes it,
        is the k, x1..x3 that lead every trajectory line.
        """
        d = self.x.shape[1]
        header = (
            ["k"]
            + [f"x{i + 1}" for i in range(d)]
            + [f"y{i + 1}" for i in range(d)]
            + ["dist", "correction_norm"]
        )
        cols = [self.ks, self.x, self.y, dist(self.x, self.y), np.abs(self.corrections)]
        prefixes = [] if orbit_path is None else [(orbit_path, header[: d + 1])]
        write_table(path, header, np.column_stack(cols), prefixes=prefixes)


def _slope_transfer(sys: CatCircleSystem, X: np.ndarray, slopes: np.ndarray, src, dst):
    """Block multipliers and off-block bounds of per-point frames, in closed form from their slopes.

    The frame columns are e = (e[0], e[1], r) / n with n = sqrt(1 + r^2) for
    the unit base eigendirections e_s, e_u, and the rows of frames_inv are
    n_s (e_s, 0), (-(r_s e_s + r_u e_u), 1) and n_u (e_u, 0)
    (:meth:`~quasishadow.systems.Splitting.from_slopes`).  Df(x) = [[CAT, 0],
    [c, 0, 1]] with c = 2 pi kappa cos(2 pi x[0]), and CAT e_s = lam e_s,
    CAT e_u = mu e_u with e_s . e_u = 0, so M = frames_inv[dst] Df(x_src)
    frames[src] has the entries
    M_ss = lam n_s[dst] / n_s[src], M_uu = mu n_u[dst] / n_u[src],
    M_us = M_su = 0 and
    M_cs = (c e_s[0] + r_s[src] - lam r_s[dst]) / n_s[src] (and M_cu alike);
    the center column is (0, 1, 0).  Returns alpha and beta_u, shape
    ([B,] L), the off-block bounds (0, l_c, 0) with
    l_c = max_k |M_cs| max n_s + max_k |M_cu| max n_u, where n_s and n_u are
    |row_s| and |row_u| (see :meth:`OrbitOperators.bound_table`), and (n_s, n_u).
    """
    r = np.moveaxis(slopes, -1, 0)  # (2, [B,] W): stable, unstable
    column = (2,) + (1,) * (r.ndim - 1)
    rates, e0 = np.reshape([LAM, MU], column), np.reshape([E_STABLE[0], E_UNSTABLE[0]], column)
    n = np.sqrt(1.0 + r * r)
    n_src, r_src = n[..., src], r[..., src]
    mult = rates * n[..., dst] / n_src
    c = 2.0 * np.pi * sys.kappa * np.cos(2.0 * np.pi * X[..., src, 0])
    m_c = (c * e0 + r_src - rates * r[..., dst]) / n_src
    bound = np.abs(m_c).max(axis=-1) * n.max(axis=-1)
    off = np.zeros(X.shape[:-2] + (3,))
    off[..., C] = bound[0] + bound[1]
    return mult[0], mult[1], off, np.moveaxis(n, 0, -1)


class OrbitOperators:
    """Charts, frames and transfer blocks along pseudo orbits of one length.

    ``points`` has shape (W, 3) for one orbit or (B, W, 3) for B orbits
    with the same boundary type; the orbit axis leads every per-orbit
    array below, and coefficient arrays given to the methods have shape
    (..., [B,] W, 3), where further leading axes batch several sequences
    per orbit.  Step j maps the tangent space at the j-th point that
    ``step_src`` selects to the one at the j-th point of ``step_dst``:
    windows have W - 1 steps targeting points 1 .. W-1 (row 0 of
    step-aligned outputs stays zero), cyclic orbits have W steps with the
    wrap-around targeting point 0.  Both are slices except the cyclic
    sources, so the step-aligned point rows are views.
    ``alpha`` and ``beta_u``, shape ([B,] L), are the scalar stable/unstable
    block multipliers in frame coordinates: ``rates`` (lam, mu) times
    n[dst] / n[src] for the ``scales`` n = sqrt(1 + r^2) of the slopes,
    shape ([B,] W, 2), None for a constant splitting.

    ``cfg`` is the :class:`SolverConfig` solved for (the default one when
    not given): its variant selects beta, its chart radii bound beta and
    the extraction, and its epsilon enters the gate of :meth:`bound_table`.
    ``split`` is the :class:`Splitting` at ``points``, computed by
    :func:`splitting_at` when not given; every frame product goes through
    it.  The multipliers are block entries of the transfer matrices
    M_k = frames_inv[dst] @ Df(x_src) @ frames[src].  With a constant
    splitting (kappa = 0) one 3x3 product gives them; per-point frames give
    them in closed form from the slopes they were written from
    (:func:`_slope_transfer`), with no 3x3 product.
    """

    def __init__(
        self,
        sys: CatCircleSystem,
        points,
        cyclic: bool = False,
        cfg: SolverConfig | None = None,
        split: Splitting | None = None,
    ) -> None:
        self.sys = sys
        self.cfg = cfg if cfg is not None else SolverConfig()
        X = np.asarray(points, float)
        W = X.shape[-2]
        if not cyclic and W < 2:
            raise ValueError("orbit windows need at least two points")
        self.points = X
        self.n_points = W
        self.cyclic = cyclic
        if cyclic:
            self.step_src = (np.arange(W) - 1) % W
            self.step_dst = slice(0, W)
        else:
            self.step_src = slice(0, W - 1)
            self.step_dst = slice(1, W)
        self.split = split if split is not None else splitting_at(sys, X)
        if self.split.constant:
            # kappa = 0: the differential is the same everywhere, so one 3x3
            # transfer matrix M serves every step
            M = self.split.frames_inv @ sys.differential(np.zeros(3)) @ self.split.frames
            steps = X.shape[:-2] + (W if cyclic else W - 1,)
            self.rates, self.scales = (float(M[S, S]), float(M[U, U])), None
            self.alpha, self.beta_u = np.full(steps, M[S, S]), np.full(steps, M[U, U])
            # what the block transfer leaves of M: a transversal vector a has
            # coefficients row_s . a and row_u . a (rows of frames_inv), so row i of
            # the rest maps it to at most (|M_is| |row_s| + |M_iu| |row_u|) |a|
            M[S, S] = M[U, U] = 0.0
            dual = norm(self.split.frames_inv[[S, U], :])
            off = np.abs(M[:, S]) * dual[0] + np.abs(M[:, U]) * dual[1]
        else:
            self.alpha, self.beta_u, off, self.scales = _slope_transfer(
                sys, X, self.split.slopes, self.step_src, self.step_dst
            )
            self.rates = (LAM, MU)
        with np.errstate(divide="ignore"):
            inv_beta = np.where(self.beta_u != 0.0, 1.0 / np.abs(self.beta_u), np.inf)
        lam = np.maximum(np.abs(self.alpha).max(axis=-1), inv_beta.max(axis=-1))
        self.lambda_tilde = float(lam) if lam.ndim == 0 else lam
        self.off_block = np.broadcast_to(off, X.shape[:-2] + (3,))
        # the center row of frames_inv is normal to E^s + E^u, so the angle phi of
        # the vertical center line to that plane has cos phi = |row[:2]| / |row|
        row = self.split.frames_inv[..., C, :]
        cos = norm(row[..., :2]) / norm(row)
        if not self.split.constant:
            cos = cos.max(axis=-1)
        self.norm_equivalence = np.broadcast_to(np.sqrt(2.0 / (1.0 - cos)), X.shape[:-2])

    def take(self, idx) -> OrbitOperators:
        """The operators of a subset of the orbits; ``idx`` indexes the orbit axis."""
        sub = object.__new__(OrbitOperators)
        sub.__dict__.update(self.__dict__)
        for name in ("points", "alpha", "beta_u", "scales", "lambda_tilde", "off_block", "norm_equivalence"):
            value = getattr(self, name)
            setattr(sub, name, value if value is None else value[idx])
        sub.split = self.split[idx]
        return sub

    def bound_table(self, defect) -> np.ndarray:
        """Closed-form admissibility constants of every orbit for its ``defect``.

        One row per orbit: the first seven fields of :class:`ContractionBounds`.

        Take the solver norm |w|_1 = max_k |u_k| + max_k |v_k| (u the center
        coefficient, v the ambient transversal part).  The frame columns are
        unit vectors and the block recursions of P^{-1} stay below
        max |r| / (1 - lambda_tilde), so |P^{-1} r|_1 <= max |r_c| +
        (max |r_s| + max |r_u|) / (1 - lambda_tilde).  eta_k depends on
        v_{k-1} alone; on the epsilon ball its derivative is M_k - blockdiag(M_k),
        M_k = frames_inv[dst] @ Df @ frames[src], which the truncated splitting
        leaves (``off_block``: bounds l_s, l_c, l_u on its rows as maps of
        ambient transversal vectors; per-point frames have M_su = M_us = 0, so
        l_s = l_u = 0), plus frames_inv[dst] (Df(x + delta) - Df(x)).
        Df varies only in its theta row entry 2 pi kappa cos(2 pi b_1), by at
        most (2 pi)^2 |kappa| epsilon, and the theta column of frames_inv is
        (0, 1, 0): this adds to l_c alone (tau2 slides along the fiber, so its
        center row is zero).  Hence Lip(eta) <= l_s + l_c + l_u in the sup norm,
        and as Phi = P^{-1} eta ignores u it contracts the ball by
        c = l_c + (l_s + l_u) / (1 - lambda_tilde).  The defect splits pointwise
        into center and transversal parts of total size <= L_pt defect, with
        L_pt = max_k 1 / sin(phi_k / 2), phi_k the angle between the center
        line and span(e_s, e_u) (sqrt 2 at kappa = 0), which gives the tracing
        radius L_pt defect / ((1 - lambda_tilde)(1 - c)).  The last column,
        ``sufficient_condition``, holds 0.0 or 1.0.
        """
        lam = np.atleast_1d(self.lambda_tilde)
        l_pt = np.atleast_1d(self.norm_equivalence)
        lip = np.array(self.off_block, float).reshape(lam.shape + (3,))
        lip[:, C] += (2.0 * np.pi) ** 2 * abs(self.sys.kappa) * self.cfg.epsilon
        if self.cfg.variant == "tau2":
            lip[:, C] = 0.0
        defect = np.broadcast_to(np.asarray(defect, float), lam.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            c = lip[:, C] + (lip[:, S] + lip[:, U]) / (1.0 - lam)
            radius = l_pt * defect / ((1.0 - lam) * (1.0 - c))
            radius = np.where((lam < 1.0) & (c < 1.0), radius, np.inf)
            sufficient = (lam < 1.0) & (l_pt / (1.0 - lam) * defect < 0.5 * self.cfg.epsilon)
        return np.column_stack([lam, l_pt, lip.sum(axis=-1), c, defect, radius, sufficient])

    # -- norms ---------------------------------------------------------

    def transversal(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ambient transversal parts of coefficient sequences and their norms.

        A solve builds them once per iterate: they give the solver norm of
        the escape check, the input of the next :meth:`apply_beta` and the
        tracing points of the extraction.
        """
        v = self.split.transversal(coeffs)
        return v, norm(v)

    def norm_one(self, coeffs: np.ndarray):
        center = np.abs(coeffs[..., C]).max(axis=-1)
        return center + self.transversal(coeffs)[1].max(axis=-1)

    # -- operators -----------------------------------------------------

    def apply_beta(self, v_amb: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """beta(v) in frame coordinates, written to the step target rows.

        Takes the ambient transversal parts of v and their norms as
        :meth:`transversal` gives them, shape (..., W, 3) and (..., W); each
        step reads the row of its source.  Raises ChartError when a source
        row leaves the working ball rho or an intermediate point leaves the
        chart, which signals defect or epsilon too large.
        """
        X = self.points
        src, dst = self.step_src, self.step_dst
        rho = self.cfg.rho
        n = norms[..., src]
        if n.size and float(n.max()) > rho:
            raise ChartError(
                f"transversal component of size {float(n.max()):.6g} "
                f"left the working ball of radius {rho}"
            )
        z = self.sys.forward(wrap(X[..., src, :] + v_amb[..., src, :]))
        d = minimal_rep(z - X[..., dst, :])
        return self._beta(d, None if self.cfg.variant == "tau2" else norm(d))

    def beta_at_zero(self, d: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """beta(0), the first Phi step, from the defect measurement of :func:`shadow_batch`.

        ``d`` holds the one-step chart differences minimal_rep(f(x_j) - x_{j+1})
        at the wrapped points, one row per pair (a cycle's wrap pair last),
        and ``gaps`` their norms: at v = 0 these are the differences
        :meth:`apply_beta` would compute, so the step runs no transversal
        assembly, ``wrap``, ``forward`` or ``logmap``, with the same chart checks.
        """
        if self.cyclic:
            d = np.roll(d, 1, axis=-2)  # step k maps point k - 1 to point k
        return self._beta(d, gaps)

    def _beta(self, d: np.ndarray, gaps) -> np.ndarray:
        """beta at the step targets from the step-aligned chart differences d = minimal_rep(z - x_dst).

        Every variant takes the frame coefficients of d, and tau1 and tau3
        check its norms ``gaps`` against the chart radius.  tau2 zeroes the
        center coefficient, which leaves the fiber slide of d's base part onto
        the transversal disk (the stable and unstable rows of frames_inv are
        0 in the theta column), and checks the size of that slide instead.
        """
        split, rho0 = self.split[..., self.step_dst], self.cfg.rho0
        out = planar(d.shape[:-2] + (self.n_points, 3))
        if not self.cyclic:
            out[..., 0, :] = 0.0
        coeffs = split.coeffs(d, out=out[..., self.step_dst, :])
        what = "points at distance {:.6g} exceed chart radius"
        if self.cfg.variant == "tau2":
            coeffs[..., C] = 0.0
            gaps, what = norm(split.transversal(coeffs)), "fiber slide of size {:.6g} left the chart of radius"
        if gaps.size and float(gaps.max()) > rho0:
            raise ChartError(f"{what.format(float(gaps.max()))} {rho0}")
        return out

    def eta(self, v_coeffs: np.ndarray, transversal=None) -> np.ndarray:
        """eta(v) = beta(v) - A v, the block operator A (one-step transfer by alpha and beta_u) subtracted in place.

        ``transversal`` is :meth:`transversal` of v, when the caller holds it.
        """
        out = self.apply_beta(*(self.transversal(v_coeffs) if transversal is None else transversal))
        out[..., self.step_dst, S] -= self.alpha * v_coeffs[..., self.step_src, S]
        out[..., self.step_dst, U] -= self.beta_u * v_coeffs[..., self.step_src, U]
        return out

    def _solve_block(self, rate: float, rhs_pts: np.ndarray) -> np.ndarray:
        """Solve u_k - rate u_{k-1} = r_k forward for one contracting 1-d block of every orbit.

        Windows pin the left edge (zero inflow, so u_0 = r_0); cycles close
        the recursion exactly with a rank-one correction along the
        homogeneous solution rate^(k+1) (:func:`_rate_powers`).
        """
        if not self.cyclic:
            out = np.empty(rhs_pts.shape)
            out[..., 0] = rhs_pts[..., 0]
            out[..., 1:] = _affine_scan(rate, rhs_pts[..., 1:], init=rhs_pts[..., 0])
            return out
        part = _affine_scan(rate, rhs_pts)
        hom = _rate_powers(rate, part.shape[-1])
        return part + part[..., -1:] / (1.0 - hom[-1]) * hom

    def solve_p(self, rhs: np.ndarray) -> np.ndarray:
        """w = P^{-1} rhs: center sign flip plus the two block recursions.

        Requires lambda_tilde < 1, that is |alpha_k| < 1 < |beta_u_k| at every
        step; :func:`shadow_batch` refuses every other orbit before its first
        Phi step.  Each block scans one scalar rate (:func:`_affine_scan`):
        as alpha_k = lam n_s[dst] / n_s[src], u = s / n_s obeys
        u_dst = lam u_src + r_dst / n_s[dst], so the stable block scans r / n_s
        and multiplies by n_s (no scales at kappa = 0).  The unstable block
        v_{k-1} = (v_k - r_k) / beta_k runs as the stable recursion of the
        reversed sequence: rate 1 / mu, right-hand side -(r / n_u) / mu, a
        window's right edge pinned to zero.
        """
        lam, mu = self.rates
        out = np.empty_like(rhs)
        np.negative(rhs[..., C], out=out[..., C])
        s, t = rhs[..., S], rhs[..., U]
        if self.scales is not None:
            s, t = s / self.scales[..., 0], t / self.scales[..., 1]
        out[..., S] = self._solve_block(lam, s)
        # reversed step j maps reversed point j - 1 to j: the original step into point W - j (mod W)
        r = t[..., self.step_dst][..., ::-1]
        if self.cyclic:
            r = np.roll(r, 1, axis=-1)
        rev = np.zeros(rhs.shape[:-1])
        rev[..., self.step_dst] = -r * (1.0 / mu)
        out[..., U] = self._solve_block(1.0 / mu, rev)[..., ::-1]
        if self.scales is not None:
            out[..., S] *= self.scales[..., 0]
            out[..., U] *= self.scales[..., 1]
        return out

    def phi(self, eta_v: np.ndarray) -> np.ndarray:
        """One fixed-point update Phi(w) = P^{-1} eta(v), given eta(v) (:meth:`eta`; :meth:`beta_at_zero` at v = 0)."""
        return self.solve_p(eta_v)


def shadow(
    sys: CatCircleSystem,
    orbit: PseudoOrbit,
    cfg: SolverConfig | None = None,
) -> ShadowResult:
    """Trace ``orbit`` with the variant requested in ``cfg``.

    Starts from the zero sequence, iterates Phi until the solver-norm
    update drops below ``fixed_point_tol``, and verifies the step relation
    of the variant.  An admissibility check runs first and refuses orbits
    whose measured defect cannot be traced within epsilon.  This is the
    one-orbit case of :func:`shadow_batch`; the first check the orbit fails
    is raised.
    """
    out = shadow_batch(sys, [orbit], cfg)[0]
    if isinstance(out, QuasiShadowError):
        raise out
    return out


def shadow_batch(
    sys: CatCircleSystem,
    orbits: list[PseudoOrbit],
    cfg: SolverConfig | None = None,
    split: Splitting | None = None,
) -> list:
    """Trace orbits of one length and boundary type together, as one batch.

    Returns one entry per orbit: its :class:`ShadowResult`, or the
    :class:`QuasiShadowError` of the first check it failed.  The checks run
    per orbit in this order: finite points, then one refusal pass on the
    measured defect: the leaf-mode wrap gap, then the closed-form gate of
    :meth:`OrbitOperators.bound_table`: lambda_tilde < 1, contraction
    bound < 1, predicted radius < epsilon; then, in every Phi
    step, the chart checks of beta and the epsilon ball, then
    ``max_iterations`` and the chart checks of the result.  An orbit that
    fails leaves the others untouched.  The boundary type is the orbits'
    own; ``cfg`` holds no boundary policy.

    The defect is measured against ``sys``: the largest one-step error
    dist(f(x_k), x_{k+1}) = |minimal_rep(f(wrap(x_k)) - x_{k+1})|, a cycle's
    wrap pair included, reported as ``diagnostics.defect`` with its k as
    ``defect_index`` (for points in [0, 1), wrap(x_k) is x_k).  A leaf-mode
    wrap counts along the fiber for tau2; the other variants must absorb
    the pointwise wrap gap, which is refused above rho and counts otherwise.

    Each Phi step computes each per-point array once.  The first starts
    from the zero sequence, where beta reads only the chart differences
    of the measurement (:meth:`OrbitOperators.beta_at_zero`); its update
    norm is the size of its iterate.  Every iterate's transversal parts
    and their norms (:meth:`OrbitOperators.transversal`) serve its escape
    check, the next step's :meth:`~OrbitOperators.apply_beta` and, once
    it converges, :func:`_extract`.

    Per-orbit values (entries, update norms, gate constants) are indexed
    by position in ``orbits``; ``live`` holds the orbits behind the rows of
    the operators, the iterates and their transversal parts, all narrowed
    together whenever it changes.  Every orbit runs while its entry is empty:
    each failure goes to the entry where it is found, and the result of an
    orbit is written in the step it converges.  A chart check that raises
    inside a batched Phi step or extraction stops the batch: every orbit
    whose entry is still empty is then solved alone, a batch of one orbit,
    which writes its error to its entry.  Orbits of a batch do not interact,
    so every entry has the bits its orbit gets alone.  Every result owns its
    arrays, so keeping one keeps no batch array alive.

    ``split`` is the :class:`Splitting` at the stacked points
    (:func:`splitting_at`), computed when not given.  Orbits of mixed
    boundary types or lengths raise ValueError; no orbits give no entries.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if not orbits:
        return []
    cyclic = orbits[0].cyclic
    if any(orbit.cyclic != cyclic for orbit in orbits):
        raise ValueError("orbits solved together must share one boundary type")
    lengths = sorted({len(orbit.points) for orbit in orbits})
    if len(lengths) > 1:
        raise ValueError(f"orbits solved together must have one length, got lengths {lengths}")
    out: list = [None] * len(orbits)
    points = planar((len(orbits), lengths[0], 3))
    np.stack([orbit.points for orbit in orbits], out=points)
    for b in np.flatnonzero(~np.isfinite(points).all(axis=(1, 2))):
        k = orbits[b].k_start + int(np.argmin(np.isfinite(points[b]).all(axis=-1)))
        out[b] = ChartError(f"non-finite coordinate in orbit point k={k}")
    live = np.flatnonzero([o is None for o in out])
    if not live.size:
        return out
    live_split = split
    if live.size < len(orbits):
        points = points[live]
        live_split = split if split is None else split[live]
    # the operators come first, so that their set-up runs without the measurement's arrays
    ops = OrbitOperators(sys, points, cyclic, cfg, live_split)
    # one-step chart differences d_j = minimal_rep(f(x_j) - x_{j+1}) at the wrapped
    # points, which the first Phi step reuses; a cycle's last pair is its wrap
    src = points if cyclic else points[:, :-1]
    nxt = np.roll(points, -1, axis=1) if cyclic else points[:, 1:]
    d = minimal_rep(sys.forward(wrap(src)) - nxt)
    del src, nxt
    gaps = norm(d)  # the one-step errors dist(f(x_j), x_{j+1})
    leaf = cyclic & np.array([orbits[b].leaf_mode for b in live])
    wrap_gap = np.zeros(len(orbits))  # the pointwise leaf-mode wrap gaps a variant must absorb
    if cfg.variant == "tau2":
        # tau2 checks no gaps in its first step; a leaf-mode wrap counts along the fiber
        gaps[leaf, -1] = norm(d[leaf, -1, :2])
    else:
        wrap_gap[live[leaf]] = gaps[leaf, -1]
    at = np.argmax(gaps, axis=-1)
    defect = gaps[np.arange(len(live)), at]
    defect_index = np.zeros(len(orbits), int)
    defect_index[live] = np.array([orbits[b].k_start for b in live]) + at

    gate = np.full((len(orbits), 7), np.nan)
    gate[live] = ops.bound_table(defect)
    lam, contraction, defect, radius = gate[:, [0, 3, 4, 5]].T
    refused = (wrap_gap > cfg.rho) | (lam >= 1.0) | (contraction >= 1.0) | (radius >= cfg.epsilon)
    for b in np.flatnonzero(refused):
        if wrap_gap[b] > cfg.rho:
            out[b] = AdmissibilityError(
                f"leaf-mode orbit has pointwise wrap gap {wrap_gap[b]:.6g} > rho="
                f"{cfg.rho}; only the fiber-sliding variant (tau2) applies"
            )
        elif lam[b] >= 1.0:
            out[b] = AdmissibilityError(
                f"stable/unstable block norm {lam[b]:.6g} >= 1; "
                "not partially hyperbolic at this scale"
            )
        elif contraction[b] >= 1.0:
            out[b] = AdmissibilityError(f"no contraction: factor bound {contraction[b]:.6g} >= 1")
        else:
            out[b] = AdmissibilityError(
                f"defect {defect[b]:.6g} predicts tracing radius {radius[b]:.6g} "
                f">= epsilon {cfg.epsilon}; reduce the defect or raise epsilon"
            )
    ops, live, (d, gaps) = _narrow(ops, live, out, d, gaps)
    if not live.size:
        return out

    w = None  # the iterates of the live orbits, one row each; the first step starts from zero
    history = []  # per Phi step, the update norm of every orbit (nan where it did not run)
    try:
        for _ in range(cfg.max_iterations):
            if w is None:
                eta = ops.beta_at_zero(d, gaps)
                d = gaps = None
            else:
                eta = ops.eta(w, (trans, norms))
            # each array is dropped once read, so no two iterates' parts are held at once
            trans = norms = None
            w_new = ops.phi(eta)
            del eta
            delta = None if w is None else ops.norm_one(w_new - w)
            w = w_new
            del w_new
            trans, norms = ops.transversal(w)
            size = np.abs(w[..., C]).max(axis=-1) + norms.max(axis=-1)
            if delta is None:
                delta = size  # the update from zero is the iterate itself
            history.append(np.full(len(orbits), np.nan))
            history[-1][live] = delta
            escaped = size > cfg.epsilon
            for b, s in zip(live[escaped], size[escaped]):
                out[b] = ConvergenceError(
                    f"iterate of solver norm {s:.6g} escaped the epsilon ball ({cfg.epsilon})"
                )
            # an orbit stops at its first update below the tolerance, and its result is extracted
            done = ~escaped & (delta < cfg.fixed_point_tol)
            if done.any():
                if done.all():
                    rows, fields = live, _extract(ops, w, trans, norms)
                else:
                    rows, fields = live[done], _extract(ops.take(done), w[done], trans[done], norms[done])
                y, corrections, *maxima = fields
                deltas = np.array(history).T[rows]  # one row of update norms per orbit
                per_orbit = zip(
                    rows.tolist(), gate[rows].tolist(), defect_index[rows].tolist(),
                    deltas[:, -1].tolist(), *(m.tolist() for m in maxima),
                )
                for r, (b, bounds, at, final, trace, center, step) in enumerate(per_orbit):
                    diagnostics = ContractionBounds(
                        *bounds[:6], bool(bounds[6]), iterations=len(history), final_residual=final,
                    )
                    out[b] = ShadowResult(
                        variant=cfg.variant,
                        ks=orbits[b].ks,
                        x=orbits[b].points.copy(),
                        y=y[r].copy(order="K"),
                        corrections=corrections[r].copy(),
                        diagnostics=diagnostics,
                        defect_index=at,
                        max_trace_dist=trace,
                        step_residual=step,
                        center_residual=center,
                        delta_history=deltas[r].copy(),
                        cyclic=cyclic,
                    )
            ops, live, (w, trans, norms) = _narrow(ops, live, out, w, trans, norms)
            if not live.size:
                return out
    except QuasiShadowError as exc:
        if len(orbits) == 1:
            return [exc]
        for b, entry in enumerate(out):
            if entry is None:
                alone = split if split is None else split[[b]]
                out[b] = shadow_batch(sys, [orbits[b]], cfg, alone)[0]
        return out
    for b in live:
        out[b] = ConvergenceError(
            f"no fixed point within {cfg.max_iterations} iterations "
            f"(last update {history[-1][b]:.3g})"
        )
    return out


def _narrow(ops: OrbitOperators, live: np.ndarray, out: list, *arrays):
    """``ops``, ``live`` and the per-orbit ``arrays`` cut to the orbits with an empty entry.

    Nothing is cut when no orbit is left.
    """
    keep = np.array([out[b] is None for b in live])
    if keep.all() or not keep.any():
        return ops, live[keep], arrays
    return ops.take(keep), live[keep], tuple(a[keep] for a in arrays)


def _extract(ops: OrbitOperators, w: np.ndarray, v_amb: np.ndarray, norms: np.ndarray):
    """Tracing points, center times and per-orbit residuals of solved iterates.

    ``v_amb`` and ``norms`` are :meth:`OrbitOperators.transversal` of ``w``;
    y = exp_x(v_amb) checks those norms against the chart radius.
    Returns y, the center times (shape ([B,] W)), and per orbit the largest
    trace distance, center residual and step residual.  The step target is
    f(y_{k-1}) moved by t_k along its fiber in the chart at x_k.  tau2's t_k
    is the theta gap to y_k, which lies on the transversal disk (the center
    residual checks it); a leaf-mode wrap pair can carry a theta gap of up
    to 1/2, so tau2 reads the chart by ``minimal_rep``, not ``logmap``.
    """
    X, rho0 = ops.points, ops.cfg.rho0
    # as expmap checks them; fmax skips nan as the comparison does
    if np.fmax.reduce(norms, axis=None) > rho0:
        raise ChartError(f"tangent vector norm {float(np.max(norms)):.6g} exceeds chart radius {rho0}")
    y = wrap(X + v_amb)
    max_trace = dist(X, y).max(axis=-1)
    center_res = np.abs(ops.split.center_coeff(v_amb)).max(axis=-1)

    src, dst = ops.step_src, ops.step_dst
    fy = ops.sys.forward(y[..., src, :])
    x_dst = X[..., dst, :]
    if ops.cfg.variant == "tau2":
        corrections = np.zeros(X.shape[:-1])
        corrections[..., dst] = minimal_rep(y[..., dst, 2] - fy[..., 2])
        move = minimal_rep(fy - x_dst)
    else:
        corrections = w[..., C].copy()
        move = logmap(x_dst, fy, rho0)
    move[..., 2] = minimal_rep(move[..., 2] + corrections[..., dst])
    targets = expmap(x_dst, move, rho0)
    step_residual = dist(y[..., dst, :], targets).max(axis=-1)
    return y, corrections, max_trace, center_res, step_residual
