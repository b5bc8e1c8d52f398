"""Quasi-shadowing fixed-point solver on truncated and cyclic sequence spaces.

Given a pseudo orbit {x_k} of a partially hyperbolic system, the tracing
sequence y_k = exp_{x_k}(v_k) comes from a fixed point of

    Phi(w) = P^{-1} eta(v),        w = (center part u, transversal part v),

where beta(v)_k pushes v_{k-1} through the map in exponential charts, A is
the block (stable + unstable) linearization of beta at 0, eta = beta - A,
and P w = -u + (id - A) v.  In frame coordinates the stable block of
(id - A)^{-1} is a forward recursion pinned to zero at the left window
edge, the unstable block a backward recursion pinned at the right edge;
cyclic orbits close both recursions exactly with a rank-one correction.

Sequence iterates are stored as coefficient arrays c of shape (W, 3), or
(B, W, 3) for a batch of B orbits solved together, in the per-point
(stable, center, unstable) frames; norms are taken on the assembled
ambient vectors.  The sup norm is max_k |w_k|, the solver norm
is max_k |center_k| + max_k |transversal_k|.

Variants: ``tau1`` translates by a center vector u_k, ``tau2`` slides
along the invariant fiber onto the transversal disk through x_k, ``tau3``
flows along the unit center field for a time tau_k.  One engine solves
all three; they differ in how beta is evaluated and in the center
bookkeeping of the result.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AdmissibilityError,
    ChartError,
    ConfigError,
    ConvergenceError,
    QuasiShadowError,
)
from .orbits import PseudoOrbit
from .systems import (
    ANALYTIC,
    C,
    S,
    U,
    CatCircleSystem,
    SplitConfig,
    Splitting,
    center_flow,
    splitting_at,
    splitting_error,
)
from .torus import ChartConfig, dist, expmap, logmap, minimal_rep, wrap

VARIANTS = ("tau1", "tau2", "tau3")

# blocked-scan chunk; multipliers below _SCAN_TINY fall back to the plain loop
_SCAN_BLOCK = 64
_SCAN_TINY = 1e-3


def _align(mult: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape step-major multipliers (L, *orbits) to broadcast against (L, ..., *orbits)."""
    return mult.reshape(mult.shape[:1] + (1,) * (ndim - mult.ndim) + mult.shape[1:])


def _affine_scan(mult: np.ndarray, rhs: np.ndarray, init=0.0) -> np.ndarray:
    """First-order recursion s_j = mult[j] * s_{j-1} + rhs[j], s_{-1} = init.

    ``mult`` has shape (L,) or (L, B) with per-orbit multipliers; ``rhs``
    has shape (L, ..., B), its middle axes batching several right-hand
    sides per orbit.  Evaluated block-wise with cumulative products so the
    python-level loop runs over L/block chunks.  The plain-loop fallback
    for multipliers below _SCAN_TINY is decided per block over all B
    orbits at once, so a tiny multiplier on one orbit switches its
    neighbours in the batch to the loop as well; their results then differ
    from a solve on their own by rounding only.  Cat-map multipliers
    (about 0.38 and 1/2.62) never trigger it.
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


def _reversed_scan(mult: np.ndarray, rhs: np.ndarray, init=0.0) -> np.ndarray:
    """Backward recursion t_{j-1} = (t_j - rhs[j]) / mult[j] with t_L = init.

    Returns t_0 .. t_{L-1} for steps j = 1 .. L (arrays indexed from 0).
    """
    m = 1.0 / mult[::-1]
    r = -rhs[::-1] * _align(m, rhs.ndim)
    return _affine_scan(m, r, init=init)[::-1]


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs; ``epsilon`` is the tracing radius and must stay below rho."""

    variant: str = "tau1"
    epsilon: float = 0.04
    fixed_point_tol: float = 1e-12
    max_iterations: int = 200
    boundary_policy: str = "auto"  # auto | window | cyclic
    chart: ChartConfig = field(default_factory=ChartConfig)
    admissibility_probes: int = 8
    probe_seed: int = 20240

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not 0.0 < self.epsilon < self.chart.rho:
            raise ConfigError(
                f"epsilon must lie in (0, rho={self.chart.rho}), got {self.epsilon}"
            )
        if self.fixed_point_tol <= 0.0:
            raise ConfigError("fixed_point_tol must be positive")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.boundary_policy not in ("auto", "window", "cyclic"):
            raise ConfigError(f"unknown boundary policy {self.boundary_policy!r}")


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
    defect: float
    predicted_radius: float  # L_pt * defect / ((1 - lambda_tilde)(1 - contraction))
    sufficient_condition: bool  # L_pt / (1 - lambda_tilde) * defect < epsilon / 2
    probes: int
    iterations: int = 0
    final_residual: float = float("nan")


@dataclass
class ShadowResult:
    """Tracing sequence with per-variant center bookkeeping and diagnostics.

    ``trans`` holds the ambient transversal components v_k (y_k equals
    exp_{x_k} v_k); ``corrections`` holds center vectors u_k for tau1 and
    scalar fiber moves / flow times for tau2 / tau3.
    """

    variant: str
    ks: np.ndarray
    x: np.ndarray
    y: np.ndarray
    trans: np.ndarray
    corrections: np.ndarray
    diagnostics: ContractionEstimates
    max_trace_dist: float
    step_residual: float
    center_residual: float
    delta_history: np.ndarray
    cyclic: bool

    def correction_norms(self) -> np.ndarray:
        if self.corrections.ndim == 2:
            return np.linalg.norm(self.corrections, axis=-1)
        return np.abs(self.corrections)

    def write_csv(self, path) -> None:
        d = self.x.shape[1]
        dd = dist(self.x, self.y)
        cn = self.correction_norms()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = (
                ["k"]
                + [f"x{i + 1}" for i in range(d)]
                + [f"y{i + 1}" for i in range(d)]
                + ["dist", "correction_norm"]
            )
            writer.writerow(header)
            for i, k in enumerate(self.ks):
                row = (
                    [int(k)]
                    + [format(v, ".17g") for v in self.x[i]]
                    + [format(v, ".17g") for v in self.y[i]]
                    + [format(dd[i], ".17g"), format(cn[i], ".17g")]
                )
                writer.writerow(row)


def _rows(frames: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Frames at the given point rows; a constant 3x3 frame serves every row."""
    return frames if frames.ndim == 2 else frames[..., rows, :, :]


def _fiber_slide(frames: np.ndarray, d_base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move along the vertical fiber that turns a base offset into a transversal vector.

    Solves d_base = a e_s + c e_u for the base parts of the stable and
    unstable columns of ``frames`` (a 2x2 linear solve per point) and
    returns the coefficients (a, 0, c) and the ambient move a e_s + c e_u.
    """
    E = frames[..., :2, :][..., [S, U]]
    det = E[..., 0, 0] * E[..., 1, 1] - E[..., 0, 1] * E[..., 1, 0]
    a = (E[..., 1, 1] * d_base[..., 0] - E[..., 0, 1] * d_base[..., 1]) / det
    c = (-E[..., 1, 0] * d_base[..., 0] + E[..., 0, 0] * d_base[..., 1]) / det
    w = np.zeros(a.shape + (3,))
    w[..., S] = a
    w[..., U] = c
    return w, np.einsum("...ij,...j->...i", frames, w)


class OrbitOperators:
    """Charts, frames and transfer blocks along pseudo orbits of one length.

    ``points`` has shape (W, 3) for one orbit or (B, W, 3) for B orbits
    with the same boundary type; the orbit axis leads every per-orbit
    array below, and coefficient arrays given to the methods have shape
    (..., [B,] W, 3), where further leading axes batch several sequences
    per orbit (probes).  Step j maps the tangent space at the j-th point
    that ``step_src`` selects to the one at the j-th point of ``step_dst``:
    windows have W - 1 steps targeting points 1 .. W-1 (row 0 of
    step-aligned outputs stays zero), cyclic orbits have W steps with the
    wrap-around targeting point 0.  Both are slices except the cyclic
    sources, so the step-aligned point rows are views.
    ``alpha`` and ``beta_u``, shape ([B,] L), are the scalar stable/unstable
    block multipliers in frame coordinates.

    With the analytic splitting (kappa = 0) ``frames`` and ``frames_inv``
    are one constant 3x3 frame and its inverse, and the transfer matrix
    behind the multipliers is a single 3x3 product.  Otherwise they have
    shape ([B,] W, 3, 3) and come from ``split`` when it is given (the
    numerical splitting at ``points``), else from :func:`splitting_at`.
    """

    def __init__(
        self,
        sys: CatCircleSystem,
        points,
        cyclic: bool = False,
        chart: ChartConfig | None = None,
        split: Splitting | None = None,
    ) -> None:
        self.sys = sys
        self.chart = chart if chart is not None else ChartConfig()
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
        if sys.splitting_mode == "analytic":
            split = ANALYTIC
        elif split is None:
            split = splitting_at(sys, X)
        self.frames = split.frames
        self.frames_inv = split.frames_inv
        if self.frames.ndim == 2:
            # kappa = 0: the differential is the same at every point
            M = self.frames_inv @ sys.differential(np.zeros(3)) @ self.frames
            steps = X.shape[:-2] + (W if cyclic else W - 1,)
            self.alpha = np.full(steps, M[S, S])
            self.beta_u = np.full(steps, M[U, U])
        else:
            jac = sys.differential(X[..., self.step_src, :])
            M = (
                self.frames_inv[..., self.step_dst, :, :]
                @ jac
                @ self.frames[..., self.step_src, :, :]
            )
            self.alpha = np.ascontiguousarray(M[..., S, S])
            self.beta_u = np.ascontiguousarray(M[..., U, U])
        with np.errstate(divide="ignore"):
            inv_beta = np.where(self.beta_u != 0.0, 1.0 / np.abs(self.beta_u), np.inf)
        lam = np.maximum(np.abs(self.alpha).max(axis=-1), inv_beta.max(axis=-1))
        self.lambda_tilde = float(lam) if lam.ndim == 0 else lam

    def take(self, idx) -> OrbitOperators:
        """The operators of a subset of the orbits; ``idx`` indexes the orbit axis."""
        sub = object.__new__(OrbitOperators)
        sub.__dict__.update(self.__dict__)
        for name in ("points", "alpha", "beta_u", "lambda_tilde"):
            setattr(sub, name, getattr(self, name)[idx])
        if self.frames.ndim > 2:
            sub.frames = self.frames[idx]
            sub.frames_inv = self.frames_inv[idx]
        return sub

    # -- norms ---------------------------------------------------------

    def assemble(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("...ij,...j->...i", self.frames, coeffs)

    def coeffs_of(self, ambient: np.ndarray) -> np.ndarray:
        return np.einsum("...ij,...j->...i", self.frames_inv, ambient)

    def norm_sup(self, coeffs: np.ndarray):
        n = np.linalg.norm(self.assemble(coeffs), axis=-1).max(axis=-1)
        return float(n) if np.ndim(n) == 0 else n

    def norm_one(self, coeffs: np.ndarray):
        center = np.abs(coeffs[..., C]).max(axis=-1)
        us = coeffs.copy()
        us[..., C] = 0.0
        trans = np.linalg.norm(self.assemble(us), axis=-1).max(axis=-1)
        n = center + trans
        return float(n) if np.ndim(n) == 0 else n

    # -- operators -----------------------------------------------------

    def apply_beta(self, v_coeffs: np.ndarray, variant: str = "tau1") -> np.ndarray:
        """beta(v) in frame coordinates, scattered to the step target rows.

        Accepts batched input (..., W, 3); the center column of the input
        is ignored.  Raises ChartError when an intermediate point leaves
        the chart, which signals defect or epsilon too large.
        """
        X = self.points
        src, dst = self.step_src, self.step_dst
        rho, rho0 = self.chart.rho, self.chart.rho0
        us = v_coeffs[..., src, :].copy()
        us[..., C] = 0.0
        v_amb = np.einsum("...ij,...j->...i", _rows(self.frames, src), us)
        norms = np.linalg.norm(v_amb, axis=-1)
        if norms.size and float(norms.max()) > rho:
            raise ChartError(
                f"transversal component of size {float(norms.max()):.6g} "
                f"left the working ball of radius {rho}"
            )
        z = self.sys.forward(wrap(X[..., src, :] + v_amb))
        out = np.zeros(v_coeffs.shape)
        if variant == "tau2":
            w = self._slide_coeffs(z, dst)[0]
        else:
            w_amb = logmap(X[..., dst, :], z, rho0)
            w = np.einsum("...ij,...j->...i", _rows(self.frames_inv, dst), w_amb)
        out[..., dst, :] = w
        return out

    def _slide_coeffs(self, z: np.ndarray, dst_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fiber slide of z onto the transversal disks at the dst rows: (coefficients, move)."""
        d_base = minimal_rep(z[..., :2] - self.points[..., dst_rows, :2])
        w, move = _fiber_slide(_rows(self.frames, dst_rows), d_base)
        n = np.linalg.norm(move, axis=-1)
        if n.size and float(n.max()) > self.chart.rho0:
            raise ChartError(
                f"fiber slide of size {float(n.max()):.6g} left the chart "
                f"of radius {self.chart.rho0}"
            )
        return w, move

    def apply_transfer(self, v_coeffs: np.ndarray) -> np.ndarray:
        """The block operator A: stable and unstable one-step transfer."""
        out = np.zeros(v_coeffs.shape)
        out[..., self.step_dst, S] = self.alpha * v_coeffs[..., self.step_src, S]
        out[..., self.step_dst, U] = self.beta_u * v_coeffs[..., self.step_src, U]
        return out

    def eta(self, v_coeffs: np.ndarray, variant: str = "tau1") -> np.ndarray:
        return self.apply_beta(v_coeffs, variant) - self.apply_transfer(v_coeffs)

    def _solve_block(self, mult: np.ndarray, rhs_pts: np.ndarray) -> np.ndarray:
        """Solve v_k - mult_k v_{k-1} = r_k for one 1-d block of every orbit.

        The recursion direction follows the block's contraction direction:
        forward when all |mult| < 1, backward when all |mult| > 1; orbits
        solved together must share it.
        """
        r = np.moveaxis(rhs_pts, -1, 0)  # (W or n_steps aligned below, batch..., [B])
        size = np.abs(mult)
        lo, hi = size.min(axis=-1), size.max(axis=-1)
        forward = hi < 1.0
        straddle = np.flatnonzero(~forward & (lo <= 1.0))
        if straddle.size:
            i = straddle[0]
            raise AdmissibilityError(
                f"block multipliers straddle 1 (|m| in [{lo.flat[i]:.6g}, {hi.flat[i]:.6g}]); "
                "not partially hyperbolic at this scale"
            )
        if np.any(forward) != np.all(forward):
            raise ValueError("orbits solved together must contract in the same direction")
        forward = bool(np.all(forward))
        mult = np.moveaxis(mult, -1, 0)  # (L, [B])
        if not self.cyclic:
            out = np.zeros(r.shape)
            if forward:
                # zero inflow at the left edge: the first value is its own rhs
                out[0] = r[0]
                out[1:] = _affine_scan(mult, r[1:], init=r[0])
            else:
                # zero outflow at the right edge
                out[:-1] = _reversed_scan(mult, r[1:])
            return np.moveaxis(out, 0, -1)
        n = self.n_points
        if forward:
            part = _affine_scan(mult, r, init=0.0)
            hom = _affine_scan(mult, np.zeros(r.shape), init=1.0)
            closure = part[-1] / (1.0 - hom[-1])
            out = part + closure * hom
        else:
            part = np.zeros(r.shape)
            hom = np.zeros(mult.shape)
            if n > 1:
                part[:-1] = _reversed_scan(mult[1:], r[1:])
                hom[:-1] = _reversed_scan(mult[1:], np.zeros(mult[1:].shape), init=1.0)
            hom[-1] = 1.0
            hom_b = _align(hom, r.ndim)
            closure = (r[0] - part[0]) / (hom_b[0] - mult[0])
            out = part + closure * hom_b
        return np.moveaxis(out, 0, -1)

    def solve_p(self, rhs: np.ndarray) -> np.ndarray:
        """w = P^{-1} rhs: center sign flip plus the two block recursions."""
        out = np.empty(rhs.shape)
        out[..., C] = -rhs[..., C]
        out[..., S] = self._solve_block(self.alpha, rhs[..., S])
        out[..., U] = self._solve_block(self.beta_u, rhs[..., U])
        return out

    def phi(self, w_coeffs: np.ndarray, variant: str = "tau1") -> np.ndarray:
        """One fixed-point update Phi(w) = P^{-1} eta(v)."""
        out = self.solve_p(self.eta(w_coeffs, variant))
        if variant == "tau2":
            out[..., C] = 0.0
        return out


def _scaled_draw(
    ops: OrbitOperators,
    rng: np.random.Generator,
    count: int,
    size: float,
    center: bool,
    solver_norm: bool,
) -> np.ndarray:
    draws = rng.standard_normal((count, ops.n_points, 3))
    if not center:
        draws[..., C] = 0.0
    norms = ops.norm_one(draws) if solver_norm else ops.norm_sup(draws)
    scale = size * (0.25 + 0.75 * rng.random(count)) / norms
    return draws * scale[:, None, None]


def estimate_contraction(
    sys: CatCircleSystem,
    orbit: PseudoOrbit,
    cfg: SolverConfig | None = None,
    probes: int = 32,
    seed: int | None = None,
    ops: OrbitOperators | None = None,
) -> ContractionEstimates:
    """Probe-based estimates of the scheme's constants on this orbit.

    All quantities are measured maxima over random probes: the norm
    equivalence constant, the Lipschitz constant of eta on the epsilon
    ball, the solver-norm operator norm of P^{-1}, and the Lipschitz
    factor of Phi on transversal pairs.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    ops = ops if ops is not None else OrbitOperators(sys, orbit.points, orbit.cyclic, cfg.chart)
    rng = np.random.default_rng(cfg.probe_seed if seed is None else seed)
    eps = cfg.epsilon
    probes = max(2, int(probes))

    w_full = _scaled_draw(ops, rng, probes, eps, center=True, solver_norm=True)
    big_l = float(np.max(ops.norm_one(w_full) / ops.norm_sup(w_full)))
    us = w_full.copy()
    us[..., C] = 0.0
    split_norm = np.abs(w_full[..., C]) + np.linalg.norm(ops.assemble(us), axis=-1)
    full_norm = np.linalg.norm(ops.assemble(w_full), axis=-1)
    big_l_pt = float(np.max(split_norm / full_norm))

    v_a = _scaled_draw(ops, rng, probes, eps, center=False, solver_norm=False)
    v_b = _scaled_draw(ops, rng, probes, eps, center=False, solver_norm=False)
    eta_a = ops.eta(v_a, cfg.variant)
    eta_b = ops.eta(v_b, cfg.variant)
    c_delta = float(
        np.max(ops.norm_sup(eta_a - eta_b) / ops.norm_sup(v_a - v_b))
    )

    r = _scaled_draw(ops, rng, probes, eps, center=True, solver_norm=True)
    p_inv = float(np.max(ops.norm_one(ops.solve_p(r)) / ops.norm_one(r)))

    u_a = _scaled_draw(ops, rng, probes, eps, center=False, solver_norm=True)
    u_b = _scaled_draw(ops, rng, probes, eps, center=False, solver_norm=True)
    phi_a = ops.phi(u_a, cfg.variant)
    phi_b = ops.phi(u_b, cfg.variant)
    observed = float(np.max(ops.norm_one(phi_a - phi_b) / ops.norm_one(u_a - u_b)))

    defect = float(orbit.defect)
    lam = float(ops.lambda_tilde)
    if lam < 1.0 and observed < 1.0:
        predicted = big_l_pt * defect / ((1.0 - lam) * (1.0 - observed))
    else:
        predicted = float("inf")
    sufficient = lam < 1.0 and big_l_pt / (1.0 - lam) * defect < 0.5 * eps
    return ContractionEstimates(
        norm_equivalence=big_l,
        norm_equivalence_pointwise=big_l_pt,
        lambda_tilde=lam,
        eta_lipschitz=c_delta,
        p_inv_norm=p_inv,
        observed_contraction=observed,
        defect=defect,
        predicted_radius=predicted,
        sufficient_condition=sufficient,
        probes=probes,
    )


def _point_wrap_gap(sys: CatCircleSystem, orbit: PseudoOrbit) -> float:
    return float(dist(sys.forward(orbit.points[-1]), orbit.points[0]))


def shadow(
    sys: CatCircleSystem,
    orbit: PseudoOrbit,
    cfg: SolverConfig | None = None,
    initial: np.ndarray | None = None,
) -> ShadowResult:
    """Trace ``orbit`` with the variant requested in ``cfg``.

    Starts from the zero sequence (or ``initial`` coefficients inside the
    epsilon ball), iterates Phi until the solver-norm update drops below
    ``fixed_point_tol``, and verifies the step relation of the variant.
    An admissibility check runs first and refuses orbits whose measured
    defect cannot be traced within epsilon.  This is the one-orbit case of
    :func:`shadow_batch`; the first check the orbit fails is raised.
    """
    out = shadow_batch(sys, [orbit], cfg, initial=initial)[0]
    if isinstance(out, QuasiShadowError):
        raise out
    return out


def shadow_batch(
    sys: CatCircleSystem,
    orbits: list[PseudoOrbit],
    cfg: SolverConfig | None = None,
    est: ContractionEstimates | None = None,
    split: Splitting | None = None,
    initial: np.ndarray | None = None,
) -> list:
    """Trace orbits of one length and boundary type together, as one batch.

    Returns one entry per orbit: its :class:`ShadowResult`, or the
    :class:`QuasiShadowError` of the first check it failed.  The checks run
    per orbit in this order: boundary policy, leaf-mode wrap gap, splitting
    convergence, lambda_tilde < 1, probing, observed contraction < 1,
    predicted radius < epsilon; then, in every Phi step, the chart checks
    of beta, the straddle check of the block solves and the epsilon ball,
    then ``max_iterations`` and the chart checks of the result.  An orbit
    that fails leaves the others untouched.

    Without ``est`` every orbit is probed for its own constants
    (:func:`estimate_contraction`); with it every orbit reuses them, with
    its own defect.  ``split`` is the numerical splitting at the stacked
    points, from ``splitting_at(..., strict=False)``; it is computed when
    not given.  ``initial`` (shape (W, 3)) starts every orbit.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    out: list = [None] * len(orbits)
    cyclic = orbits[0].cyclic
    if cfg.boundary_policy != "auto" and (cfg.boundary_policy == "cyclic") != cyclic:
        return [
            ConfigError(
                f"boundary policy {cfg.boundary_policy!r} does not match "
                f"orbit cyclic={cyclic}"
            )
        ] * len(orbits)
    gaps = np.zeros(len(orbits))
    for b, orbit in enumerate(orbits):
        if orbit.leaf_mode and cfg.variant != "tau2":
            gaps[b] = _point_wrap_gap(sys, orbit)
            if gaps[b] > cfg.chart.rho:
                out[b] = AdmissibilityError(
                    f"leaf-mode orbit has pointwise wrap gap {gaps[b]:.6g} > rho="
                    f"{cfg.chart.rho}; only the fiber-sliding variant (tau2) applies"
                )
    points = np.stack([orbit.points for orbit in orbits])
    if sys.splitting_mode != "analytic":
        split = split if split is not None else splitting_at(sys, points, strict=False)
        for b in range(len(orbits)):
            if out[b] is None:
                out[b] = splitting_error(split.change[b], sys.split_config)
    idx = np.array([b for b, o in enumerate(out) if o is None], dtype=int)
    if not idx.size:
        return out
    if idx.size < len(orbits):
        points = points[idx]
        split = None if split is None else split[idx]
    ops = OrbitOperators(sys, points, cyclic, cfg.chart, split)

    ests = {}
    for i, b in enumerate(idx):
        orbit, lam = orbits[b], ops.lambda_tilde[i]
        if lam >= 1.0:
            out[b] = AdmissibilityError(
                f"stable/unstable block norm {lam:.6g} >= 1; "
                "not partially hyperbolic at this scale"
            )
            continue
        if est is None:
            try:
                ests[b] = estimate_contraction(
                    sys,
                    orbit,
                    cfg,
                    probes=cfg.admissibility_probes,
                    ops=ops.take(i),
                )
            except QuasiShadowError as exc:
                out[b] = exc
                continue
        else:
            ests[b] = replace(est, defect=float(orbit.defect))
        observed = ests[b].observed_contraction
        defect = max(float(orbit.defect), gaps[b])
        if observed >= 1.0:
            out[b] = AdmissibilityError(f"no contraction: observed factor {observed:.6g} >= 1")
            continue
        predicted = ests[b].norm_equivalence_pointwise * defect / (
            (1.0 - lam) * (1.0 - observed)
        )
        if predicted >= cfg.epsilon:
            out[b] = AdmissibilityError(
                f"defect {defect:.6g} predicts tracing radius {predicted:.6g} "
                f">= epsilon {cfg.epsilon}; reduce the defect or raise epsilon"
            )
    admitted = np.array([out[b] is None for b in idx])
    if not admitted.any():
        return out
    if not admitted.all():
        ops, idx = ops.take(admitted), idx[admitted]

    W = ops.n_points
    if initial is None:
        w = np.zeros((idx.size, W, 3))
    else:
        w0 = np.array(initial, float)
        if w0.shape != (W, 3):
            raise ValueError(f"initial guess must have shape ({W}, 3)")
        if np.any(ops.norm_one(w0) > cfg.epsilon):
            raise ValueError("initial guess lies outside the epsilon ball")
        if cfg.variant == "tau2":
            w0[:, C] = 0.0
        w = np.broadcast_to(w0, (idx.size, W, 3)).copy()

    history, failed = _iterate(ops, cfg, w)
    for a, exc in failed.items():
        out[idx[a]] = exc
    fin = np.array([a for a in range(idx.size) if a not in failed], dtype=int)
    if not fin.size:
        return out
    sub = ops if fin.size == idx.size else ops.take(fin)
    fields, ok, errors = _isolate(lambda o, v: _extract(sys, o, cfg, v), sub, w[fin])
    for i, exc in errors.items():
        out[idx[fin[i]]] = exc
    if not ok.any():
        return out
    y, trans, corrections, trace, center, step = fields
    for j, a in enumerate(fin[ok]):
        b = idx[a]
        deltas = np.asarray(history[a])
        out[b] = ShadowResult(
            variant=cfg.variant,
            ks=orbits[b].ks,
            x=orbits[b].points.copy(),
            y=y[j],
            trans=trans[j],
            corrections=corrections[j],
            diagnostics=replace(
                ests[b], iterations=len(deltas), final_residual=float(deltas[-1])
            ),
            max_trace_dist=float(trace[j]),
            step_residual=float(step[j]),
            center_residual=float(center[j]),
            delta_history=deltas,
            cyclic=cyclic,
        )
    return out


def _iterate(ops: OrbitOperators, cfg: SolverConfig, w: np.ndarray) -> tuple[list, dict]:
    """Phi iterations from ``w`` (updated in place) until every orbit converges or fails.

    An orbit stops at its first update below ``fixed_point_tol``.  Returns
    the update norms of each orbit and {position: error} for the orbits
    that failed.
    """
    act, sub = np.arange(len(w)), ops  # orbits still iterating, and their operators
    history: list = [[] for _ in range(len(w))]
    failed: dict = {}
    for _ in range(cfg.max_iterations):
        w_new, ok, errors = _isolate(lambda o, v: o.phi(v, cfg.variant), sub, w[act])
        failed.update((act[i], exc) for i, exc in errors.items())
        if not ok.all():
            act, sub = act[ok], sub.take(ok)
        if not act.size:
            break
        delta = sub.norm_one(w_new - w[act])
        w[act] = w_new
        size = sub.norm_one(w_new)
        escaped = size > cfg.epsilon
        for j, a in enumerate(act):
            history[a].append(delta[j])
            if escaped[j]:
                failed[a] = ConvergenceError(
                    f"iterate of solver norm {size[j]:.6g} escaped the "
                    f"epsilon ball ({cfg.epsilon})"
                )
        going = ~escaped & ~(delta < cfg.fixed_point_tol)
        if not going.all():
            act, sub = act[going], sub.take(going)
        if not act.size:
            break
    for a in act:
        failed[a] = ConvergenceError(
            f"no fixed point within {cfg.max_iterations} iterations "
            f"(last update {history[a][-1]:.3g})"
        )
    return history, failed


def _isolate(step, ops: OrbitOperators, arg: np.ndarray):
    """``step(ops, arg)`` on a batch; when it raises, the failing orbits are found alone.

    Returns the result for the orbits that pass, their mask and
    {position: error} for the others.  Orbits of a batch do not interact
    (up to the rounding note in :func:`_affine_scan`), so the passing
    orbits get the values they get on their own.
    """
    try:
        return step(ops, arg), np.ones(len(arg), bool), {}
    except QuasiShadowError:
        pass
    errors = {}
    for i in range(len(arg)):
        try:
            step(ops.take([i]), arg[i : i + 1])
        except QuasiShadowError as exc:
            errors[i] = exc
    ok = np.ones(len(arg), bool)
    ok[list(errors)] = False
    return (step(ops.take(ok), arg[ok]) if ok.any() else None), ok, errors


def _extract(sys: CatCircleSystem, ops: OrbitOperators, cfg: SolverConfig, w: np.ndarray):
    """Tracing points, center bookkeeping and per-orbit residuals of solved iterates.

    Returns y, the transversal parts v, the corrections, and per orbit the
    largest trace distance, center residual and step residual.
    """
    X = ops.points
    rho0 = cfg.chart.rho0
    us = w.copy()
    us[..., C] = 0.0
    v_amb = ops.assemble(us)
    y = expmap(X, v_amb, rho0)
    max_trace = dist(X, y).max(axis=-1)
    center_res = np.abs(ops.coeffs_of(v_amb)[..., C]).max(axis=-1)

    src, dst = ops.step_src, ops.step_dst
    fy = sys.forward(y[..., src, :])
    x_dst = X[..., dst, :]
    if cfg.variant == "tau1":
        corrections = ops.frames[..., C] * w[..., C, None]
        targets = expmap(x_dst, corrections[..., dst, :] + logmap(x_dst, fy, rho0), rho0)
    elif cfg.variant == "tau3":
        corrections = w[..., C].copy()
        targets = center_flow(fy, corrections[..., dst])
    else:
        targets = wrap(x_dst + ops._slide_coeffs(fy, dst)[1])
        corrections = np.zeros(X.shape[:-1])
        corrections[..., dst] = minimal_rep(targets[..., 2] - fy[..., 2])
    step_residual = dist(y[..., dst, :], targets).max(axis=-1)
    return y, v_amb, corrections, max_trace, center_res, step_residual


def transversal_slide(sys: CatCircleSystem, x, z, split_cfg: SplitConfig | None = None) -> np.ndarray:
    """Move z along its fiber onto the transversal disk through x.

    The result keeps the base coordinates of z and lies in the span of the
    stable and unstable directions at x (a 2x2 linear solve in the chart).
    """
    x = wrap(x)
    z = np.asarray(z, float)
    frames = splitting_at(sys, x, split_cfg).frames
    return wrap(x + _fiber_slide(frames, minimal_rep(z[..., :2] - x[:2]))[1])


def tau2_lipschitz(
    sys: CatCircleSystem,
    x,
    n_samples: int = 200,
    radius: float = 0.04,
    seed: int = 0,
) -> float:
    """Measured Lipschitz constant of the fiber slide at x over random nearby points."""
    x = wrap(x)
    rng = np.random.default_rng(seed)
    offsets = rng.standard_normal((n_samples, 3))
    offsets *= (radius * rng.random(n_samples) ** (1 / 3) / np.linalg.norm(offsets, axis=-1))[:, None]
    ys = wrap(x + offsets)
    slid = transversal_slide(sys, x, ys)
    ratios = dist(slid, x) / dist(ys, x)
    return float(np.max(ratios))
