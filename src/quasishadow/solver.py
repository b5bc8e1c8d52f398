"""Quasi-shadowing fixed-point solver on truncated and cyclic sequence spaces.

Given a pseudo orbit {x_k} of a partially hyperbolic system, the tracing
sequence y_k = exp_{x_k}(v_k) comes from a fixed point of

    Phi(w) = P^{-1} eta(v),        w = (center part u, transversal part v),

where beta(v)_k pushes v_{k-1} through the map in exponential charts, A is
the block (stable + unstable) linearization of beta at 0, eta = beta - A,
and P w = -u + (id - A) v.  In frame coordinates the stable block of
(id - A)^{-1} is a forward recursion pinned to zero at the left window
edge; the unstable bundle of f is the stable bundle of f^{-1}, so the
unstable block is the same recursion on the reversed sequence.  Cyclic
orbits close it exactly with a rank-one correction.

Sequence iterates are stored as coefficient arrays c of shape (W, 3), or
(B, W, 3) for a batch of B orbits solved together, in the per-point
(stable, center, unstable) frames.  The solver norm is
max_k |center_k| + max_k |transversal_k|, the transversal parts taken as
assembled ambient vectors.

Variants: ``tau1`` translates by a center vector u_k, ``tau2`` slides
along the invariant fiber onto the transversal disk through x_k, ``tau3``
flows along the unit center field for a time tau_k.  One engine solves
all three; they differ in how beta is evaluated and in the center
bookkeeping of the result.
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
    C,
    S,
    U,
    CatCircleSystem,
    Splitting,
    center_flow,
    leaf_dist,
    splitting_at,
    splitting_error,
)
from .torus import RHO0_DEFAULT, RHO_DEFAULT, dist, expmap, logmap, minimal_rep, norm, wrap

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
    """Tracing sequence with per-variant center bookkeeping and diagnostics.

    ``trans`` holds the ambient transversal components v_k (y_k equals
    exp_{x_k} v_k); ``corrections`` holds center vectors u_k for tau1 and
    scalar fiber moves / flow times for tau2 / tau3.  ``defect_index`` is
    the k of the pair (x_k, x_{k+1}) whose one-step error is
    ``diagnostics.defect``.
    """

    variant: str
    ks: np.ndarray
    x: np.ndarray
    y: np.ndarray
    trans: np.ndarray
    corrections: np.ndarray
    diagnostics: ContractionBounds
    defect_index: int
    max_trace_dist: float
    step_residual: float
    center_residual: float
    delta_history: np.ndarray
    cyclic: bool

    def correction_norms(self) -> np.ndarray:
        if self.corrections.ndim == 2:
            return norm(self.corrections)
        return np.abs(self.corrections)

    def write_csv(self, path) -> None:
        d = self.x.shape[1]
        header = (
            ["k"]
            + [f"x{i + 1}" for i in range(d)]
            + [f"y{i + 1}" for i in range(d)]
            + ["dist", "correction_norm"]
        )
        cols = [self.ks, self.x, self.y, dist(self.x, self.y), self.correction_norms()]
        write_table(path, header, np.column_stack(cols))


def _fiber_slide(split: Splitting, d_base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move along the vertical fiber that turns a base offset into a transversal vector.

    Solves d_base = a e_s + c e_u for the base parts of the stable and
    unstable directions of ``split`` (a 2x2 linear solve per point) and
    returns the coefficients (a, 0, c) and the ambient move a e_s + c e_u.
    """
    E = split.frames[..., :2, :][..., [S, U]]
    det = E[..., 0, 0] * E[..., 1, 1] - E[..., 0, 1] * E[..., 1, 0]
    a = (E[..., 1, 1] * d_base[..., 0] - E[..., 0, 1] * d_base[..., 1]) / det
    c = (-E[..., 1, 0] * d_base[..., 0] + E[..., 0, 0] * d_base[..., 1]) / det
    w = np.zeros(a.shape + (3,))
    w[..., S] = a
    w[..., U] = c
    return w, split.assemble(w)


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
    block multipliers in frame coordinates.

    ``cfg`` is the :class:`SolverConfig` solved for (the default one when
    not given): its variant selects beta, its chart radii bound beta and
    the extraction, and its epsilon enters the gate of :meth:`bound_table`.
    ``split`` is the :class:`Splitting` at ``points``, computed by
    :func:`splitting_at` when not given; every frame product goes through
    it.  With a constant splitting (kappa = 0) the transfer matrix behind
    the multipliers is a single 3x3 product.
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
        # a constant splitting means kappa = 0, where the differential is the same everywhere
        at = np.zeros(3) if self.split.constant else X[..., self.step_src, :]
        M = (
            self.split[..., self.step_dst].frames_inv
            @ sys.differential(at)
            @ self.split[..., self.step_src].frames
        )
        steps = X.shape[:-2] + (W if cyclic else W - 1,)
        # copies: M is zeroed below, and a one-step orbit would otherwise alias it
        self.alpha = np.broadcast_to(M[..., S, S], steps).copy()
        self.beta_u = np.broadcast_to(M[..., U, U], steps).copy()
        with np.errstate(divide="ignore"):
            inv_beta = np.where(self.beta_u != 0.0, 1.0 / np.abs(self.beta_u), np.inf)
        lam = np.maximum(np.abs(self.alpha).max(axis=-1), inv_beta.max(axis=-1))
        self.lambda_tilde = float(lam) if lam.ndim == 0 else lam
        # what the block transfer leaves of M: a transversal vector a has
        # coefficients row_s . a and row_u . a (rows of frames_inv), so row i of
        # the rest maps it to at most (|M_is| |row_s| + |M_iu| |row_u|) |a|
        M[..., S, S] = M[..., U, U] = 0.0
        dual = norm(self.split.frames_inv[..., [S, U], :])
        # the center row of frames_inv is normal to E^s + E^u, so the angle phi of
        # the vertical center line to that plane has cos phi = |row[:2]| / |row|
        row = self.split.frames_inv[..., C, :]
        cos = norm(row[..., :2]) / norm(row)
        if not self.split.constant:
            M, dual, cos = np.abs(M).max(axis=-3), dual.max(axis=-2), cos.max(axis=-1)
        off = np.abs(M[..., S]) * dual[..., :1] + np.abs(M[..., U]) * dual[..., 1:]
        self.off_block = np.broadcast_to(off, X.shape[:-2] + (3,))
        self.norm_equivalence = np.broadcast_to(np.sqrt(2.0 / (1.0 - cos)), X.shape[:-2])

    def take(self, idx) -> OrbitOperators:
        """The operators of a subset of the orbits; ``idx`` indexes the orbit axis."""
        sub = object.__new__(OrbitOperators)
        sub.__dict__.update(self.__dict__)
        for name in ("points", "alpha", "beta_u", "lambda_tilde", "off_block", "norm_equivalence"):
            setattr(sub, name, getattr(self, name)[idx])
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
        ambient transversal vectors), plus frames_inv[dst] (Df(x + delta) - Df(x)).
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

    def norm_one(self, coeffs: np.ndarray):
        center = np.abs(coeffs[..., C]).max(axis=-1)
        return center + norm(self.split.transversal(coeffs)).max(axis=-1)

    # -- operators -----------------------------------------------------

    def apply_beta(self, v_coeffs: np.ndarray) -> np.ndarray:
        """beta(v) in frame coordinates, scattered to the step target rows.

        Accepts batched input (..., W, 3); the center column of the input
        is ignored.  Raises ChartError when an intermediate point leaves
        the chart, which signals defect or epsilon too large.
        """
        X = self.points
        src, dst = self.step_src, self.step_dst
        rho, rho0 = self.cfg.rho, self.cfg.rho0
        v_amb = self.split[..., src].transversal(v_coeffs[..., src, :])
        norms = norm(v_amb)
        if norms.size and float(norms.max()) > rho:
            raise ChartError(
                f"transversal component of size {float(norms.max()):.6g} "
                f"left the working ball of radius {rho}"
            )
        z = self.sys.forward(wrap(X[..., src, :] + v_amb))
        out = np.zeros(v_coeffs.shape)
        if self.cfg.variant == "tau2":
            w = self._slide_coeffs(z, dst)[0]
        else:
            w_amb = logmap(X[..., dst, :], z, rho0)
            w = self.split[..., dst].coeffs(w_amb)
        out[..., dst, :] = w
        return out

    def _slide_coeffs(self, z: np.ndarray, dst_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fiber slide of z onto the transversal disks at the dst rows: (coefficients, move)."""
        d_base = minimal_rep(z[..., :2] - self.points[..., dst_rows, :2])
        w, move = _fiber_slide(self.split[..., dst_rows], d_base)
        n = norm(move)
        if n.size and float(n.max()) > self.cfg.rho0:
            raise ChartError(
                f"fiber slide of size {float(n.max()):.6g} left the chart "
                f"of radius {self.cfg.rho0}"
            )
        return w, move

    def apply_transfer(self, v_coeffs: np.ndarray) -> np.ndarray:
        """The block operator A: stable and unstable one-step transfer."""
        out = np.zeros(v_coeffs.shape)
        out[..., self.step_dst, S] = self.alpha * v_coeffs[..., self.step_src, S]
        out[..., self.step_dst, U] = self.beta_u * v_coeffs[..., self.step_src, U]
        return out

    def eta(self, v_coeffs: np.ndarray) -> np.ndarray:
        return self.apply_beta(v_coeffs) - self.apply_transfer(v_coeffs)

    def _solve_block(self, mult: np.ndarray, rhs_pts: np.ndarray) -> np.ndarray:
        """Solve v_k - mult_k v_{k-1} = r_k forward for one contracting 1-d block of every orbit.

        Windows pin the left edge (zero inflow, so v_0 = r_0); cycles close
        the recursion exactly with a rank-one correction.
        """
        r = np.moveaxis(rhs_pts, -1, 0)  # (W, batch..., [B])
        mult = np.moveaxis(mult, -1, 0)  # (L, [B])
        if not self.cyclic:
            out = np.empty(r.shape)
            out[0] = r[0]
            out[1:] = _affine_scan(mult, r[1:], init=r[0])
            return np.moveaxis(out, 0, -1)
        part = _affine_scan(mult, r, init=0.0)
        hom = _affine_scan(mult, np.zeros(r.shape), init=1.0)
        return np.moveaxis(part + part[-1] / (1.0 - hom[-1]) * hom, 0, -1)

    def solve_p(self, rhs: np.ndarray) -> np.ndarray:
        """w = P^{-1} rhs: center sign flip plus the two block recursions.

        Requires lambda_tilde < 1, that is |alpha_k| < 1 < |beta_u_k| at every
        step; :func:`shadow_batch` refuses every other orbit before its first
        Phi step.  The unstable block v_{k-1} = (v_k - r_k) / beta_k runs as
        the stable recursion of the reversed sequence: multipliers 1 / beta_u,
        right-hand side -r / beta_u, a window's right edge pinned to zero.
        """
        out = np.empty(rhs.shape)
        out[..., C] = -rhs[..., C]
        out[..., S] = self._solve_block(self.alpha, rhs[..., S])
        # reversed step j maps reversed point j - 1 to j: the original step into point W - j (mod W)
        m = 1.0 / self.beta_u[..., ::-1]
        r = rhs[..., self.step_dst, U][..., ::-1]
        if self.cyclic:
            m, r = np.roll(m, 1, axis=-1), np.roll(r, 1, axis=-1)
        rev = np.zeros(rhs.shape[:-1])
        rev[..., self.step_dst] = -r * m
        out[..., U] = self._solve_block(m, rev)[..., ::-1]
        return out

    def phi(self, w_coeffs: np.ndarray) -> np.ndarray:
        """One fixed-point update Phi(w) = P^{-1} eta(v)."""
        out = self.solve_p(self.eta(w_coeffs))
        if self.cfg.variant == "tau2":
            out[..., C] = 0.0
        return out


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
    split: Splitting | None = None,
    initial: np.ndarray | None = None,
) -> list:
    """Trace orbits of one length and boundary type together, as one batch.

    Returns one entry per orbit: its :class:`ShadowResult`, or the
    :class:`QuasiShadowError` of the first check it failed.  The checks run
    per orbit in this order: finite points, the defect measurement with the
    leaf-mode wrap gap, the splitting tail bound (:func:`splitting_error`,
    one verdict for the system, so every orbit left gets the same error),
    then the closed-form gate of :meth:`OrbitOperators.bound_table` on the
    defect: lambda_tilde < 1, contraction bound < 1, predicted radius <
    epsilon; then, in every Phi step, the chart checks of beta and the
    epsilon ball, then ``max_iterations`` and the chart checks of the
    result.  An orbit that fails leaves the others untouched.  The boundary
    type is the orbits' own; ``cfg`` holds no boundary policy.

    The defect is measured against ``sys``: the largest one-step error
    dist(f(x_k), x_{k+1}), a cycle's wrap pair included, reported as
    ``diagnostics.defect`` with its k as ``defect_index``.  A leaf-mode
    wrap counts along the fiber for tau2; the other variants must absorb
    the pointwise wrap gap, which is refused above rho and counts otherwise.

    Per-orbit arrays (entries, iterates, update norms, gate constants) are
    indexed by position in ``orbits``; ``live`` holds the orbits behind the
    rows of the operators, which are narrowed whenever it changes.  An orbit
    runs while its entry is empty: each failure goes to the entry where it
    is found, and the result of an orbit is written in the step it converges.
    Every result owns its arrays, so keeping one keeps no batch array alive.

    ``split`` is the :class:`Splitting` at the stacked points
    (:func:`splitting_at`), computed when not given.  ``initial`` (shape
    (W, 3)) starts every orbit.  Orbits of mixed boundary types raise
    ValueError; no orbits give no entries.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if not orbits:
        return []
    cyclic = orbits[0].cyclic
    if any(orbit.cyclic != cyclic for orbit in orbits):
        raise ValueError("orbits solved together must share one boundary type")
    out: list = [None] * len(orbits)
    points = np.stack([orbit.points for orbit in orbits])
    for b in np.flatnonzero(~np.isfinite(points).all(axis=(1, 2))):
        k = orbits[b].k_start + int(np.argmin(np.isfinite(points[b]).all(axis=-1)))
        out[b] = ChartError(f"non-finite coordinate in orbit point k={k}")
    live = np.flatnonzero([o is None for o in out])
    if not live.size:
        return out
    if live.size < len(orbits):
        points = points[live]
    # one-step errors dist(f(x_j), x_{j+1}); a cycle's last pair is its wrap
    img = sys.forward(points if cyclic else points[:, :-1])
    nxt = np.roll(points, -1, axis=1) if cyclic else points[:, 1:]
    gaps = dist(img, nxt)
    leaf = cyclic & np.array([orbits[b].leaf_mode for b in live])
    if cfg.variant == "tau2":
        gaps[leaf, -1] = leaf_dist(img[leaf, -1], nxt[leaf, -1])
    else:
        for b, gap in zip(live[leaf], gaps[leaf, -1]):
            if gap > cfg.rho:
                out[b] = AdmissibilityError(
                    f"leaf-mode orbit has pointwise wrap gap {gap:.6g} > rho="
                    f"{cfg.rho}; only the fiber-sliding variant (tau2) applies"
                )
    at = np.argmax(gaps, axis=-1)
    defect = gaps[np.arange(len(live)), at]
    defect_index = np.zeros(len(orbits), int)
    defect_index[live] = np.array([orbits[b].k_start for b in live]) + at
    del img, nxt, gaps  # the solve below runs without the measurement's arrays
    err = splitting_error(sys)
    if err is not None:
        return [err if o is None else o for o in out]
    keep = np.array([out[b] is None for b in live])
    if not keep.any():
        return out
    if not keep.all():
        points, defect, live = points[keep], defect[keep], live[keep]
    if split is not None and live.size < len(orbits):
        split = split[live]
    ops = OrbitOperators(sys, points, cyclic, cfg, split)

    gate = np.full((len(orbits), 7), np.nan)
    gate[live] = ops.bound_table(defect)
    lam, contraction, defect, radius = gate[:, [0, 3, 4, 5]].T
    for b in np.flatnonzero((lam >= 1.0) | (contraction >= 1.0) | (radius >= cfg.epsilon)):
        if lam[b] >= 1.0:
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
    ops, live = _narrow(ops, live, out)
    if not live.size:
        return out

    W = ops.n_points
    w = np.zeros((len(orbits), W, 3))
    if initial is not None:
        w0 = np.array(initial, float)
        if w0.shape != (W, 3):
            raise ValueError(f"initial guess must have shape ({W}, 3)")
        if np.any(ops.norm_one(w0) > cfg.epsilon):
            raise ValueError("initial guess lies outside the epsilon ball")
        if cfg.variant == "tau2":
            w0[:, C] = 0.0
        w[:] = w0

    history = []  # per Phi step, the update norm of every orbit (nan where it did not run)
    for _ in range(cfg.max_iterations):
        w_new, ops, live = _isolate(OrbitOperators.phi, ops, live, w, out)
        if not live.size:
            return out
        delta = ops.norm_one(w_new - w[live])
        w[live] = w_new
        size = ops.norm_one(w_new)
        del w_new  # the extraction below runs without a second copy of the iterates
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
            sub, rows = (ops, live) if done.all() else (ops.take(done), live[done])
            fields, _, rows = _isolate(_extract, sub, rows, w, out)
            for r, b in enumerate(rows):
                y, trans, corrections, trace, center, step = (f[r] for f in fields)
                deltas = np.array([h[b] for h in history])
                diagnostics = ContractionBounds(
                    *map(float, gate[b, :6]), bool(gate[b, 6]),
                    iterations=len(deltas), final_residual=float(deltas[-1]),
                )
                out[b] = ShadowResult(
                    variant=cfg.variant,
                    ks=orbits[b].ks,
                    x=orbits[b].points.copy(),
                    y=y.copy(),
                    trans=trans.copy(),
                    corrections=corrections.copy(),
                    diagnostics=diagnostics,
                    defect_index=int(defect_index[b]),
                    max_trace_dist=float(trace),
                    step_residual=float(step),
                    center_residual=float(center),
                    delta_history=deltas,
                    cyclic=cyclic,
                )
        ops, live = _narrow(ops, live, out)
        if not live.size:
            return out
    for b in live:
        out[b] = ConvergenceError(
            f"no fixed point within {cfg.max_iterations} iterations "
            f"(last update {history[-1][b]:.3g})"
        )
    return out


def _narrow(ops: OrbitOperators, live: np.ndarray, out: list):
    """``ops`` and ``live`` cut to the orbits with an empty entry (``ops`` kept if none is left)."""
    keep = np.array([out[b] is None for b in live])
    return (ops, live[keep]) if keep.all() or not keep.any() else (ops.take(keep), live[keep])


def _isolate(step, ops: OrbitOperators, live: np.ndarray, w: np.ndarray, out: list):
    """``step(ops, w[live])`` on the batch ``live``; when it raises, each orbit runs alone.

    The error of every orbit that fails alone goes to its entry of ``out``.
    Returns the result of the orbits that pass, with their operators and
    ``live``.  Orbits of a batch do not interact (up to the rounding note
    in :func:`_affine_scan`), so the passing orbits get the values they get
    on their own.
    """
    try:
        return step(ops, w[live]), ops, live
    except QuasiShadowError:
        pass
    for r, b in enumerate(live):
        try:
            step(ops.take([r]), w[b : b + 1])
        except QuasiShadowError as exc:
            out[b] = exc
    ops, live = _narrow(ops, live, out)
    return (step(ops, w[live]) if live.size else None), ops, live


def _extract(ops: OrbitOperators, w: np.ndarray):
    """Tracing points, center bookkeeping and per-orbit residuals of solved iterates.

    Returns y, the transversal parts v, the corrections, and per orbit the
    largest trace distance, center residual and step residual.
    """
    X = ops.points
    variant, rho0 = ops.cfg.variant, ops.cfg.rho0
    v_amb = ops.split.transversal(w)
    y = expmap(X, v_amb, rho0)
    max_trace = dist(X, y).max(axis=-1)
    center_res = np.abs(ops.split.coeffs(v_amb)[..., C]).max(axis=-1)

    src, dst = ops.step_src, ops.step_dst
    fy = ops.sys.forward(y[..., src, :])
    x_dst = X[..., dst, :]
    if variant == "tau1":
        corrections = ops.split.frames[..., C] * w[..., C, None]
        targets = expmap(x_dst, corrections[..., dst, :] + logmap(x_dst, fy, rho0), rho0)
    elif variant == "tau3":
        corrections = w[..., C].copy()
        targets = center_flow(fy, corrections[..., dst])
    else:
        targets = wrap(x_dst + ops._slide_coeffs(fy, dst)[1])
        corrections = np.zeros(X.shape[:-1])
        corrections[..., dst] = minimal_rep(targets[..., 2] - fy[..., 2])
    step_residual = dist(y[..., dst, :], targets).max(axis=-1)
    return y, v_amb, corrections, max_trace, center_res, step_residual
