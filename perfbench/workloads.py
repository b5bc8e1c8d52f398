"""Seeded workload inputs: the configs the CLI receives, and the work they imply.

The seed belongs to the benchmark; the program sees only the generated
config files.  Every workload keeps its problem size fixed across seeds,
so timings from different seeds measure the same amount of work:

- ``stability_grid``: the shape of ``configs/stability_alpha.json``
  (kappa = 0, 10^3 grid, window 200, fiber-rotation perturbation, tau1).
  2,000 small window solves, so per-call overhead in the solver and the
  per-window frame inverse dominate.
- ``stability_skew``: the stability layer at kappa = 0.02 with a
  base-moving translation, 4^3 grid, window 100.  Frames vary from point
  to point, so the time goes to splitting rather than per-call overhead;
  a shortcut that only helps ``stability_grid`` must not cost here.
- ``orbits``: single large solves, where per-call overhead is nil.  One
  tau3 shadow of a W = 20,001 noisy orbit at kappa = 0.02 (numerical
  splitting, admissibility probing, noisy-orbit generation, 4.8 MB of
  CSV), then three leaf-mode near returns closed with tau2 (near-return
  search, cyclic solve, leaf-residual loop).  The seed draws the closing
  starts; only points whose first leaf return lies in ``RETURN_BAND`` are
  kept, so the cycle lengths, and with them the work, stay within a few
  percent across seeds.  Long periods are kept on purpose: the known
  leaf-residual defect (error amplified by mu^period) shows on every one
  of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quasishadow.systems import CAT
from quasishadow.torus import minimal_rep, wrap

from . import WORKLOADS


CLOSE_THRESHOLD = 5e-3
CLOSE_MAX_N = 20000  # well past RETURN_BAND, so the search never runs out
RETURN_BAND = (7500, 8000)
CLOSINGS = 3
_CANDIDATES = 256


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a workload iteration.

    ``ops`` counts the operations it attempts (grid points, shadow solves
    or closings), ``points`` the sequence points its solves run on (sum of
    window or cycle lengths), ``distinct`` the distinct orbit points among
    them.  ``expect`` holds values the outputs must reproduce.
    """

    stem: str
    config: dict
    ops: int
    points: int
    distinct: int
    expect: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.config["kind"]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed) % 2**64])


def _stability(stem, alpha, kappa, grid, window, perturbation, solver) -> Call:
    n_pts = grid**3
    return Call(
        stem=stem,
        config={
            "kind": "stability",
            "system": {"alpha": alpha, "kappa": kappa},
            "stability": {"grid_per_axis": grid, "window": window, **perturbation},
            "solver": {"variant": "tau1", **solver},
        },
        ops=n_pts,
        # an x-window and a g(x)-window of 2W + 1 points per grid point,
        # sharing 2W of them
        points=2 * n_pts * (2 * window + 1),
        distinct=n_pts * (2 * window + 2),
    )


def leaf_return_times(x0: np.ndarray, horizon: int, threshold: float) -> np.ndarray:
    """First n <= horizon with base distance |f^n(x0) - x0| < threshold, 0 if none.

    Iterates the cat-map base only, with the same arithmetic as
    ``CatCircleSystem.forward`` (an integer matrix product and ``wrap``),
    so for an unshifted system it reproduces ``find_near_return`` in leaf
    mode exactly.
    """
    b0 = x0[:, :2]
    b = b0
    first = np.zeros(len(x0), dtype=int)
    for n in range(1, horizon + 1):
        b = wrap(b @ CAT.T)
        gap = np.linalg.norm(minimal_rep(b - b0), axis=-1)
        first[(first == 0) & (gap < threshold)] = n
    return first


def _closing_starts(rng: np.random.Generator) -> list[tuple[list, int]]:
    lo, hi = RETURN_BAND
    found: list[tuple[list, int]] = []
    while len(found) < CLOSINGS:
        x0 = rng.random((_CANDIDATES, 3))
        times = leaf_return_times(x0, hi, CLOSE_THRESHOLD)
        for x, n in zip(x0, times):
            if lo <= n <= hi and len(found) < CLOSINGS:
                found.append((x.tolist(), int(n)))
    return found


def make_calls(workload: str, seed: int) -> list[Call]:
    """The CLI calls of one iteration of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed)
    alpha = float(rng.uniform(0.05, 0.95))
    if workload == "stability_grid":
        shift = float(rng.choice([-1.0, 1.0]) * rng.uniform(5e-4, 2e-3))
        return [
            _stability(
                workload, alpha, 0.0, 10, 200, {"alpha_shift": shift},
                {"epsilon": 0.05, "rho": 0.1, "admissibility_probes": 4},
            )
        ]
    if workload == "stability_skew":
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        translation = [1e-3 * np.cos(angle), 1e-3 * np.sin(angle), float(rng.uniform(-2e-4, 2e-4))]
        return [
            _stability(
                workload, alpha, 0.02, 4, 100, {"translation": [float(v) for v in translation]},
                {"admissibility_probes": 4},
            )
        ]
    n_steps = 10000
    shadow = {
        "kind": "shadow",
        "system": {"alpha": alpha, "kappa": 0.02},
        "orbit": {
            "x0": rng.random(3).tolist(),
            "n_steps": n_steps,
            "noise": 1e-4,
            "seed": int(rng.integers(2**31)),
        },
        "solver": {"variant": "tau3"},
    }
    w = 2 * n_steps + 1
    calls = [Call("long_window_skew", shadow, ops=1, points=w, distinct=w)]
    for i, (x0, n) in enumerate(_closing_starts(rng)):
        config = {
            "kind": "close",
            "system": {"alpha": alpha, "kappa": 0.0},
            "close": {"x0": x0, "max_n": CLOSE_MAX_N, "threshold": CLOSE_THRESHOLD, "mode": "leaf"},
            "solver": {"variant": "tau2"},
        }
        calls.append(Call(f"closing_{i}", config, ops=1, points=n, distinct=n, expect={"return_n": n}))
    return calls


def write_configs(calls: list[Call], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for call in calls:
        path = directory / f"{call.stem}.json"
        path.write_text(json.dumps(call.config, indent=2) + "\n")
        paths.append(path)
    return paths
