"""Flat-torus geometry: canonical coordinates, metric, exponential charts.

Points on T^d are numpy arrays with every coordinate in [0, 1); ``wrap``
is the canonical constructor.  The metric is the Euclidean one on the
quotient, realized by reducing coordinate differences to the shortest
lattice representative.  On a flat torus the exponential map at x is a
translation in the chart, so ``expmap`` and ``logmap`` invert each other
exactly while their operands stay inside the injectivity radius.

All functions broadcast over leading axes; the last axis is the
coordinate axis.  Two primitives carry every array map of the package
and give the bits of their numpy spellings at a fraction of the cost:

- ``wrap`` computes ``x - floor(x)``, which equals ``np.mod(x, 1.0)`` bit
  for bit for finite x: numpy's remainder is an exact ``fmod`` plus one
  rounded ``+ 1.0`` for negative x, the same real number rounded once
  (-0.0 maps to +0.0 in both);
- ``norm`` sums the squares in index order, which is how
  ``np.linalg.norm(v, axis=-1)`` reduces an axis of fewer than 8 entries.

``wrap`` of a scalar is a 0-d array, and ``norm`` of one vector is a
numpy scalar, as with the numpy forms.
"""

from __future__ import annotations

import numpy as np

from .errors import ChartError

# per-coordinate injectivity threshold of the torus exponential
RHO0_DEFAULT = 0.5
# default working radius for solver iterates
RHO_DEFAULT = 0.05


def wrap(coords) -> np.ndarray:
    """Reduce coordinates mod 1 into [0, 1); rejects non-finite input.

    ``x - floor(x)``, the bits of ``np.mod(x, 1.0)``, into a new array
    (0-d for scalar input).
    """
    arr = np.asarray(coords, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ChartError("non-finite coordinate in point")
    out = np.floor(arr, out=np.empty(arr.shape))
    np.subtract(arr, out, out=out)
    # x - floor(x) rounds up to exactly 1.0 for tiny negative x
    out[out >= 1.0] = 0.0
    return out


def wrap_float(v: float) -> float:
    """:func:`wrap` of one Python float, bit-identical to it (``%`` rounds as ``v - floor(v)``)."""
    r = v % 1.0
    if r < 1.0:
        return r
    if r >= 1.0:
        return 0.0
    # only a non-finite v leaves a nan remainder
    raise ChartError("non-finite coordinate in point")


def minimal_rep(delta) -> np.ndarray:
    """Shift each coordinate difference by an integer into [-1/2, 1/2]."""
    delta = np.asarray(delta, dtype=float)
    return delta - np.round(delta)


def norm(v, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis, sqrt(v0*v0 + v1*v1 [+ v2*v2]) in index order.

    The bits of ``np.linalg.norm(v, axis=-1, keepdims=keepdims)``, overflow
    to inf included, for axes of fewer than 8 entries.
    """
    v = np.asarray(v, float)
    total = v[..., 0] * v[..., 0]
    for j in range(1, v.shape[-1]):
        total = total + v[..., j] * v[..., j]
    n = np.sqrt(total)
    return n[..., None] if keepdims else n


def dist(x, y):
    """Torus distance: Euclidean norm of the coordinatewise minimal representative."""
    d = norm(minimal_rep(np.asarray(y, float) - np.asarray(x, float)))
    return float(d) if np.ndim(d) == 0 else d


def expmap(x, v, rho0: float = RHO0_DEFAULT) -> np.ndarray:
    """Exponential at x: wrap(x + v).  Requires norm(v) <= rho0 (boundary inclusive)."""
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    n = norm(v)
    if np.any(n > rho0):
        raise ChartError(
            f"tangent vector norm {float(np.max(n)):.6g} exceeds chart radius {rho0}"
        )
    return wrap(x + v)


def logmap(x, y, rho0: float = RHO0_DEFAULT) -> np.ndarray:
    """Chart logarithm: the unique v with norm <= rho0 and expmap(x, v) == y."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    v = minimal_rep(y - x)
    n = norm(v)
    if np.any(n > rho0):
        raise ChartError(
            f"points at distance {float(np.max(n)):.6g} exceed chart radius {rho0}"
        )
    return v
