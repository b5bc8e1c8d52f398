"""Pseudo orbits: noisy trajectories, near returns, cycles."""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .errors import SearchError
from .systems import CatCircleSystem, leaf_dist
from .torus import RHO_DEFAULT, dist, norm, wrap, wrap_float

# generator recorded in reports so runs are reproducible from the config
RNG_KIND = "numpy.random.default_rng (PCG64)"

# rows converted or formatted at a time: lists and byte buffers of a whole long table cost megabytes
_ROW_CHUNK = 1024
# steps a near-return search walks and measures at a time
_WALK_CHUNK = 512

# --- write_table's exact decimals ------------------------------------------------
# The 17 significant digits of v are D = round(|v| * 10^k), k = 16 - E with
# E = floor(log10|v|).  For k in [1, 22] the power 5^k is an exact double, so
# Dekker's product of Veltkamp halves gives |v| * 5^k = p + err exactly, and
# scaling both by 2^k is exact too.
_VELTKAMP = 134217729.0  # 2^27 + 1
_POW5 = np.array([5**k for k in range(23)], dtype=float)
_POW5_HI = _VELTKAMP * _POW5 - (_VELTKAMP * _POW5 - _POW5)
_POW5_LO = _POW5 - _POW5_HI
_POW2 = np.ldexp(1.0, np.arange(23))
_POW10 = 10 ** np.arange(18, dtype=np.int64)


def _ascii(text: list, width: int) -> np.ndarray:
    """Strings as rows of ``width`` bytes, NUL-padded."""
    return np.array(text, f"S{width}").view(np.uint8).reshape(len(text), width)


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0000..9999 as four-byte words, with NUL for a stripped digit.

    Words go into fixed slots and every NUL is dropped from the line, so a
    blanked digit is a stripped one.  ``trailing[j * 10_000 + g]`` strips the
    trailing zeros of g behind its first j digits (j = 4 keeps all);
    ``leading[j * 10_000 + g]`` keeps all (j = 0), strips the leading zeros
    (j = 1), or strips them but keeps the last digit (j = 2).
    """
    g = np.arange(10_000, dtype=np.int16)[:, None]
    digits = (48 + g // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    nonzero = digits != 48
    place = np.arange(4, dtype=np.int8)
    length = np.where(nonzero.any(1), 4 - np.argmax(nonzero[:, ::-1], axis=1), 0).astype(np.int8)
    first = np.where(nonzero.any(1), np.argmax(nonzero, axis=1), 4).astype(np.int8)[:, None]
    trailing = place < np.maximum(np.arange(5, dtype=np.int8)[:, None, None], length[:, None])
    leading = place >= np.stack([0 * first, first, np.minimum(first, 3)])
    return tuple(
        (keep * digits).view(np.uint32).ravel()
        for keep in (trailing, leading)
    )


_TRAILING, _LEADING = _digit_words()
# offset into _TRAILING that keeps each group's share of the first q (< 17) digits
_HELD = 10_000 * np.clip(np.arange(17)[:, None] - [1, 5, 9, 13], 0, 4)
# A float slot is 32 bytes: sign, the "0.0.." of %g's fixed notation for
# E = -4..-1, the leading digit, the point, digits 1-16, the exponent %g
# writes for E = -6 and -5 (its other exponents leave the exact path), ",".
_HEAD = np.zeros((2, 22, 10, 2, 8), np.uint8)  # sign, E + 6, leading digit, point
_HEAD[1, ..., 0] = ord("-")
_HEAD[:, 2:6, ..., 1:6] = _ascii([b"0.000", b"0.00", b"0.0", b"0."], 5)[:, None, None]
_HEAD[..., 6] = 48 + np.arange(10)[:, None]
_HEAD[..., 1, 7] = ord(".")
_HEAD = _HEAD.view(np.uint64).ravel()
_TAIL = np.zeros((22, 8), np.uint8)  # E + 6
_TAIL[:2, :4] = _ascii([b"e-06", b"e-05"], 4)
_TAIL[:, 4] = ord(",")
_TAIL = _TAIL.view(np.uint64).ravel()


def _point_moves() -> np.ndarray:
    """Row q < 17: the order of the 18 bytes "d0 . d1 .. d16" that puts the point behind d_(q-1)."""
    j, q = np.arange(18), np.arange(17)[:, None]
    return np.where((j >= 1) & (j < q), j + 1, np.where(j == q, 1, j))


_SHIFT = _point_moves()


def _float_slots(v: np.ndarray) -> np.ndarray:
    """format(v, ".17g") + "," of each value as 32 NUL-padded bytes."""
    n = len(v)
    a = np.abs(v)
    zero = a == 0.0
    exact = (a >= 1e-6) & (a < 1e16)
    a = np.where(exact, a, 1.0)  # zeros ride along as 1.0, with E = 0
    k = np.clip(16.0 - np.floor(np.log10(a)), 1, 22).astype(np.intp)
    c = _VELTKAMP * a
    ah = c - (c - a)
    al = a - ah
    bh, bl = _POW5_HI[k], _POW5_LO[k]
    p = a * _POW5[k]
    err = al * bl - (((p - ah * bh) - al * bh) - ah * bl)
    big, small = p * _POW2[k], err * _POW2[k]  # a * 10^k == big + small
    # log10 may miss E by one next to a power of ten: check it on the exact pair
    exact &= (big > 1e16) | ((big == 1e16) & (small >= 0))
    exact &= (big < 1e17) | ((big == 1e17) & (small < 0))
    # big is an even integer >= 2^53, so rint's ties to even round the sum half to even
    d = big.astype(np.int64) + np.rint(small).astype(np.int64)
    exact &= d < _POW10[17]  # a carry into an 18th digit leaves the exact path
    d[zero | ~exact] = 0
    exact |= zero
    e = 16 - k
    # %g: fixed notation for -4 <= E < 17, else one digit and an exponent;
    # q digits stand before the point, which goes when no digit follows it
    q = np.where(e >= -4, np.maximum(e + 1, 0), 1)
    point = (q > 0) & (d % _POW10[17 - q] != 0)
    # digits 1-16 in four groups; a group with no nonzero digit after it keeps
    # its first _HELD[q] digits and strips the trailing zeros behind them
    high, low = d // 10**8, d % 10**8
    groups = np.empty((n, 4), np.int64)
    groups[:, 0], groups[:, 1] = high // 10**4 % 10**4, high % 10**4
    groups[:, 2], groups[:, 3] = low // 10**4, low % 10**4
    later = np.zeros((n, 4), bool)
    later[:, 2] = groups[:, 3] != 0
    later[:, 1] = low != 0
    later[:, 0] = later[:, 1] | (groups[:, 1] != 0)
    groups += np.maximum(40_000 * later, _HELD[q])
    head = ((np.signbit(v) * 22 + e + 6) * 10 + high // 10**8) * 2 + point
    out = np.empty((n, 8), np.uint32)
    out.view(np.uint64)[:, 0] = _HEAD.take(head)
    out[:, 2:6] = _TRAILING.take(groups)
    out.view(np.uint64)[:, 3] = _TAIL.take(e + 6)
    out = out.view(np.uint8)
    wide = np.flatnonzero(q > 1)
    if wide.size:
        out[wide, 6:24] = np.take_along_axis(out[wide, 6:24], _SHIFT[q[wide]], axis=1)
    rest = np.flatnonzero(~exact)
    if rest.size:
        text = ("%.17g," * rest.size % tuple(v[rest].tolist())).split(",")[:-1]
        out[rest, :28] = _ascii(text, 28)
    return out


def _index_slots(k: np.ndarray) -> np.ndarray:
    """"%d" % v + "," of each integer value (|v| < 2^63), NUL-padded to 28 bytes."""
    ki = k.astype(np.int64)
    quads = np.abs(ki)[:, None] // _POW10[16::-4]
    # a group with no digit before it strips its leading zeros; the last keeps one
    blank = np.ones(quads.shape, bool)
    blank[:, 1:] = quads[:, :-1] == 0
    words = _LEADING.take(blank * [10_000, 10_000, 10_000, 10_000, 20_000] + quads % 10_000)
    out = np.zeros((len(k), 28), np.uint8)
    out[:, 0] = np.where(ki < 0, ord("-"), 0)
    out[:, 4:24] = words.view(np.uint8)
    out[:, 24] = ord(",")
    return out


def _csv_rows(rows: np.ndarray, index: bool) -> bytes:
    """The CSV lines of a 2-d float array, each ending in "\r\n"."""
    fields = []
    if index:
        fields.append(_index_slots(rows[:, 0]))
    if rows.shape[1] > index:
        fields.append(_float_slots(rows[:, int(index) :].ravel()).reshape(len(rows), -1))
    line = np.concatenate(fields, axis=1)
    line[:, -4] = ord("\r")  # the last separator
    line[:, -3] = ord("\n")
    return line[line != 0].tobytes()


def write_table(path, header: list[str], table: np.ndarray, index: bool = True) -> None:
    """CSV of a float table, every value as format(v, ".17g"); the bytes csv.writer writes.

    With ``index`` the first column holds integers (an orbit's k) and is
    written as "%d" writes them.  Lines end with "\r\n", as csv.writer ends
    them; no value needs quoting.

    The text is built in numpy a chunk of rows at a time.  A value with
    1e-6 <= |v| < 1e16 gets its 17 digits from an exact product |v| * 10^k
    (Dekker's error-free product of Veltkamp halves), rounded half to even
    as Python rounds, and laid out by the rules of %g; zero is written
    directly.  Every other value (non-finite, tiny, huge, or one whose
    digits carry into an 18th) is formatted by "%.17g" itself.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, len(table), _ROW_CHUNK):
            fh.write(_csv_rows(table[lo : lo + _ROW_CHUNK], index))


def as_points(points) -> np.ndarray:
    """``points`` as an (n, 3) float array; one 3-vector is one point, any other shape raises ValueError."""
    arr = np.atleast_2d(np.asarray(points, float))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"points on T^3 must have shape (n, 3), got {np.shape(points)}")
    return arr


@dataclass
class PseudoOrbit:
    """A finite window x_k, k = k_start .. k_start + len - 1, or a cyclic list.

    Its defect depends on the map it is read against, so it carries none:
    :func:`~quasishadow.solver.shadow_batch` measures it against the system
    it solves.  Cycles include the wrap pair (x_{n-1}, x_0); with
    ``leaf_mode`` a tau2 solve measures that pair along the fiber, against
    the fiber point nearest to f(x_{n-1}).
    """

    points: np.ndarray
    cyclic: bool = False
    k_start: int = 0
    leaf_mode: bool = False

    def __post_init__(self) -> None:
        self.points = as_points(self.points)
        if self.cyclic:
            if len(self.points) < 1:
                raise ValueError("cyclic orbits need at least one point")
        elif len(self.points) < 2:
            raise ValueError("orbit windows need at least two points")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def ks(self) -> np.ndarray:
        return np.arange(self.k_start, self.k_start + len(self.points))

    def write_csv(self, path) -> None:
        header = ["k"] + [f"x{i + 1}" for i in range(self.points.shape[1])]
        write_table(path, header, np.column_stack([self.ks, self.points]))


@dataclass
class NearReturn:
    """A cyclic pseudo orbit x, f(x), ..., f^(n-1)(x) whose n-th image comes back within ``gap``.

    The cycle is the walk of :func:`find_near_return`, so its one inexact
    pair is the wrap, whose error is ``gap``.  A leaf-mode return gives a
    leaf-mode cycle.
    """

    cycle: PseudoOrbit
    gap: float

    @property
    def n(self) -> int:
        return len(self.cycle)


def _ball_draws(rng: np.random.Generator, count: int, radius: float, dim: int) -> np.ndarray:
    if radius == 0.0:
        return np.zeros((count, dim))
    direction = rng.standard_normal((count, dim))
    direction /= norm(direction, keepdims=True)
    # shave a hair off the radius so wrap rounding cannot push the
    # measured one-step error past the nominal noise level
    r = radius * (1.0 - 1e-9) * rng.random(count) ** (1.0 / dim)
    return direction * r[:, None]


def _float_rows(table: np.ndarray):
    """The rows of a 2-d array as lists of Python floats, converted a chunk at a time."""
    for lo in range(0, len(table), _ROW_CHUNK):
        yield from table[lo : lo + _ROW_CHUNK].tolist()


def generate_noisy(
    sys: CatCircleSystem,
    x0,
    n_steps: int,
    noise: float,
    seed: int,
    rho: float = RHO_DEFAULT,
) -> PseudoOrbit:
    """Two-sided noisy trajectory through x0 on the window [-n_steps, n_steps].

    Forward points perturb the image inside the noise ball; backward points
    apply the inverse map to a perturbed point.  Either way each one-step
    error dist(f(x_k), x_{k+1}) under ``sys`` is its drawn offset up to
    rounding, and the offsets are drawn a hair inside the ball, so every
    error stays at most ``noise``.
    Deterministic for a fixed seed.  Steps on the float kernel
    (:meth:`CatCircleSystem.step`), wrapping twice like ``wrap(forward(x) + xi)``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not 0.0 <= noise < rho:
        raise ValueError(f"noise must lie in [0, rho={rho}), got {noise}")
    x0 = wrap(x0)
    rng = np.random.default_rng(seed)
    xi = _ball_draws(rng, 2 * n_steps, noise, 3)
    forward, backward = array("d"), array("d")  # x_1 .. x_n and x_-1 .. x_-n
    x = x0.tolist()
    for e0, e1, e2 in _float_rows(xi[:n_steps]):
        f0, f1, f2 = sys.step(*x)
        x = wrap_float(f0 + e0), wrap_float(f1 + e1), wrap_float(f2 + e2)
        forward.extend(x)
    x = x0.tolist()
    for e0, e1, e2 in _float_rows(xi[n_steps:]):
        x = sys.step_inverse(wrap_float(x[0] + e0), wrap_float(x[1] + e1), wrap_float(x[2] + e2))
        backward.extend(x)
    backward = np.frombuffer(backward).reshape(-1, 3)[::-1]
    pts = np.concatenate([backward, x0[None], np.frombuffer(forward).reshape(-1, 3)])
    return PseudoOrbit(pts, k_start=-n_steps)


def find_near_return(
    sys: CatCircleSystem,
    x0,
    max_n: int,
    threshold: float,
    mode: str,
) -> NearReturn:
    """Smallest n <= max_n with dist(x0, f^n(x0)) < threshold, with the n points walked.

    "point" mode measures :func:`dist`; "leaf" mode measures :func:`leaf_dist`,
    the Hausdorff distance between center fibers, which for circle fibers is
    the base distance.  The walk is :meth:`CatCircleSystem.orbit`, taken
    ``_WALK_CHUNK`` steps at a time and measured a chunk at once, so the
    cycle holds the rows of ``sys.orbit(x0, n - 1)``.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if mode not in ("point", "leaf"):
        raise ValueError(f"unknown near-return mode {mode!r}")
    x0 = wrap(x0)
    measure = leaf_dist if mode == "leaf" else dist
    walk = [x0[None]]  # x0, then f(x0) .. f^max_n(x0) a chunk at a time
    for lo in range(0, max_n, _WALK_CHUNK):
        walk.append(sys.orbit(walk[-1][-1], min(_WALK_CHUNK, max_n - lo))[1:])
        gaps = measure(x0, walk[-1])
        hits = np.flatnonzero(gaps < threshold)
        if hits.size:
            n = lo + hits[0] + 1
            cycle = PseudoOrbit(np.concatenate(walk)[:n], cyclic=True, leaf_mode=mode == "leaf")
            return NearReturn(cycle, float(gaps[hits[0]]))
    raise SearchError(
        f"no {mode}-mode return below {threshold:g} within {max_n} steps from {x0.tolist()}"
    )
