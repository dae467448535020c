"""Maximal Lyapunov exponents along random orbits.

Vector iteration v_{k+1} = J_k v_k with the log norms accumulated
(Benettin et al., Meccanica 15, 1980).  The scalar reference renormalizes
every step.  The batched runs renormalize once per block of k steps, and at
the last step: on the 10R bidisk every Jacobian [[0, 1], [-delta, p'(y)]]
has norm at most G = sqrt(1 + |delta|^2 + P'^2), with
P' = sum_j |c'_j| (10R)^j, and smallest singular value at least |delta|/G,
so k is the largest step count with max(G, G/|delta|)^k <= 1e300 over the
support, and every product of at most k Jacobians, applied to a unit vector,
has norm inside [1e-300, 1e300].

A block records its base-orbit positions first.  The escape check runs once
over them: a run whose orbit left the 10R bidisk at any recorded step is
reported as escaped rather than forced to a number, since the affine chart
cannot represent the attractor at infinity, and its lane is retired before
its tangent is used.  The block's k Jacobians are then multiplied pairwise,
in ceil(log2 k) vectorised levels (a tree reduction, Blelloch 1990), and the
product is applied to each run's unit tangent vector, which is renormalized
once.  A drawing support steps its runs as lanes of one :class:`lanes.Walk`.
A one-map support draws nothing, so every run follows the same orbit.  It
is computed once, in chunks of at most ``lanes._BLOCK_CELLS`` steps whose
consecutive blocks are the columns of one reduction, and each block's
product serves every run.  The orbit is stepped, with the scalar arithmetic
of :func:`max_lyapunov_single`, only until its state repeats bit for bit (cycle
finding in the sense of Brent, BIT 20, 1980: the next state is matched
against the chunk just stepped); the rest of the orbit is then read from that
period.  A bit-equal state has a bit-equal future, so the exponents are the
bits that stepping every position gives.  Held memory does not grow with
the step count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import lanes, rng
from .core import FiltrationParams, Point, image, swap
from .dist import (
    FiniteDist,
    MapDistribution,
    SequenceSeed,
    condition_a_params,
    inverse_distribution,
)
from .escape import SourceLike, as_source

ESCAPE_FACTOR = 10.0
_TAG_ANGLE = 0x414E474C
MIN_STEPS = 100
_NORM_RANGE = 1e300  # tangent norms stay inside [1/_NORM_RANGE, _NORM_RANGE]


class DegenerateVector(ArithmeticError):
    """Renormalization vector collapsed; impossible for invertible Jacobians."""


class AllEscaped(RuntimeError):
    """Every sampled orbit left the chart; report attached."""

    def __init__(self, report: "LyapunovReport"):
        super().__init__("all sampled orbits escaped the chart")
        self.report = report


@dataclass(frozen=True)
class LyapunovReport:
    exponent: float
    n_steps: int
    samples: int
    ci95_halfwidth: float
    escaped_fraction: float
    values: Tuple[float, ...]  # per non-escaped run, stream order

    def __post_init__(self) -> None:
        if not (self.ci95_halfwidth >= 0.0):
            raise ValueError("ci95_halfwidth must be nonnegative")
        if self.escaped_fraction < 1.0 and not math.isfinite(self.exponent):
            raise ValueError("exponent must be finite when some orbit stayed")


def _start_vector(angle_seed: int) -> Tuple[complex, complex]:
    theta = 2.0 * math.pi * rng.uniform01(angle_seed, _TAG_ANGLE, 0)
    return complex(math.cos(theta)), complex(math.sin(theta))


def max_lyapunov_single(
    source: SourceLike,
    z: Point,
    n: int,
    params: FiltrationParams,
    angle_seed: int = 0,
) -> Optional[float]:
    """Average log norm growth of a renormalized tangent vector over n steps.

    Returns None when the base orbit leaves the bidisk of radius 10R, where
    the chart exponent stops being meaningful.
    """
    if n < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps")
    src = as_source(source)
    r_big = ESCAPE_FACTOR * params.R
    v = _start_vector(angle_seed)
    acc = 0.0
    cur = z
    for k in range(n):
        x, y = cur
        if not (abs(x) <= r_big and abs(y) <= r_big):  # NaN is outside too
            return None
        f = src[k]
        w = (v[1], -f.delta * v[0] + f.poly.deriv(y) * v[1])
        nw = math.hypot(abs(w[0]), abs(w[1]))
        if nw < 1e-300:
            raise DegenerateVector("tangent vector norm underflow")
        acc += math.log(nw)
        v = (w[0] / nw, w[1] / nw)
        cur = image(f, cur)
    return acc / n


def _renorm_steps(dist: MapDistribution, r_big: float) -> int:
    """Steps between renormalizations of the batched tangent walk: the
    largest k with max(G, G/|delta|)^k <= 1e300 over the support, G the
    Jacobian norm bound at |y| <= r_big (see the module docstring).  A
    ball's offsets enter no Jacobian, so its base map stands for it."""
    maps = dist.maps if isinstance(dist, FiniteDist) else (dist.base,)
    g = 1.0
    for f in maps:
        dp = 0.0  # Horner at r_big on |c'_j|: inf, never an exception, on overflow
        for c in f.poly._deriv:  # type: ignore[attr-defined]
            dp = dp * r_big + abs(c)
        G = math.hypot(1.0, abs(f.delta), dp)
        g = max(g, G, G / abs(f.delta))
    return max(1, int(math.log(_NORM_RANGE) / math.log(g)))


def _block_products(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Products J_{k-1} ... J_1 J_0 of the Jacobians [[0, 1], [c_j, d_j]]
    down the k rows of (k, columns) arrays, as a (4, columns) array of the
    entries p00, p01, p10, p11 of each column's product.  Neighbouring
    factors are multiplied pairwise; an unpaired last factor waits for the
    next level.  Entry arithmetic, not a stacked matmul: on 84 x 48 factors
    numpy's matmul took 1.6 ms against 0.4 ms (2-core x86 box, numpy 2.4)."""
    P = np.stack((np.zeros_like(c), np.ones_like(c), c, d))
    while P.shape[1] > 1:
        h = P.shape[1] // 2
        (a0, b0, c0, d0), (a1, b1, c1, d1) = P[:, 0:2 * h:2], P[:, 1:2 * h:2]
        pairs = np.stack((a1 * a0 + b1 * c0, a1 * b0 + b1 * d0,
                          c1 * a0 + d1 * c0, c1 * b0 + d1 * d0))
        P = np.concatenate((pairs, P[:, 2 * h:]), axis=1) if P.shape[1] % 2 else pairs
    return P[:, 0]


def _renormalize(P: np.ndarray, V1: np.ndarray, V2: np.ndarray,
                 part: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit vectors P v and the partial sums with log |P v| added, for one
    shared product P (its four entries) or one per lane."""
    p00, p01, p10, p11 = P
    w1 = p00 * V1 + p01 * V2
    w2 = p10 * V1 + p11 * V2
    nw = np.hypot(np.abs(w1), np.abs(w2))
    if (nw < 1.0 / _NORM_RANGE).any():
        raise DegenerateVector("tangent vector norm underflow")
    return w1 / nw, w2 / nw, part + np.log(nw)


def _left(X: np.ndarray, Y: np.ndarray, r_big: float) -> np.ndarray:
    # recorded positions not inside the 10R bidisk, taken down the rows: a
    # NaN part compares false, so it counts as outside
    with np.errstate(over="ignore", invalid="ignore"):
        return ~(np.maximum(np.abs(X), np.abs(Y)) <= r_big).all(axis=0)


def _walk_runs(dist: MapDistribution, z: Point, streams: np.ndarray, master: int,
               V1: np.ndarray, V2: np.ndarray, n: int, k: int,
               r_big: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-lane (log-norm sum, escaped) of runs that draw their maps."""
    samples = streams.size
    w = lanes.Walk(np.full(samples, z[0], dtype=np.complex128),
                   np.full(samples, z[1], dtype=np.complex128),
                   streams, dist, master, V1=V1, V2=V2, part=np.zeros(samples))
    acc = np.zeros(samples)
    escaped = np.zeros(samples, dtype=bool)
    finite = isinstance(dist, FiniteDist)
    for a in range(0, n, k):
        m = min(k, n - a)
        X = np.empty((m, len(w)), dtype=np.complex128)
        Y = np.empty_like(X)
        drawn = np.empty((m, len(w)), dtype=np.intp) if finite else None
        # lanes that leave keep stepping to the block's end, past overflow;
        # no window check per step, since a lane leaves the 10R bidisk first
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(m):
                dj = w.draw(a + j)
                X[j] = w.X
                Y[j] = w.Y
                if finite:
                    drawn[j] = dj
                w.X, w.Y = lanes.apply(dist, dj, w.X, w.Y)
        out = _left(X, Y, r_big)
        if np.count_nonzero(out):
            escaped[w.retire(out)] = True
            if not len(w):
                break
            Y = Y[:, ~out]
            drawn = None if drawn is None else drawn[:, ~out]
        P = _block_products(*lanes.jacobian_rows(dist, drawn, Y))
        c = w.carry
        V1, V2, part = _renormalize(P, c["V1"], c["V2"], c["part"])
        c.update(V1=V1, V2=V2, part=part)
    acc[w.lane] = w.carry["part"]
    return acc, escaped


def _repeat_at(X: np.ndarray, Y: np.ndarray, cur: Point) -> Optional[int]:
    """Index of the last recorded position (X[i], Y[i]) whose bits equal
    the state cur, or None.  Bits, not values: 0.0 and -0.0 differ, and a
    state with a NaN part matches nothing."""
    if not all(cmath.isfinite(v) for v in cur):
        return None
    (x0, x1), (y0, y1) = np.array(cur, dtype=np.complex128).view(np.int64).reshape(2, 2)
    Xb, Yb = X.view(np.int64).reshape(-1, 2), Y.view(np.int64).reshape(-1, 2)
    # column by column: all() over rows of two took five times as long
    same = (Xb[:, 0] == x0) & (Xb[:, 1] == x1) & (Yb[:, 0] == y0) & (Yb[:, 1] == y1)
    hits = np.flatnonzero(same)
    return int(hits[-1]) if hits.size else None


def _orbit_runs(dist: FiniteDist, z: Point, V1: np.ndarray, V2: np.ndarray, n: int,
                k: int, r_big: float) -> Optional[np.ndarray]:
    """Per-run log-norm sums along the one orbit of a one-map support, or
    None when that orbit leaves the 10R bidisk.

    The orbit is stepped a chunk at a time until its next state repeats,
    bit for bit, a position of the chunk just stepped: a bit-equal state has
    a bit-equal future under :func:`core.image`, so from the last such
    position on the orbit is periodic, and later chunks are gathered from
    that one period without stepping.  The start itself is never matched,
    since it may be given as real numbers, whose arithmetic need not match
    a complex state's in the sign of a zero."""
    f = dist.maps[0]
    part = np.zeros(V1.size)
    chunk = k * max(1, lanes._BLOCK_CELLS // k)
    cur = z
    tile = None  # once the orbit repeats: (its first periodic step, one period of X, of Y)
    for a in range(0, n, chunk):
        m = min(chunk, n - a)
        if tile is None:
            X = np.empty(m, dtype=np.complex128)
            Y = np.empty_like(X)
            for j in range(m):
                X[j], Y[j] = cur
                cur = image(f, cur)
            lo = int(a == 0)
            i = _repeat_at(X[lo:], Y[lo:], cur)
            if i is not None:
                tile = (a + lo + i, X[lo + i:], Y[lo + i:])
        else:
            t0, PX, PY = tile
            at = (np.arange(a, a + m) - t0) % PX.size
            X, Y = PX[at], PY[at]
        if _left(X, Y, r_big):
            return None
        c, d = lanes.jacobian_rows(dist, None, Y)
        full = m - m % k
        Ps = list(_block_products(c[:full].reshape(-1, k).T, d[:full].reshape(-1, k).T).T)
        if full < m:
            Ps.append(_block_products(c[full:, None], d[full:, None])[:, 0])
        for P in Ps:
            V1, V2, part = _renormalize(P, V1, V2, part)
    return part


def _batch_runs(
    dist: MapDistribution,
    z: Point,
    samples: int,
    n: int,
    seed: SequenceSeed,
    r_big: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-run (value, escaped) arrays in stream order; an escaped run's
    value is left at 0."""
    streams = rng.stream_table(seed.stream_id, samples)
    V1 = np.empty(samples, dtype=np.complex128)
    V2 = np.empty(samples, dtype=np.complex128)
    for i in range(samples):
        V1[i], V2[i] = _start_vector(int(streams[i]))
    k = _renorm_steps(dist, r_big)
    if isinstance(dist, FiniteDist) and len(dist.maps) == 1:
        part = _orbit_runs(dist, z, V1, V2, n, k, r_big)
        if part is None:
            return np.zeros(samples), np.ones(samples, dtype=bool)
        return part / n, np.zeros(samples, dtype=bool)
    acc, escaped = _walk_runs(dist, z, streams, seed.master_seed, V1, V2, n, k, r_big)
    return acc / n, escaped


def lyapunov_statistics(
    dist: MapDistribution,
    z: Point,
    samples: int,
    n: int,
    seed: SequenceSeed,
    params: Optional[FiltrationParams] = None,
) -> LyapunovReport:
    """Exponent statistics over independent random sequences.

    Parameters
    ----------
    dist : MapDistribution
    z : starting point, shared by all runs
    samples : number of independent sequences, >= 10
    n : steps per run, >= 100
    seed : SequenceSeed
        Run k uses the stream derived from (seed.stream_id, k), so reports
        are reproducible and independent of batching.

    Raises
    ------
    AllEscaped
        When every run left the chart; the attached report has
        escaped_fraction 1 and a NaN exponent.
    """
    if samples < 10:
        raise ValueError("need at least 10 samples")
    if n < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps")
    if params is None:
        params = condition_a_params(dist)
    vals, escaped = _batch_runs(dist, z, samples, n, seed, ESCAPE_FACTOR * params.R)
    kept = vals[~escaped]  # stream order is array order: deterministic sum
    frac = float(escaped.mean())
    if kept.size == 0:
        raise AllEscaped(LyapunovReport(math.nan, n, samples, 0.0, 1.0, ()))
    mean = float(kept.mean())
    if kept.size >= 2:
        ci = 1.96 * float(kept.std(ddof=1)) / math.sqrt(kept.size)
    else:
        ci = math.inf
    return LyapunovReport(mean, n, samples, ci, frac, tuple(float(v) for v in kept))


def backward_lyapunov_statistics(
    dist: MapDistribution,
    z: Point,
    samples: int,
    n: int,
    seed: SequenceSeed,
    params: Optional[FiltrationParams] = None,
) -> LyapunovReport:
    """Backward exponents: the same computation on the inverse distribution
    at the swapped point (exact conjugation, FINITE only)."""
    return lyapunov_statistics(inverse_distribution(dist), swap(z), samples, n, seed, params)
