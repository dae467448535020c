"""Maximal Lyapunov exponents along random orbits.

Vector iteration with per-step renormalization: v_{k+1} = J_k v_k / |J_k v_k|
with the log norms accumulated.  Exponents are chart quantities; orbits that
leave the 10R bidisk are reported as escaped rather than forced to a number,
since the affine chart cannot represent the attractor at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import lanes, rng
from .core import FiltrationParams, Point, swap
from .dist import MapDistribution, SequenceSeed, condition_a_params, inverse_distribution
from .escape import SourceLike, as_source

ESCAPE_FACTOR = 10.0
_TAG_ANGLE = 0x414E474C
MIN_STEPS = 100


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
        if max(abs(x), abs(y)) > r_big:
            return None
        f = src[k]
        w = (v[1], -f.delta * v[0] + f.poly.deriv(y) * v[1])
        nw = math.hypot(abs(w[0]), abs(w[1]))
        if nw < 1e-300:
            raise DegenerateVector("tangent vector norm underflow")
        acc += math.log(nw)
        v = (w[0] / nw, w[1] / nw)
        cur = (y + f.alpha, f.poly(y) - f.delta * x)
    return acc / n


def _batch_runs(
    dist: MapDistribution,
    z: Point,
    samples: int,
    n: int,
    seed: SequenceSeed,
    r_big: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-run (value, escaped) arrays in stream order, batched over lanes."""
    streams = np.array(
        [rng.derive_stream(seed.stream_id, k) for k in range(samples)], dtype=np.uint64
    )
    X = np.full(samples, z[0], dtype=np.complex128)
    Y = np.full(samples, z[1], dtype=np.complex128)
    V1 = np.empty(samples, dtype=np.complex128)
    V2 = np.empty(samples, dtype=np.complex128)
    for k in range(samples):
        v1, v2 = _start_vector(int(streams[k]))
        V1[k] = v1
        V2[k] = v2
    acc = np.zeros(samples)
    escaped = np.zeros(samples, dtype=bool)
    # active lanes stay compacted; idx maps them back to stream order
    idx = np.arange(samples)
    x, y, v1, v2 = X, Y, V1, V2
    part = np.zeros(samples)
    for step in range(n):
        out = np.maximum(np.abs(x), np.abs(y)) > r_big
        if out.any():
            escaped[idx[out]] = True
            acc[idx[out]] = part[out]
            keep = ~out
            idx = idx[keep]
            x, y, v1, v2, part = x[keep], y[keep], v1[keep], v2[keep], part[keep]
            if idx.size == 0:
                break
        nx, ny, w1, w2 = lanes.step(dist, seed.master_seed, streams[idx], step, x, y, (v1, v2))
        nw = np.hypot(np.abs(w1), np.abs(w2))
        if (nw < 1e-300).any():
            raise DegenerateVector("tangent vector norm underflow")
        part += np.log(nw)
        v1 = w1 / nw
        v2 = w2 / nw
        x = nx
        y = ny
    acc[idx] = part
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
