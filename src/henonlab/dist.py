"""Driving distributions over the generator class.

Two kinds are supported:

* finite support: explicit maps with positive weights summing to one,
  sampled by inverse CDF;
* noise ball: a base map whose translation part alpha and constant
  polynomial coefficient are perturbed by a uniform draw from the radius-r
  ball in C^2 (rejection from the enclosing 4-cube).  delta and the degree
  stay fixed, so the whole support shares one filtration certificate.

All sampling is addressed through the counter-based words in :mod:`rng`;
the map at position ``index`` of a sequence never depends on how many maps
were drawn before it.  A ball draw, scalar or vector, hashes each cell's
(master, stream, index) prefix once and then one word per coordinate; the
vector draw hashes its attempts in blocks, and each lane takes the first
accepted attempt, so the block size never changes bits.  Both stop after
the same number of attempts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from . import rng
from .core import FiltrationParams, HenonMap, condition_a_radius, inverse_as_plus, map_table

_MAX_BALL_ATTEMPTS = 256

# stream-id tags for internal sampling purposes
TAG_SUPPORT = 0x53555050


@dataclass(frozen=True)
class SequenceSeed:
    """Master seed plus stream id addressing one i.i.d. map sequence."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= int(v) < 1 << 64):
                raise ValueError(f"{name} must fit in 64 bits, got {v}")

    def derive(self, *tags: int) -> "SequenceSeed":
        """Sub-seed on the stream derived from (stream_id, *tags)."""
        return SequenceSeed(self.master_seed, rng.derive_stream(self.stream_id, *tags))


@dataclass(frozen=True)
class FiniteDist:
    maps: Tuple[HenonMap, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        weights = tuple(float(w) for w in self.weights)
        if not maps:
            raise ValueError("finite distribution needs at least one map")
        if len(maps) != len(weights):
            raise ValueError("maps and weights must have equal length")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        weights = tuple(w / total for w in weights)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "weights", weights)
        cum = np.cumsum(np.asarray(weights, dtype=np.float64))
        cum[-1] = 1.0  # guard the last bin against rounding
        object.__setattr__(self, "_cum", cum)
        # the lane step gathers each lane's map from it (lanes.apply)
        object.__setattr__(self, "_table", map_table(maps))


@dataclass(frozen=True)
class BallNoise:
    base: HenonMap
    radius: float

    def __post_init__(self) -> None:
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")


MapDistribution = Union[FiniteDist, BallNoise]


@dataclass(frozen=True)
class NoiseFamily:
    """One-parameter ball-noise family with radius u*t + (1-t)*v, t in [0,1]."""

    base: HenonMap
    v: float
    u: float

    def __post_init__(self) -> None:
        if not (0 < self.v < self.u):
            raise ValueError("need 0 < v < u")


def family_at(fam: NoiseFamily, t: float) -> BallNoise:
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return BallNoise(base=fam.base, radius=fam.u * t + (1.0 - t) * fam.v)


def _perturbed(base: HenonMap, a: complex, b: complex) -> HenonMap:
    poly = base.poly.with_constant(base.poly.coeffs[-1] + b)
    return HenonMap(alpha=base.alpha + a, delta=base.delta, poly=poly)


def _ball_draw(radius: float, master: int, stream: int, index: int) -> Tuple[complex, complex]:
    r2 = radius * radius
    prefix = rng._prefix(master, stream, index)
    for attempt in range(_MAX_BALL_ATTEMPTS):
        c = [
            (2.0 * ((rng.mix64(prefix ^ w) >> 11) * rng._U53) - 1.0) * radius
            for w in range(4 * attempt, 4 * attempt + 4)
        ]
        if c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3] <= r2:
            return complex(c[0], c[1]), complex(c[2], c[3])
    raise RuntimeError("ball rejection failed to terminate")


def sample_map(dist: MapDistribution, seed: SequenceSeed, index: int) -> HenonMap:
    """Map at position ``index`` of the sequence addressed by ``seed``; a
    one-map support hashes nothing."""
    if isinstance(dist, FiniteDist):
        if len(dist.maps) == 1:
            return dist.maps[0]
        u = rng.uniform01(seed.master_seed, seed.stream_id, index)
        j = int(np.searchsorted(dist._cum, u, side="right"))  # type: ignore[attr-defined]
        return dist.maps[min(j, len(dist.maps) - 1)]
    a, b = _ball_draw(dist.radius, seed.master_seed, seed.stream_id, index)
    return _perturbed(dist.base, a, b)


def sample_sequence(dist: MapDistribution, seed: SequenceSeed, n: int) -> List[HenonMap]:
    return [sample_map(dist, seed, i) for i in range(n)]


def inverse_distribution(dist: MapDistribution) -> FiniteDist:
    """Distribution of the swap-conjugated inverses; finite support only."""
    if not isinstance(dist, FiniteDist):
        raise ValueError(
            "unsupported kind: noise-ball distributions have no closed-form inverse; "
            "finite support required"
        )
    return FiniteDist(
        maps=tuple(inverse_as_plus(f) for f in dist.maps),
        weights=dist.weights,
    )


def support_sample(dist: MapDistribution, seed: SequenceSeed, k: int = 64) -> List[HenonMap]:
    """Deterministic stand-in for the support: the maps themselves when
    finite, otherwise k ball samples drawn on a dedicated stream: maps
    0 .. k - 1 of its sequence, in one vector draw."""
    if isinstance(dist, FiniteDist):
        return list(dist.maps)
    sub = seed.derive(TAG_SUPPORT)
    a, b = ball_offsets_array(dist, sub.master_seed, np.uint64(sub.stream_id),
                              np.arange(k, dtype=np.uint64))
    return [_perturbed(dist.base, x, y) for x, y in zip(a.tolist(), b.tolist())]


def condition_a_params(dist: MapDistribution, rho_margin: float = 1.0) -> FiltrationParams:
    """Filtration certificate covering the whole support.

    For a noise ball the closed form is evaluated on the base map with
    |alpha| and the constant coefficient inflated by the radius, which
    dominates every map in the support.
    """
    if isinstance(dist, FiniteDist):
        return condition_a_radius(dist.maps, rho_margin)
    return condition_a_radius(
        [dist.base], rho_margin, alpha_pad=dist.radius, const_pad=dist.radius
    )


# ---------------------------------------------------------------------------
# vectorised per-step draws for walker kernels

def finite_choices_array(
    dist: FiniteDist, master: int, streams: np.ndarray, index
) -> np.ndarray:
    """Per-walker support indices for step ``index``; matches sample_map.
    ``index`` may be an array that broadcasts with ``streams``: one call then
    draws every (stream, index) cell of the broadcast shape."""
    u = rng.uniform01_array(master, streams, index)
    cum = dist._cum  # type: ignore[attr-defined]
    j = np.searchsorted(cum, u, side="right")
    return np.minimum(j, len(dist.maps) - 1)


def _block_attempts(pending: int) -> int:
    """Rejection attempts drawn per pending cell in one pass.  A pass over
    few cells costs mostly its fixed numpy overhead, so up to 16 attempts
    (about 1 in 360 cells needs more) are nearly free; over many cells the
    pass is bounded to 2**13 words, which keeps its arrays, and peak memory,
    small, and hashes fewer attempts that follow an accepted one: on the
    traced 10,000-walker census of the quad-volume preset, 429k cells take
    6.93M words, an accept ratio of 0.248 cells per 4-word attempt (at best
    pi**2 / 32 = 0.308), where a 2**14-word bound took 8.16M words
    (0.210)."""
    return min(16, max(1, (1 << 13) // (4 * pending)))


def ball_offsets_array(
    dist: BallNoise, master: int, streams: np.ndarray, index
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-walker (alpha, constant-coefficient) offsets for step ``index``.

    Bitwise identical to looping sample_map over the same streams.  ``index``
    may be an array that broadcasts with ``streams``: one call then draws every
    (stream, index) cell of the broadcast shape, and the rejection below runs
    over cells as it runs over lanes.  Each cell's (master, stream, index)
    prefix is hashed once per call and compacted with the cell.  Each
    rejection pass hashes a block of k attempts (4 words each) of every
    pending cell into one (4k, cells) buffer, mixed and scaled in place, and
    a cell takes the first accepted attempt of its block: the attempt the
    scalar draw accepts, with the same float operations, so k never changes
    bits.  Cells with none accepted go on to the next block.  Best of five
    processes per call (2-core x86 box, numpy 2.4): 1.10 ms over 4,096
    cells, 1.07 ms over 128 x 32, 0.22 ms over 16 x 32 and 0.11 ms over
    4 x 32; re-hashing every pending prefix each pass, with a temporary per
    mixing step, took 1.36, 1.50, 0.30 and 0.13 ms.
    """
    radius = dist.radius
    r2 = radius * radius
    prefix = rng.prefix_array(master, streams, index)
    shape = np.shape(prefix)
    prefix = prefix.ravel()
    n = prefix.size
    a = np.empty(n, dtype=np.complex128)
    b = np.empty(n, dtype=np.complex128)
    coords = (a.real, a.imag, b.real, b.imag)
    pending = np.arange(n)
    first = 0  # every pending cell has rejected attempts 0 .. first - 1
    while pending.size:
        if first == _MAX_BALL_ATTEMPTS:
            raise RuntimeError("ball rejection failed to terminate")
        k = min(_block_attempts(pending.size), _MAX_BALL_ATTEMPTS - first)
        words = np.arange(4 * first, 4 * (first + k), dtype=np.uint64)
        # row 4j + w holds word w of attempt first + j, cells along the row
        c = rng.uniform01_array(master, None, None, words[:, None], prefix=prefix[None, :])
        c *= 2.0
        c -= 1.0
        c *= radius
        c = c.reshape(k, 4, -1)
        sq = c * c
        ok = sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3] <= r2
        hit = ok.any(axis=0)
        cols = np.flatnonzero(hit)
        rows = ok[:, cols].argmax(axis=0)
        acc = pending[cols]
        for w, part in enumerate(coords):
            part[acc] = c[rows, w, cols]
        miss = ~hit
        pending = pending[miss]
        prefix = prefix[miss]
        first += k
    return a.reshape(shape), b.reshape(shape)
