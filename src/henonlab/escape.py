"""Escape-time classification and nonautonomous Green's functions.

Forward orbits are classified against the cone filtration certified by
:func:`henonlab.core.condition_a_radius`: once an iterate enters the
vertical cone it never returns, and its |y| log-magnitude obeys an exact
recursion that this module tracks in (log, phase) coordinates, so Green
values are available far beyond the overflow range of complex doubles.

The rescaled escape-rate limit is estimated with a certified truncation
error: successive normalized stages differ by at most C_tel / deg(n), with
C_tel a closed-form constant of the support, so the tail after n steps is
bounded by C_tel * 2^(1-n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.spatial import cKDTree

from . import lanes, rng
from .core import (
    FiltrationParams,
    HenonMap,
    NumericOverflow,
    Point,
    Region,
    classify_region,
    eval_map,
    in_v_plus,
    inverse_as_plus,
    log_abs,
    phase,
)
from .dist import (
    BallNoise,
    FiniteDist,
    MapDistribution,
    SequenceSeed,
    inverse_distribution,
    sample_map,
)

SQRT2 = math.sqrt(2.0)

VERDICT_BOUNDED = 0
VERDICT_ESCAPED = 1
VERDICT_UNCERTAIN = 2


class Dir(Enum):
    PLUS = "plus"
    MINUS = "minus"


class OrbitStatus(Enum):
    ESCAPED = "escaped"
    BOUNDED = "bounded"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True)
class OrbitVerdict:
    status: OrbitStatus
    step: Optional[int]  # first cone entry, ESCAPED only
    direction: Optional[Dir]
    iterations: int
    last_point: Point


@dataclass(frozen=True)
class GreenEstimate:
    value: float
    n_used: int
    error_bound: float

    def __post_init__(self) -> None:
        if not (self.value >= 0.0):
            raise ValueError("Green value must be nonnegative")


class GreenIndeterminate(RuntimeError):
    """Orbit neither escaped nor certified bounded within the cap.

    Carries the running normalized stage as ``partial`` (no certificate)."""

    def __init__(self, message: str, partial: GreenEstimate):
        super().__init__(message)
        self.partial = partial


# ---------------------------------------------------------------------------
# map sequence sources


class MapSource:
    """Indexable sequence of maps; index i is the map applied at step i."""

    def __getitem__(self, i: int) -> HenonMap:  # pragma: no cover - interface
        raise NotImplementedError

    def conjugate_inverse(self) -> "MapSource":  # pragma: no cover - interface
        raise NotImplementedError

    def c_tel(self, params: FiltrationParams) -> float:
        """Telescoping constant bounding every map this source can return."""
        raise ValueError("c_tel required for custom sources")


class ConstSource(MapSource):
    def __init__(self, f: HenonMap):
        self.map = f

    def __getitem__(self, i: int) -> HenonMap:
        return self.map

    def conjugate_inverse(self) -> "ConstSource":
        return ConstSource(inverse_as_plus(self.map))

    def c_tel(self, params: FiltrationParams) -> float:
        return telescoping_constant(self.map, params)


class ListSource(MapSource):
    def __init__(self, maps: Sequence[HenonMap]):
        self.maps = tuple(maps)

    def __getitem__(self, i: int) -> HenonMap:
        if i >= len(self.maps):
            raise ValueError(f"map sequence exhausted at index {i}")
        return self.maps[i]

    def conjugate_inverse(self) -> "ListSource":
        return ListSource([inverse_as_plus(f) for f in self.maps])

    def c_tel(self, params: FiltrationParams) -> float:
        return telescoping_constant(self.maps, params)


class DistSource(MapSource):
    """Lazy i.i.d. sequence; the map at index i is a pure function of
    (dist, seed, i), cached for reuse."""

    def __init__(self, dist: MapDistribution, seed: SequenceSeed):
        self.dist = dist
        self.seed = seed
        self._cache: dict = {}

    def __getitem__(self, i: int) -> HenonMap:
        f = self._cache.get(i)
        if f is None:
            f = sample_map(self.dist, self.seed, i)
            self._cache[i] = f
        return f

    def conjugate_inverse(self) -> "DistSource":
        return DistSource(inverse_distribution(self.dist), self.seed)

    def c_tel(self, params: FiltrationParams) -> float:
        return telescoping_constant(self.dist, params)


class ShiftedSource(MapSource):
    def __init__(self, src: MapSource, k: int):
        self.src = src
        self.k = k

    def __getitem__(self, i: int) -> HenonMap:
        return self.src[i + self.k]

    def conjugate_inverse(self) -> "ShiftedSource":
        return ShiftedSource(self.src.conjugate_inverse(), self.k)

    def c_tel(self, params: FiltrationParams) -> float:
        return self.src.c_tel(params)


class SpliceSource(MapSource):
    """head[0:cut] followed by tail[cut:]; for sequence-continuity probes."""

    def __init__(self, head: MapSource, tail: MapSource, cut: int):
        self.head = head
        self.tail = tail
        self.cut = cut

    def __getitem__(self, i: int) -> HenonMap:
        return self.head[i] if i < self.cut else self.tail[i]

    def conjugate_inverse(self) -> "SpliceSource":
        return SpliceSource(self.head.conjugate_inverse(), self.tail.conjugate_inverse(), self.cut)

    def c_tel(self, params: FiltrationParams) -> float:
        # max of per-part constants bounds the combined support
        return max(self.head.c_tel(params), self.tail.c_tel(params))


SourceLike = Union[MapSource, HenonMap, Sequence[HenonMap], Tuple[MapDistribution, SequenceSeed]]


def as_source(obj: SourceLike) -> MapSource:
    if isinstance(obj, MapSource):
        return obj
    if isinstance(obj, HenonMap):
        return ConstSource(obj)
    if isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[1], SequenceSeed):
        return DistSource(obj[0], obj[1])
    return ListSource(list(obj))


def shift_source(src: SourceLike, k: int = 1) -> MapSource:
    return ShiftedSource(as_source(src), k)


# ---------------------------------------------------------------------------
# orbit classification


def classify_orbit(
    source: SourceLike,
    z: Point,
    params: FiltrationParams,
    max_iter: int,
    direction: Dir = Dir.PLUS,
) -> OrbitVerdict:
    """Forward-orbit verdict against the cone filtration.

    ESCAPED at the first iterate inside the vertical cone (step 0 allowed);
    BOUNDED when no iterate up to the cap entered the cone and the final
    iterate lies in the central bidisk; UNCERTAIN otherwise.  Refining the
    cap only resolves UNCERTAIN verdicts, it never turns an ESCAPED verdict
    into anything else.
    """
    src = as_source(source)
    R = params.R
    cur = z
    for n in range(max_iter + 1):
        if in_v_plus(cur, R):
            return OrbitVerdict(OrbitStatus.ESCAPED, n, direction, n, cur)
        if n == max_iter:
            break
        try:
            cur = eval_map(src[n], cur)
        except NumericOverflow:
            return OrbitVerdict(OrbitStatus.UNCERTAIN, None, None, n + 1, cur)
    if classify_region(cur, R) == Region.D_R:
        return OrbitVerdict(OrbitStatus.BOUNDED, None, None, max_iter, cur)
    return OrbitVerdict(OrbitStatus.UNCERTAIN, None, None, max_iter, cur)


# ---------------------------------------------------------------------------
# telescoping constant


def _support_bounds(dist_or_maps, params: FiltrationParams) -> List[Tuple[float, float, int]]:
    """Per-map (|c0|, relative slack s, degree) valid on the closed cone."""
    R = params.R
    if isinstance(dist_or_maps, FiniteDist):
        items = [(f, 0.0) for f in dist_or_maps.maps]
    elif isinstance(dist_or_maps, BallNoise):
        items = [(dist_or_maps.base, dist_or_maps.radius)]
    elif isinstance(dist_or_maps, HenonMap):
        items = [(dist_or_maps, 0.0)]
    else:
        items = [(f, 0.0) for f in dist_or_maps]
    out = []
    for f, pad in items:
        c0 = abs(f.poly.coeffs[0])
        d = f.degree
        s = 0.0
        for j, c in enumerate(f.poly.coeffs[1:], start=1):
            mag = abs(c) + (pad if j == d else 0.0)
            s += mag / (c0 * R**j)
        s += abs(f.delta) / (c0 * R ** (d - 1))
        if s >= 1.0:
            raise ValueError("filtration radius too small for coefficient bounds")
        out.append((c0, s, d))
    return out


def telescoping_constant(dist_or_maps, params: FiltrationParams) -> float:
    """C_tel with stage gaps bounded by C_tel * 2^-(n - entry) after entry.

    a1 |y|^d <= |second coordinate of the image| <= a2 |y|^d holds on the
    closed vertical cone for every supported map, and the Euclidean norm is
    within a factor sqrt 2 of |y| there.  The raw log ratio of consecutive
    stage norms is therefore within max(log a2 + L, d L - log a1) with
    L = log sqrt 2 (both distortion factors enter with the degree weight on
    the lower side); normalizing by the composition degree >= 2^(n+1) leaves
    half of that per doubling step.
    """
    out = 0.0
    L = math.log(SQRT2)
    for c0, s, d in _support_bounds(dist_or_maps, params):
        a1, a2 = c0 * (1.0 - s), c0 * (1.0 + s)
        out = max(out, math.log(a2) + L, d * L - math.log(a1))
    return out / 2.0


def refine_steps(c_tel: float, tol: float) -> int:
    """Smallest n with c_tel * 2^(1-n) <= tol."""
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if c_tel <= 0:
        return 0
    return max(0, math.ceil(1.0 + math.log2(c_tel / tol)))


# ---------------------------------------------------------------------------
# Green's functions (scalar path)


class _LogState:
    """Iterate coordinates as (log magnitude, unit phase) pairs."""

    __slots__ = ("lx", "px", "ly", "py")

    def __init__(self, z: Point):
        x, y = z
        self.lx = log_abs(x)
        self.px = phase(x)
        self.ly = log_abs(y)
        self.py = phase(y)

    def advance(self, f: HenonMap) -> Tuple[float, float]:
        """Apply f; returns (log|c0| + log|q|, d) of the y-recursion."""
        c0 = f.poly.coeffs[0]
        d = f.degree
        u = (1.0 / self.py) * (math.exp(-self.ly) if self.ly < 700.0 else 0.0)
        corr = 0j
        upow = 1 + 0j
        for c in f.poly.coeffs[1:]:
            upow *= u
            corr += (c / c0) * upow
        ediff = self.lx - d * self.ly
        if math.isfinite(ediff) and ediff > -700.0:
            corr -= (f.delta / c0) * (self.px / self.py**d) * math.exp(ediff)
        q = 1.0 + corr
        inc = math.log(abs(c0)) + math.log(abs(q))
        t = c0 * (self.py**d) * q
        w = 1.0 + f.alpha * u
        lx_new = self.ly + math.log(abs(w))
        px_new = self.py * w
        self.lx = lx_new
        self.px = px_new / abs(px_new)
        self.ly = d * self.ly + inc if math.isfinite(self.ly) else math.inf
        self.py = t / abs(t)
        return inc, d

    def norm_excess(self) -> float:
        """log(norm / |y|), in [0, log sqrt 2] on the vertical cone."""
        diff = self.lx - self.ly
        if not math.isfinite(diff) or diff < -300.0:
            return 0.0
        return 0.5 * math.log1p(math.exp(2.0 * diff))


_TINY = 5e-324  # escaped orbits report a positive value even after underflow


def _green_engine(
    src: MapSource,
    z: Point,
    params: FiltrationParams,
    c_tel: float,
    tol: Optional[float],
    max_iter: int,
    n_total: Optional[int],
    collect: bool,
):
    """Shared scalar driver; refines to error <= tol or to stage n_total."""
    R = params.R
    stages: List[float] = [] if collect else None  # type: ignore[assignment]
    cur = z
    D = 1.0
    n = 0
    entry = None
    while n <= max_iter:
        if in_v_plus(cur, R):
            entry = n
            break
        if collect:
            nv = math.hypot(abs(cur[0]), abs(cur[1]))
            stages.append(max(math.log(nv), 0.0) / D if nv > 0 else 0.0)
        if n == max_iter:
            break
        try:
            cur = eval_map(src[n], cur)
        except NumericOverflow:
            part = GreenEstimate(max(math.log(max(abs(cur[0]), abs(cur[1]))), 0.0) / D, n, math.inf)
            raise GreenIndeterminate("orbit left the exact window undecided", part)
        D *= src[n].degree
        n += 1
    if entry is None:
        if classify_region(cur, R) == Region.D_R:
            return OrbitStatus.BOUNDED, 0.0, max_iter, 0.0, None, stages
        nv = math.hypot(abs(cur[0]), abs(cur[1]))
        part = GreenEstimate(max(math.log(nv), 0.0) / D if nv > 0 else 0.0, n, math.inf)
        raise GreenIndeterminate("orbit undecided at iteration cap", part)

    state = _LogState(cur)
    g = (state.ly / D) if math.isfinite(D) else 0.0
    stop = n_total if n_total is not None else max(entry, refine_steps(c_tel, tol))
    while True:
        if collect:
            stages.append(g + (state.norm_excess() / D if math.isfinite(D) else 0.0))
        if n >= stop:
            break
        inc, d = state.advance(src[n])
        D *= d
        g += inc / D if math.isfinite(D) else 0.0
        n += 1
    value = g + (state.norm_excess() / D if math.isfinite(D) else 0.0)
    value = max(value, _TINY)
    bound = c_tel * 2.0 ** (1 - n) if n < 1074 else 0.0
    return OrbitStatus.ESCAPED, value, n, bound, entry, stages


def green_plus(
    source: SourceLike,
    z: Point,
    params: FiltrationParams,
    tol: float = 1e-6,
    max_iter: int = 1000,
    c_tel: Optional[float] = None,
) -> GreenEstimate:
    """Normalized escape rate of the forward orbit of z.

    Parameters
    ----------
    source : maps, (dist, seed) pair or MapSource
        The sequence; for (dist, seed) the certified constant is derived
        from the distribution support.
    z : point
    params : FiltrationParams
        Certificate radii for the whole support of the sequence.
    tol : float
        Truncation target; the returned error_bound is <= tol for escaped
        orbits.  Bounded orbits return value 0 with error_bound 0.

    Raises
    ------
    GreenIndeterminate
        When the orbit is undecided at the cap; carries a partial estimate.
    """
    src = as_source(source)
    if c_tel is None:
        c_tel = src.c_tel(params)
    status, value, n, bound, _, _ = _green_engine(src, z, params, c_tel, tol, max_iter, None, False)
    if status == OrbitStatus.BOUNDED:
        return GreenEstimate(0.0, n, 0.0)
    return GreenEstimate(value, n, bound)


def green_stages(
    source: SourceLike,
    z: Point,
    params: FiltrationParams,
    n_total: int,
    c_tel: Optional[float] = None,
) -> Tuple[List[float], Optional[int]]:
    """Stage values (normalized log norms) for n = 0..n_total plus the cone
    entry step; for telescoping diagnostics."""
    src = as_source(source)
    if c_tel is None:
        c_tel = src.c_tel(params)
    status, _, _, _, entry, stages = _green_engine(
        src, z, params, c_tel, None, n_total, n_total, True
    )
    if status == OrbitStatus.BOUNDED:
        return stages, None
    return stages, entry


def green_minus(
    source: SourceLike,
    z: Point,
    params: FiltrationParams,
    tol: float = 1e-6,
    max_iter: int = 1000,
    c_tel: Optional[float] = None,
) -> GreenEstimate:
    """Backward escape rate, computed as green_plus of the swap-conjugated
    inverse sequence at the swapped point."""
    src = as_source(source).conjugate_inverse()
    if c_tel is None:
        c_tel = src.c_tel(params)
    return green_plus(src, (z[1], z[0]), params, tol=tol, max_iter=max_iter, c_tel=c_tel)


# ---------------------------------------------------------------------------
# raster slices


@dataclass(frozen=True)
class SliceSpec:
    """Affine 2-real-parameter slice of C^2, rastered at pixel centers.

    Pixel (row j, col i) sits at anchor + s_i*dir1 + t_j*dir2 with s, t
    running over [-extent, extent]; dir1/dir2 must be unit and linearly
    independent.
    """

    anchor: Point
    dir1: Point
    dir2: Point
    extent: float
    resolution: int

    def __post_init__(self) -> None:
        if not (self.extent > 0 and math.isfinite(self.extent)):
            raise ValueError("extent must be positive")
        if not (2 <= self.resolution <= 8192):
            raise ValueError("resolution out of range")
        for name in ("dir1", "dir2"):
            v = getattr(self, name)
            nv = math.hypot(abs(v[0]), abs(v[1]))
            if abs(nv - 1.0) > 1e-9:
                raise ValueError(f"{name} must be unit norm")
        inner = self.dir1[0] * self.dir2[0].conjugate() + self.dir1[1] * self.dir2[1].conjugate()
        if abs(inner) > 1.0 - 1e-9:
            raise ValueError("dir1 and dir2 must be linearly independent")

    @property
    def pixel_pitch(self) -> float:
        return 2.0 * self.extent / self.resolution

    def grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Complex coordinate arrays (X, Y), shape (resolution, resolution)."""
        res = self.resolution
        ticks = -self.extent + (np.arange(res) + 0.5) * self.pixel_pitch
        S, T = np.meshgrid(ticks, ticks)  # S varies along columns, T along rows
        X = self.anchor[0] + S * self.dir1[0] + T * self.dir2[0]
        Y = self.anchor[1] + S * self.dir1[1] + T * self.dir2[1]
        return X.astype(np.complex128), Y.astype(np.complex128)


@dataclass
class SliceRaster:
    spec: SliceSpec
    params: FiltrationParams
    max_iter: int
    tol: float
    c_tel: float
    verdict: np.ndarray
    step: np.ndarray
    green: np.ndarray
    error: np.ndarray


def _norm_excess_arr(lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    diff = lx - ly
    safe = np.isfinite(diff) & (diff > -300.0)
    ex = np.exp(2.0 * np.where(safe, diff, -np.inf))
    return np.where(safe, 0.5 * np.log1p(ex), 0.0)


def _stage_bound(c_tel: float, n: int) -> float:
    return c_tel * 2.0 ** (1 - n) if n < 1074 else 0.0


def _raster_block(
    maps: List[HenonMap],
    X: np.ndarray,
    Y: np.ndarray,
    R: float,
    max_iter: int,
    n_refine: int,
    c_tel: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    shape = X.shape
    X = X.ravel().copy()
    Y = Y.ravel().copy()
    npix = X.size
    verdict = np.full(npix, -1, dtype=np.int8)
    step = np.full(npix, max_iter, dtype=np.int32)
    green = np.zeros(npix, dtype=np.float64)
    error = np.zeros(npix, dtype=np.float64)

    alive = np.arange(npix)
    # refining pool: cone entries before n_refine, advanced until the shared
    # truncation bound reaches tol; entries at or past n_refine are final
    # immediately since the bound only depends on the global step count
    pool_idx = np.zeros(0, dtype=np.int64)
    pool_lx = np.zeros(0)
    pool_ly = np.zeros(0)
    pool_px = np.zeros(0, dtype=np.complex128)
    pool_py = np.zeros(0, dtype=np.complex128)
    pool_g = np.zeros(0)
    D = 1.0

    n_total = max(max_iter, n_refine)
    for n in range(n_total + 1):
        if alive.size and n <= max_iter:
            ax = np.abs(X[alive])
            ay = np.abs(Y[alive])
            esc = ay > np.maximum(R, ax)
            if esc.any():
                new = alive[esc]
                verdict[new] = VERDICT_ESCAPED
                step[new] = n
                xs = X[new]
                ys = Y[new]
                with np.errstate(divide="ignore"):
                    lx = np.log(np.abs(xs))
                ly = np.log(np.abs(ys))
                px = np.where(xs != 0, xs, 1.0)
                px = px / np.abs(px)
                py = ys / np.abs(ys)
                g = ly / D if math.isfinite(D) else np.zeros_like(ly)
                if n >= n_refine:
                    vals = g + (_norm_excess_arr(lx, ly) / D if math.isfinite(D) else 0.0)
                    green[new] = np.maximum(vals, _TINY)
                    error[new] = _stage_bound(c_tel, n)
                else:
                    pool_idx = np.concatenate([pool_idx, new])
                    pool_lx = np.concatenate([pool_lx, lx])
                    pool_ly = np.concatenate([pool_ly, ly])
                    pool_px = np.concatenate([pool_px, px])
                    pool_py = np.concatenate([pool_py, py])
                    pool_g = np.concatenate([pool_g, g])
                alive = alive[~esc]
        if n == n_refine and pool_idx.size:
            vals = pool_g + (_norm_excess_arr(pool_lx, pool_ly) / D if math.isfinite(D) else 0.0)
            green[pool_idx] = np.maximum(vals, _TINY)
            error[pool_idx] = _stage_bound(c_tel, n)
            pool_idx = np.zeros(0, dtype=np.int64)
        if n == n_total or (alive.size == 0 and pool_idx.size == 0):
            break
        f = maps[n]
        d = f.degree
        if n < max_iter and alive.size:
            nx, ny = lanes.image(f, X[alive], Y[alive])
            bad = lanes.outside(nx, ny)
            if bad.any():
                dropped = alive[bad]
                verdict[dropped] = VERDICT_UNCERTAIN
                green[dropped] = np.nan
                error[dropped] = np.inf
                keep = ~bad
                alive = alive[keep]
                nx = nx[keep]
                ny = ny[keep]
            X[alive] = nx
            Y[alive] = ny
        if pool_idx.size:
            c0 = f.poly.coeffs[0]
            u = (1.0 / pool_py) * np.where(pool_ly < 700.0, np.exp(-np.minimum(pool_ly, 700.0)), 0.0)
            corr = np.zeros_like(u)
            upow = np.ones_like(u)
            for c in f.poly.coeffs[1:]:
                upow = upow * u
                corr = corr + (c / c0) * upow
            ediff = pool_lx - d * pool_ly
            mask = np.isfinite(ediff) & (ediff > -700.0)
            if mask.any():
                term = np.zeros_like(corr)
                term[mask] = (f.delta / c0) * (pool_px[mask] / pool_py[mask] ** d) * np.exp(ediff[mask])
                corr = corr - term
            q = 1.0 + corr
            inc = math.log(abs(c0)) + np.log(np.abs(q))
            t = c0 * (pool_py**d) * q
            w = 1.0 + f.alpha * u
            new_px = pool_py * w
            pool_lx = pool_ly + np.log(np.abs(w))
            pool_px = new_px / np.abs(new_px)
            pool_ly = np.where(np.isfinite(pool_ly), d * pool_ly + inc, np.inf)
            pool_py = t / np.abs(t)
            D_next = D * d
            pool_g = pool_g + (inc / D_next if math.isfinite(D_next) else 0.0)
            D = D_next
        else:
            D *= d

    if alive.size:
        inside = np.maximum(np.abs(X[alive]), np.abs(Y[alive])) < R
        bnd = alive[inside]
        unc = alive[~inside]
        verdict[bnd] = VERDICT_BOUNDED
        verdict[unc] = VERDICT_UNCERTAIN
        green[unc] = np.nan
        error[unc] = np.inf
    verdict[verdict == -1] = VERDICT_UNCERTAIN
    return (
        verdict.reshape(shape),
        step.reshape(shape),
        green.reshape(shape),
        error.reshape(shape),
    )


def raster_slice(
    source: SourceLike,
    spec: SliceSpec,
    params: FiltrationParams,
    max_iter: int = 500,
    tol: float = 1e-6,
    threads: int = 1,
) -> SliceRaster:
    """Classify and evaluate the escape rate on a pixel grid.

    One shared map sequence drives every pixel.  Rows are processed in
    independent blocks, so the result is identical for any thread count.
    """
    src = as_source(source)
    c_tel = src.c_tel(params)
    n_refine = refine_steps(c_tel, tol)
    n_total = max(max_iter, n_refine)
    maps = [src[i] for i in range(n_total)]
    X, Y = spec.grid()
    res = spec.resolution

    verdict = np.empty((res, res), dtype=np.int8)
    step = np.empty((res, res), dtype=np.int32)
    green = np.empty((res, res), dtype=np.float64)
    error = np.empty((res, res), dtype=np.float64)

    def run(a, b):
        return (a, b), _raster_block(maps, X[a:b], Y[a:b], params.R, max_iter, n_refine, c_tel)

    for (a, b), (v, s, g, e) in lanes.run_blocks(run, res, 64, threads):
        verdict[a:b] = v
        step[a:b] = s
        green[a:b] = g
        error[a:b] = e
    return SliceRaster(spec, params, max_iter, tol, c_tel, verdict, step, green, error)


# ---------------------------------------------------------------------------
# boundary extraction and pixel-set distance


def boundary_extract(raster: SliceRaster) -> np.ndarray:
    """Pixels of the bounded set adjacent (4-neighbourhood) to an escaped
    pixel; returned as (row, col) pairs in lexicographic order."""
    v = raster.verdict
    bounded = v == VERDICT_BOUNDED
    escaped = v == VERDICT_ESCAPED
    pad = np.zeros((v.shape[0] + 2, v.shape[1] + 2), dtype=bool)
    pad[1:-1, 1:-1] = escaped
    near = pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:]
    rows, cols = np.nonzero(bounded & near)
    out = np.stack([rows, cols], axis=1).astype(np.int32)
    return out[np.lexsort((out[:, 1], out[:, 0]))]


def hausdorff_pixels(a: np.ndarray, b: np.ndarray, pixel_pitch: float) -> float:
    """Symmetric Hausdorff distance between pixel-index sets, in world units."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty pixel set")
    ta = np.asarray(a, dtype=np.float64)
    tb = np.asarray(b, dtype=np.float64)
    d_ab = cKDTree(tb).query(ta, k=1)[0].max()
    d_ba = cKDTree(ta).query(tb, k=1)[0].max()
    return float(max(d_ab, d_ba) * pixel_pitch)


# ---------------------------------------------------------------------------
# escape census over (point, sequence) pairs


@dataclass(frozen=True)
class CensusResult:
    escaped: int
    bounded: int
    uncertain: int

    @property
    def total(self) -> int:
        return self.escaped + self.bounded + self.uncertain

    @property
    def escaped_fraction(self) -> float:
        return self.escaped / self.total

    @property
    def bounded_fraction(self) -> float:
        return self.bounded / self.total

    @property
    def uncertain_fraction(self) -> float:
        return self.uncertain / self.total


def _census_chunk(
    dist: MapDistribution,
    master: int,
    streams: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    R: float,
    max_iter: int,
) -> Tuple[int, int, int]:
    X = xs.copy()
    Y = ys.copy()
    streams = streams.copy()
    escaped = 0
    n = 0
    while X.size and n <= max_iter:
        ax = np.abs(X)
        ay = np.abs(Y)
        esc = ay > np.maximum(R, ax)
        if esc.any():
            escaped += int(esc.sum())
            keep = ~esc
            X, Y, streams = X[keep], Y[keep], streams[keep]
        if n == max_iter or X.size == 0:
            break
        nx, ny = lanes.step(dist, master, streams, n, X, Y)
        # lanes leaving the window are tallied as uncertain below
        ok = ~lanes.outside(nx, ny)
        if not ok.all():
            nx, ny, streams = nx[ok], ny[ok], streams[ok]
        X, Y = nx, ny
        n += 1
    bounded = int((np.maximum(np.abs(X), np.abs(Y)) < R).sum()) if X.size else 0
    uncertain = xs.size - escaped - bounded
    return escaped, bounded, uncertain


def escape_census(
    dist: MapDistribution,
    points: Sequence[Point],
    params: FiltrationParams,
    max_iter: int,
    seed: SequenceSeed,
    threads: int = 1,
) -> CensusResult:
    """Escape statistics over (point, sequence) pairs.

    Walker i follows its own i.i.d. sequence on the stream derived from
    (seed.stream_id, i); doubling max_iter with the same seed reuses the
    same sequences, so the escaped count is nondecreasing in the cap.
    """
    xs = np.array([p[0] for p in points], dtype=np.complex128)
    ys = np.array([p[1] for p in points], dtype=np.complex128)
    streams = np.array(
        [rng.derive_stream(seed.stream_id, i) for i in range(len(points))], dtype=np.uint64
    )

    def run(a, b):
        return _census_chunk(
            dist, seed.master_seed, streams[a:b], xs[a:b], ys[a:b], params.R, max_iter
        )

    parts = lanes.run_blocks(run, len(points), 4096, threads)
    esc = sum(p[0] for p in parts)
    bnd = sum(p[1] for p in parts)
    unc = sum(p[2] for p in parts)
    return CensusResult(esc, bnd, unc)
