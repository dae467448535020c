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

The raster's lanes share one map sequence, and in a dissipative system its
bounded lanes gather onto a few orbits.  A raster block therefore ends them
through certified contraction tubes: at marks 32, 64, 128, ... below the
cap it walks a few reference lanes to the cap and grows a polydisk about
each reference's float orbit, per coordinate,

    rx' = ry + sx,   ry' = sum_k |p^(k)(zy)| / k! ry^k + |delta| rx + sy.

The difference of two orbits of f(x, y) = (y + a, p(y) - delta x) obeys
this recursion exactly without sx, sy (Taylor expansion of p about the
reference), and sx, sy bound the rounding of one float step of the lane
and of the reference, so every float orbit inside the tube at a mark stays
inside it.  Taylor coefficients are bounded with their own rounding, and
every sum is rounded outward.  A tube is accepted only if it stays in the
open bidisk through the cap; its lanes then never enter the cone or leave
the window and end in the bidisk, so retiring them as bounded with step
max_iter, Green 0 and error 0 gives exactly what stepping them would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

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
    map_table,
    norm,
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

SLICE_RESOLUTION = (2, 8192)  # pixels per side a SliceSpec takes, inclusive


class OrbitStatus(Enum):
    ESCAPED = "escaped"
    BOUNDED = "bounded"
    UNCERTAIN = "uncertain"


@dataclass(frozen=True)
class OrbitVerdict:
    status: OrbitStatus
    step: Optional[int]  # first cone entry, ESCAPED only
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


# ---------------------------------------------------------------------------
# orbit classification


def classify_orbit(
    source: SourceLike,
    z: Point,
    params: FiltrationParams,
    max_iter: int,
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
            return OrbitVerdict(OrbitStatus.ESCAPED, n, n, cur)
        if n == max_iter:
            break
        try:
            cur = eval_map(src[n], cur)
        except NumericOverflow:
            return OrbitVerdict(OrbitStatus.UNCERTAIN, None, n + 1, cur)
    if classify_region(cur, R) == Region.D_R:
        return OrbitVerdict(OrbitStatus.BOUNDED, None, max_iter, cur)
    return OrbitVerdict(OrbitStatus.UNCERTAIN, None, max_iter, cur)


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


def _stage_bound(c_tel: float, n: int) -> float:
    return c_tel * 2.0 ** (1 - n) if n < 1074 else 0.0


# ---------------------------------------------------------------------------
# log-coordinate recursion (array kernel shared by every Green path)

LogState = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _log_entry(X: np.ndarray, Y: np.ndarray, D: float) -> LogState:
    """State (g, log|x|, phase x, log|y|, phase y) of cone iterates entering
    at composition degree D; the running sum g of normalized log|y|
    increments starts at log|y| / D.  x = 0 has log -inf and phase 1."""
    with np.errstate(divide="ignore"):
        lx = np.log(np.abs(X))
    px = np.where(X != 0, X, 1.0)
    ly = np.log(np.abs(Y))
    g = ly / D if math.isfinite(D) else np.zeros_like(ly)
    return g, lx, px / np.abs(px), ly, Y / np.abs(Y)


def _log_step(f: HenonMap, state: LogState, D: float) -> LogState:
    """Apply f in log coordinates, D being the degree after f.  The y
    recursion reads log|y'| = d log|y| + log|c0| + log|q|; the increment
    log|c0| + log|q| enters g over D."""
    g, lx, px, ly, py = state
    c0 = f.poly.coeffs[0]
    d = f.degree
    u = (1.0 / py) * np.where(ly < 700.0, np.exp(-np.minimum(ly, 700.0)), 0.0)
    corr = np.zeros_like(u)
    upow = np.ones_like(u)
    for c in f.poly.coeffs[1:]:
        upow = upow * u
        corr = corr + (c / c0) * upow
    ediff = lx - d * ly
    mask = np.isfinite(ediff) & (ediff > -700.0)
    if mask.any():
        term = np.zeros_like(corr)
        term[mask] = (f.delta / c0) * (px[mask] / py[mask] ** d) * np.exp(ediff[mask])
        corr = corr - term
    q = 1.0 + corr
    inc = math.log(abs(c0)) + np.log(np.abs(q))
    t = c0 * (py**d) * q
    w = 1.0 + f.alpha * u
    new_px = py * w
    g = g + (inc / D if math.isfinite(D) else 0.0)
    new_ly = np.where(np.isfinite(ly), d * ly + inc, np.inf)
    return g, ly + np.log(np.abs(w)), new_px / np.abs(new_px), new_ly, t / np.abs(t)


def _log_value(state: LogState, D: float) -> np.ndarray:
    """Stage value: the running sum g plus log(norm / |y|) / D, the norm
    correction that lies in [0, log sqrt 2] on the vertical cone."""
    g, lx, _, ly, _ = state
    diff = lx - ly
    safe = np.isfinite(diff) & (diff > -300.0)
    excess = np.where(safe, 0.5 * np.log1p(np.exp(2.0 * np.where(safe, diff, -np.inf))), 0.0)
    return g + (excess / D if math.isfinite(D) else 0.0)


# ---------------------------------------------------------------------------
# Green's functions (per-point reference path)


_TINY = 5e-324  # escaped orbits report a positive value even after underflow


def _green_engine(
    source: SourceLike,
    z: Point,
    params: FiltrationParams,
    c_tel: Optional[float],
    tol: Optional[float],
    max_iter: int,
    n_total: Optional[int],
):
    """Per-point reference path; refines to error <= tol or, recording
    every stage, to stage n_total.  Returns (estimate, entry, stages)."""
    src = as_source(source)
    if c_tel is None:
        c_tel = src.c_tel(params)
    R = params.R
    stages: List[float] = [] if n_total is not None else None  # type: ignore[assignment]
    cur = z
    D = 1.0
    n = 0
    entry = None
    while n <= max_iter:
        if in_v_plus(cur, R):
            entry = n
            break
        nv = norm(cur)
        direct = max(math.log(nv), 0.0) / D if nv > 0 else 0.0  # normalized log norm
        if stages is not None:
            stages.append(direct)
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
            return GreenEstimate(0.0, max_iter, 0.0), None, stages
        part = GreenEstimate(direct, n, math.inf)
        raise GreenIndeterminate("orbit undecided at iteration cap", part)

    # one-lane run of the raster's log-coordinate recursion
    state = _log_entry(np.array([cur[0]], dtype=np.complex128),
                       np.array([cur[1]], dtype=np.complex128), D)
    stop = n_total if n_total is not None else max(entry, refine_steps(c_tel, tol))
    while True:
        if stages is not None:
            stages.append(float(_log_value(state, D)[0]))
        if n >= stop:
            break
        D *= src[n].degree
        state = _log_step(src[n], state, D)
        n += 1
    value = max(float(_log_value(state, D)[0]), _TINY)
    return GreenEstimate(value, n, _stage_bound(c_tel, n)), entry, stages


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
    return _green_engine(source, z, params, c_tel, tol, max_iter, None)[0]


def green_stages(
    source: SourceLike,
    z: Point,
    params: FiltrationParams,
    n_total: int,
) -> Tuple[List[float], Optional[int]]:
    """Stage values (normalized log norms) for n = 0..n_total plus the cone
    entry step; for telescoping diagnostics."""
    _, entry, stages = _green_engine(source, z, params, None, None, n_total, n_total)
    return stages, entry


def green_minus(
    source: SourceLike,
    z: Point,
    params: FiltrationParams,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> GreenEstimate:
    """Backward escape rate, computed as green_plus of the swap-conjugated
    inverse sequence at the swapped point."""
    src = as_source(source).conjugate_inverse()
    return green_plus(src, (z[1], z[0]), params, tol=tol, max_iter=max_iter)


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
        if not (SLICE_RESOLUTION[0] <= self.resolution <= SLICE_RESOLUTION[1]):
            raise ValueError("resolution out of range")
        if not math.isfinite(self.pixel_pitch):
            raise ValueError("extent too large: the pixel pitch overflows")
        for name in ("dir1", "dir2"):
            v = getattr(self, name)
            nv = math.hypot(abs(v[0]), abs(v[1]))
            if abs(nv - 1.0) > 1e-9:
                raise ValueError(f"{name} must be unit norm")
        inner = self.dir1[0] * self.dir2[0].conjugate() + self.dir1[1] * self.dir2[1].conjugate()
        if abs(inner) > 1.0 - 1e-9:
            raise ValueError("dir1 and dir2 must be linearly independent")
        # each coordinate's parts are monotone in the ticks, rounding included,
        # so the corner pixels bound the grid
        with np.errstate(over="ignore", invalid="ignore"):
            corners = self._coords(self._ticks()[[0, -1]])
        if not all(np.isfinite(c).all() for c in corners):
            raise ValueError("slice leaves the double range: a pixel coordinate overflows")

    @property
    def pixel_pitch(self) -> float:
        return 2.0 * self.extent / self.resolution

    def _ticks(self) -> np.ndarray:
        return -self.extent + (np.arange(self.resolution) + 0.5) * self.pixel_pitch

    def _coords(self, ticks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        S, T = np.meshgrid(ticks, ticks)  # S varies along columns, T along rows
        X = self.anchor[0] + S * self.dir1[0] + T * self.dir2[0]
        Y = self.anchor[1] + S * self.dir1[1] + T * self.dir2[1]
        return X.astype(np.complex128), Y.astype(np.complex128)

    def grid(self) -> Tuple[np.ndarray, np.ndarray]:
        """Complex coordinate arrays (X, Y), shape (resolution, resolution)."""
        return self._coords(self._ticks())


@dataclass
class SliceRaster:
    c_tel: float
    verdict: np.ndarray
    step: np.ndarray
    green: np.ndarray
    error: np.ndarray


def _raster_block(
    maps: List[HenonMap],
    X: np.ndarray,
    Y: np.ndarray,
    R: float,
    max_iter: int,
    n_refine: int,
    c_tel: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    npix = X.size
    # lanes end uncertain unless they enter the cone or end in the bidisk
    verdict = np.full(npix, VERDICT_UNCERTAIN, dtype=np.int8)
    step = np.full(npix, max_iter, dtype=np.int32)
    green = np.full(npix, np.nan)
    error = np.full(npix, np.inf)

    w = lanes.Walk(X, Y)
    # refining pool (lane indices, then the log state): cone entries
    # advance until the shared truncation bound, which only depends on the
    # global step count, reaches tol at n_refine
    pool = None
    D = 1.0
    tubes = _TubeExit(maps, max_iter, R)
    bounded = []  # lanes a tube retired, as bounded

    n_total = max(max_iter, n_refine)
    for n in range(n_total + 1):
        if len(w) and n <= max_iter:
            esc = w.in_cone(R)
            if esc.any():
                state = _log_entry(w.X[esc], w.Y[esc], D)
                new = w.retire(esc)
                verdict[new] = VERDICT_ESCAPED
                step[new] = n
                entries = (new, *state)
                pool = entries if pool is None else tuple(map(np.concatenate, zip(pool, entries)))
            if n == 0:  # lanes that start outside the window stay uncertain, never stepped
                w.move(w.X, w.Y)
            if n in tubes.marks and len(w):
                bounded.append(w.retire(tubes.exit(n, w)))
        if n >= n_refine and pool is not None:
            green[pool[0]] = np.maximum(_log_value(pool[1:], D), _TINY)
            error[pool[0]] = _stage_bound(c_tel, n)
            pool = None
        if n == n_total or (not len(w) and pool is None):
            break
        f = maps[n]
        if n < max_iter and len(w):
            w.move(*lanes.image(f, w.X, w.Y))  # lanes leaving the window stay uncertain
        D *= f.degree
        if pool is not None:
            pool = (pool[0], *_log_step(f, pool[1:], D))

    bnd = np.concatenate([*bounded, w.lane[w.in_bidisk(R)]])
    verdict[bnd] = VERDICT_BOUNDED
    green[bnd] = 0.0
    error[bnd] = 0.0
    return verdict, step, green, error


# ---------------------------------------------------------------------------
# certified contraction tubes


_U = 2.0 ** -53  # unit roundoff of a double
# outward rounding: it exceeds the relative rounding error of every sum of
# nonnegative terms below, at any degree up to core.MAX_DEGREE
_PAD = 1.0 + 2.0 ** -40
_TUBE_START = 32  # first tube mark; each later one doubles it
_TUBE_REFS = 4  # reference lanes per search
_TUBE_CELLS = 10  # log2 of the reference cells per R along each real coordinate


class _TubeExit:
    """Certified-tube exits of one raster block, at marks 32, 64, 128, ...
    below max_iter.

    Tubes live in the open bidisk of radius min(R, window), so a lane that
    one holds never enters the cone, never leaves the window and ends in
    the bidisk.  ``held`` maps each mark to the (zx, zy, rx, ry) of every
    tube found so far, at that mark."""

    def __init__(self, maps: List[HenonMap], max_iter: int, R: float):
        self.maps = maps
        self.max_iter = max_iter
        self.R = lanes.window_radius(R)
        self.marks = []
        n = _TUBE_START
        while n < max_iter:
            self.marks.append(n)
            n *= 2
        self.held: dict = {}
        self.searching = True

    def exit(self, n: int, w: lanes.Walk) -> np.ndarray:
        """Live lanes of w inside a tube at mark n.

        The tubes held at n are tried first.  A search for new ones among
        the remaining lanes in the bidisk walks _TUBE_REFS reference lanes
        to max_iter.  So it only runs while more lanes than that remain, and
        only while searches find tubes: a block whose lanes do not contract,
        as under a volume-preserving map, pays for one search."""
        inside = _in_tubes(self.held.pop(n, ()), w.X, w.Y)
        cand = ~inside & w.in_bidisk(self.R)
        if self.searching and np.count_nonzero(cand) > _TUBE_REFS:
            later = [m for m in self.marks if m >= n]
            found = _find_tubes(self.maps, n, self.max_iter, w.X[cand], w.Y[cand], self.R, later)
            self.searching = bool(found)
            for tube in found:
                for m, t in zip(later, tube):
                    self.held.setdefault(m, []).append(t)
            inside |= _in_tubes(self.held.pop(n, ()), w.X, w.Y)
        return inside


def _in_tubes(tubes, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    inside = np.zeros(X.size, dtype=bool)
    for zx, zy, rx, ry in tubes:
        inside |= (np.abs(X - zx) * _PAD <= rx) & (np.abs(Y - zy) * _PAD <= ry)
    return inside


def _tube_refs(X: np.ndarray, Y: np.ndarray, R: float) -> np.ndarray:
    """Indices of the first lane in each of the _TUBE_REFS most populated
    cells, of side R / 2^_TUBE_CELLS, among lanes X, Y inside the bidisk."""
    cells = 1 << _TUBE_CELLS
    key = np.zeros(X.size, dtype=np.int64)
    for v in (X.real, X.imag, Y.real, Y.imag):
        # coordinates in (-R, R) fall in [0, 2 cells]
        key = key * (4 * cells) + ((v + R) * (cells / R)).astype(np.int64)
    _, first, count = np.unique(key, return_index=True, return_counts=True)
    return np.sort(first[np.argsort(-count, kind="stable")[:_TUBE_REFS]])


def _taylor(coeffs: Sequence, z) -> list:
    """Taylor coefficients p(z), p'(z), p''(z)/2!, ... of the leading-first
    coefficients at z, by repeated synthetic division."""
    b = list(coeffs)
    out = []
    for k in range(len(b) - 1, 0, -1):
        for i in range(1, k + 1):
            b[i] = b[i] + z * b[i - 1]
        out.append(b[k])
    return out + [b[0]]


def _find_tubes(maps: List[HenonMap], n0: int, max_iter: int, X: np.ndarray, Y: np.ndarray,
                R: float, marks: List[int]) -> List[list]:
    """Tubes certified from step n0 to max_iter about reference lanes taken
    from the lanes X, Y (at step n0, inside the bidisk): for each, its
    centre and radii (zx, zy, rx, ry) at every step of marks (n0 first).

    A tube is a polydisk of radii (rx, ry) about the reference's float orbit
    z.  Under f(x, y) = (y + a, p(y) - delta x) a float orbit within (rx, ry)
    of z at step m is within

        rx' = ry + sx,   ry' = sum_k |p^(k)(zy)| / k! ry^k + |delta| rx + sy

    at step m + 1, where sx, sy bound the rounding of one float step of
    both orbits.  The tube is accepted when max(|zx| + rx, |zy| + ry) < R at
    every step through max_iter: each orbit inside it then stays in the
    open bidisk, so it never enters the cone or leaves the window, and ends
    bounded.  Each reference takes the largest accepted start radius among
    R / 2^j, j = 1 .. _TUBE_CELLS: down to the side of its cell, which no
    narrower tube could hold."""
    refs = _tube_refs(X, Y, R)
    steps = max_iter - n0
    ms = maps[n0:max_iter]
    zx, zy = X[refs], Y[refs]
    hx = np.full((steps + 1, refs.size), np.nan, dtype=np.complex128)
    hy = hx.copy()
    with np.errstate(all="ignore"):  # references that escape overflow; their tubes fail
        for i, f in enumerate(ms):
            hx[i], hy[i] = zx, zy
            # every 32 steps: give up once every reference has left
            if i % 32 == 0 and not lanes.in_bidisk(zx, zy, R).any():
                return []
            zx, zy = lanes.image(f, zx, zy)
        hx[steps], hy[steps] = zx, zy
    ax, ay = np.abs(hx), np.abs(hy)

    # step m's map is column m of map_table(ms), padded to degree d.  In
    # float, with E = 8 (d + 1) u (at least twice the error constant of
    # depth-d complex Horner):
    # - a computed Taylor coefficient of p at zy is within E times that of
    #   the polynomial with coefficients |c_j| at |zy|;
    # - one step of an orbit in the bidisk rounds by at most E (R + |a|) in
    #   x and E (sum_j |c_j| R^(d-j) + |delta| R) in y, twice that for the
    #   lane's and the reference's orbits together.
    T = map_table(ms)
    d = len(T) // 2 - 1
    C = T[1:d + 2]
    A, dl = np.abs(C), np.abs(T[d + 2])
    E = 8 * (d + 1) * _U
    with np.errstate(all="ignore"):  # escaped references and a huge R overflow
        t = _taylor(C[..., None], hy[:-1])[1:]
        tb = _taylor(A[..., None], ay[:-1])[1:]
        bound = [np.broadcast_to(np.abs(u) + E * v, ay[:-1].shape) for u, v in zip(t, tb)]
        sx = (2 * E * (R + np.abs(T[0]))).tolist()
        sy = (2 * E * (A.T @ R ** np.arange(d, -1, -1.0) + dl * R)).tolist()
    dl = dl.tolist()

    at = [m - n0 for m in marks]
    keep = set(at)
    coef = np.stack(bound[::-1], axis=-1).transpose(1, 0, 2).tolist()
    tubes = []
    for k, args in enumerate(zip(ax.T.tolist(), ay.T.tolist(), coef)):
        # widest first: a tube too wide for the contraction fails within a
        # few steps, so at most one trial per reference runs to max_iter
        for r0 in R * 0.5 ** np.arange(1, _TUBE_CELLS + 1):
            radii = _tube_radii(r0, *args, dl, sx, sy, R, keep)
            if radii is not None:
                tubes.append([(hx[i, k], hy[i, k], *r) for i, r in zip(at, radii)])
                break
    return tubes


def _tube_radii(r0: float, ax: list, ay: list, coef: list, dl: list, sx: list, sy: list,
                R: float, at: set) -> Optional[List[Tuple[float, float]]]:
    """Radii (rx, ry) at the step indices in ``at`` of the tube that starts
    at radius r0 about an orbit of magnitudes ax, ay; coef[i] holds step i's
    Taylor bounds, highest order first.  None if it leaves the bidisk."""
    rx = ry = r0
    out = []
    for i in range(len(ax)):
        if not ((ax[i] + rx) * _PAD < R and (ay[i] + ry) * _PAD < R):  # NaN fails too
            return None
        if i in at:
            out.append((rx, ry))
        if i < len(coef):
            acc = 0.0
            for b in coef[i]:
                acc = (acc + b) * ry
            rx, ry = (ry + sx[i]) * _PAD, (acc + dl[i] * rx + sy[i]) * _PAD
    return out


_BLOCK_LANES = 1 << 15  # fixed, so results never depend on the thread count


def _lane_green(
    src: MapSource,
    X: np.ndarray,
    Y: np.ndarray,
    params: FiltrationParams,
    max_iter: int,
    tol: float,
    threads: int,
) -> Tuple[float, int, Tuple[np.ndarray, ...]]:
    """(c_tel, n_refine, (verdict, step, green, error)) for flat lanes X, Y
    under one shared map sequence, in fixed blocks on ``threads`` workers."""
    c_tel = src.c_tel(params)
    n_refine = refine_steps(c_tel, tol)
    maps = [src[i] for i in range(max(max_iter, n_refine))]

    def run(a):
        b = a + _BLOCK_LANES
        return _raster_block(maps, X[a:b], Y[a:b], params.R, max_iter, n_refine, c_tel)

    starts = range(0, X.size, _BLOCK_LANES)
    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a threaded raster loads it
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(run, starts))
    else:
        parts = list(map(run, starts))
    return c_tel, n_refine, tuple(map(np.concatenate, zip(*parts)))


def raster_slice(
    source: SourceLike,
    spec: SliceSpec,
    params: FiltrationParams,
    max_iter: int = 500,
    tol: float = 1e-6,
    threads: int = 1,
) -> SliceRaster:
    """Classify and evaluate the escape rate on a pixel grid.

    One shared map sequence drives every pixel.  Pixels are processed in
    independent fixed blocks, so the result is identical for any thread count.
    """
    X, Y = spec.grid()
    c_tel, _, cols = _lane_green(
        as_source(source), X.ravel(), Y.ravel(), params, max_iter, tol, threads
    )
    return SliceRaster(c_tel, *(c.reshape(X.shape) for c in cols))


def green_points(
    source: SourceLike,
    points: Sequence[Point],
    params: FiltrationParams,
    tol: float = 1e-6,
    max_iter: int = 1000,
    threads: int = 1,
) -> List[GreenEstimate]:
    """:func:`green_plus` of every point under one shared sequence, batched
    on the raster's lane engine.

    A point the lanes leave undecided is handed to :func:`green_plus`, whose
    GreenIndeterminate (with its partial estimate) is re-raised naming the
    point's index.
    """
    if not len(points):
        return []
    src = as_source(source)
    X, Y = np.array(points, dtype=np.complex128).reshape(-1, 2).T
    c_tel, n_refine, (verdict, step, green, error) = _lane_green(
        src, X, Y, params, max_iter, tol, threads
    )
    out = []
    for i, z in enumerate(points):
        if verdict[i] == VERDICT_ESCAPED:
            out.append(GreenEstimate(float(green[i]), max(int(step[i]), n_refine), float(error[i])))
        elif verdict[i] == VERDICT_BOUNDED:
            out.append(GreenEstimate(0.0, max_iter, 0.0))
        else:
            try:
                out.append(green_plus(src, z, params, tol, max_iter, c_tel))
            except GreenIndeterminate as e:
                raise GreenIndeterminate(f"point {i}: {e}", e.partial) from None
    return out


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
    from scipy.spatial import cKDTree  # here, so no CLI command loads scipy for it

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
    """(escaped, bounded, uncertain) over the walkers xs, ys on their
    streams: the counts of the fates ESCAPED, BOUNDED and UNDECIDED of one
    :func:`lanes.refill_walk`, whose pool of live lanes refills as lanes
    retire."""
    fate = lanes.refill_walk(dist, master, streams, xs, ys, R, max_iter)
    escaped = int(np.count_nonzero(fate == lanes.ESCAPED))
    bounded = int(np.count_nonzero(fate == lanes.BOUNDED))
    return escaped, bounded, xs.size - escaped - bounded


def escape_census(
    dist: MapDistribution,
    points: Sequence[Point],
    params: FiltrationParams,
    max_iter: int,
    seed: SequenceSeed,
) -> CensusResult:
    """Escape statistics over (point, sequence) pairs.

    Walker i follows its own i.i.d. sequence on the stream derived from
    (seed.stream_id, i); doubling max_iter with the same seed reuses the
    same sequences, so the escaped count is nondecreasing in the cap.  The
    walkers run in one :func:`_census_chunk` on the calling thread, one
    refilling walk, so the census pays one tail of slow escapers rather than
    one per block of walkers.
    """
    xs = np.array([p[0] for p in points], dtype=np.complex128)
    ys = np.array([p[1] for p in points], dtype=np.complex128)
    streams = rng.stream_table(seed.stream_id, len(points))
    return CensusResult(*_census_chunk(
        dist, seed.master_seed, streams, xs, ys, params.R, max_iter))
