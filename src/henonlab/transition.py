"""Transition operator of the random system and basin-probability calculus.

M phi(z) = E_h phi(h(z)) averages an observable over one random step.  Powers
M^n are evaluated exactly by expanding the weighted path tree while the path
count m^n fits a budget, and by stratified Monte Carlo past it, both stepping
their paths through :class:`lanes.Walk`.  A path or sample that starts outside
the exact-arithmetic window, or leaves it, retires and contributes 0, the
value far out of both observables below (the capture ramp, and zeta, a
difference of basin probabilities that agree there).  On top of the operator
sit the capture-ramp observable, geometric convergence-rate fits toward basin
probabilities, and two independent estimators for the derivative of a basin
probability in the support weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import lanes, rng
from .core import FiltrationParams, Point, image, in_v_plus
from .dist import FiniteDist, MapDistribution, SequenceSeed, condition_a_params
from .minsets import MinimalSetDescriptor, estimate_TL, estimate_TL_many

_DEF_BUDGET = 1_000_000
_DEF_MC = 100_000
_TAG_MOP = 0x4D4F5001
_TAG_TLCACHE = 0x544C4341

Observable = Callable[[Point], float]


class SeriesStall(RuntimeError):
    """Derivative series failed to meet the truncation rule in time."""

    def __init__(self, terms: Tuple[float, ...]):
        super().__init__(f"series not truncated after {len(terms)} terms")
        self.terms = terms


class RateUnresolved(RuntimeError):
    """Too few usable error points, or the log-linear fit is poor."""

    def __init__(self, message: str, errors: Tuple[float, ...]):
        super().__init__(message)
        self.errors = errors


@dataclass(frozen=True)
class OperatorValue:
    value: float
    se: float
    exact: bool

    def __post_init__(self) -> None:
        if self.exact and self.se != 0.0:
            raise ValueError("exact values carry no standard error")


@dataclass(frozen=True)
class RateFit:
    lambda_hat: float
    r_squared: float
    n_range: Tuple[int, ...]
    sup_errors: Tuple[float, ...]
    used: Tuple[int, ...]


@dataclass(frozen=True)
class SeriesDerivative:
    value: float
    terms: Tuple[float, ...]


@dataclass(frozen=True)
class FDDerivative:
    value: float
    h: float
    richardson: Optional[float]


# ---------------------------------------------------------------------------
# observables


def _phi_array(phi, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    arr = getattr(phi, "array", None)
    if arr is not None:
        return arr(X, Y)
    return np.array([phi((x, y)) for x, y in zip(X, Y)])


class CaptureRamp:
    """1 on the capture neighborhood of a finite minimal set, smoothstep
    down to 0 across a radial band of the given width.  C1 in the distance
    to the part balls."""

    def __init__(self, L: MinimalSetDescriptor, width: Optional[float] = None):
        if L.is_infinity:
            raise ValueError("ramp observable needs a finite minimal set")
        self.L = L
        self.width = float(width) if width is not None else L.capture_radius / 2.0
        if self.width <= 0:
            raise ValueError("ramp width must be positive")

    def array(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        d = np.full(X.shape, np.inf)
        for (cx, cy), r in zip(self.L.parts_centers, self.L.parts_radii):
            d = np.minimum(d, np.hypot(np.abs(X - cx), np.abs(Y - cy)) - r)
        # clipped before dividing: far and non-finite points read 0, no overflow
        t = np.fmax(np.fmin(d - self.L.capture_radius, self.width), 0.0) / self.width
        return 1.0 - t * t * (3.0 - 2.0 * t)

    def __call__(self, z: Point) -> float:
        return float(self.array(np.array([z[0]]), np.array([z[1]]))[0])


# ---------------------------------------------------------------------------
# powers


def _tree_power(dist: FiniteDist, phi, z: Point, n: int) -> float:
    # one level per step: every path's image under map 0, then map 1, ...,
    # in one (maps x paths) broadcast, so even one path steps in a batch
    p = np.array(dist.weights)[:, None]
    w = lanes.Walk(np.array([z[0]], dtype=np.complex128), np.array([z[1]], dtype=np.complex128),
                   W=np.ones(1))
    w.move(w.X, w.Y)
    for _ in range(n):
        X, Y = (a.ravel() for a in lanes.apply(dist, np.arange(len(p))[:, None], w.X, w.Y))
        w = lanes.Walk(X, Y, W=(w.carry["W"] * p).ravel())
        w.move(X, Y)
    return float(np.sum(w.carry["W"] * _phi_array(phi, w.X, w.Y)))


def _stratified_counts(weights: Sequence[float], total: int) -> np.ndarray:
    """Deterministic proportional allocation, every stratum nonempty."""
    m = len(weights)
    if total < m:
        raise ValueError("need at least one sample per support map")
    base = np.ones(m, dtype=np.int64)
    rest = total - m
    raw = np.array(weights) * rest
    alloc = np.floor(raw).astype(np.int64)
    frac = raw - alloc
    short = rest - int(alloc.sum())
    order = np.argsort(-frac, kind="stable")
    alloc[order[:short]] += 1
    return base + alloc


def _mc_power(
    dist: MapDistribution, phi, z: Point, n: int, samples: int, seed: SequenceSeed
) -> OperatorValue:
    streams = rng.stream_table(seed.stream_id, samples, _TAG_MOP)
    w = lanes.Walk(np.full(samples, complex(z[0])), np.full(samples, complex(z[1])),
                   streams, dist, seed.master_seed)
    w.move(w.X, w.Y)
    finite = isinstance(dist, FiniteDist)
    if finite:
        counts = _stratified_counts(dist.weights, samples)
        strata = np.repeat(np.arange(len(dist.maps)), counts)
        w.move(*lanes.apply(dist, strata[w.lane], w.X, w.Y))
    for step in range(int(finite), n):
        w.step(step)
    vals = np.zeros(samples)
    vals[w.lane] = _phi_array(phi, w.X, w.Y)
    if not finite:
        se = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else math.inf
        return OperatorValue(value=float(vals.mean()), se=se, exact=False)
    # stratified estimator: sum_j w_j mean_j, se^2 = sum_j w_j^2 var_j / n_j;
    # a one-sample stratum has no variance estimate, so se is inf
    val = 0.0
    var = 0.0
    for p, sl in zip(dist.weights, np.split(vals, np.cumsum(counts)[:-1])):
        val += p * float(sl.mean())
        var += p * p * float(sl.var(ddof=1)) / sl.size if sl.size > 1 else math.inf
    return OperatorValue(value=val, se=math.sqrt(var), exact=False)


def iterate_M(
    dist: MapDistribution,
    phi: Observable,
    z: Point,
    n: int,
    budget: int = _DEF_BUDGET,
    samples: int = _DEF_MC,
    seed: Optional[SequenceSeed] = None,
) -> OperatorValue:
    """n-th power of the transition operator applied to phi at z.

    Finite supports expand the full m^n path tree while it fits the budget;
    otherwise (and for noise balls) a stratified Monte Carlo estimate over
    whole sequences is returned with its standard error.
    """
    if n < 0:
        raise ValueError("operator power must be nonnegative")
    if n == 0:
        return OperatorValue(value=float(phi(z)), se=0.0, exact=True)
    if isinstance(dist, FiniteDist) and len(dist.maps) ** n <= budget:
        return OperatorValue(value=_tree_power(dist, phi, z, n), se=0.0, exact=True)
    if seed is None:
        raise ValueError("seed required for Monte Carlo application")
    return _mc_power(dist, phi, z, n, samples, seed)


# ---------------------------------------------------------------------------
# basin probability helpers


class _TLCache:
    """Basin probabilities keyed by quantized points.

    Points inside a certified capture neighborhood or the escape cone get
    their trivial value without sampling.
    """

    def __init__(
        self,
        dist: MapDistribution,
        minsets: Sequence[MinimalSetDescriptor],
        L: MinimalSetDescriptor,
        params: FiltrationParams,
        seed: SequenceSeed,
        samples: int,
        max_iter: int,
    ):
        self.dist = dist
        self.minsets = minsets
        self.L = L
        self.params = params
        self.seed = seed
        self.samples = samples
        self.max_iter = max_iter
        self._store: Dict[Tuple[int, int, int, int], float] = {}
        self.misses = 0

    def _trivial(self, z: Point) -> Optional[float]:
        x, y = complex(z[0]), complex(z[1])
        if not (np.isfinite(x.real) and np.isfinite(x.imag)
                and np.isfinite(y.real) and np.isfinite(y.imag)):
            return 0.0
        if in_v_plus((x, y), self.params.R):
            return 1.0 if self.L.is_infinity else 0.0
        for d in self.minsets:
            if d.is_infinity:
                continue
            for (cx, cy), r in zip(d.parts_centers, d.parts_radii):
                if math.hypot(abs(x - cx), abs(y - cy)) <= r + d.capture_radius:
                    return 1.0 if d.id == self.L.id else 0.0
        return None

    def __call__(self, z: Point) -> float:
        t = self._trivial(z)
        if t is not None:
            return t
        q = 1e-9
        x, y = complex(z[0]), complex(z[1])
        key = (
            round(x.real / q), round(x.imag / q),
            round(y.real / q), round(y.imag / q),
        )
        hit = self._store.get(key)
        if hit is not None:
            return hit
        self.misses += 1
        est = estimate_TL(
            self.dist, self.minsets, z, self.samples, self.max_iter,
            self.seed.derive(_TAG_TLCACHE, self.misses), params=self.params,
        )
        val = est.probabilities.get(self.L.id, 0.0)
        self._store[key] = val
        return val


# ---------------------------------------------------------------------------
# convergence rate


def fit_convergence_rate(
    dist: MapDistribution,
    minsets: Sequence[MinimalSetDescriptor],
    L: MinimalSetDescriptor,
    test_points: Sequence[Point],
    n_range: Sequence[int],
    seed: SequenceSeed,
    tl_samples: int = 1000,
    tl_max_iter: int = 1000,
    ramp_width: Optional[float] = None,
    budget: int = _DEF_BUDGET,
    mc_samples: int = _DEF_MC,
    params: Optional[FiltrationParams] = None,
) -> RateFit:
    """Geometric rate of M^n (capture ramp) toward the basin probability.

    Sup errors over the test points are fitted log-linearly in n after
    dropping values within 10x of the sampling floor; raises RateUnresolved
    when fewer than three points survive or the fit explains less than 90
    percent of the variance.
    """
    if not test_points:
        raise ValueError("need at least one test point")
    ns = sorted(set(int(n) for n in n_range))
    if len(ns) < 3:
        raise ValueError("n_range must contain at least three distinct powers")
    if params is None:
        params = condition_a_params(dist)
    phi = CaptureRamp(L, ramp_width)
    ests = estimate_TL_many(dist, minsets, test_points, tl_samples, tl_max_iter,
                            [seed.derive(1, i) for i in range(len(test_points))], params=params)
    targets = [est.probabilities.get(L.id, 0.0) for est in ests]
    errors: List[float] = []
    floors: List[float] = []
    for n in ns:
        worst = 0.0
        mc_se = 0.0
        for i, (z, t) in enumerate(zip(test_points, targets)):
            ov = iterate_M(dist, phi, z, n, budget=budget, samples=mc_samples,
                           seed=seed.derive(2, i, n))
            worst = max(worst, abs(ov.value - t))
            mc_se = max(mc_se, ov.se)
        errors.append(worst)
        floors.append(10.0 * max(mc_se, 1.0 / tl_samples))
    kept = [(n, e) for n, e, fl in zip(ns, errors, floors) if e >= fl]
    if len(kept) < 3:
        raise RateUnresolved(
            "fewer than three error points above the sampling floor", tuple(errors)
        )
    xs = np.array([n for n, _ in kept], dtype=float)
    ys = np.log(np.array([e for _, e in kept]))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 0.0
    if r2 < 0.9:
        raise RateUnresolved(f"log-linear fit explains only {r2:.3f}", tuple(errors))
    return RateFit(
        lambda_hat=float(math.exp(slope)),
        r_squared=float(r2),
        n_range=tuple(ns),
        sup_errors=tuple(errors),
        used=tuple(int(n) for n, _ in kept),
    )


# ---------------------------------------------------------------------------
# weight derivatives of basin probabilities


def _check_weight_index(dist: FiniteDist, index: int) -> int:
    ref = len(dist.maps) - 1
    if not 0 <= index < len(dist.maps):
        raise ValueError("weight index out of range")
    if index == ref:
        raise ValueError("reference weight cannot be perturbed")
    return ref


def weight_derivative_TL(
    dist: FiniteDist,
    minsets: Sequence[MinimalSetDescriptor],
    L: MinimalSetDescriptor,
    z: Point,
    index: int,
    seed: SequenceSeed,
    eps_trunc: float = 1e-3,
    max_terms: int = 200,
    tl_samples: int = 400,
    tl_max_iter: int = 400,
    budget: int = _DEF_BUDGET,
    mc_samples: int = 10_000,
    params: Optional[FiltrationParams] = None,
) -> SeriesDerivative:
    """Derivative of the basin probability in the weight simplex direction
    (index up, last map down) via the stationarity series sum_n M^n zeta.

    zeta(z) = T_L(h_index z) - T_L(h_last z); the series stops after three
    consecutive terms below eps_trunc, and raises SeriesStall past max_terms.
    """
    ref = _check_weight_index(dist, index)
    if params is None:
        params = condition_a_params(dist)
    cache = _TLCache(dist, minsets, L, params, seed, tl_samples, tl_max_iter)
    hi, hm = dist.maps[index], dist.maps[ref]

    def zeta(pt: Point) -> float:
        return cache(image(hi, pt)) - cache(image(hm, pt))

    terms: List[float] = []
    small = 0
    for n in range(max_terms):
        ov = iterate_M(dist, zeta, z, n, budget=budget, samples=mc_samples,
                       seed=seed.derive(3, n))
        terms.append(ov.value)
        small = small + 1 if abs(ov.value) < eps_trunc else 0
        if small >= 3:
            return SeriesDerivative(value=float(sum(terms)), terms=tuple(terms))
    raise SeriesStall(tuple(terms))


def fd_derivative_TL(
    dist: FiniteDist,
    minsets: Sequence[MinimalSetDescriptor],
    L: MinimalSetDescriptor,
    z: Point,
    index: int,
    seed: SequenceSeed,
    h: float = 0.05,
    tl_samples: int = 4000,
    tl_max_iter: int = 400,
    params: Optional[FiltrationParams] = None,
    richardson: bool = False,
) -> FDDerivative:
    """Central finite difference of the basin probability in the same simplex
    direction as weight_derivative_TL.

    Both sides reuse the seed (common random numbers); the optional
    Richardson value combines steps h and h/2.
    """
    ref = _check_weight_index(dist, index)
    if params is None:
        params = condition_a_params(dist)

    def shifted(step: float) -> FiniteDist:
        w = list(dist.weights)
        w[index] += step
        w[ref] -= step
        if not all(0.0 <= wi <= 1.0 for wi in w):
            raise ValueError("perturbed weights leave the simplex")
        return FiniteDist(maps=dist.maps, weights=tuple(w))

    def central(step: float) -> float:
        plus, minus = (estimate_TL(shifted(s), minsets, z, tl_samples, tl_max_iter, seed,
                                   params=params).probabilities.get(L.id, 0.0)
                       for s in (step, -step))
        return (plus - minus) / (2.0 * step)

    d1 = central(h)
    if not richardson:
        return FDDerivative(value=d1, h=h, richardson=None)
    d2 = central(h / 2.0)
    return FDDerivative(value=d1, h=h, richardson=(4.0 * d2 - d1) / 3.0)
