"""Noise-amplitude sweeps over one-parameter ball families.

Each grid value t gets its own discovery pass and capture statistics; the
scan records how many minimal sets survive and whether every finite one is
attracting.  Bifurcation candidates are the grid intervals across which the
count changes.  Per-t randomness is keyed to the value of t, not the grid
index, so refining the grid never perturbs results at shared points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .core import Point
from .dist import NoiseFamily, SequenceSeed, condition_a_params, family_at
from .minsets import MinimalSetDescriptor, discover_minimal_sets, estimate_TL_many

_TAG_FAMILY = 0x46414D01
_UNRESOLVED_STABLE = 0.01


@dataclass(frozen=True)
class FamilyPoint:
    """Scan record at one noise amplitude."""

    t: float
    minset_count: int
    finite_count: int
    attracting_count: int
    all_attracting: bool
    unresolved_mass: float
    mean_stable: bool
    descriptors: Tuple[MinimalSetDescriptor, ...]


@dataclass(frozen=True)
class FamilyScan:
    points: Tuple[FamilyPoint, ...]

    def counts(self) -> Tuple[int, ...]:
        return tuple(p.minset_count for p in self.points)


@dataclass(frozen=True)
class BifurcationInterval:
    t_lo: float
    t_hi: float
    count_lo: int
    count_hi: int
    monotone: bool


def _t_stream(seed: SequenceSeed, t: float) -> SequenceSeed:
    # key the stream to the amplitude itself so grid refinement reuses
    # identical randomness at shared t values
    key = int(round(t * 2.0**32)) & ((1 << 64) - 1)
    return seed.derive(_TAG_FAMILY, key)


def scan_family(
    fam: NoiseFamily,
    t_grid: Sequence[float],
    grid: Sequence[Point],
    seed: SequenceSeed,
    burn_in: int = 1000,
    n_record: int = 200,
    cluster_eps: Optional[float] = None,
    tl_samples: int = 200,
    tl_max_iter: int = 500,
    threads: int = 1,
) -> FamilyScan:
    """Discover and certify minimal sets at every amplitude of the grid.

    The orbit grid also serves as the probes of pooled capture statistics,
    estimated at each amplitude by one batched walk over all probes
    (:func:`estimate_TL_many`); a point is mean stable when every finite
    minimal set is attracting and under 1 percent of the probe mass stays
    unresolved.  ``threads`` sizes discovery's large nearest-neighbor queries.
    """
    ts = [float(t) for t in t_grid]
    if len(ts) < 2:
        raise ValueError("amplitude grid needs at least two points")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("amplitude grid must be strictly increasing")
    points: List[FamilyPoint] = []
    for t in ts:
        dist = family_at(fam, t)
        params = condition_a_params(dist)
        sub = _t_stream(seed, t)
        descs = discover_minimal_sets(
            dist, params, grid, sub,
            burn_in=burn_in, n_record=n_record, cluster_eps=cluster_eps, threads=threads,
        )
        finite = [d for d in descs if not d.is_infinity]
        ests = estimate_TL_many(dist, descs, grid, tl_samples, tl_max_iter,
                                [sub.derive(1, i) for i in range(len(grid))], params=params)
        mass = sum(e.unresolved_count for e in ests) / (len(grid) * tl_samples)
        attracting = sum(1 for d in finite if d.attracting)
        all_attr = attracting == len(finite)
        points.append(
            FamilyPoint(
                t=t,
                minset_count=len(descs),
                finite_count=len(finite),
                attracting_count=attracting,
                all_attracting=all_attr,
                unresolved_mass=mass,
                mean_stable=all_attr and mass < _UNRESOLVED_STABLE,
                descriptors=tuple(descs),
            )
        )
    return FamilyScan(points=tuple(points))


def locate_bifurcations(scan: FamilyScan) -> Tuple[BifurcationInterval, ...]:
    """Adjacent grid intervals across which the minimal-set count changes.

    Count increases along growing noise are legal output and only flagged
    through the monotone field.
    """
    out: List[BifurcationInterval] = []
    for a, b in zip(scan.points, scan.points[1:]):
        if a.minset_count != b.minset_count:
            out.append(
                BifurcationInterval(
                    t_lo=a.t,
                    t_hi=b.t,
                    count_lo=a.minset_count,
                    count_hi=b.minset_count,
                    monotone=b.minset_count <= a.minset_count,
                )
            )
    return tuple(out)


def monotone_violations(scan: FamilyScan) -> Tuple[float, ...]:
    """Left endpoints of intervals where the count grew with the noise."""
    return tuple(iv.t_lo for iv in locate_bifurcations(scan) if not iv.monotone)
