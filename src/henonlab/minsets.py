"""Attracting minimal sets: discovery, cyclic structure, basin statistics.

A minimal set is represented by a cloud of orbit samples, saturated under a
finite sample of the map support.  Components of the cloud at the linking
radius form the nodes of a transition digraph; terminal strongly connected
components are the minimal set candidates, their digraph period is the
cyclic order r, and the BFS level classes mod r are the cyclically permuted
parts.

The sentinel at infinity is always reported: escape to the vertical cone is
certified convergence to the attracting fixed point on the line at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.spatial import cKDTree

from . import lanes, rng
from .core import FiltrationParams, HenonMap, Point
from .dist import MapDistribution, SequenceSeed, condition_a_params, support_sample

INFINITY = "infinity"

_MAX_SATURATION_ROUNDS = 50
_MAX_CLOUD = 100_000
_START_CLOUD = 20_000
_ASSIGN_FACTOR = 5.0  # coverage radius in units of cluster_eps
_CAPTURE_DWELL = 20
_TAG_TL = 0x544C0001
_TAG_PROBE = 0x50524F42


class NotMinimal(RuntimeError):
    """Candidate cloud is not strongly connected; carries the terminal
    components as index lists."""

    def __init__(self, components: List[List[int]]):
        super().__init__("candidate splits into smaller invariant sets")
        self.components = components


class AmbiguousCapture(RuntimeError):
    """A point lies in two descriptors' capture neighborhoods."""


@dataclass(frozen=True)
class MinimalSetDescriptor:
    id: Union[int, str]
    cloud: Tuple[Point, ...]
    period: int
    parts: Tuple[Tuple[int, ...], ...]  # cloud indices per cyclic class
    capture_radius: float
    contraction: Optional[float]
    cluster_eps: float
    parts_centers: Tuple[Point, ...]
    parts_radii: Tuple[float, ...]
    saturated: bool = True

    def __post_init__(self) -> None:
        if self.id == INFINITY:
            if self.cloud or self.period != 1:
                raise ValueError("infinity descriptor carries no cloud, period 1")
            return
        if self.period < 1 or len(self.parts) != self.period:
            raise ValueError("period must match the number of parts")
        seen: set = set()
        for part in self.parts:
            if not part:
                raise ValueError("empty cyclic part")
            if seen & set(part):
                raise ValueError("parts must be disjoint")
            seen |= set(part)
        if len(seen) != len(self.cloud):
            raise ValueError("parts must cover the cloud")

    @property
    def is_infinity(self) -> bool:
        return self.id == INFINITY


@dataclass(frozen=True)
class BasinEstimate:
    counts: Mapping[Union[int, str], int]
    unresolved_count: int
    samples: int

    @property
    def probabilities(self) -> Dict[Union[int, str], float]:
        return {k: v / self.samples for k, v in self.counts.items()}

    @property
    def unresolved(self) -> float:
        return self.unresolved_count / self.samples

    def __post_init__(self) -> None:
        total = sum(self.counts.values()) + self.unresolved_count
        if total != self.samples:
            raise ValueError("counts must sum to the sample count")


@dataclass(frozen=True)
class ContractionReport:
    ratio: float
    certified: bool
    pairs: int
    n_steps: int
    skipped: int


# ---------------------------------------------------------------------------
# sample clouds


def _quantize(xs: np.ndarray, ys: np.ndarray, eps: float) -> np.ndarray:
    """Snap points to the eps/4 lattice; returns unique int64 rows (4 cols)."""
    q = eps / 4.0
    rows = np.stack(
        [
            np.round(xs.real / q).astype(np.int64),
            np.round(xs.imag / q).astype(np.int64),
            np.round(ys.real / q).astype(np.int64),
            np.round(ys.imag / q).astype(np.int64),
        ],
        axis=1,
    )
    return np.unique(rows, axis=0)


def _lattice_points(rows: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    q = eps / 4.0
    xs = rows[:, 0] * q + 1j * rows[:, 1] * q
    ys = rows[:, 2] * q + 1j * rows[:, 3] * q
    return xs, ys


def _embed4(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return np.stack([xs.real, xs.imag, ys.real, ys.imag], axis=1)


def _link_radius(xs: np.ndarray, ys: np.ndarray, eps: float) -> float:
    """Linking radius adapted to the cloud's sampling density.

    eps when the cloud is at least that dense, otherwise twice the lower
    quartile of nearest-neighbor spacing, capped at 10 eps so genuinely
    separated structures (isolated cycle points) never merge.
    """
    if xs.size < 2:
        return eps
    d, _ = cKDTree(_embed4(xs, ys)).query(_embed4(xs, ys), k=2)
    q = float(np.quantile(d[:, 1], 0.25))
    return float(min(max(eps, 2.0 * q), 10.0 * eps))


def _components(xs: np.ndarray, ys: np.ndarray, radius: float) -> np.ndarray:
    """Single-linkage component label per point at the given radius."""
    m = xs.size
    pairs = cKDTree(_embed4(xs, ys)).query_pairs(radius, output_type="ndarray")
    data = np.ones(len(pairs), dtype=np.int8)
    adj = csr_matrix((data, (pairs[:, 0], pairs[:, 1])), shape=(m, m))
    _, labels = connected_components(adj, directed=False)
    return labels


def _apply_support(maps: Sequence[HenonMap], xs: np.ndarray, ys: np.ndarray):
    """Images of the cloud under every support map, concatenated."""
    ix, iy = zip(*(lanes.image(f, xs, ys) for f in maps))
    return np.concatenate(ix), np.concatenate(iy)


def _saturate(
    xs: np.ndarray, ys: np.ndarray, maps: Sequence[HenonMap], eps: float, box: float,
    assign: float,
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Grow the sample cloud until support images are covered.

    Only image points farther than the coverage radius ``assign`` from the
    cloud are added (after lattice dedup), so the cloud stays a sample of the
    set rather than a volumetric fill; points leaving the |coordinate| <= box
    window are discarded.  The flag reports whether coverage closed before
    the round or size limits."""
    for _ in range(_MAX_SATURATION_ROUNDS):
        tree = cKDTree(_embed4(xs, ys))
        ix, iy = _apply_support(maps, xs, ys)
        keep = (np.abs(ix) <= box) & (np.abs(iy) <= box)
        ix, iy = ix[keep], iy[keep]
        d, _ = tree.query(_embed4(ix, iy), k=1, distance_upper_bound=assign)
        far = ~np.isfinite(d)
        if far.sum() <= 1e-3 * max(ix.size, 1):
            return xs, ys, True
        nx, ny = _lattice_points(_quantize(ix[far], iy[far], eps), eps)
        d2, _ = tree.query(_embed4(nx, ny), k=1, distance_upper_bound=assign)
        fresh = ~np.isfinite(d2)
        xs = np.concatenate([xs, nx[fresh]])
        ys = np.concatenate([ys, ny[fresh]])
        if xs.size > _MAX_CLOUD:
            return xs, ys, False
    return xs, ys, False


# ---------------------------------------------------------------------------
# transition digraph


def _node_edges(
    xs: np.ndarray,
    ys: np.ndarray,
    labels: np.ndarray,
    maps: Sequence[HenonMap],
    radius: float,
) -> np.ndarray:
    """Directed edges (u, v): some support map sends a u-point within
    ``radius`` of a v-point.  Image points with no cloud point that close
    contribute no edge."""
    tree = cKDTree(_embed4(xs, ys))
    n_nodes = int(labels.max()) + 1
    codes = []
    for f in maps:
        ix, iy = lanes.image(f, xs, ys)
        d, j = tree.query(_embed4(ix, iy), k=1, distance_upper_bound=radius)
        ok = np.isfinite(d)
        codes.append(labels[ok].astype(np.int64) * n_nodes + labels[j[ok]])
    if not codes:
        return np.zeros((0, 2), dtype=np.int64)
    code = np.unique(np.concatenate(codes))
    return np.stack([code // n_nodes, code % n_nodes], axis=1)


def _adjacency(edges: np.ndarray, n_nodes: int) -> csr_matrix:
    if len(edges):
        return csr_matrix(
            (np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])),
            shape=(n_nodes, n_nodes),
        )
    return csr_matrix((n_nodes, n_nodes), dtype=np.int8)


def _bfs_levels(edges: np.ndarray, n_nodes: int, root: int) -> np.ndarray:
    lv = shortest_path(
        _adjacency(edges, n_nodes), method="D", unweighted=True, indices=root
    )
    return lv


def digraph_period(edges: Sequence[Tuple[int, int]], n_nodes: int) -> int:
    """gcd of cycle lengths of a strongly connected digraph.

    Computed as the gcd over all edges (u, v) of level(u) + 1 - level(v),
    with levels the BFS distances from node 0.
    """
    e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    if len(e) == 0:
        return 1
    nscc, _ = _strong_components(e, n_nodes)
    if nscc > 1:
        raise ValueError("digraph is not strongly connected")
    level = _bfs_levels(e, n_nodes, 0).astype(np.int64)
    g = int(np.gcd.reduce(level[e[:, 0]] + 1 - level[e[:, 1]]))
    return g if g else 1


def _strong_components(edges: np.ndarray, n_nodes: int) -> Tuple[int, np.ndarray]:
    return connected_components(
        _adjacency(edges, n_nodes), directed=True, connection="strong"
    )


def _terminal_sccs(edges: np.ndarray, n_nodes: int) -> List[np.ndarray]:
    """Strongly connected components with no outgoing edges.

    A singleton needs a self-loop to qualify; without one its images were
    not covered by the cloud and it is coverage debris, not invariant."""
    nscc, scc = _strong_components(edges, n_nodes)
    if len(edges):
        su, sv = scc[edges[:, 0]], scc[edges[:, 1]]
        outgoing = np.unique(su[su != sv])
        internal = np.unique(su[su == sv])
    else:
        outgoing = internal = np.zeros(0, dtype=np.int64)
    good = np.setdiff1d(internal, outgoing)
    return [np.nonzero(scc == s)[0] for s in good]


def _structure_from_graph(
    xs: np.ndarray, ys: np.ndarray, labels: np.ndarray, edges: np.ndarray
) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Period and cyclic parts (point index classes) of a candidate digraph.

    Raises NotMinimal when the digraph is not strongly connected.  Part 0 is
    the class of the lexicographically least cloud point, fixing the cyclic
    orientation.
    """
    n_nodes = int(labels.max()) + 1
    nscc, scc = _strong_components(edges, n_nodes)
    if nscc > 1:
        comps = [
            [int(p) for p in np.nonzero(np.isin(labels, nodes))[0]]
            for nodes in _terminal_sccs(edges, n_nodes)
        ]
        raise NotMinimal(comps)
    order = np.lexsort((ys.imag, ys.real, xs.imag, xs.real))
    root = int(labels[order[0]])
    level = _bfs_levels(edges, n_nodes, root)
    if not np.isfinite(level).all():
        raise NotMinimal([])  # pragma: no cover - single SCC is reachable
    level = level.astype(np.int64)
    if len(edges):
        g = int(np.gcd.reduce(level[edges[:, 0]] + 1 - level[edges[:, 1]]))
        r = abs(g) if g else 1
    else:
        r = 1
    cls = level[labels] % r
    parts = tuple(tuple(int(i) for i in np.nonzero(cls == j)[0]) for j in range(r))
    return r, parts


def _cycle_structure(
    xs: np.ndarray, ys: np.ndarray, maps: Sequence[HenonMap], eps: float
) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    link = _link_radius(xs, ys, eps)
    labels = _components(xs, ys, link)
    edges = _node_edges(xs, ys, labels, maps, max(_ASSIGN_FACTOR * eps, 1.5 * link))
    return _structure_from_graph(xs, ys, labels, edges)


def detect_period(dist: MapDistribution, L: MinimalSetDescriptor, seed: SequenceSeed,
                  sub_eps: Optional[float] = None) -> int:
    """Cyclic period of a finite minimal set from its transition digraph."""
    if L.is_infinity:
        raise ValueError("period detection needs a finite minimal set")
    eps = sub_eps if sub_eps is not None else L.cluster_eps
    xs = np.array([p[0] for p in L.cloud])
    ys = np.array([p[1] for p in L.cloud])
    maps = support_sample(dist, seed)
    r, _ = _cycle_structure(xs, ys, maps, eps)
    return r


# ---------------------------------------------------------------------------
# orbit recording


def _record_orbits(
    dist: MapDistribution,
    params: FiltrationParams,
    grid: Sequence[Point],
    burn_in: int,
    n_record: int,
    seed: SequenceSeed,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Post-burn-in orbit tails of bounded walkers.

    Returns (xs, ys, escaped_count, dropped_count); escapes are certified
    cone entries, dropped points fell outside the bidisk undecided.
    Recordings from walkers that later escape are debris the digraph stage
    discards as transient.
    """
    R = params.R
    streams = np.array(
        [rng.derive_stream(seed.stream_id, i) for i in range(len(grid))], dtype=np.uint64
    )
    X = np.array([p[0] for p in grid], dtype=np.complex128)
    Y = np.array([p[1] for p in grid], dtype=np.complex128)
    alive = np.ones(len(grid), dtype=bool)
    escaped = 0
    rec_x: List[np.ndarray] = []
    rec_y: List[np.ndarray] = []
    for step in range(burn_in + n_record):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        esc = np.abs(Y[idx]) > np.maximum(R, np.abs(X[idx]))
        if esc.any():
            alive[idx[esc]] = False
            escaped += int(esc.sum())
            idx = idx[~esc]
            if idx.size == 0:
                break
        nx, ny = lanes.step(dist, seed.master_seed, streams[idx], step, X[idx], Y[idx])
        bad = lanes.outside(nx, ny)
        if bad.any():
            alive[idx[bad]] = False
            keep = ~bad
            idx, nx, ny = idx[keep], nx[keep], ny[keep]
        X[idx] = nx
        Y[idx] = ny
        if step >= burn_in - 1:
            rec_x.append(X[alive].copy())
            rec_y.append(Y[alive].copy())
    xs = np.concatenate(rec_x) if rec_x else np.zeros(0, dtype=np.complex128)
    ys = np.concatenate(rec_y) if rec_y else np.zeros(0, dtype=np.complex128)
    inbox = (np.abs(xs) < R) & (np.abs(ys) < R)
    dropped = int((~inbox).sum())
    return xs[inbox], ys[inbox], escaped, dropped


# ---------------------------------------------------------------------------
# discovery


@dataclass(frozen=True)
class _Draft:
    xs: np.ndarray
    ys: np.ndarray
    period: int
    parts: Tuple[Tuple[int, ...], ...]
    saturated: bool


def _candidates_at(
    xs0: np.ndarray,
    ys0: np.ndarray,
    maps: Sequence[HenonMap],
    eps: float,
    box: float,
) -> List[_Draft]:
    """Saturate the recorded cloud and split it into terminal strongly
    connected pieces of the component digraph."""
    rows = _quantize(xs0, ys0, eps)
    if rows.shape[0] == 0:
        return []
    if rows.shape[0] > _START_CLOUD:  # fair spatial thinning: lattice rows sort
        stride = -(-rows.shape[0] // _START_CLOUD)
        rows = rows[::stride]
    xs, ys = _lattice_points(rows, eps)
    # coverage radius tracks the sampling density, not just eps, so finer
    # linking radii do not demand a volumetric fill of noise-blown blobs
    assign = max(_ASSIGN_FACTOR * eps, 2.0 * _link_radius(xs, ys, eps))
    xs, ys, ok = _saturate(xs, ys, maps, eps, box, assign)
    link = _link_radius(xs, ys, eps)
    labels = _components(xs, ys, link)
    edges = _node_edges(xs, ys, labels, maps, max(_ASSIGN_FACTOR * eps, 1.5 * link))
    drafts = []
    for nodes in _terminal_sccs(edges, int(labels.max()) + 1):
        sel = np.isin(labels, nodes)
        cx, cy = xs[sel], ys[sel]
        # reuse the digraph restricted to this component
        node_map = np.full(int(labels.max()) + 2, -1, dtype=np.int64)
        node_map[nodes] = np.arange(len(nodes))
        sub_labels = node_map[labels[sel]]
        both = np.isin(edges[:, 0], nodes) & np.isin(edges[:, 1], nodes)
        sub_edges = node_map[edges[both]]
        try:
            r, parts = _structure_from_graph(cx, cy, sub_labels, sub_edges)
        except NotMinimal:  # pragma: no cover - terminal SCCs are connected
            continue
        drafts.append(_Draft(cx, cy, r, parts, ok))
    return drafts


def _part_geometry(d: _Draft) -> Tuple[Tuple[Point, ...], Tuple[float, ...]]:
    centers: List[Point] = []
    radii: List[float] = []
    for part in d.parts:
        idx = np.array(part)
        cx = complex(d.xs[idx].mean())
        cy = complex(d.ys[idx].mean())
        r = float(np.hypot(np.abs(d.xs[idx] - cx), np.abs(d.ys[idx] - cy)).max())
        centers.append((cx, cy))
        radii.append(r)
    return tuple(centers), tuple(radii)


def _capture_radii(geoms: List[Tuple[Tuple[Point, ...], Tuple[float, ...]]],
                   eps: float) -> List[float]:
    """Per-descriptor capture radius: the default shrunk so neighborhoods of
    distinct descriptors cannot touch (0.3 of the part-ball gap each)."""
    default = max(3.0 * eps, 1e-2)
    caps = []
    for a, (ca, ra) in enumerate(geoms):
        gap = math.inf
        for b, (cb, rb) in enumerate(geoms):
            if a == b:
                continue
            for (cax, cay), pa in zip(ca, ra):
                for (cbx, cby), pb in zip(cb, rb):
                    d = math.hypot(abs(cax - cbx), abs(cay - cby)) - pa - pb
                    gap = min(gap, d)
        cap = default if gap == math.inf else min(default, 0.3 * max(gap, 0.0))
        caps.append(max(cap, eps / 4.0))
    return caps


def discover_minimal_sets(
    dist: MapDistribution,
    params: FiltrationParams,
    grid: Sequence[Point],
    seed: SequenceSeed,
    burn_in: int = 1000,
    n_record: int = 200,
    cluster_eps: Optional[float] = None,
) -> List[MinimalSetDescriptor]:
    """Attracting minimal set candidates reachable from a grid of starts.

    The descriptor for infinity is always present.  With cluster_eps None the
    linking radius starts at 1e-2 and is halved until the candidate count is
    stable across two refinements.  Candidates include non-attracting
    invariant sets the grid happens to hit exactly; certification separates
    those.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    if burn_in < 1000:
        raise ValueError("burn_in below 1e3")
    if cluster_eps is not None and not cluster_eps > 0:
        raise ValueError("cluster_eps must be positive")
    xs0, ys0, _, _ = _record_orbits(dist, params, grid, burn_in, n_record, seed)
    maps = support_sample(dist, seed)
    box = params.R

    if cluster_eps is not None:
        eps = cluster_eps
        drafts = _candidates_at(xs0, ys0, maps, eps, box)
    else:
        eps = 1e-2
        cache = {0: _candidates_at(xs0, ys0, maps, eps, box)}
        for k in range(6):
            for j in (k + 1, k + 2):
                if j not in cache:
                    cache[j] = _candidates_at(xs0, ys0, maps, eps / 2**j, box)
            if len(cache[k]) == len(cache[k + 1]) == len(cache[k + 2]):
                eps = eps / 2**k
                drafts = cache[k]
                break
        else:  # pragma: no cover - no stable count within six halvings
            eps = eps / 2**6
            drafts = cache[6]

    # stable ids: sort by lexicographically least cloud point
    def _key(d: _Draft):
        order = np.lexsort((d.ys.imag, d.ys.real, d.xs.imag, d.xs.real))
        i = order[0]
        return (d.xs.real[i], d.xs.imag[i], d.ys.real[i], d.ys.imag[i])

    drafts.sort(key=_key)
    geoms = [_part_geometry(d) for d in drafts]
    caps = _capture_radii(geoms, eps)

    out: List[MinimalSetDescriptor] = []
    for i, (d, (centers, radii), cap) in enumerate(zip(drafts, geoms, caps)):
        ratio = _pair_tracking(
            dist, params, centers, radii, cap,
            SequenceSeed(seed.master_seed, rng.derive_stream(seed.stream_id, _TAG_PROBE, i)),
            pairs=16, n_steps=100,
        )[0]
        out.append(
            MinimalSetDescriptor(
                id=i,
                cloud=tuple(zip((complex(v) for v in d.xs), (complex(v) for v in d.ys))),
                period=d.period,
                parts=d.parts,
                capture_radius=cap,
                contraction=ratio,
                cluster_eps=eps,
                parts_centers=centers,
                parts_radii=radii,
                saturated=d.saturated,
            )
        )
    out.append(
        MinimalSetDescriptor(
            id=INFINITY, cloud=(), period=1, parts=(), capture_radius=0.0,
            contraction=None, cluster_eps=eps, parts_centers=(), parts_radii=(),
        )
    )
    return out


# ---------------------------------------------------------------------------
# basin statistics


def _inside_descriptor(desc: MinimalSetDescriptor, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    hit = np.zeros(X.shape, dtype=bool)
    for (cx, cy), r in zip(desc.parts_centers, desc.parts_radii):
        hit |= np.hypot(np.abs(X - cx), np.abs(Y - cy)) <= r + desc.capture_radius
    return hit


def _tl_chunk(
    dist: MapDistribution,
    finite: Sequence[MinimalSetDescriptor],
    R: float,
    z: Point,
    master: int,
    streams: np.ndarray,
    max_iter: int,
) -> Tuple[np.ndarray, int, int]:
    m = streams.shape[0]
    X = np.full(m, complex(z[0]))
    Y = np.full(m, complex(z[1]))
    cand = np.full(m, -1, dtype=np.int64)
    run = np.zeros(m, dtype=np.int64)
    counts = np.zeros(len(finite), dtype=np.int64)
    inf_count = 0
    unresolved = 0
    for step in range(max_iter + 1):
        esc = np.abs(Y) > np.maximum(R, np.abs(X))
        if esc.any():
            inf_count += int(esc.sum())
            keep = ~esc
            X, Y, cand, run, streams = X[keep], Y[keep], cand[keep], run[keep], streams[keep]
        if X.size == 0:
            break
        if finite:
            inside = np.stack([_inside_descriptor(d, X, Y) for d in finite])
            n_in = inside.sum(axis=0)
            if (n_in > 1).any():
                raise AmbiguousCapture("orbit point lies in two capture neighborhoods")
            which = np.where(n_in == 1, inside.argmax(axis=0), -1)
        else:
            which = np.full(X.size, -1, dtype=np.int64)
        run = np.where(which < 0, 0, np.where(which == cand, run + 1, 1))
        cand = which
        done = run >= _CAPTURE_DWELL
        if done.any():
            counts += np.bincount(cand[done], minlength=len(finite))
            keep = ~done
            X, Y, cand, run, streams = X[keep], Y[keep], cand[keep], run[keep], streams[keep]
        if X.size == 0 or step == max_iter:
            break
        nx, ny = lanes.step(dist, master, streams, step, X, Y)
        bad = lanes.outside(nx, ny)
        if bad.any():
            unresolved += int(bad.sum())
            keep = ~bad
            nx, ny = nx[keep], ny[keep]
            X, Y, cand, run, streams = X[keep], Y[keep], cand[keep], run[keep], streams[keep]
        X, Y = nx, ny
    unresolved += int(X.size)
    return counts, inf_count, unresolved


def estimate_TL(
    dist: MapDistribution,
    minsets: Sequence[MinimalSetDescriptor],
    z: Point,
    samples: int,
    max_iter: int,
    seed: SequenceSeed,
    params: Optional[FiltrationParams] = None,
    threads: int = 1,
) -> BasinEstimate:
    """Capture statistics of the random orbit of z over sequence draws.

    An orbit is assigned to a finite descriptor after 20 consecutive points
    inside its capture neighborhood, to INFINITY on entering the escape cone;
    orbits still undecided after max_iter steps count as unresolved.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if params is None:
        params = condition_a_params(dist)
    finite = [d for d in minsets if not d.is_infinity]
    streams = np.array(
        [rng.derive_stream(seed.stream_id, _TAG_TL, i) for i in range(samples)],
        dtype=np.uint64,
    )

    def work(a, b):
        return _tl_chunk(dist, finite, params.R, z, seed.master_seed, streams[a:b], max_iter)

    results = lanes.run_blocks(work, samples, 4096, threads)
    counts = np.sum([r[0] for r in results], axis=0) if finite else np.zeros(0, np.int64)
    inf_count = sum(r[1] for r in results)
    unresolved = sum(r[2] for r in results)
    tally: Dict[Union[int, str], int] = {
        d.id: int(c) for d, c in zip(finite, counts)
    }
    tally[INFINITY] = int(inf_count)
    return BasinEstimate(counts=tally, unresolved_count=int(unresolved), samples=samples)


# ---------------------------------------------------------------------------
# certification


def _pair_tracking(
    dist: MapDistribution,
    params: FiltrationParams,
    centers: Sequence[Point],
    radii: Sequence[float],
    cap: float,
    seed: SequenceSeed,
    pairs: int,
    n_steps: int,
) -> Tuple[float, int, int]:
    """Worst-case per-step contraction ratio over probe pairs.

    Each pair starts in a random part's capture neighborhood and is driven by
    a shared map sequence; returns (max ratio, used, skipped).  Escape or
    overflow of a pair makes its ratio infinite.
    """
    k = len(centers)
    starts_x = np.empty(2 * pairs, dtype=np.complex128)
    starts_y = np.empty(2 * pairs, dtype=np.complex128)
    streams = np.empty(2 * pairs, dtype=np.uint64)
    for p in range(pairs):
        s = rng.derive_stream(seed.stream_id, p)
        j = rng.word64(seed.master_seed, s, 0, 0) % k
        (cx, cy), r = centers[j], radii[j]
        h = (r + cap) / 2.0
        for half in range(2):
            u = [rng.uniform01(seed.master_seed, s, 1 + half, w) for w in range(4)]
            starts_x[2 * p + half] = cx + complex(2 * u[0] - 1, 2 * u[1] - 1) * h
            starts_y[2 * p + half] = cy + complex(2 * u[2] - 1, 2 * u[3] - 1) * h
        streams[2 * p] = streams[2 * p + 1] = rng.derive_stream(seed.stream_id, p, 2)
    d0 = np.hypot(
        np.abs(starts_x[0::2] - starts_x[1::2]), np.abs(starts_y[0::2] - starts_y[1::2])
    )
    X, Y = starts_x.copy(), starts_y.copy()
    blown = np.zeros(pairs, dtype=bool)
    # per-pair distance and step count frozen at first passage below 1e-13,
    # before the paired orbits collapse onto the same float orbit
    dn = d0.copy()
    n_eff = np.zeros(pairs, dtype=np.int64)
    frozen = np.zeros(pairs, dtype=bool)
    R = params.R
    for step in range(n_steps):
        esc = np.abs(Y) > np.maximum(R, np.abs(X))
        nx, ny = lanes.step(dist, seed.master_seed, streams, step, X, Y)
        lane_bad = esc | lanes.outside(nx, ny)
        blown |= lane_bad[0::2] | lane_bad[1::2]
        ok = ~lane_bad
        X = np.where(ok, nx, X)
        Y = np.where(ok, ny, Y)
        d = np.hypot(np.abs(X[0::2] - X[1::2]), np.abs(Y[0::2] - Y[1::2]))
        live = ~frozen & ~blown
        dn[live] = d[live]
        n_eff[live] = step + 1
        frozen |= live & (d < 1e-13)
    usable = (d0 >= 1e-12) & (n_eff > 0)
    skipped = int((~usable).sum())
    safe_n = np.maximum(n_eff, 1)
    ratios = np.where(blown, np.inf, (dn / np.where(usable, d0, 1.0)) ** (1.0 / safe_n))
    ratios = ratios[usable]
    worst = float(ratios.max()) if ratios.size else math.inf
    return worst, int(usable.sum()), skipped


def certify_attracting(
    dist: MapDistribution,
    L: MinimalSetDescriptor,
    params: FiltrationParams,
    seed: SequenceSeed,
    pairs: int = 32,
    n_steps: int = 200,
) -> ContractionReport:
    """Two-point contraction certificate on the capture neighborhood.

    Certifies when the worst pair ratio (d_n/d_0)^(1/n) stays below 1 - 1e-3.
    """
    if L.is_infinity:
        raise ValueError("certification applies to finite minimal sets")
    ratio, used, skipped = _pair_tracking(
        dist, params, L.parts_centers, L.parts_radii, L.capture_radius,
        seed, pairs, n_steps,
    )
    return ContractionReport(
        ratio=ratio,
        certified=used > 0 and ratio < 1.0 - 1e-3,
        pairs=used,
        n_steps=n_steps,
        skipped=skipped,
    )
