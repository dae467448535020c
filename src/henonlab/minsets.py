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
# certified contraction: the worst probe-pair ratio stays below 1 - 1e-3
ATTRACTING_RATIO = 0.999


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

    @property
    def attracting(self) -> bool:
        return self.contraction is not None and self.contraction < ATTRACTING_RATIO


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


def cluster_eps_floor(R: float) -> float:
    """cluster_eps must exceed this: cloud points lie in the R-bidisk, and
    below it their eps/4 lattice index can overflow int64."""
    return 4.0 * R / 2.0**62


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


def _link_radius(tree: cKDTree, eps: float) -> float:
    """Linking radius adapted to the cloud's sampling density.

    eps when the cloud is at least that dense, otherwise twice the lower
    quartile of nearest-neighbor spacing, capped at 10 eps so genuinely
    separated structures (isolated cycle points) never merge.
    """
    if tree.n < 2:
        return eps
    d, _ = tree.query(tree.data, k=2)
    q = float(np.quantile(d[:, 1], 0.25))
    return float(min(max(eps, 2.0 * q), 10.0 * eps))


def _components(tree: cKDTree, radius: float) -> np.ndarray:
    """Single-linkage component label per point at the given radius."""
    m = tree.n
    pairs = tree.query_pairs(radius, output_type="ndarray")
    data = np.ones(len(pairs), dtype=np.int8)
    adj = csr_matrix((data, (pairs[:, 0], pairs[:, 1])), shape=(m, m))
    _, labels = connected_components(adj, directed=False)
    return labels


def _image_hits(
    tree: cKDTree, xs: np.ndarray, ys: np.ndarray, maps: Sequence[HenonMap],
    radius: float, box: float = math.inf,
):
    """For each support map in turn: the mask of cloud points whose image
    stays in the |coordinate| <= box window, those images, and the index of
    each image's nearest cloud point within ``radius`` (``tree.n`` where
    there is none)."""
    for f in maps:
        ix, iy = lanes.image(f, xs, ys)
        keep = (np.abs(ix) <= box) & (np.abs(iy) <= box)
        ix, iy = ix[keep], iy[keep]
        _, j = tree.query(_embed4(ix, iy), k=1, distance_upper_bound=radius)
        yield keep, ix, iy, j


def _fresh(tree: cKDTree, fx: List[np.ndarray], fy: List[np.ndarray], eps: float,
           assign: float) -> Tuple[np.ndarray, np.ndarray]:
    """Lattice points of the far images that no cloud point covers."""
    nx, ny = _lattice_points(_quantize(np.concatenate(fx), np.concatenate(fy), eps), eps)
    _, j = tree.query(_embed4(nx, ny), k=1, distance_upper_bound=assign)
    return nx[j == tree.n], ny[j == tree.n]


def _saturate(
    xs: np.ndarray, ys: np.ndarray, maps: Sequence[HenonMap], eps: float, box: float,
    assign: float, tree: Optional[cKDTree] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[cKDTree]]:
    """Grow the sample cloud until support images are covered.

    Only image points farther than the coverage radius ``assign`` from the
    cloud are added (after lattice dedup), so the cloud stays a sample of the
    set rather than a volumetric fill; points leaving the |coordinate| <= box
    window are discarded.  The third value is the closing round's index of
    the returned cloud when coverage closed, and None when it did not; the
    cloud stops unclosed at the round limit, or before a round that would
    carry it past ``_MAX_CLOUD`` points.  Images never change and the cloud
    only grows, so a round's far images are the last round's still far plus
    those of the points it added; only these are queried (the dedup sorts,
    so their order never reaches the cloud).  Within a round the tree is
    fixed: once the far count exceeds 1e-3 of the most in-window images the
    round can reach, it cannot close, and once the fresh points of the far
    images so far (a subset of the round's) outgrow the room, it stops where
    the whole round would.  That subset is recounted as the far count doubles.
    ``tree``, when given, indexes the start cloud and serves round 1."""
    new_x, new_y, kept, far_x, far_y = xs, ys, 0, xs[:0], ys[:0]
    for r in range(_MAX_SATURATION_ROUNDS):
        if r or tree is None:
            tree = cKDTree(_embed4(xs, ys))
        _, j = tree.query(_embed4(far_x, far_y), k=1, distance_upper_bound=assign)
        far_x, far_y = [far_x[j == tree.n]], [far_y[j == tree.n]]
        n_far, counted, room = far_x[0].size, 0, _MAX_CLOUD - xs.size
        for m, (_, ix, iy, j) in enumerate(_image_hits(tree, new_x, new_y, maps, assign, box)):
            far_x.append(ix[j == tree.n])
            far_y.append(iy[j == tree.n])
            n_far, kept = n_far + far_x[-1].size, kept + ix.size
            if n_far > max(room, 2 * counted) and (
                    n_far > 1e-3 * (kept + (len(maps) - 1 - m) * new_x.size)):
                counted = n_far
                if _fresh(tree, far_x, far_y, eps, assign)[0].size > room:
                    return xs, ys, None
        far_x, far_y = np.concatenate(far_x), np.concatenate(far_y)
        if far_x.size <= 1e-3 * max(kept, 1):
            return xs, ys, tree
        new_x, new_y = _fresh(tree, [far_x], [far_y], eps, assign)
        if new_x.size > room:
            return xs, ys, None
        xs, ys = np.concatenate([xs, new_x]), np.concatenate([ys, new_y])
    return xs, ys, None


# ---------------------------------------------------------------------------
# transition digraph


def _node_edges(
    tree: cKDTree, xs: np.ndarray, ys: np.ndarray, labels: np.ndarray,
    maps: Sequence[HenonMap], radius: float,
) -> np.ndarray:
    """Directed edges (u, v): some support map sends a u-point within
    ``radius`` of a v-point.  Image points with no cloud point that close
    contribute no edge."""
    n_nodes = int(labels.max()) + 1
    codes = []
    for keep, _, _, j in _image_hits(tree, xs, ys, maps, radius):
        hit = j < tree.n
        codes.append(labels[keep][hit].astype(np.int64) * n_nodes + labels[j[hit]])
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
    """BFS distance of every node from root; -1 for nodes it does not reach."""
    dist = shortest_path(_adjacency(edges, n_nodes), method="D", unweighted=True, indices=root)
    return np.where(np.isinf(dist), -1, dist).astype(np.int64)


def _level_period(edges: np.ndarray, level: np.ndarray) -> int:
    """gcd over all edges (u, v) of level(u) + 1 - level(v): the period of a
    strongly connected digraph whose BFS levels are ``level``."""
    if not len(edges):
        return 1
    return int(np.gcd.reduce(level[edges[:, 0]] + 1 - level[edges[:, 1]])) or 1


def digraph_period(edges: Sequence[Tuple[int, int]], n_nodes: int) -> int:
    """gcd of cycle lengths of a strongly connected digraph, with levels the
    BFS distances from node 0."""
    e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    if len(e) == 0:
        return 1
    nscc, _ = _strong_components(e, n_nodes)
    if nscc > 1:
        raise ValueError("digraph is not strongly connected")
    return _level_period(e, _bfs_levels(e, n_nodes, 0))


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


def _digraph(
    tree: cKDTree, xs: np.ndarray, ys: np.ndarray, maps: Sequence[HenonMap], eps: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Component labels of the cloud at its linking radius, and the
    transition edges between the components, from ``tree``, the cloud's
    index."""
    link = _link_radius(tree, eps)
    labels = _components(tree, link)
    radius = max(_ASSIGN_FACTOR * eps, 1.5 * link)
    return labels, _node_edges(tree, xs, ys, labels, maps, radius)


def _cyclic_parts(
    xs: np.ndarray, ys: np.ndarray, labels: np.ndarray, edges: np.ndarray
) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """Period and cyclic parts (point index classes) of a strongly connected
    candidate digraph: ``labels`` are the candidate points' node ids and
    ``edges`` the candidate's own edges.  Part 0 is the class of the
    lexicographically least cloud point, fixing the cyclic orientation."""
    order = np.lexsort((ys.imag, ys.real, xs.imag, xs.real))
    level = _bfs_levels(edges, int(labels.max()) + 1, int(labels[order[0]]))
    r = _level_period(edges, level)
    cls = level[labels] % r
    return r, tuple(tuple(int(i) for i in np.nonzero(cls == j)[0]) for j in range(r))


def detect_period(dist: MapDistribution, L: MinimalSetDescriptor, seed: SequenceSeed,
                  sub_eps: Optional[float] = None) -> int:
    """Cyclic period of a finite minimal set from its transition digraph.

    Raises NotMinimal, carrying the terminal components as point index
    lists, when the digraph is not strongly connected."""
    if L.is_infinity:
        raise ValueError("period detection needs a finite minimal set")
    eps = sub_eps if sub_eps is not None else L.cluster_eps
    xs = np.array([p[0] for p in L.cloud])
    ys = np.array([p[1] for p in L.cloud])
    labels, edges = _digraph(cKDTree(_embed4(xs, ys)), xs, ys, support_sample(dist, seed), eps)
    n_nodes = int(labels.max()) + 1
    nscc, _ = _strong_components(edges, n_nodes)
    if nscc > 1:
        raise NotMinimal([
            [int(p) for p in np.nonzero(np.isin(labels, nodes))[0]]
            for nodes in _terminal_sccs(edges, n_nodes)
        ])
    return _cyclic_parts(xs, ys, labels, edges)[0]


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
    streams = rng.stream_table(seed.stream_id, len(grid))
    X = np.array([p[0] for p in grid], dtype=np.complex128)
    Y = np.array([p[1] for p in grid], dtype=np.complex128)
    w = lanes.Walk(X, Y, streams, dist, seed.master_seed)
    escaped = 0
    rec_x: List[np.ndarray] = []
    rec_y: List[np.ndarray] = []
    for step in range(burn_in + n_record):
        escaped += w.retire(w.in_cone(R)).size
        if step == 0:  # walkers that start outside the window are never stepped
            w.move(w.X, w.Y)
        if not len(w):
            break
        w.step(step)
        if step >= burn_in - 1:
            rec_x.append(w.X)
            rec_y.append(w.Y)
    xs = np.concatenate(rec_x) if rec_x else np.zeros(0, dtype=np.complex128)
    ys = np.concatenate(rec_y) if rec_y else np.zeros(0, dtype=np.complex128)
    inbox = lanes.in_bidisk(xs, ys, R)
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


def _candidates_at(
    xs0: np.ndarray, ys0: np.ndarray, maps: Sequence[HenonMap], eps: float, box: float
) -> List[_Draft]:
    """Saturate the recorded cloud and split it into terminal strongly
    connected pieces of the component digraph.  A cloud whose coverage does
    not close gives no candidates."""
    rows = _quantize(xs0, ys0, eps)
    if rows.shape[0] == 0:
        return []
    if rows.shape[0] > _START_CLOUD:  # fair spatial thinning: lattice rows sort
        stride = -(-rows.shape[0] // _START_CLOUD)
        rows = rows[::stride]
    xs, ys = _lattice_points(rows, eps)
    # coverage radius tracks the sampling density, not just eps, so finer
    # linking radii do not demand a volumetric fill of noise-blown blobs
    tree = cKDTree(_embed4(xs, ys))
    assign = max(_ASSIGN_FACTOR * eps, 2.0 * _link_radius(tree, eps))
    xs, ys, tree = _saturate(xs, ys, maps, eps, box, assign, tree=tree)
    if tree is None:
        return []
    labels, edges = _digraph(tree, xs, ys, maps, eps)
    drafts = []
    for nodes in _terminal_sccs(edges, int(labels.max()) + 1):
        sel = np.isin(labels, nodes)
        # a terminal SCC's out-edges stay inside it
        r, parts = _cyclic_parts(xs[sel], ys[sel], labels[sel], edges[np.isin(edges[:, 0], nodes)])
        drafts.append(_Draft(xs[sel], ys[sel], r, parts))
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
    floor = cluster_eps_floor(params.R)
    if cluster_eps is not None and not cluster_eps > floor:
        raise ValueError(f"cluster_eps must exceed 4 R / 2**62 = {floor:.3g}")
    xs0, ys0, _, _ = _record_orbits(dist, params, grid, burn_in, n_record, seed)
    maps = support_sample(dist, seed)
    box = params.R

    if cluster_eps is not None:
        eps, drafts = cluster_eps, _candidates_at(xs0, ys0, maps, cluster_eps, box)
    else:
        # halve eps from 1e-2 until the candidate count holds over two more
        # halvings; after six halvings take the sixth
        levels: Dict[int, List[_Draft]] = {}

        def level(j: int) -> List[_Draft]:
            if j not in levels:
                levels[j] = _candidates_at(xs0, ys0, maps, 1e-2 / 2**j, box)
            return levels[j]

        k = next((k for k in range(6)
                  if len(level(k)) == len(level(k + 1)) == len(level(k + 2))), 6)
        eps, drafts = 1e-2 / 2**k, level(k)

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
            seed.derive(_TAG_PROBE, i),
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
    starts: Tuple[np.ndarray, np.ndarray],
    master: int,
    streams: np.ndarray,
    max_iter: int,
    probe: np.ndarray,
) -> np.ndarray:
    """Walk lane j from probe[j]'s start point (starts holds every probe's x
    and y) on its own stream; probe is non-decreasing.  Returns the tally of
    probes probe[0]..probe[-1], one row each: one column per finite
    descriptor, then INFINITY, then unresolved."""
    m, k = streams.shape[0], len(finite)
    w = lanes.Walk(starts[0][probe], starts[1][probe], streams, dist, master,
                   cand=np.full(m, -1, dtype=np.int64), run=np.zeros(m, dtype=np.int64))
    # a lane stays unresolved (column k + 1) unless it escapes or is captured
    fate = np.full(m, k + 1, dtype=np.int64)
    for step in range(max_iter + 1):
        fate[w.retire(w.in_cone(R))] = k
        if step == 0:  # lanes that start outside the window stay unresolved, never stepped
            w.move(w.X, w.Y)
        if not len(w):
            break
        if finite:
            inside = np.stack([_inside_descriptor(d, w.X, w.Y) for d in finite])
            n_in = inside.sum(axis=0)
            ambiguous = np.flatnonzero(n_in > 1)
            if ambiguous.size:
                p = int(probe[w.lane[ambiguous[0]]])
                z = (complex(starts[0][p]), complex(starts[1][p]))
                raise AmbiguousCapture(
                    f"orbit of probe {p} from {z} lies in two capture neighborhoods")
            which = np.where(n_in == 1, inside.argmax(axis=0), -1)
        else:
            which = np.full(len(w), -1, dtype=np.int64)
        run = np.where(which < 0, 0, np.where(which == w.carry["cand"], w.carry["run"] + 1, 1))
        w.carry.update(cand=which, run=run)
        done = run >= _CAPTURE_DWELL
        if np.count_nonzero(done):
            fate[w.retire(done)] = which[done]
        if not len(w) or step == max_iter:
            break
        w.step(step)  # lanes that leave the window stay unresolved
    rows = int(probe[-1] - probe[0]) + 1
    return np.bincount((probe - probe[0]) * (k + 2) + fate, minlength=rows * (k + 2)).reshape(rows, k + 2)


def estimate_TL_many(
    dist: MapDistribution,
    minsets: Sequence[MinimalSetDescriptor],
    probes: Sequence[Point],
    samples: int,
    max_iter: int,
    seeds: Sequence[SequenceSeed],
    params: Optional[FiltrationParams] = None,
    threads: int = 1,
) -> List[BasinEstimate]:
    """Capture statistics of :func:`estimate_TL` at every probe, probe i on
    seeds[i], from one walk over probes x samples lanes.

    Lanes are laid out probe-major and run in fixed blocks, which may split a
    probe; a block builds its own lanes' streams and tallies only the probes
    it covers, so a block's memory does not grow with the probe count.  A
    lane's draws depend only on (master seed, its stream, step) and every
    lane operation is elementwise, so each estimate equals the one-probe call
    bit for bit; hence all seeds must share one master seed.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if len(seeds) != len(probes):
        raise ValueError("need one seed per probe")
    if len({s.master_seed for s in seeds}) > 1:
        raise ValueError("probe seeds must share one master seed")
    if not probes:
        return []
    if params is None:
        params = condition_a_params(dist)
    finite = [d for d in minsets if not d.is_infinity]
    starts = (np.array([complex(z[0]) for z in probes]), np.array([complex(z[1]) for z in probes]))
    prefixes = np.array([rng.derive_stream(s.stream_id, _TAG_TL) for s in seeds], dtype=np.uint64)
    master = seeds[0].master_seed

    def work(a, b):
        # lane j is entry j - probe * samples of its probe's stream table
        j = np.arange(a, b)
        probe = j // samples
        streams = rng.stream_entries(prefixes[probe], j - probe * samples)
        return probe[0], _tl_chunk(dist, finite, params.R, starts, master, streams, max_iter, probe)

    tally = np.zeros((len(probes), len(finite) + 2), dtype=np.int64)
    for p0, part in lanes.run_blocks(work, len(probes) * samples, lanes.WALK_BLOCK, threads):
        tally[p0:p0 + len(part)] += part
    ids = [d.id for d in finite] + [INFINITY]
    return [
        BasinEstimate(counts={i: int(c) for i, c in zip(ids, row)},
                      unresolved_count=int(row[-1]), samples=samples)
        for row in tally
    ]


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
    orbits still undecided after max_iter steps, or that leave the
    exact-arithmetic window, count as unresolved.  A one-probe call of
    :func:`estimate_TL_many`; raises AmbiguousCapture when an orbit point
    lies in two capture neighborhoods.
    """
    return estimate_TL_many(dist, minsets, [z], samples, max_iter, [seed], params, threads)[0]


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
    w = lanes.Walk(starts_x, starts_y, streams, dist, seed.master_seed)
    blown = np.zeros(pairs, dtype=bool)
    # a pair with a lane outside the window is blown before any step
    blown[w.move(w.X, w.Y) // 2] = True
    w.retire(blown[w.lane // 2])
    # per-pair distance and step count frozen at first passage below 1e-13,
    # before the paired orbits collapse onto the same float orbit
    dn = d0.copy()
    n_eff = np.zeros(pairs, dtype=np.int64)
    frozen = np.zeros(pairs, dtype=bool)
    R = params.R
    for step in range(n_steps):
        # a pair is blown, and retires, when either lane enters the cone or
        # leaves the window
        blown[w.lane[w.in_cone(R)] // 2] = True
        w.retire(blown[w.lane // 2])
        if not len(w):
            break
        blown[w.step(step) // 2] = True
        w.retire(blown[w.lane // 2])
        # frozen pairs keep walking: a later escape still blows them
        pair = w.lane[0::2] // 2
        d = np.hypot(np.abs(w.X[0::2] - w.X[1::2]), np.abs(w.Y[0::2] - w.Y[1::2]))
        live = ~frozen[pair]
        dn[pair[live]] = d[live]
        n_eff[pair[live]] = step + 1
        frozen[pair[live & (d < 1e-13)]] = True
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

    Certifies when the worst pair ratio (d_n/d_0)^(1/n) stays below
    ATTRACTING_RATIO, the bound MinimalSetDescriptor.attracting uses.
    """
    if L.is_infinity:
        raise ValueError("certification applies to finite minimal sets")
    ratio, used, skipped = _pair_tracking(
        dist, params, L.parts_centers, L.parts_radii, L.capture_radius,
        seed, pairs, n_steps,
    )
    return ContractionReport(
        ratio=ratio,
        certified=used > 0 and ratio < ATTRACTING_RATIO,
        pairs=used,
        n_steps=n_steps,
        skipped=skipped,
    )
