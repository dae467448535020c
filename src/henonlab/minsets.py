"""Attracting minimal sets: discovery, cyclic structure, basin statistics.

A minimal set is represented by a cloud of orbit samples, saturated under a
finite sample of the map support.  Components of the cloud at the linking
radius form the nodes of a transition digraph; terminal strongly connected
components are the minimal set candidates, their digraph period is the
cyclic order r, and the BFS level classes mod r are the cyclically permuted
parts.

Every nearest-neighbor question goes to one KD-tree query helper: the
images of a batch under consecutive support maps are asked in fixed groups
of whole maps, and a large query runs on the ``threads`` workers.  A point's
nearest index depends neither on the grouping nor on the worker count, so
discovery returns the same result at any thread count.  Each discovery
level finds its linking radius once, on the start cloud, and derives one
coverage radius from it: saturation certifies coverage at that radius and
the digraph draws its edges at it.  No question is asked twice: a level
whose cloud closes in the first saturation round with no image outside the
box takes its digraph edges from round 1's answers.

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
from .dist import (
    FiniteDist, MapDistribution, SequenceSeed, condition_a_params, support_sample,
)

INFINITY = "infinity"

_MAX_SATURATION_ROUNDS = 50
_MAX_CLOUD = 100_000
_START_CLOUD = 20_000
_ASSIGN_FACTOR = 5.0  # coverage radius in units of cluster_eps
# images per KD query: whole support maps, at most this many unless one map
# has more; fixed, so a query's grouping never depends on the thread count
_QUERY_GROUP = 1 << 17
# a KD query of fewer points runs on one worker.  Two workers against one,
# on a 1,809-point cloud of the radius-0.05 ladder (2 cores, median of 21,
# three runs) took 0.86-0.92x the time at 2,048 points, 0.60-0.92x at 4,096
# and 8,192, 0.79-0.88x at 16,384 and 0.61-0.77x at 65,536: below 2^14 the
# gain is small and unsteady
_THREADED_QUERY = 1 << 14
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
    """Snap points to the eps/4 lattice; returns unique int64 rows (4 cols),
    sorted as np.unique(rows, axis=0) sorts them: one lexsort keeps each
    run's first row, at about a third of np.unique's cost."""
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
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first]


def _lattice_points(rows: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    q = eps / 4.0
    xs = rows[:, 0] * q + 1j * rows[:, 1] * q
    ys = rows[:, 2] * q + 1j * rows[:, 3] * q
    return xs, ys


def _embed4(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return np.stack([xs.real, xs.imag, ys.real, ys.imag], axis=1)


def _nearest(tree: cKDTree, pts: np.ndarray, radius: float = math.inf, threads: int = 1,
             k: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Distances and indices of the k cloud points nearest each row of the
    (m, 4) array ``pts`` within ``radius`` (index ``tree.n`` where there is
    none): this module's one KD query.  A row's answer depends neither on
    the other rows nor on the worker count, so a query of at least
    ``_THREADED_QUERY`` rows runs on ``threads`` workers."""
    workers = threads if len(pts) >= _THREADED_QUERY else 1
    return tree.query(pts, k=k, distance_upper_bound=radius, workers=workers)


def _link_radius(tree: cKDTree, eps: float, threads: int = 1) -> float:
    """Linking radius adapted to the cloud's sampling density.

    eps when the cloud is at least that dense, otherwise twice the lower
    quartile of nearest-neighbor spacing, capped at 10 eps so genuinely
    separated structures (isolated cycle points) never merge.
    """
    if tree.n < 2:
        return eps
    d, _ = _nearest(tree, tree.data, threads=threads, k=2)
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
    radius: float, box: float = math.inf, threads: int = 1,
):
    """For each support map in turn: the mask of cloud points whose image
    stays in the |coordinate| <= box window, the index of each such image's
    nearest cloud point within ``radius`` (``tree.n`` where there is none),
    and the x and y of the images with none.  The images of consecutive
    maps are queried together, in groups of whole maps of at most
    ``_QUERY_GROUP`` images (one map's, when it alone has more); a group's
    images are dropped before its maps are yielded."""
    per = max(1, _QUERY_GROUP // max(xs.size, 1))
    for g in range(0, len(maps), per):
        # row i holds image i's x and y; viewed as float64 it is _embed4's
        z = np.empty((min(per, len(maps) - g) * xs.size, 2), dtype=np.complex128)
        keeps, ends = [], [0]
        for f in maps[g:g + per]:
            ix, iy = lanes.image(f, xs, ys)
            keep = (np.abs(ix) <= box) & (np.abs(iy) <= box)
            a, b = ends[-1], ends[-1] + int(np.count_nonzero(keep))
            z[a:b, 0], z[a:b, 1] = ix[keep], iy[keep]
            keeps.append(keep)
            ends.append(b)
        _, j = _nearest(tree, z[:ends[-1]].view(np.float64), radius, threads)
        far = [z[a:b][j[a:b] == tree.n] for a, b in zip(ends, ends[1:])]
        del z
        for keep, a, b, w in zip(keeps, ends, ends[1:], far):
            yield keep, j[a:b], w[:, 0], w[:, 1]


def _fresh(tree: cKDTree, fx: List[np.ndarray], fy: List[np.ndarray], eps: float,
           assign: float, threads: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Lattice points of the far images that no cloud point covers."""
    nx, ny = _lattice_points(_quantize(np.concatenate(fx), np.concatenate(fy), eps), eps)
    _, j = _nearest(tree, _embed4(nx, ny), assign, threads)
    return nx[j == tree.n], ny[j == tree.n]


def _saturate(
    xs: np.ndarray, ys: np.ndarray, maps: Sequence[HenonMap], eps: float, box: float,
    assign: float, tree: Optional[cKDTree] = None, threads: int = 1, *,
    answers: Optional[list] = None,
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
    The test runs as each map's images come in, but they are queried a group
    of maps at a time (:func:`_image_hits`), so a stop leaves at most the
    rest of one group queried in vain; the outcome is the same at any
    grouping.  ``tree``, when given, indexes the start cloud and serves
    round 1; ``threads`` is the worker count of large queries.  ``answers``,
    when given, receives round 1's per-map (keep, j) if round 1 closes with
    every image inside the box: the answers :func:`_node_edges` would ask
    for at radius ``assign``.  Otherwise it stays empty, and round 1's
    answers are dropped once it fails to close."""
    new_x, new_y, kept, far_x, far_y = xs, ys, 0, xs[:0], ys[:0]
    asked: list = []
    for r in range(_MAX_SATURATION_ROUNDS):
        if r or tree is None:
            tree = cKDTree(_embed4(xs, ys))
        _, j = _nearest(tree, _embed4(far_x, far_y), assign, threads)
        far_x, far_y = [far_x[j == tree.n]], [far_y[j == tree.n]]
        n_far, counted, room = far_x[0].size, 0, _MAX_CLOUD - xs.size
        hits = _image_hits(tree, new_x, new_y, maps, assign, box, threads)
        for m, (keep, j, fx, fy) in enumerate(hits):
            if answers is not None and not r:
                asked.append((keep, j))
            far_x.append(fx)
            far_y.append(fy)
            n_far, kept = n_far + fx.size, kept + j.size
            if n_far > max(room, 2 * counted) and (
                    n_far > 1e-3 * (kept + (len(maps) - 1 - m) * new_x.size)):
                counted = n_far
                if _fresh(tree, far_x, far_y, eps, assign, threads)[0].size > room:
                    return xs, ys, None
        far_x, far_y = np.concatenate(far_x), np.concatenate(far_y)
        if far_x.size <= 1e-3 * max(kept, 1):
            if asked and kept == len(maps) * xs.size:  # no image left the box
                answers.extend(asked)
            return xs, ys, tree
        asked.clear()
        new_x, new_y = _fresh(tree, [far_x], [far_y], eps, assign, threads)
        if new_x.size > room:
            return xs, ys, None
        xs, ys = np.concatenate([xs, new_x]), np.concatenate([ys, new_y])
    return xs, ys, None


# ---------------------------------------------------------------------------
# transition digraph


def _node_edges(
    tree: cKDTree, xs: np.ndarray, ys: np.ndarray, labels: np.ndarray,
    maps: Sequence[HenonMap], radius: float, threads: int = 1, *,
    answers: Optional[Sequence] = None,
) -> np.ndarray:
    """Directed edges (u, v): some support map sends a u-point within
    ``radius`` of a v-point.  Image points with no cloud point that close
    contribute no edge.  ``answers``, when nonempty, holds every map's
    (keep, j) of :func:`_image_hits` on this tree at ``radius`` with no
    box, and is read instead of asked again."""
    n_nodes = int(labels.max()) + 1
    codes = []
    hits = answers or (
        (keep, j) for keep, j, _, _ in _image_hits(tree, xs, ys, maps, radius, threads=threads))
    for keep, j in hits:
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


def _scales(tree: cKDTree, eps: float, threads: int = 1) -> Tuple[float, float]:
    """Linking radius of ``tree``'s cloud and the coverage radius derived
    from it, at which saturation certifies coverage and the digraph draws
    its edges.  Coverage tracks the sampling density, not just eps, so finer
    linking radii do not demand a volumetric fill of noise-blown blobs."""
    link = _link_radius(tree, eps, threads)
    return link, max(_ASSIGN_FACTOR * eps, 2.0 * link)


def _digraph(
    tree: cKDTree, xs: np.ndarray, ys: np.ndarray, maps: Sequence[HenonMap], link: float,
    assign: float, threads: int = 1, *, answers: Optional[Sequence] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Component labels of the cloud at the linking radius ``link``, and the
    transition edges between the components at the coverage radius
    ``assign``, from ``tree``, the cloud's index; ``answers`` are passed on
    to :func:`_node_edges`."""
    labels = _components(tree, link)
    return labels, _node_edges(tree, xs, ys, labels, maps, assign, threads, answers=answers)


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
    tree = cKDTree(_embed4(xs, ys))
    labels, edges = _digraph(tree, xs, ys, support_sample(dist, seed), *_scales(tree, eps))
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
    xs0: np.ndarray, ys0: np.ndarray, maps: Sequence[HenonMap], eps: float, box: float,
    threads: int = 1,
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
    start = cKDTree(_embed4(xs, ys))
    link, assign = _scales(start, eps, threads)
    # a level that closes in round 1 has asked the digraph's question too
    answers: list = []
    xs, ys, tree = _saturate(xs, ys, maps, eps, box, assign, tree=start, threads=threads,
                             answers=answers)
    if tree is None:
        return []
    labels, edges = _digraph(tree, xs, ys, maps, link, assign, threads, answers=answers)
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
    threads: int = 1,
) -> List[MinimalSetDescriptor]:
    """Attracting minimal set candidates reachable from a grid of starts.

    The descriptor for infinity is always present.  With cluster_eps None the
    linking radius starts at 1e-2 and is halved until the candidate count is
    stable across two refinements.  Candidates include non-attracting
    invariant sets the grid happens to hit exactly; certification separates
    those.  Large nearest-neighbor queries run on ``threads`` workers; each
    point's answer, and so the result, is the same at any thread count.
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
        eps, drafts = cluster_eps, _candidates_at(xs0, ys0, maps, cluster_eps, box, threads)
    else:
        # halve eps from 1e-2 until the candidate count holds over two more
        # halvings; after six halvings take the sixth
        levels: Dict[int, List[_Draft]] = {}

        def level(j: int) -> List[_Draft]:
            if j not in levels:
                levels[j] = _candidates_at(xs0, ys0, maps, 1e-2 / 2**j, box, threads)
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
    per: int,
) -> np.ndarray:
    """Tally of every probe, one row each: one column per finite descriptor,
    then INFINITY, then unresolved.  Lane j walks from probe j // per's start
    point (starts holds every probe's x and y) on streams[j], in one pool of
    at most lanes.WALK_BLOCK live lanes on the calling thread that takes the
    next lanes as lanes retire, as escape._census_chunk does: a lane taken in
    at walk step s takes its step k, on its stream's step-k draw, at walk
    step s + k.  A lane with a point in two capture neighbourhoods cuts the
    walk at its probe; once the earlier probes' lanes have ended,
    AmbiguousCapture names the lowest probe cut."""
    k = len(finite)
    tally = np.zeros((starts[0].size, k + 2), dtype=np.int64)

    def count(gone, col):  # the retired lanes gone end in column col
        if gone.size:
            np.add.at(tally, (gone // per, col), 1)

    w = lanes.Walk(starts[0][:0], starts[1][:0], streams[:0], dist, master,
                   cand=np.zeros(0, np.int64), run=np.zeros(0, np.int64))
    total, ambiguous, fed, n = streams.size, None, 0, 0
    while True:
        room = min(lanes.WALK_BLOCK - len(w), total - fed) if fed < total else 0
        if room > 0:  # lanes in the cone escape at step 0, outside the window they stay unresolved
            p = np.arange(fed, fed + room) // per
            count(w.admit(starts[0][p], starts[1][p], streams[fed:fed + room], R,
                          cand=-1, run=0), k)
            fed += room
        if finite and len(w):
            inside = np.stack([_inside_descriptor(d, w.X, w.Y) for d in finite])
            n_in = inside.sum(axis=0)
            hit = np.flatnonzero(n_in > 1)
            if hit.size:  # lanes are in lane order: hit[0]'s probe is the lowest
                ambiguous = int(w.lane[hit[0]] // per)
                total = ambiguous * per
            which = np.where(n_in == 1, inside.argmax(axis=0), -1)
            c = w.carry
            run = np.where(which < 0, 0, np.where(which == c["cand"], c["run"] + 1, 1))
            c.update(cand=which, run=run)
            done = run >= _CAPTURE_DWELL
            if np.count_nonzero(done):
                count(w.retire(done), which[done])
            if hit.size:
                w.retire(w.lane >= total)
        if n >= max_iter:  # lanes at the cap end here, unresolved
            w.retire(w.start == n - max_iter)
        if not len(w) and fed >= total:
            break
        w.step(n)  # lanes that leave the window stay unresolved
        count(w.retire(w.in_cone(R)), k)
        n += 1
    if ambiguous is not None:
        z = (complex(starts[0][ambiguous]), complex(starts[1][ambiguous]))
        raise AmbiguousCapture(
            f"orbit of probe {ambiguous} from {z} lies in two capture neighborhoods")
    tally[:, -1] = per - tally[:, :-1].sum(axis=1)
    return tally


def estimate_TL_many(
    dist: MapDistribution,
    minsets: Sequence[MinimalSetDescriptor],
    probes: Sequence[Point],
    samples: int,
    max_iter: int,
    seeds: Sequence[SequenceSeed],
    params: Optional[FiltrationParams] = None,
) -> List[BasinEstimate]:
    """Capture statistics of :func:`estimate_TL` at every probe, probe i on
    seeds[i], from one walk over probes x samples lanes.

    Lanes are laid out probe-major and walk in one refilling pool on the
    calling thread (:func:`_tl_chunk`).  A lane's draws depend only on
    (master seed, its stream, step) and every lane operation is
    elementwise, so each estimate equals the one-probe call bit for bit;
    hence all seeds must share one master seed.  An ambiguous capture names
    the lowest probe with an ambiguous lane.  A one-map support draws
    nothing, so every lane of a probe follows the same orbit: one lane per
    probe is walked and its tally counts ``samples`` times.
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
    # nothing is drawn on one map, so a probe's lanes all follow its lane 0's orbit
    per = 1 if isinstance(dist, FiniteDist) and len(dist.maps) == 1 else samples
    # lane j is entry j % per of probe j // per's stream table
    streams = rng.stream_entries(prefixes[:, None], np.arange(per, dtype=np.uint64)).ravel()
    tally = _tl_chunk(dist, finite, params.R, starts, seeds[0].master_seed, streams,
                      max_iter, per) * (samples // per)
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
) -> BasinEstimate:
    """Capture statistics of the random orbit of z over sequence draws.

    An orbit is assigned to a finite descriptor after 20 consecutive points
    inside its capture neighborhood, to INFINITY on entering the escape cone;
    orbits still undecided after max_iter steps, or that leave the
    exact-arithmetic window, count as unresolved.  A one-probe call of
    :func:`estimate_TL_many`; raises AmbiguousCapture when an orbit point
    lies in two capture neighborhoods.
    """
    return estimate_TL_many(dist, minsets, [z], samples, max_iter, [seed], params)[0]


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
