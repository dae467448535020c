"""Minimal set discovery, cyclic structure, capture statistics."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from henonlab.core import HenonMap, Poly, eval_map
from henonlab.dist import BallNoise, FiniteDist, SequenceSeed, condition_a_params, support_sample
from henonlab import lanes, minsets
from henonlab.minsets import (
    ATTRACTING_RATIO,
    INFINITY,
    AmbiguousCapture,
    BasinEstimate,
    MinimalSetDescriptor,
    NotMinimal,
    certify_attracting,
    detect_period,
    digraph_period,
    discover_minimal_sets,
    estimate_TL,
    estimate_TL_many,
)

from conftest import QUAD_C

CYCLE_Y1 = (0.2 - math.sqrt(0.92)) / 2  # p(y) = y^2 - 1.3y, delta = 0.1
CYCLE_Y2 = (0.2 + math.sqrt(0.92)) / 2

# period-3 superattracting parameter of y^2 + c (root of c^3 + 2c^2 + c + 1)
CSTAR = -1.7548776662466927

SEED = SequenceSeed(0x5EED_0001, 7)


@pytest.fixture(scope="module")
def cycle_dist():
    return FiniteDist((QUAD_C,), (1.0,))


@pytest.fixture(scope="module")
def cycle_setup(cycle_dist):
    params = condition_a_params(cycle_dist)
    # offsets keep the grid away from the saddle fixed point at the origin
    grid = [(0.1 * a + 0.05, 0.1 * b + 0.05) for a in range(-3, 3) for b in range(-3, 3)]
    descs = discover_minimal_sets(cycle_dist, params, grid, SEED)
    return params, descs


@pytest.fixture(scope="module")
def noisy_setup(noisy_cycle_dist):
    params = condition_a_params(noisy_cycle_dist)
    grid = [(0.1 * a + 0.05, 0.1 * b + 0.05) for a in range(-3, 3) for b in range(-3, 3)]
    descs = discover_minimal_sets(noisy_cycle_dist, params, grid, SEED)
    return params, descs


# ---------------------------------------------------------------------------
# digraph period


def test_digraph_period_gcd():
    # 3-cycle and 6-cycle through a shared node: gcd{3, 6} = 3
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0)]
    assert digraph_period(edges, 8) == 3


def test_digraph_period_two_cycle():
    assert digraph_period([(0, 1), (1, 0)], 2) == 2


def test_digraph_period_self_loop():
    assert digraph_period([(0, 0)], 1) == 1
    # a second cycle of length 2 through the looped node forces period 1
    assert digraph_period([(0, 0), (0, 1), (1, 0)], 2) == 1


def test_digraph_period_requires_strong_connectivity():
    with pytest.raises(ValueError):
        digraph_period([(0, 1)], 2)


# ---------------------------------------------------------------------------
# discovery on the attracting 2-cycle


def test_cycle_discovery_structure(cycle_setup):
    _, descs = cycle_setup
    assert descs[-1].is_infinity
    finite = [d for d in descs if not d.is_infinity]
    assert len(finite) == 1
    L = finite[0]
    assert L.id == 0
    assert L.period == 2
    assert len(L.parts) == 2
    # parts are the two cycle points up to lattice rounding
    got = sorted(c[1].real for c in L.parts_centers)
    assert abs(got[0] - CYCLE_Y1) < 2 * L.cluster_eps
    assert abs(got[1] - CYCLE_Y2) < 2 * L.cluster_eps
    for r in L.parts_radii:
        assert r < L.cluster_eps


def test_infinity_descriptor_fields(cycle_setup):
    _, descs = cycle_setup
    inf_desc = descs[-1]
    assert inf_desc.id == INFINITY
    assert inf_desc.period == 1
    assert inf_desc.cloud == ()
    assert inf_desc.contraction is None


def test_cycle_certification(cycle_dist, cycle_setup):
    params, descs = cycle_setup
    L = next(d for d in descs if not d.is_infinity)
    rep = certify_attracting(cycle_dist, L, params, SEED)
    assert rep.certified
    # per-step modulus of the cycle is sqrt(0.1) ~ 0.316; finite-window
    # two-point tracking wobbles a few percent above it
    assert rep.ratio < 0.40
    assert rep.skipped == 0
    assert L.contraction is not None and L.contraction < 0.40


def test_detect_period_consistency(cycle_dist, cycle_setup):
    _, descs = cycle_setup
    L = next(d for d in descs if not d.is_infinity)
    assert detect_period(cycle_dist, L, SEED) == 2
    assert detect_period(cycle_dist, L, SEED, sub_eps=L.cluster_eps / 2) == 2


def test_part_map_invariant(cycle_dist, cycle_setup):
    # every support map sends part j into the capture neighborhood of
    # part (j + 1) mod r
    _, descs = cycle_setup
    L = next(d for d in descs if not d.is_infinity)
    xs = np.array([p[0] for p in L.cloud])
    ys = np.array([p[1] for p in L.cloud])
    for f in support_sample(cycle_dist, SEED):
        for j, part in enumerate(L.parts):
            nxt = (j + 1) % L.period
            (cx, cy) = L.parts_centers[nxt]
            rad = L.parts_radii[nxt] + L.capture_radius
            for i in part:
                ix, iy = eval_map(f, (xs[i], ys[i]))
                assert math.hypot(abs(ix - cx), abs(iy - cy)) <= rad


def test_discovery_deterministic(cycle_dist, cycle_setup):
    params, descs = cycle_setup
    grid = [(0.1 * a + 0.05, 0.1 * b + 0.05) for a in range(-3, 3) for b in range(-3, 3)]
    again = discover_minimal_sets(cycle_dist, params, grid, SEED)
    assert len(again) == len(descs)
    for a, b in zip(again, descs):
        assert a.id == b.id
        assert a.cloud == b.cloud
        assert a.parts == b.parts
        assert a.capture_radius == b.capture_radius


# ---------------------------------------------------------------------------
# the saddle fixed point as a non-attracting candidate


@pytest.fixture(scope="module")
def saddle_setup(cycle_dist):
    params = condition_a_params(cycle_dist)
    # this grid hits the saddle fixed point at the origin exactly
    grid = [(0.1 * a, 0.1 * b) for a in range(-3, 4) for b in range(-3, 4)]
    descs = discover_minimal_sets(cycle_dist, params, grid, SEED)
    return params, descs


def test_saddle_candidate_reported(saddle_setup):
    _, descs = saddle_setup
    finite = [d for d in descs if not d.is_infinity]
    assert len(finite) == 2
    saddle = min(finite, key=lambda d: abs(d.parts_centers[0][0]) + abs(d.parts_centers[0][1]))
    assert saddle.period == 1
    assert abs(saddle.parts_centers[0][0]) < 1e-6
    assert abs(saddle.parts_centers[0][1]) < 1e-6


def test_saddle_not_certified(cycle_dist, saddle_setup):
    params, descs = saddle_setup
    finite = [d for d in descs if not d.is_infinity]
    saddle = min(finite, key=lambda d: abs(d.parts_centers[0][0]) + abs(d.parts_centers[0][1]))
    rep = certify_attracting(cycle_dist, saddle, params, SEED)
    assert not rep.certified
    cycle = max(finite, key=lambda d: abs(d.parts_centers[0][0]) + abs(d.parts_centers[0][1]))
    assert certify_attracting(cycle_dist, cycle, params, SEED).certified


def test_capture_neighborhoods_disjoint(saddle_setup):
    _, descs = saddle_setup
    finite = [d for d in descs if not d.is_infinity]
    for a in range(len(finite)):
        for b in range(a + 1, len(finite)):
            for (cax, cay), ra in zip(finite[a].parts_centers, finite[a].parts_radii):
                for (cbx, cby), rb in zip(finite[b].parts_centers, finite[b].parts_radii):
                    d = math.hypot(abs(cax - cbx), abs(cay - cby))
                    reach = (ra + finite[a].capture_radius) + (rb + finite[b].capture_radius)
                    assert d > reach


# ---------------------------------------------------------------------------
# superattracting period 3


def test_superattracting_period3():
    p3 = HenonMap(0.0, 1e-3, Poly((1.0, 0.0, CSTAR)))
    dist = FiniteDist((p3,), (1.0,))
    params = condition_a_params(dist)
    grid = [(0.2 * a + 0.1, 0.2 * b + 0.1) for a in range(-2, 2) for b in range(-2, 2)]
    # the basin tube after the two expanding steps is ~1e-2 wide, so the
    # capture neighborhood must stay small for certification to hold
    descs = discover_minimal_sets(dist, params, grid, SEED, cluster_eps=2.5e-3)
    finite = [d for d in descs if not d.is_infinity]
    assert len(finite) == 1
    L = finite[0]
    assert L.period == 3
    assert detect_period(dist, L, SEED) == 3
    ys = sorted(c[1].real for c in L.parts_centers)
    for got, want in zip(ys, sorted((0.0126187, CSTAR - 1.17e-3, 1.3288116))):
        assert abs(got - want) < 2 * L.cluster_eps
    rep = certify_attracting(dist, L, params, SEED)
    assert rep.certified
    est = estimate_TL(dist, descs, (0.1, 0.1), 200, 2000, SEED, params)
    assert est.counts[L.id] == 200


def _finite_descriptor(contraction, capture_radius=0.01):
    return MinimalSetDescriptor(
        id=0, cloud=((CYCLE_Y1, CYCLE_Y2),), period=1, parts=((0,),),
        capture_radius=capture_radius,
        contraction=contraction, cluster_eps=0.01,
        parts_centers=((CYCLE_Y1, CYCLE_Y2),), parts_radii=(0.0,),
    )


def test_attracting_threshold_is_shared(cycle_dist, monkeypatch):
    assert ATTRACTING_RATIO == 1.0 - 1e-3
    assert not _finite_descriptor(None).attracting
    below = math.nextafter(ATTRACTING_RATIO, 0.0)
    params = condition_a_params(cycle_dist)
    for ratio, want in ((below, True), (ATTRACTING_RATIO, False), (1.0, False)):
        L = _finite_descriptor(ratio)
        assert L.attracting is want
        monkeypatch.setattr(minsets, "_pair_tracking", lambda *a, r=ratio: (r, 4, 0))
        assert certify_attracting(cycle_dist, L, params, SEED).certified is want


def test_certificate_never_steps_pairs_outside_the_window(cycle_dist):
    # a capture radius of 1e300 starts every probe pair far outside the exact
    # window: the pairs are blown before any step, so no overflow warning
    # (an error here) is raised, and the ratio is infinite
    L = _finite_descriptor(None, capture_radius=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = certify_attracting(cycle_dist, L, condition_a_params(cycle_dist), SEED)
    assert rep.ratio == math.inf and not rep.certified and rep.pairs == 0


# ---------------------------------------------------------------------------
# NotMinimal


def test_detect_period_not_minimal(cycle_dist):
    # cloud glues the 2-cycle to the saddle: two invariant pieces, no
    # strongly connected digraph
    cloud = ((CYCLE_Y1, CYCLE_Y2), (CYCLE_Y2, CYCLE_Y1), (0.0, 0.0))
    L = MinimalSetDescriptor(
        id=0, cloud=cloud, period=1, parts=((0, 1, 2),), capture_radius=0.01,
        contraction=0.5, cluster_eps=0.01,
        parts_centers=((0.0, 0.0),), parts_radii=(1.0,),
    )
    with pytest.raises(NotMinimal) as exc:
        detect_period(cycle_dist, L, SEED)
    assert len(exc.value.components) == 2


# ---------------------------------------------------------------------------
# validation


def test_descriptor_validation():
    with pytest.raises(ValueError):
        MinimalSetDescriptor(
            id=0, cloud=((0.0, 0.0),), period=2, parts=((0,),), capture_radius=0.1,
            contraction=0.5, cluster_eps=0.01, parts_centers=((0.0, 0.0),),
            parts_radii=(0.0,),
        )
    with pytest.raises(ValueError):
        MinimalSetDescriptor(
            id=0, cloud=((0.0, 0.0), (1.0, 1.0)), period=2, parts=((0,), (0,)),
            capture_radius=0.1, contraction=0.5, cluster_eps=0.01,
            parts_centers=((0.0, 0.0), (1.0, 1.0)), parts_radii=(0.0, 0.0),
        )
    with pytest.raises(ValueError):
        MinimalSetDescriptor(
            id=INFINITY, cloud=((0.0, 0.0),), period=1, parts=((0,),),
            capture_radius=0.0, contraction=None, cluster_eps=0.01,
            parts_centers=(), parts_radii=(),
        )


def test_basin_estimate_validation():
    with pytest.raises(ValueError):
        BasinEstimate(counts={0: 3, INFINITY: 1}, unresolved_count=1, samples=4)
    est = BasinEstimate(counts={0: 3, INFINITY: 1}, unresolved_count=0, samples=4)
    assert est.probabilities[0] == 0.75
    assert est.unresolved == 0.0


def test_discovery_input_validation(cycle_dist):
    params = condition_a_params(cycle_dist)
    with pytest.raises(ValueError):
        discover_minimal_sets(cycle_dist, params, [], SEED)
    with pytest.raises(ValueError):
        discover_minimal_sets(cycle_dist, params, [(0.1, 0.1)], SEED, burn_in=10)
    with pytest.raises(ValueError):
        discover_minimal_sets(cycle_dist, params, [(0.1, 0.1)], SEED, cluster_eps=0.0)
    with pytest.raises(ValueError):
        estimate_TL(cycle_dist, [], (0.0, 0.0), 0, 10, SEED)


# ---------------------------------------------------------------------------
# capture statistics


def test_tl_counts_exact(noisy_cycle_dist, noisy_setup):
    params, descs = noisy_setup
    est = estimate_TL(noisy_cycle_dist, descs, (0.3, 0.3), 777, 500, SEED, params)
    assert sum(est.counts.values()) + est.unresolved_count == 777
    assert abs(sum(est.probabilities.values()) + est.unresolved - 1.0) < 1e-12


def test_tl_unresolved_monotone(noisy_cycle_dist, noisy_setup):
    params, descs = noisy_setup
    z = (0.3, 0.3)
    short = estimate_TL(noisy_cycle_dist, descs, z, 300, 25, SEED, params)
    long = estimate_TL(noisy_cycle_dist, descs, z, 300, 400, SEED, params)
    assert short.unresolved_count >= long.unresolved_count
    assert long.unresolved_count == 0


def test_tl_deterministic(noisy_cycle_dist, noisy_setup):
    params, descs = noisy_setup
    a = estimate_TL(noisy_cycle_dist, descs, (0.2, -0.1), 300, 300, SEED, params)
    b = estimate_TL(noisy_cycle_dist, descs, (0.2, -0.1), 300, 300, SEED, params)
    assert a.counts == b.counts
    assert a.unresolved_count == b.unresolved_count


def test_tl_thread_invariance_across_chunks(noisy_cycle_dist, noisy_setup):
    # 9,000 samples span three walker blocks
    assert 2 * lanes.WALK_BLOCK < 9000
    params, descs = noisy_setup
    runs = [estimate_TL(noisy_cycle_dist, descs, (0.3, 0.3), 9000, 60, SEED, params, threads=t)
            for t in (1, 2)]
    assert runs[0] == runs[1]
    assert len(set(runs[0].counts.values())) > 1


def test_tl_point_inside_capture(noisy_cycle_dist, noisy_setup):
    params, descs = noisy_setup
    L = next(d for d in descs if not d.is_infinity)
    z = L.parts_centers[0]
    est = estimate_TL(noisy_cycle_dist, descs, z, 250, 200, SEED, params)
    assert est.probabilities[L.id] == 1.0


def test_tl_escape_cone(noisy_cycle_dist, noisy_setup):
    params, descs = noisy_setup
    est = estimate_TL(noisy_cycle_dist, descs, (0.0, 100.0), 100, 50, SEED, params)
    assert est.probabilities[INFINITY] == 1.0


def test_tl_without_finite_sets(cycle_dist):
    # only the point at infinity on offer: bounded orbits stay unresolved
    params = condition_a_params(cycle_dist)
    inf_only = [
        MinimalSetDescriptor(
            id=INFINITY, cloud=(), period=1, parts=(), capture_radius=0.0,
            contraction=None, cluster_eps=0.01, parts_centers=(), parts_radii=(),
        )
    ]
    est = estimate_TL(cycle_dist, inf_only, (0.3, 0.2), 50, 50, SEED, params)
    assert est.unresolved == 1.0
    est = estimate_TL(cycle_dist, inf_only, (0.0, 100.0), 50, 50, SEED, params)
    assert est.probabilities[INFINITY] == 1.0


def test_tl_ambiguous_capture(cycle_dist):
    params = condition_a_params(cycle_dist)
    a = MinimalSetDescriptor(
        id=0, cloud=((0.0, 0.0),), period=1, parts=((0,),), capture_radius=0.5,
        contraction=0.5, cluster_eps=0.01, parts_centers=((0.0, 0.0),), parts_radii=(0.0,),
    )
    b = MinimalSetDescriptor(
        id=1, cloud=((0.2, 0.0),), period=1, parts=((0,),), capture_radius=0.5,
        contraction=0.5, cluster_eps=0.01, parts_centers=((0.2, 0.0),), parts_radii=(0.0,),
    )
    with pytest.raises(AmbiguousCapture):
        estimate_TL(cycle_dist, [a, b], (0.1, 0.0), 10, 30, SEED, params)


# ---------------------------------------------------------------------------
# noise-ball blobs


def test_ball_blob_discovery(ball_cycle_dist):
    params = condition_a_params(ball_cycle_dist)
    grid = [(0.1 * a + 0.05, 0.1 * b + 0.05) for a in range(-3, 3) for b in range(-3, 3)]
    descs = discover_minimal_sets(ball_cycle_dist, params, grid, SEED)
    finite = [d for d in descs if not d.is_infinity]
    assert len(finite) == 1
    L = finite[0]
    assert L.period == 2
    # blobs are noise-sized, far smaller than the part gap
    for r in L.parts_radii:
        assert 0.05 < r < 0.5
    assert certify_attracting(ball_cycle_dist, L, params, SEED).certified
    assert detect_period(ball_cycle_dist, L, SEED) == 2


# ---------------------------------------------------------------------------
# saturation cap and the transition digraph

LOST_GRID = [(0.1, 0.1), (0.1, 0.2), (0.2, 0.1), (0.2, 0.2)]
SMALL_CAP = 12_000


def _start_cloud(dist, eps):
    params = condition_a_params(dist)
    xs, ys, _, _ = minsets._record_orbits(dist, params, LOST_GRID, 1000, 200, SEED)
    xs, ys = minsets._lattice_points(minsets._quantize(xs, ys, eps), eps)
    return xs, ys, support_sample(dist, SEED), params.R


def _two_map():
    kicked = HenonMap(0.004, 0.1, Poly((1.0, -1.3, 0.003)))
    return FiniteDist((QUAD_C, kicked), (0.5, 0.5))


def test_saturate_stops_at_cloud_cap(monkeypatch):
    # at noise radius 0.1 the cloud keeps growing: 804 start points, 10,813
    # after one round, 28,416 after the round that crosses the cap
    monkeypatch.setattr(minsets, "_MAX_CLOUD", SMALL_CAP)
    eps = 0.01
    xs, ys, maps, box = _start_cloud(BallNoise(QUAD_C, 0.1), eps)
    assert xs.size < SMALL_CAP
    sx, sy, ok = minsets._saturate(xs, ys, maps, eps, box, 5.0 * eps)
    assert not ok
    assert xs.size < sx.size == sy.size <= SMALL_CAP


def _whole_cloud_saturate(xs, ys, maps, eps, box, assign):
    """Reference: every round maps the whole cloud and tests the cap after
    the round."""
    for _ in range(minsets._MAX_SATURATION_ROUNDS):
        tree = minsets.cKDTree(_embed(xs, ys))
        far_x, far_y, kept = [], [], 0
        for f in maps:
            ix, iy = lanes.image(f, xs, ys)
            keep = (np.abs(ix) <= box) & (np.abs(iy) <= box)
            ix, iy = ix[keep], iy[keep]
            _, j = tree.query(_embed(ix, iy), k=1, distance_upper_bound=assign)
            far_x.append(ix[j == tree.n])
            far_y.append(iy[j == tree.n])
            kept += ix.size
        fx, fy = np.concatenate(far_x), np.concatenate(far_y)
        if fx.size <= 1e-3 * max(kept, 1):
            return xs, ys, True
        nx, ny = minsets._lattice_points(minsets._quantize(fx, fy, eps), eps)
        _, j = tree.query(_embed(nx, ny), k=1, distance_upper_bound=assign)
        fresh = j == tree.n
        if xs.size + fresh.sum() > minsets._MAX_CLOUD:
            return xs, ys, False
        xs = np.concatenate([xs, nx[fresh]])
        ys = np.concatenate([ys, ny[fresh]])
    return xs, ys, False


@pytest.mark.parametrize("stop", ["closed-two-map", "closed-ball", "cap", "round-limit"])
def test_saturate_matches_whole_cloud_reference(stop, monkeypatch):
    if stop == "closed-two-map":
        dist, eps, want_ok = _two_map(), 0.002, True
    elif stop == "closed-ball":
        dist, eps, want_ok = BallNoise(QUAD_C, 0.05), 0.002, True
    else:
        # at noise radius 0.1 the cloud keeps growing: 804 start points,
        # 10,813 after one round
        dist, eps, want_ok = BallNoise(QUAD_C, 0.1), 0.01, False
        if stop == "cap":
            monkeypatch.setattr(minsets, "_MAX_CLOUD", SMALL_CAP)
        else:
            monkeypatch.setattr(minsets, "_MAX_SATURATION_ROUNDS", 1)
    xs, ys, maps, box = _start_cloud(dist, eps)
    if want_ok:
        assign = max(5.0 * eps, 2.0 * _reference_link(cKDTree(_embed(xs, ys)), eps))
    else:
        assign = 5.0 * eps
    queried = []

    class CountingKD(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(minsets, "cKDTree", CountingKD)
    want = _whole_cloud_saturate(xs, ys, maps, eps, box, assign)
    reference_queried = sum(queried)
    queried.clear()
    got = minsets._saturate(xs, ys, maps, eps, box, assign)
    assert (got[2] is not None) is want[2] is want_ok
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    if want_ok:  # the closing round's index is the returned cloud's
        assert np.array_equal(got[2].data, _embed(got[0], got[1]))
    if stop == "round-limit":
        assert want[0].size == 10_813
    if stop == "cap":
        # only the added points are mapped, and the round that must cross
        # the cap stops before querying all its images
        assert 0 < sum(queried) <= reference_queried // 2


@pytest.mark.parametrize("closes", [True, False])
def test_saturate_reuses_the_start_tree(closes, monkeypatch):
    if closes:
        dist, eps = _two_map(), 0.002
    else:
        dist, eps = BallNoise(QUAD_C, 0.1), 0.01
        monkeypatch.setattr(minsets, "_MAX_SATURATION_ROUNDS", 2)
    xs, ys, maps, box = _start_cloud(dist, eps)
    start = cKDTree(_embed(xs, ys))
    built = []

    class CountingKD(cKDTree):
        def __init__(self, data, *args, **kwargs):
            built.append(len(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(minsets, "cKDTree", CountingKD)
    want = minsets._saturate(xs, ys, maps, eps, box, 5.0 * eps)
    rebuilt = list(built)
    built.clear()
    got = minsets._saturate(xs, ys, maps, eps, box, 5.0 * eps, tree=start)
    assert (got[2] is not None) is (want[2] is not None) is closes
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert rebuilt[0] == xs.size and built == rebuilt[1:]


def _candidate_builds(dist, monkeypatch):
    """The clouds _candidates_at indexes at eps 0.002, in build order."""
    xs, ys, maps, box = _start_cloud(dist, 0.002)
    built = []

    class CountingKD(cKDTree):
        def __init__(self, data, *args, **kwargs):
            built.append(np.array(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(minsets, "cKDTree", CountingKD)
    assert minsets._candidates_at(xs, ys, maps, 0.002, box)
    return built


def test_candidates_build_the_start_tree_once(monkeypatch):
    # the two-map cloud closes in its first round: the start tree serves
    # that round and the digraph, so the level is indexed exactly once
    assert len(_candidate_builds(_two_map(), monkeypatch)) == 1


def test_candidates_index_each_saturation_round_once(monkeypatch):
    # the ball's cloud closes after several rounds: each round's cloud is
    # indexed once, and the digraph reuses the closing round's index
    built = _candidate_builds(BallNoise(QUAD_C, 0.05), monkeypatch)
    assert len(built) > 2
    assert not any(np.array_equal(a, b) for i, a in enumerate(built) for b in built[i + 1:])


def test_unclosed_cloud_gives_no_candidates(monkeypatch):
    monkeypatch.setattr(minsets, "_MAX_CLOUD", SMALL_CAP)

    def no_digraph(*args):
        raise AssertionError("digraph built for an unsaturated cloud")

    monkeypatch.setattr(minsets, "_digraph", no_digraph)
    dist = BallNoise(QUAD_C, 0.1)
    descs = discover_minimal_sets(dist, condition_a_params(dist), LOST_GRID, SEED,
                                  cluster_eps=0.01)
    assert [d.id for d in descs] == [INFINITY]


def _embed(xs, ys):
    return np.stack([xs.real, xs.imag, ys.real, ys.imag], axis=1)


def _reference_link(tree, eps):
    near, _ = tree.query(tree.data, k=2)
    return min(max(eps, 2.0 * float(np.quantile(near[:, 1], 0.25))), 10.0 * eps)


@pytest.mark.parametrize("kind", ["two-map", "ball"])
def test_digraph_edges_match_reference(kind):
    dist = BallNoise(QUAD_C, 0.05) if kind == "ball" else _two_map()
    eps = 0.002
    xs, ys, maps, box = _start_cloud(dist, eps)
    assign = max(5.0 * eps, 2.0 * _reference_link(cKDTree(_embed(xs, ys)), eps))
    xs, ys, index = minsets._saturate(xs, ys, maps, eps, box, assign)
    assert index is not None
    labels, edges = minsets._digraph(index, xs, ys, maps, eps)

    tree = cKDTree(_embed(xs, ys))
    link = _reference_link(tree, eps)
    pairs = tree.query_pairs(link, output_type="ndarray")
    adj = csr_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(xs.size,) * 2)
    n_nodes, want_labels = connected_components(adj, directed=False)
    assert np.array_equal(labels, want_labels)

    radius = max(5.0 * eps, 1.5 * link)  # the edge radius
    want = set()
    for f in maps:
        ix, iy = lanes.image(f, xs, ys)
        d, j = tree.query(_embed(ix, iy), distance_upper_bound=radius)
        hit = np.isfinite(d)
        want |= set(zip(labels[hit].tolist(), labels[j[hit]].tolist()))
    assert len(want) > n_nodes > 1
    assert sorted(map(tuple, edges.tolist())) == sorted(want)


def test_discovery_refuses_eps_below_int64_lattice(cycle_dist):
    params = condition_a_params(cycle_dist)
    floor = minsets.cluster_eps_floor(params.R)
    assert floor == 4.0 * params.R / 2.0**62
    with pytest.raises(ValueError, match="cluster_eps"):
        discover_minimal_sets(cycle_dist, params, [(0.1, 0.1)], SEED, cluster_eps=floor)


@pytest.mark.parametrize("threads", [1, 2])
def test_tl_many_equals_one_probe_loop(noisy_cycle_dist, noisy_setup, threads):
    # 3 x 1,500 lanes: the first walker block ends inside the last probe
    samples = 1500
    assert 2 * samples < lanes.WALK_BLOCK < 3 * samples
    params, descs = noisy_setup
    L = next(d for d in descs if not d.is_infinity)
    # one probe per fate (escape cone, capture neighbourhood, a first image
    # outside the window), then probes whose lanes split between fates
    for probes, max_iter in (([(0.0, 100.0), L.parts_centers[0], (1e102, 0.0)], 100),
                             ([(0.0, 0.0), (0.3, 0.3), (0.2, -0.1)], 30)):
        seeds = [SEED.derive(1, i) for i in range(len(probes))]
        batch = estimate_TL_many(noisy_cycle_dist, descs, probes, samples, max_iter, seeds,
                                 params, threads=threads)
        loop = [estimate_TL(noisy_cycle_dist, descs, z, samples, max_iter, s, params)
                for z, s in zip(probes, seeds)]
        assert batch == loop
        if max_iter == 100:
            assert loop[0].probabilities[INFINITY] == 1.0
            assert loop[1].probabilities[L.id] == 1.0
            assert loop[2].unresolved == 1.0
        else:
            assert 0 < loop[2].unresolved < 1


def test_tl_many_names_the_ambiguous_probe(cycle_dist):
    params = condition_a_params(cycle_dist)
    a = MinimalSetDescriptor(
        id=0, cloud=((0.0, 0.0),), period=1, parts=((0,),), capture_radius=0.5,
        contraction=0.5, cluster_eps=0.01, parts_centers=((0.0, 0.0),), parts_radii=(0.0,),
    )
    b = MinimalSetDescriptor(
        id=1, cloud=((0.2, 0.0),), period=1, parts=((0,),), capture_radius=0.5,
        contraction=0.5, cluster_eps=0.01, parts_centers=((0.2, 0.0),), parts_radii=(0.0,),
    )
    probes = [(0.0, 100.0), (1e102, 0.0), (0.1, 0.0)]
    seeds = [SEED.derive(1, i) for i in range(3)]
    # the first two probes alone resolve without touching either neighbourhood
    ok = estimate_TL_many(cycle_dist, [a, b], probes[:2], 10, 30, seeds[:2], params)
    assert [e.probabilities[INFINITY] for e in ok] == [1.0, 0.0]
    with pytest.raises(AmbiguousCapture, match=r"probe 2 from \(\(0\.1"):
        estimate_TL_many(cycle_dist, [a, b], probes, 10, 30, seeds, params)


def test_tl_many_block_results_do_not_grow_with_probes(cycle_dist, monkeypatch):
    # many blocks, each covering about WALK_BLOCK / samples probes; probes
    # alternate between the escape cone and a first image outside the window
    params = condition_a_params(cycle_dist)
    samples = 1000
    chunk = minsets._tl_chunk
    seen = []

    def spy(*args):
        tally = chunk(*args)
        seen.append((args[5].size, tally.shape))
        return tally

    monkeypatch.setattr(minsets, "_tl_chunk", spy)
    for n in (12, 48):
        seen.clear()
        probes = [[(0.0, 100.0), (1e102, 0.0)][i % 2] for i in range(n)]
        seeds = [SEED.derive(1, i) for i in range(n)]
        out = estimate_TL_many(cycle_dist, [], probes, samples, 10, seeds, params, threads=2)
        assert len(seen) == -(-n * samples // lanes.WALK_BLOCK) > 2
        assert [e.counts[INFINITY] for e in out] == [samples, 0] * (n // 2)
        assert [e.unresolved_count for e in out] == [0, samples] * (n // 2)
        # a block of WALK_BLOCK lanes meets at most WALK_BLOCK // samples + 2
        # probes, however many there are
        assert max(m for m, _ in seen) == lanes.WALK_BLOCK
        assert max(rows for _, (rows, _) in seen) <= lanes.WALK_BLOCK // samples + 2


def test_tl_many_input_validation(cycle_dist):
    params = condition_a_params(cycle_dist)
    z = (0.1, 0.1)
    with pytest.raises(ValueError, match="master seed"):
        estimate_TL_many(cycle_dist, [], [z, z], 10, 10,
                         [SEED, SequenceSeed(SEED.master_seed + 1, 7)], params)
    with pytest.raises(ValueError, match="one seed per probe"):
        estimate_TL_many(cycle_dist, [], [z, z], 10, 10, [SEED], params)
    with pytest.raises(ValueError):
        estimate_TL_many(cycle_dist, [], [z], 0, 10, [SEED], params)
    assert estimate_TL_many(cycle_dist, [], [], 10, 10, [], params) == []
