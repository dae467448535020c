"""Minimal set discovery, cyclic structure, capture statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from henonlab.core import HenonMap, Poly, eval_map
from henonlab.dist import FiniteDist, SequenceSeed, condition_a_params, support_sample
from henonlab.minsets import (
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
    assert L.saturated
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
    # 9,000 samples span three 4,096-lane chunks
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
    assert L.saturated
    # blobs are noise-sized, far smaller than the part gap
    for r in L.parts_radii:
        assert 0.05 < r < 0.5
    assert certify_attracting(ball_cycle_dist, L, params, SEED).certified
    assert detect_period(ball_cycle_dist, L, SEED) == 2
