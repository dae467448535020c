from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import CUBIC, QUAD, QUAD_A, QUAD_C
from henonlab import escape, lanes, rng
from henonlab.core import (
    HenonMap,
    NumericOverflow,
    Poly,
    condition_a_radius,
    eval_map,
    inverse_as_plus,
    swap,
)
from henonlab.dist import BallNoise, FiniteDist, SequenceSeed, condition_a_params
from henonlab.escape import (
    VERDICT_BOUNDED,
    VERDICT_ESCAPED,
    VERDICT_UNCERTAIN,
    CensusResult,
    GreenIndeterminate,
    OrbitStatus,
    SliceSpec,
    SpliceSource,
    as_source,
    boundary_extract,
    classify_orbit,
    escape_census,
    green_minus,
    green_plus,
    green_points,
    green_stages,
    hausdorff_pixels,
    raster_slice,
    refine_steps,
    shift_source,
    telescoping_constant,
)

STATUS_CODE = {
    OrbitStatus.BOUNDED: VERDICT_BOUNDED,
    OrbitStatus.ESCAPED: VERDICT_ESCAPED,
    OrbitStatus.UNCERTAIN: VERDICT_UNCERTAIN,
}


def test_classify_examples(quad_params):
    v = classify_orbit(QUAD, (0.0, 50.0), quad_params, 100)
    assert v.status is OrbitStatus.ESCAPED and v.step == 0
    v = classify_orbit(QUAD, (0.0, 2.0), quad_params, 100)
    assert v.status is OrbitStatus.ESCAPED and v.step == 3
    v = classify_orbit(QUAD, (0.0, 0.5), quad_params, 100)
    assert v.status is OrbitStatus.BOUNDED and v.iterations == 100
    # out of the bidisk horizontally, zero budget left
    v = classify_orbit(QUAD, (50.0, 0.0), quad_params, 0)
    assert v.status is OrbitStatus.UNCERTAIN


def test_escape_verdict_stable_under_refinement(quad_params):
    z = (0.0, 2.0)
    a = classify_orbit(QUAD, z, quad_params, 10)
    b = classify_orbit(QUAD, z, quad_params, 1000)
    assert a.status is b.status is OrbitStatus.ESCAPED
    assert a.step == b.step


@pytest.mark.parametrize("support", ["quad", "two-map-cubic", "ball"])
def test_green_stages_match_direct_iteration(quad_params, support):
    # direct normalized log norms, while still inside the float window: the
    # independent reference for the log-coordinate recursion after entry
    if support == "quad":
        source, params, z = QUAD, quad_params, (0.0, 2.0)
    else:
        dist = (FiniteDist((QUAD_C, CUBIC), (0.5, 0.5)) if support == "two-map-cubic"
                else BallNoise(QUAD_C, 0.05))
        source, params, z = (dist, SequenceSeed(3, 1)), condition_a_params(dist), (0.1, 3.0)
    src = as_source(source)
    stages, entry = green_stages(src, z, params, 7)
    cur = z
    D = 1.0
    post_entry = 0
    for n in range(8):
        nv = math.hypot(abs(cur[0]), abs(cur[1]))
        want = max(math.log(nv), 0.0) / D
        assert abs(stages[n] - want) < 1e-13
        post_entry += n >= entry
        if n == 7:
            break
        try:
            cur = eval_map(src[n], cur)
        except NumericOverflow:
            break
        D *= src[n].degree
    assert entry == (3 if support == "quad" else 2)
    assert post_entry >= 4


def test_green_value_near_last_direct_stage(quad_params):
    z = (0.0, 2.0)
    stages, _ = green_stages(QUAD, z, quad_params, 7)
    c = telescoping_constant(QUAD, quad_params)
    g = green_plus(QUAD, z, quad_params, tol=1e-9)
    assert abs(g.value - stages[7]) <= c * 2.0 ** (-6)
    assert g.error_bound <= 1e-9


def test_green_functional_equation(quad_params):
    tol = 1e-8
    for z in [(0.3 + 0.2j, 1.9), (0.0, 2.5), (-1.0, 1e30)]:
        g0 = green_plus(QUAD, z, quad_params, tol=tol)
        g1 = green_plus(shift_source(QUAD), eval_map(QUAD, z), quad_params, tol=tol)
        assert abs(g0.value - g1.value / QUAD.degree) <= 2 * tol


def test_green_log_growth_stabilizes(quad_params):
    # deep in the cone the value tracks log|y| to high accuracy
    offsets = []
    for mag in (1e40, 1e60, 1e80):
        g = green_plus(QUAD, (1.0, mag), quad_params, tol=1e-10)
        offsets.append(g.value - math.log(mag))
    assert max(offsets) - min(offsets) <= 1e-3


def test_green_bounded_is_zero(quad_params):
    g = green_plus(QUAD, (0.0, 0.5), quad_params)
    assert g.value == 0.0
    assert g.error_bound == 0.0


def test_green_positive_iff_escaped(quad_params):
    assert green_plus(QUAD, (0.0, 2.0), quad_params).value > 0.0


def test_green_indeterminate_carries_partial(quad_params):
    with pytest.raises(GreenIndeterminate) as info:
        green_plus(QUAD, (50.0, 0.0), quad_params, max_iter=0)
    assert info.value.partial.error_bound == math.inf


def test_green_minus_is_swap_conjugate(quad_params):
    gm = green_minus(QUAD, (50.0, 0.0), quad_params, tol=1e-9)
    gp = green_plus(inverse_as_plus(QUAD), swap((50.0, 0.0)), quad_params, tol=1e-9)
    assert gm.value == gp.value
    assert gm.value > 0.0


def test_telescoping_bound_random_sequence(mixed_dist, seed):
    params = condition_a_params(mixed_dist)
    c = telescoping_constant(mixed_dist, params)
    stages, entry = green_stages((mixed_dist, seed), (0.1, 3.0), params, 40)
    assert entry is not None
    for n in range(entry, len(stages) - 1):
        assert abs(stages[n + 1] - stages[n]) <= c * 2.0 ** (-(n - entry)) + 1e-15


def test_green_error_bound_shrinks_with_tol(mixed_dist, seed):
    params = condition_a_params(mixed_dist)
    g6 = green_plus((mixed_dist, seed), (0.1, 3.0), params, tol=1e-6)
    g9 = green_plus((mixed_dist, seed), (0.1, 3.0), params, tol=1e-9)
    assert g9.error_bound <= 1e-9 < g6.error_bound or g6.error_bound <= 1e-9
    assert abs(g6.value - g9.value) <= g6.error_bound + g9.error_bound


def test_refine_steps_formula():
    assert refine_steps(1.0, 0.5) == 2  # 1 * 2^(1-2) = 0.5
    c = 0.3465735902799727
    n = refine_steps(c, 1e-6)
    assert c * 2.0 ** (1 - n) <= 1e-6 < c * 2.0 ** (2 - n)


def test_splice_source_switches_at_cut(quad_params):
    a = as_source(QUAD)
    b = as_source(QUAD_C)
    s = SpliceSource(a, b, 3)
    assert s[0] is QUAD and s[2] is QUAD
    assert s[3] is QUAD_C and s[10] is QUAD_C


@pytest.mark.parametrize("spec", [
    SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 2.0, 16),
    # 138 of the 256 lanes leave the exact window before they enter the cone
    SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 1e103, 16),
], ids=["bidisk", "window-exit"])
def test_raster_matches_scalar(quad_params, spec):
    r = raster_slice(QUAD, spec, quad_params, max_iter=200, tol=1e-6)
    X, Y = spec.grid()
    for j in range(16):
        for i in range(16):
            z = (complex(X[j, i]), complex(Y[j, i]))
            v = classify_orbit(QUAD, z, quad_params, 200)
            assert STATUS_CODE[v.status] == r.verdict[j, i]
            if v.status is OrbitStatus.ESCAPED:
                assert v.step == r.step[j, i]
                g = green_plus(QUAD, z, quad_params, tol=1e-6)
                assert abs(g.value - r.green[j, i]) <= 1e-12 * max(1.0, g.value)
                assert r.error[j, i] <= 1e-6


def test_raster_thread_count_invariant(quad_params):
    spec = SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 2.0, 96)
    r1 = raster_slice(QUAD, spec, quad_params, max_iter=150, tol=1e-6, threads=1)
    r8 = raster_slice(QUAD, spec, quad_params, max_iter=150, tol=1e-6, threads=8)
    assert np.array_equal(r1.verdict, r8.verdict)
    assert np.array_equal(r1.step, r8.step)
    assert np.array_equal(r1.green, r8.green, equal_nan=True)
    assert np.array_equal(r1.error, r8.error, equal_nan=True)


def test_raster_thread_count_invariant_across_blocks(quad_params):
    spec = SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 2.0, 192)
    assert spec.resolution**2 > escape._BLOCK_LANES  # two lane blocks
    r1 = raster_slice(QUAD, spec, quad_params, max_iter=150, tol=1e-6, threads=1)
    r2 = raster_slice(QUAD, spec, quad_params, max_iter=150, tol=1e-6, threads=2)
    assert np.array_equal(r1.verdict, r2.verdict)
    assert np.array_equal(r1.step, r2.step)
    assert np.array_equal(r1.green, r2.green, equal_nan=True)
    assert np.array_equal(r1.error, r2.error, equal_nan=True)


H_KICK = HenonMap(alpha=0.0, delta=0.1, poly=Poly((1.0, -1.3, 0.02)))


@pytest.mark.parametrize("dist", [
    FiniteDist((QUAD_C,), (1.0,)),
    FiniteDist((QUAD_C, H_KICK), (0.5, 0.5)),
    BallNoise(QUAD_C, 0.05),
], ids=["one-map", "two-map", "ball"])
def test_green_points_match_green_plus(dist):
    params = condition_a_params(dist)
    source = (dist, SequenceSeed(5, 2))
    pts = [(complex(x), complex(y)) for x in np.linspace(-2, 2, 7) for y in np.linspace(-3, 3, 7)]
    got = green_points(source, pts, params, tol=1e-8, max_iter=300, threads=2)
    escaped = 0
    for z, est in zip(pts, got):
        ref = green_plus(source, z, params, tol=1e-8, max_iter=300)
        assert est.n_used == ref.n_used
        assert est.error_bound == ref.error_bound
        assert abs(est.value - ref.value) <= 1e-12 * max(1.0, ref.value)
        escaped += ref.value > 0
    assert 0 < escaped < len(pts)
    assert green_points(source, [], params) == []


def test_green_points_names_undecided_point(quad_c_params):
    # (3690, 20) maps to (20, 5): outside the bidisk, outside the cone
    with pytest.raises(GreenIndeterminate, match="point 1:") as info:
        green_points(QUAD_C, [(0.0, 0.5), (3690.0, 20.0)], quad_c_params, max_iter=1)
    assert info.value.partial.error_bound == math.inf


def test_raster_uncertain_shrinks_with_cap(quad_c_params):
    # slow orbits near the basin boundary resolve as the cap grows
    spec = SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 3.0, 48)
    counts = []
    for cap in (4, 16, 256):
        r = raster_slice(QUAD_C, spec, quad_c_params, max_iter=cap, tol=1e-6)
        counts.append(int((r.verdict == VERDICT_UNCERTAIN).sum()))
        esc = int((r.verdict == VERDICT_ESCAPED).sum())
        if cap == 4:
            esc0 = esc
        else:
            assert esc >= esc0
    assert counts[0] >= counts[1] >= counts[2]


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec((0.0, 0.0), (2.0, 0.0), (0.0, 1.0), 1.0, 16)  # dir1 not unit
    with pytest.raises(ValueError):
        SliceSpec((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), 1.0, 16)  # dependent
    with pytest.raises(ValueError):
        SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), -1.0, 16)
    with pytest.raises(ValueError):
        SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 1e308, 16)  # 2 * extent overflows
    s = SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 2.0, 32)
    assert s.pixel_pitch == 0.125


def test_boundary_extract_toy(quad_params):
    spec = SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 2.0, 32)
    r = raster_slice(QUAD, spec, quad_params, max_iter=200, tol=1e-6)
    b = boundary_extract(r)
    assert len(b) > 0
    for row, col in b:
        assert r.verdict[row, col] == VERDICT_BOUNDED
        near = []
        if row > 0:
            near.append(r.verdict[row - 1, col])
        if row < 31:
            near.append(r.verdict[row + 1, col])
        if col > 0:
            near.append(r.verdict[row, col - 1])
        if col < 31:
            near.append(r.verdict[row, col + 1])
        assert VERDICT_ESCAPED in near


def test_hausdorff_pixels_toy():
    a = np.array([[0, 0], [0, 1]])
    b = np.array([[3, 0], [0, 1]])
    assert hausdorff_pixels(a, b, 0.5) == 1.5
    assert hausdorff_pixels(a, a, 0.5) == 0.0
    with pytest.raises(ValueError):
        hausdorff_pixels(a, np.zeros((0, 2)), 0.5)


def test_census_counts_and_determinism(quad_params):
    dist = FiniteDist((QUAD,), (1.0,))
    pts = [((0.1 * k % 1.7) - 0.8 + 0j, (0.13 * k % 1.9) - 0.9 + 0j) for k in range(500)]
    seed = SequenceSeed(99, 1)
    a = escape_census(dist, pts, quad_params, 300, seed)
    assert a.total == 500
    assert a.escaped_fraction + a.bounded_fraction + a.uncertain_fraction == pytest.approx(1.0)
    b = escape_census(dist, pts, quad_params, 600, seed)
    assert b.escaped >= a.escaped
    c = escape_census(dist, pts, quad_params, 300, seed, threads=8)
    assert (c.escaped, c.bounded, c.uncertain) == (a.escaped, a.bounded, a.uncertain)


def _per_step_census(dist, pts, R, max_iter, seed):
    # one walk over every walker, one draw call per step, compacted by hand
    streams = rng.stream_table(seed.stream_id, len(pts))
    X = np.array([p[0] for p in pts], dtype=np.complex128)
    Y = np.array([p[1] for p in pts], dtype=np.complex128)
    escaped = 0
    for n in range(max_iter + 1):
        esc = lanes.in_cone(X, Y, R)
        escaped += int(esc.sum())
        streams, X, Y = streams[~esc], X[~esc], Y[~esc]
        if n == max_iter or not X.size:
            break
        X, Y = lanes.apply(dist, lanes.draw(dist, seed.master_seed, streams, n), X, Y)
        keep = ~lanes.outside(X, Y)
        streams, X, Y = streams[keep], X[keep], Y[keep]
    bounded = int(lanes.in_bidisk(X, Y, R).sum())
    return escaped, bounded, len(pts) - escaped - bounded


def test_census_thread_invariance_across_chunks(ball_cycle_dist, monkeypatch):
    # 9,000 walkers span three walker blocks; each block's tail draws its
    # steps in blocks wider than one
    assert 2 * lanes.WALK_BLOCK < 9000
    widths = []
    draw_steps = lanes.draw_steps

    def spy(live):
        widths.append(draw_steps(live))
        return widths[-1]

    monkeypatch.setattr(lanes, "draw_steps", spy)
    params = condition_a_params(ball_cycle_dist)
    pts = [((0.37 * k) % 3.0 - 1.5 + 0j, (0.53 * k) % 3.0 - 1.5 + 0j) for k in range(9000)]
    runs = [escape_census(ball_cycle_dist, pts, params, 40, SequenceSeed(5, 4), threads=t)
            for t in (1, 2)]
    assert runs[0] == runs[1]
    assert runs[0].total == 9000 and runs[0].escaped > 0 and runs[0].bounded > 0
    assert (runs[0].escaped, runs[0].bounded, runs[0].uncertain) == \
        _per_step_census(ball_cycle_dist, pts, params.R, 40, SequenceSeed(5, 4))
    assert min(widths) == 1 and max(widths) > 1


def test_census_ball_noise(ball_cycle_dist):
    params = condition_a_params(ball_cycle_dist)
    pts = [(0.05 * k % 0.7 + 0j, 0.07 * k % 0.9 + 0j) for k in range(200)]
    cen = escape_census(ball_cycle_dist, pts, params, 200, SequenceSeed(5, 2))
    assert cen.total == 200
    assert cen.bounded > 0
