from __future__ import annotations

import json
import math
import os
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import CUBIC, QUAD, QUAD_A, QUAD_C
from henonlab import escape, lanes, rng
from henonlab.core import (
    OVERFLOW_LIMIT,
    HenonMap,
    NumericOverflow,
    Poly,
    condition_a_radius,
    eval_map,
    inverse_as_plus,
    swap,
)
from henonlab.config import dist_from, family_from
from henonlab.dist import BallNoise, FiniteDist, SequenceSeed, condition_a_params, family_at
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
    c = escape_census(dist, pts, quad_params, 300, seed)
    assert (c.escaped, c.bounded, c.uncertain) == (a.escaped, a.bounded, a.uncertain)


def _per_step_census(dist, pts, R, max_iter, seed):
    # one walk over every walker, one draw call per step, compacted by hand
    streams = rng.stream_table(seed.stream_id, len(pts))
    X = np.array([p[0] for p in pts], dtype=np.complex128)
    Y = np.array([p[1] for p in pts], dtype=np.complex128)
    escaped = 0
    for n in range(max_iter + 1):
        esc = np.abs(Y) > np.maximum(R, np.abs(X))
        escaped += int(esc.sum())
        streams, X, Y = streams[~esc], X[~esc], Y[~esc]
        if n == 0:  # walkers that start outside the window never step
            keep = (np.abs(X) <= OVERFLOW_LIMIT) & (np.abs(Y) <= OVERFLOW_LIMIT)
            streams, X, Y = streams[keep], X[keep], Y[keep]
        if n == max_iter or not X.size:
            break
        X, Y = lanes.apply(dist, lanes.draw(dist, seed.master_seed, streams, n), X, Y)
        keep = (np.abs(X) <= OVERFLOW_LIMIT) & (np.abs(Y) <= OVERFLOW_LIMIT)
        streams, X, Y = streams[keep], X[keep], Y[keep]
    bounded = int(lanes.in_bidisk(X, Y, R).sum())
    return escaped, bounded, len(pts) - escaped - bounded


def test_census_thread_invariance_across_chunks(ball_cycle_dist, monkeypatch):
    # 9,000 walkers pass through the 4,096-lane pool in admissions after the
    # first; the tail draws its steps in blocks wider than one
    assert 2 * lanes.WALK_BLOCK < 9000
    widths = []
    draw_steps = lanes.draw_steps

    def spy(live):
        widths.append(draw_steps(live))
        return widths[-1]

    monkeypatch.setattr(lanes, "draw_steps", spy)
    params = condition_a_params(ball_cycle_dist)
    pts = [((0.37 * k) % 3.0 - 1.5 + 0j, (0.53 * k) % 3.0 - 1.5 + 0j) for k in range(9000)]
    runs = [escape_census(ball_cycle_dist, pts, params, 40, SequenceSeed(5, 4))
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0].total == 9000 and runs[0].escaped > 0 and runs[0].bounded > 0
    assert (runs[0].escaped, runs[0].bounded, runs[0].uncertain) == \
        _per_step_census(ball_cycle_dist, pts, params.R, 40, SequenceSeed(5, 4))
    assert min(widths) == 1 and max(widths) > 1


@pytest.mark.parametrize("width, walkers", [(37, 1500), (lanes.WALK_BLOCK, 10_000)])
def test_census_admissions_cross_the_pool_width(ball_cycle_dist, monkeypatch, width, walkers):
    # walkers retire at staggered steps and new ones take their slots; a
    # walker taken in late must draw, and end, as if it walked from step 0.
    # Among the grid sit walkers that start outside the window (uncertain),
    # that start in the cone and outside the window (escaped: the cone is
    # checked first) and that leave the window on their first step
    monkeypatch.setattr(lanes, "WALK_BLOCK", width)
    sizes = []
    step = lanes.Walk.step

    def spy(self, n):
        sizes.append(len(self))
        return step(self, n)

    monkeypatch.setattr(lanes.Walk, "step", spy)
    params = condition_a_params(ball_cycle_dist)
    odd = [(1e101 + 0j, 0j), (0j, 1e200 + 0j), (1e60 + 0j, 1e60 + 0j)]
    pts = [odd[k // 7 % 3] if k % 7 == 3 else
           ((0.37 * k) % 3.0 - 1.5 + 0j, (0.53 * k) % 3.0 - 1.5 + 0j) for k in range(walkers)]
    seed = SequenceSeed(5, 6)
    for max_iter in (0, 1, 40):
        sizes.clear()
        got = escape_census(ball_cycle_dist, pts, params, max_iter, seed)
        want = _per_step_census(ball_cycle_dist, pts, params.R, max_iter, seed)
        assert (got.escaped, got.bounded, got.uncertain) == want
        assert min(want) > 0, (max_iter, want)
        assert max(sizes, default=0) <= width
    # the pool filled and held fewer lanes than there are walkers, so the
    # rest were taken in as lanes retired
    assert max(sizes) == width < walkers


def test_census_ball_noise(ball_cycle_dist):
    params = condition_a_params(ball_cycle_dist)
    pts = [(0.05 * k % 0.7 + 0j, 0.07 * k % 0.9 + 0j) for k in range(200)]
    cen = escape_census(ball_cycle_dist, pts, params, 200, SequenceSeed(5, 2))
    assert cen.total == 200
    assert cen.bounded > 0


# ---------------------------------------------------------------------------
# certified contraction tubes

PRESET_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "henonlab", "presets")


def _preset(name):
    with open(os.path.join(PRESET_DIR, name)) as fh:
        return json.load(fh)


def _fuzzed_attracting(k):
    # the quad-attracting preset's map and slice, the anchor moved by up to 0.01
    cfg = _preset("quad-attracting.json")
    dx, dy = np.random.default_rng(k).uniform(-0.01, 0.01, 2)
    spec = SliceSpec((complex(dx), complex(dy)), (1.0, 0.0), (0.0, 1.0), 2.5, 96)
    dist = dist_from(cfg, "")
    return (dist, SequenceSeed(cfg["seed"], k)), spec, condition_a_params(dist), 300


def _family_noise_t0():
    ball = family_at(family_from(_preset("family-noise.json")["family"], "/family"), 0.0)
    spec = SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 2.5, 96)
    return (ball, SequenceSeed(41, 1)), spec, condition_a_params(ball), 600


def _across_blocks():
    spec = SliceSpec((0.01, -0.02), (1.0, 0.0), (0.0, 1.0), 2.5, 192)
    assert spec.resolution ** 2 > escape._BLOCK_LANES
    return QUAD_C, spec, condition_a_radius([QUAD_C]), 200


def _quad_volume():
    cfg = _preset("quad-volume.json")
    vol = dist_from(cfg, "")
    spec = SliceSpec((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 2.5, 64)
    return (vol, SequenceSeed(41, 1)), spec, condition_a_params(vol), 400


TUBE_CASES = {
    "attracting-fuzzed-1": lambda: _fuzzed_attracting(1),
    "attracting-fuzzed-2": lambda: _fuzzed_attracting(2),
    "family-noise-t0": _family_noise_t0,
    "across-blocks": _across_blocks,
    "quad-volume": _quad_volume,
}


@pytest.mark.parametrize("case", sorted(TUBE_CASES))
def test_tube_exit_keeps_raster_bytes(case, monkeypatch):
    # every slice straddles the Julia set; the tubes may only end bounded
    # lanes early, never change what the raster says about any pixel
    source, spec, params, max_iter = TUBE_CASES[case]()
    retired = []
    tube_exit = escape._TubeExit.exit

    def spy(self, n, w):
        mask = tube_exit(self, n, w)
        retired.append(int(mask.sum()))
        return mask

    monkeypatch.setattr(escape._TubeExit, "exit", spy)
    runs = [raster_slice(source, spec, params, max_iter=max_iter, threads=t) for t in (1, 2)]
    monkeypatch.setattr(escape, "_find_tubes", lambda *args: [])
    plain = [raster_slice(source, spec, params, max_iter=max_iter, threads=t) for t in (1, 2)]
    for r in runs[1:] + plain:
        for name in ("verdict", "step", "green", "error"):
            assert np.array_equal(getattr(runs[0], name), getattr(r, name), equal_nan=True)
    bounded = int((runs[0].verdict == VERDICT_BOUNDED).sum())
    escaped = int((runs[0].verdict == VERDICT_ESCAPED).sum())
    assert bounded > 0 and escaped > 0
    if case == "quad-volume":
        # volume preserving: no tube contracts, so the block runs as without them
        assert sum(retired) == 0
    else:  # dissipative: the tubes take most bounded lanes
        assert sum(retired) > bounded  # summed over both thread counts


def _tube_every_step(source, z, steps):
    # the tube _find_tubes accepts about the one lane z, with its centre and
    # radii at every step
    src = as_source(source)
    maps = [src[i] for i in range(steps)]
    R = condition_a_radius([QUAD_C]).R
    X, Y = np.array([z[0]], dtype=complex), np.array([z[1]], dtype=complex)
    (tube,) = escape._find_tubes(maps, 0, steps, X, Y, R, list(range(steps + 1)))
    return maps, tube


TUBE_SOURCES = {
    "one-map": QUAD_C,
    "ball": (BallNoise(QUAD_C, 0.05), SequenceSeed(7, 3)),
}
# the critical point y = 0.65 of y^2 - 1.3 y, where the quadratic term of
# the radius recursion is all of its growth in y
TUBE_START = (0.3 + 0j, 0.65 + 0j)


@pytest.mark.parametrize("name", sorted(TUBE_SOURCES))
def test_tube_radii_hold_sampled_lanes(name):
    maps, tube = _tube_every_step(TUBE_SOURCES[name], TUBE_START, 120)
    zx, zy, rx, ry = tube[0]
    assert rx >= 0.01  # a tube wide enough for the quadratic term to matter
    # lanes on the rim of the start polydisk in every pair of 24 phases, and
    # inside it
    ph = np.exp(2j * np.pi * np.arange(24) / 24)
    a, b = np.meshgrid(ph, ph)
    inner = np.random.default_rng(3).uniform(0, 1, (2, a.size))
    X = zx + rx * (1 - 1e-12) * np.concatenate([a.ravel(), inner[0] * a.ravel()])
    Y = zy + ry * (1 - 1e-12) * np.concatenate([b.ravel(), inner[1] * b.ravel()])
    worst = 0.0
    for m, f in enumerate(maps):
        zx, zy, rx, ry = tube[m]
        gap = max(np.abs(X - zx).max() / rx, np.abs(Y - zy).max() / ry)
        assert gap <= 1.0, (m, gap)
        worst = max(worst, gap if m else 0.0)
        X, Y = lanes.image(f, X, Y)
    assert worst > 0.5  # some lane came near the rim after the start


def _exact_orbit(maps, z):
    # the orbit of z in 60-digit decimal arithmetic, as (re, im) pairs
    def num(c):
        return (Decimal(c.real), Decimal(c.imag))

    def mul(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def add(p, q):
        return (p[0] + q[0], p[1] + q[1])

    with localcontext() as ctx:
        ctx.prec = 60
        x, y = num(z[0]), num(z[1])
        out = [(x, y)]
        for f in maps:
            acc = num(f.poly.coeffs[0])
            for c in f.poly.coeffs[1:]:
                acc = add(mul(acc, y), num(c))
            x, y = add(y, num(f.alpha)), add(acc, mul(num(-f.delta), x))
            out.append((x, y))
    return out


@pytest.mark.parametrize("name", sorted(TUBE_SOURCES))
def test_tube_radii_hold_the_exact_orbit(name):
    # the reference lane's float orbit and its exact orbit part by rounding
    # alone; the tube must still cover that after its start radius has
    # contracted far below it
    maps, tube = _tube_every_step(TUBE_SOURCES[name], TUBE_START, 200)
    exact = _exact_orbit(maps, TUBE_START)
    apart = 0.0
    for (zx, zy, rx, ry), (x, y) in zip(tube, exact):
        dx = float(((x[0] - Decimal(zx.real)) ** 2 + (x[1] - Decimal(zx.imag)) ** 2).sqrt())
        dy = float(((y[0] - Decimal(zy.real)) ** 2 + (y[1] - Decimal(zy.imag)) ** 2).sqrt())
        assert dx <= rx and dy <= ry, (dx, rx, dy, ry)
        apart = max(apart, dy)
    # 200 steps contract the start radius by far more than 1e-16 / 1e-2
    assert apart > 0 and tube[0][3] > 1e-2
