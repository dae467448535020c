"""Lane kernel against the scalar map, draw and differential."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import CUBIC, QUAD_A, QUAD_C, QUAD_W
from henonlab import lanes, rng
from henonlab.core import (
    OVERFLOW_LIMIT, HenonMap, Poly, Region, classify_region, eval_map, in_v_plus, jacobian,
)
from henonlab.dist import BallNoise, FiniteDist, SequenceSeed, sample_map

LANES = 500
MASTER = 0x1A9E5
STEP = 17

DISTS = {
    "three-map": FiniteDist((QUAD_C, QUAD_W, CUBIC), (0.5, 0.3, 0.2)),
    "one-map": FiniteDist((QUAD_C,), (1.0,)),
    "ball": BallNoise(QUAD_C, 0.05),
}


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    # not bitwise: the vector and scalar paths group the arithmetic differently
    return bool(np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(b), 1.0)))


@pytest.mark.parametrize("name", sorted(DISTS))
def test_step_matches_scalar_maps(name):
    dist = DISTS[name]
    streams = np.array([rng.derive_stream(4, k) for k in range(LANES)], dtype=np.uint64)
    u = np.random.default_rng(11).uniform(-1.5, 1.5, (4, LANES))
    X, Y = u[0] + 1j * u[1], u[2] + 1j * u[3]
    drawn = lanes.draw(dist, MASTER, streams, STEP)
    nx, ny = lanes.apply(dist, drawn, X, Y)
    c, d = lanes.jacobian_rows(dist, drawn, Y)

    ref = np.empty((4, LANES), dtype=np.complex128)
    for k in range(LANES):
        f = sample_map(dist, SequenceSeed(MASTER, int(streams[k])), STEP)
        z = (complex(X[k]), complex(Y[k]))
        ref[:2, k] = eval_map(f, z)
        ref[2:, k] = jacobian(f, z)[1]
    for got, want in zip((nx, ny, c, d), ref):
        assert _close(got, want)


FINITE = {
    "three-map": DISTS["three-map"],  # degrees 2, 2 and 3
    "two-map": FiniteDist((QUAD_A, QUAD_C), (0.4, 0.6)),
    "one-map": DISTS["one-map"],
}


def _per_map(dist, drawn, X, Y):
    # the step and the differential's second row map by map, each over the
    # lanes that drew it
    nx, ny, c, d = (np.empty_like(X) for _ in range(4))
    for j, f in enumerate(dist.maps):
        m = drawn == j
        nx[m], ny[m] = lanes.image(f, X[m], Y[m])
        c[m], d[m] = -f.delta, lanes.horner(f.poly._deriv, Y[m])
    return nx, ny, c, d


@pytest.mark.parametrize("scale", [1.0, 1e33])
@pytest.mark.parametrize("name", sorted(FINITE))
def test_gathered_step_matches_per_map_formula_bitwise(name, scale):
    dist = FINITE[name]
    u = np.random.default_rng(12).uniform(-1.5, 1.5, (4, LANES)) * scale
    X, Y = u[0] + 1j * u[1], u[2] + 1j * u[3]
    drawn = lanes.draw(dist, MASTER, rng.stream_table(4, LANES), STEP)
    zeros = np.zeros(LANES, dtype=np.intp)
    # a one-map support draws nothing, and the path tree hands it map 0
    cases = [(drawn, drawn)] if drawn is not None else [(None, zeros), (zeros, zeros)]
    for given, per_lane in cases:
        got = (*lanes.apply(dist, given, X, Y), *lanes.jacobian_rows(dist, given, Y))
        for g, want in zip(got, _per_map(dist, per_lane, X, Y)):
            assert g.tobytes() == want.tobytes()


ONE_MAP = {
    "quadratic": FiniteDist((QUAD_C,), (1.0,)),
    "cubic": FiniteDist((CUBIC,), (1.0,)),
    "complex-leading": FiniteDist((HenonMap(0.3 - 0.2j, 0.5 + 0.1j, Poly((2 - 1j, 0.5j, -0.7))),),
                                  (1.0,)),
}


@pytest.mark.parametrize("scale", [1.0, 1e33])
@pytest.mark.parametrize("name", sorted(ONE_MAP))
def test_one_map_step_matches_the_table_column_bitwise(name, scale):
    # a one-map support steps under its map's scalars (lanes.image), with
    # the bits of the formula on column 0 of the support's table
    dist = ONE_MAP[name]
    u = np.random.default_rng(13).uniform(-1.5, 1.5, (4, LANES)) * scale
    X, Y = u[0] + 1j * u[1], u[2] + 1j * u[3]
    table = dist._table
    t = table[:len(table) // 2 + 2, 0]
    want = (Y + t[0], lanes.horner(t[1:-1], Y) - t[-1] * X)
    for given in (None, np.zeros(LANES, dtype=np.intp)):
        for g, w in zip(lanes.apply(dist, given, X, Y), want):
            assert g.tobytes() == w.tobytes()


def test_one_map_support_draws_nothing():
    streams = np.arange(8, dtype=np.uint64)
    assert lanes.draw(DISTS["one-map"], MASTER, streams, STEP) is None
    assert lanes.draw(DISTS["three-map"], MASTER, streams, STEP).shape == (8,)


def test_masks_match_scalar_regions_on_boundaries():
    R = 2.0
    # magnitudes 0, 1.5, R, 2.5, 5 (|3 + 4i| = 5 exactly) in several phases,
    # so both the cone edge |y| = max(R, |x|) and the bidisk edge
    # max(|x|, |y|) = R are hit exactly
    values = [0.0, 1.5, -1.5j, 2.0, -2.0, 2.0j, 2.5, 5.0, 3 + 4j, -4 - 3j]
    pts = [(complex(x), complex(y)) for x in values for y in values]
    X = np.array([p[0] for p in pts])
    Y = np.array([p[1] for p in pts])
    cone = lanes.Walk(X, Y).in_cone(R)
    disk = lanes.in_bidisk(X, Y, R)
    assert list(cone) == [in_v_plus(p, R) for p in pts]
    assert list(disk) == [classify_region(p, R) == Region.D_R for p in pts]
    assert any(abs(p[1]) == max(R, abs(p[0])) for p in pts)
    assert any(max(abs(p[0]), abs(p[1])) == R for p in pts)


def test_walk_retire_returns_batch_indices_and_keeps_carry_aligned():
    n = 10
    X = np.arange(n) + 0j
    w = lanes.Walk(X, -X, np.arange(n, dtype=np.uint64), tag=np.arange(n) * 10)
    assert list(w.retire(np.isin(np.arange(n), (1, 4, 5)))) == [1, 4, 5]
    assert list(w.retire(np.isin(w.lane, (0, 9)))) == [0, 9]
    assert len(w) == 5 and w.retire(np.zeros(5, dtype=bool)).size == 0
    for arr in (w.X.real, -w.Y.real, w.streams, w.carry["tag"] // 10):
        assert list(arr) == list(w.lane) == [2, 3, 6, 7, 8]
    assert list(X.real) == list(range(n))  # the starting arrays are not written


def test_walk_step_retires_exactly_the_lanes_leaving_the_window():
    # y' = y**2 - 1.3 y - 0.1 x: y = 9e49 lands at 8.1e99 (kept), 2e50 and
    # 1e60 overshoot, and x = -1e102 pushes y' past the window on its own
    dist = DISTS["one-map"]
    Y = np.array([0.3, 9e49, 2e50, 0.0, 1e60, 0.0]) + 0j
    X = np.array([0.0, 0.0, 0.0, 0.5, 0.0, -1e102]) + 0j
    w = lanes.Walk(X, Y, np.arange(6, dtype=np.uint64), dist, MASTER)
    want_x, want_y = lanes.image(dist.maps[0], X, Y)
    assert list(w.step(0)) == [2, 4, 5]
    assert list(w.lane) == [0, 1, 3]
    assert ((np.abs(w.X) <= OVERFLOW_LIMIT) & (np.abs(w.Y) <= OVERFLOW_LIMIT)).all()
    assert np.array_equal(w.X, want_x[[0, 1, 3]]) and np.array_equal(w.Y, want_y[[0, 1, 3]])


def test_walk_masks_follow_rebound_positions():
    # the cone and bidisk masks reuse the magnitudes a move took, and take
    # them afresh once the positions are rebound directly
    X = np.array([0.0, 3.0, 0.5]) + 0j
    Y = np.array([5.0, 0.0, 0.5]) + 0j
    w = lanes.Walk(X, Y)
    assert list(w.in_cone(2.0)) == [True, False, False]
    w.move(Y, X)
    assert list(w.in_cone(2.0)) == [False, True, False]
    w.retire(np.array([False, True, False]))
    assert list(w.in_bidisk(2.0)) == [False, True]
    w.X, w.Y = w.Y, w.X
    assert list(w.in_cone(2.0)) == [True, False]
    assert list(w.in_bidisk(2.0)) == list(lanes.in_bidisk(w.X, w.Y, 2.0)) == [False, True]


def _walk_positions(dist, streams, X, Y, steps):
    # every lane's position after each step, NaN once it has retired
    w = lanes.Walk(X, Y, streams, dist, MASTER)
    out = np.full((steps, 2, X.size), np.nan, dtype=np.complex128)
    for n in range(steps):
        w.retire(np.abs(w.Y) > np.maximum(2.0, np.abs(w.X)))
        w.step(n)
        out[n, :, w.lane] = np.stack([w.X, w.Y], axis=1)
    return out


@pytest.mark.parametrize("name", ["three-map", "ball"])
def test_walk_is_batch_invariant(name):
    dist = DISTS[name]
    n = 600
    streams = rng.stream_table(9, n)
    u = np.random.default_rng(5).uniform(-1.2, 1.2, (4, n))
    X, Y = u[0] + 1j * u[1], u[2] + 1j * u[3]
    whole = _walk_positions(dist, streams, X, Y, 12)
    halves = np.concatenate([_walk_positions(dist, streams[s], X[s], Y[s], 12)
                             for s in (slice(0, 250), slice(250, n))], axis=2)
    retired = np.isnan(whole[-1, 0])
    assert retired.any() and not retired.all()
    assert np.array_equal(whole, halves, equal_nan=True)


def _zero_start_horner(coeffs, y):
    acc = np.zeros_like(y)
    for c in coeffs:
        acc = acc * y + c
    return acc


def test_horner_matches_zero_start_reference():
    rs = np.random.default_rng(11)
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]

    def part(signed_zero):
        r = rs.random()
        return rs.normal() if r < 0.6 else (-0.0 if signed_zero and r < 0.8 else 0.0)

    for trial in range(400):
        d = int(rs.integers(2, 17))
        # horner multiplies the leading coefficient into y where the reference
        # first adds it to a zero, so a -0.0 part there could flip the sign of
        # an exactly-zero result; the other coefficients take signed zeros
        coeffs = [complex(rs.normal(), part(False))]
        coeffs += [complex(part(True), part(True)) for _ in range(d)]
        y = rs.normal(size=24) + 1j * rs.normal(size=24)
        y[:4] = zeros
        y[4:8] = [complex(s, z.imag) for s, z in zip((1.5, -0.5, 0.0, -2.0), zeros)]
        if trial % 2:
            y = y.real.copy()
            y[:2] = (0.0, -0.0)
        got = lanes.horner(tuple(coeffs), y)
        want = _zero_start_horner(tuple(coeffs), y)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (d, coeffs)


@pytest.mark.parametrize("coeffs", [QUAD_C.poly.coeffs, CUBIC.poly.coeffs, QUAD_C.poly._deriv],
                         ids=["quad", "cubic", "derivative"])
def test_horner_steps_one_lane_with_the_bits_of_a_batch(coeffs):
    # in place, numpy multiplies a one-element complex array by its scalar
    # formula, which rounds apart from its array loop: a lane stepped alone
    # (the tail of a refilling walk, a one-path tree level) must keep the
    # bits it has in a batch
    rs = np.random.default_rng(31)
    y = rs.normal(size=500) + 1j * rs.normal(size=500)
    alone = np.concatenate([lanes.horner(coeffs, y[i:i + 1]) for i in range(y.size)])
    assert alone.tobytes() == lanes.horner(coeffs, y).tobytes()


@pytest.mark.parametrize("coeffs", [QUAD_C.poly.coeffs, CUBIC.poly.coeffs, QUAD_C.poly._deriv],
                         ids=["quad", "cubic", "derivative"])
def test_horner_in_place_matches_out_of_place_formula(coeffs):
    # a raster block's lane count, where the accumulator is updated in place
    rs = np.random.default_rng(29)
    y = rs.normal(size=1 << 15) + 1j * rs.normal(size=1 << 15)
    y[:8] = [0.0, -0.0, 1e-300, -1e300, 1e155j, np.inf, np.nan, complex(-0.0, 0.0)]
    before = y.copy()
    with np.errstate(all="ignore"):  # the inf, nan and huge lanes
        want = coeffs[0] * y + coeffs[1]
        for c in coeffs[2:]:
            want = want * y + c
        got = lanes.horner(coeffs, y)
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    assert y.view(np.uint64).tobytes() == before.view(np.uint64).tobytes()


def _cull(n, live):
    # deterministic retirements, most of them in the middle of a drawn block
    if live < 2 or n % 9 != 4:
        return np.zeros(live, dtype=bool)
    return np.random.default_rng(n).random(live) < 0.25


def _same_draw(got, want) -> bool:
    if want is None:  # a one-map support draws nothing
        return got is None
    if isinstance(want, tuple):  # a ball's (alpha, constant) offsets
        return all(np.array_equal(g, r) for g, r in zip(got, want))
    return np.array_equal(got, want)


# supports that keep lanes near the attracting origin, so walks outlive blocks
CALM = {
    "three-map": FiniteDist((QUAD_A, QUAD_W, HenonMap(0.01, 0.5, Poly((1.0, 0.0, 0.01)))),
                            (0.5, 0.3, 0.2)),
    "one-map": FiniteDist((QUAD_A,), (1.0,)),
    "ball": BallNoise(QUAD_A, 0.05),
}


@pytest.mark.parametrize("name", sorted(CALM))
@pytest.mark.parametrize("n_lanes", [1, 10, 100, 5000])
def test_walk_draw_blocks_match_per_step_draws(name, n_lanes):
    dist = CALM[name]
    steps = 75  # past two 32-step blocks
    streams = rng.stream_table(13, n_lanes)
    u = np.random.default_rng(n_lanes).uniform(-0.2, 0.2, (4, n_lanes))
    X, Y = u[0] + 1j * u[1], u[2] + 1j * u[3]
    w = lanes.Walk(X, Y, streams, dist, MASTER)
    # the reference draws every step on its own and compacts by hand
    lane, rs, rx, ry = np.arange(n_lanes), streams, X, Y
    widths = []
    for n in range(steps):
        for rule in (lambda: np.abs(w.Y) > np.maximum(2.0, np.abs(w.X)),
                     lambda: _cull(n, len(w))):
            mask = rule()
            w.retire(mask)
            lane, rs, rx, ry = lane[~mask], rs[~mask], rx[~mask], ry[~mask]
        if not len(w):
            break
        widths.append(lanes.draw_steps(len(w)))
        want = lanes.draw(dist, MASTER, rs, n)
        assert _same_draw(w.draw(n), want)
        rx, ry = lanes.apply(dist, want, rx, ry)
        gone = w.step(n)
        keep = (np.abs(rx) <= OVERFLOW_LIMIT) & (np.abs(ry) <= OVERFLOW_LIMIT)
        assert np.array_equal(gone, lane[~keep])
        lane, rs, rx, ry = lane[keep], rs[keep], rx[keep], ry[keep]
        assert np.array_equal(w.lane, lane) and np.array_equal(w.streams, rs)
        assert np.array_equal(w.X, rx) and np.array_equal(w.Y, ry)
    # the walk crossed refills with live lanes, at a block width above 1
    assert len(widths) == steps and max(widths) > 1
    assert len(w) > 0 and (n_lanes == 1 or len(w) < n_lanes)


@pytest.mark.parametrize("name", ["three-map", "ball"])
def test_walk_draw_refills_outside_its_block(name):
    dist = DISTS[name]
    streams = rng.stream_table(3, 20)
    w = lanes.Walk(np.zeros(20, dtype=np.complex128), np.zeros(20, dtype=np.complex128), streams,
                   dist, MASTER)
    # an earlier step, a jump past the block and a retire in the middle of one
    for n in (5, 6, 2, 40, 41):
        if n == 41:
            w.retire(np.arange(len(w)) % 3 == 0)
        assert _same_draw(w.draw(n), lanes.draw(dist, MASTER, w.streams, n))
    # a one-step block is used up by its step, so a retire drops it whole
    z = np.zeros(5000, dtype=np.complex128)
    big = lanes.Walk(z, z, rng.stream_table(3, 5000), dist, MASTER)
    big.draw(0)
    big.retire(np.arange(5000) % 2 == 0)
    assert big._block is None
    assert _same_draw(big.draw(1), lanes.draw(dist, MASTER, big.streams, 1))


@pytest.mark.parametrize("name", sorted(CALM))
def test_walk_admit_draws_each_lane_from_its_own_step_0(name):
    # lanes admitted at walk step 5, inside a drawn block, walk as a fresh
    # walk of their own would; one starting outside the window is dropped
    dist = CALM[name]
    u = np.random.default_rng(3).uniform(-0.2, 0.2, (4, 12))
    X, Y = u[0] + 1j * u[1], u[2] + 1j * u[3]
    X[7] = 1e101
    streams = rng.stream_table(21, 12)
    w = lanes.Walk(X[:4], Y[:4], streams[:4], dist, MASTER)
    for n in range(5):
        w.step(n)
    w.admit(X[4:], Y[4:], streams[4:], 2.0)
    assert list(w.lane) == [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11]
    assert list(w.start) == [0] * 4 + [5] * 7
    keep = np.array([4, 5, 6, 8, 9, 10, 11])
    ref = lanes.Walk(X[keep], Y[keep], streams[keep], dist, MASTER)
    for n in range(5, 45):
        w.step(n)
        ref.step(n - 5)
        assert np.array_equal(w.lane[4:], keep)
        assert np.array_equal(w.X[4:], ref.X) and np.array_equal(w.Y[4:], ref.Y)


def test_walk_admit_returns_cone_lanes_and_takes_carry():
    # lanes in the escape cone are returned, not admitted, even outside the
    # window; the rest outside the window are dropped unseen; lane indices
    # count every lane offered; carry values broadcast
    dist = CALM["ball"]
    X = np.array([0.1, 0.0, 1e102, 0.0, 0.2, 1e60], dtype=np.complex128)
    Y = np.array([0.1, 50.0, 0.0, 1e102, 0.3, 1e60], dtype=np.complex128)
    streams = rng.stream_table(22, 6)
    w = lanes.Walk(X[:0], Y[:0], streams[:0], dist, MASTER,
                   cand=np.zeros(0, np.int64), run=np.zeros(0, np.int64))
    w.step(0)
    assert list(w.admit(X[:3], Y[:3], streams[:3], 10.0, cand=-1, run=0)) == [1]
    assert list(w.admit(X[3:], Y[3:], streams[3:], 10.0, cand=np.array([7, 8, 9]),
                        run=5)) == [3]
    assert list(w.lane) == [0, 4, 5]
    assert list(w.start) == [1, 1, 1]
    assert list(w.carry["cand"]) == [-1, 8, 9] and list(w.carry["run"]) == [0, 5, 5]
    # at a cone radius above |y| the lane at y = 50 is admitted
    assert w.admit(X[1:2], Y[1:2], streams[1:2], 60.0, cand=0, run=0).size == 0
    assert list(w.lane) == [0, 4, 5, 6]
