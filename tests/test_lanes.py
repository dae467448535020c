"""Lane kernel against the scalar map, draw and differential."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import CUBIC, QUAD_C, QUAD_W
from henonlab import lanes, rng
from henonlab.core import Region, classify_region, eval_map, in_v_plus, jacobian
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
    u = np.random.default_rng(11).uniform(-1.5, 1.5, (6, LANES))
    X, Y = u[0] + 1j * u[1], u[2] + 1j * u[3]
    V1, V2 = u[4] + 0.5j, 0.25 - 1j * u[5]
    nx, ny, w1, w2 = lanes.step(dist, MASTER, streams, STEP, X, Y, (V1, V2))

    ref = np.empty((4, LANES), dtype=np.complex128)
    for k in range(LANES):
        f = sample_map(dist, SequenceSeed(MASTER, int(streams[k])), STEP)
        z = (complex(X[k]), complex(Y[k]))
        ref[:2, k] = eval_map(f, z)
        ref[2:, k] = jacobian(f, z) @ np.array([V1[k], V2[k]])
    for got, want in zip((nx, ny, w1, w2), ref):
        assert _close(got, want)


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
    cone = lanes.in_cone(X, Y, R)
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
    w = lanes.Walk(X, Y, np.arange(6, dtype=np.uint64))
    want_x, want_y = lanes.image(dist.maps[0], X, Y)
    assert list(w.step(dist, MASTER, 0)) == [2, 4, 5]
    assert list(w.lane) == [0, 1, 3]
    assert not lanes.outside(w.X, w.Y).any()
    assert np.array_equal(w.X, want_x[[0, 1, 3]]) and np.array_equal(w.Y, want_y[[0, 1, 3]])


def _walk_positions(dist, streams, X, Y, steps):
    # every lane's position after each step, NaN once it has retired
    w = lanes.Walk(X, Y, streams)
    out = np.full((steps, 2, X.size), np.nan, dtype=np.complex128)
    for n in range(steps):
        w.retire(lanes.in_cone(w.X, w.Y, 2.0))
        w.step(dist, MASTER, n)
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
