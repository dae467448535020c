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
