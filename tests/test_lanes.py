"""Lane kernel against the scalar map, draw and differential."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import CUBIC, QUAD_C, QUAD_W
from henonlab import lanes, rng
from henonlab.core import eval_map, jacobian
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
