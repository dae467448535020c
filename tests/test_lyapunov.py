from __future__ import annotations

import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import QUAD, QUAD_A, QUAD_C, QUAD_W
from henonlab import lanes, lyapunov, rng
from henonlab.config import dist_from
from henonlab.core import HenonMap, Poly, condition_a_radius, eval_map, image, swap
from henonlab.dist import (
    BallNoise,
    FiniteDist,
    SequenceSeed,
    condition_a_params,
    inverse_distribution,
    sample_sequence,
)
from henonlab.escape import DistSource
from henonlab.lyapunov import (
    ESCAPE_FACTOR,
    AllEscaped,
    LyapunovReport,
    _batch_runs,
    _block_products,
    _left,
    _renorm_steps,
    _renormalize,
    _repeat_at,
    _start_vector,
    backward_lyapunov_statistics,
    lyapunov_statistics,
    max_lyapunov_single,
)

# log of the spectral radius sqrt(0.1) of [[0,1],[-0.1,0]]
ORACLE = math.log(math.sqrt(0.1))

# period-2 cycle of QUAD_C: y-values solve y^2 - 0.2y - 0.22 = 0; the
# 2-step Jacobian product has det 0.01 and trace 0.09, complex eigenvalues
# of modulus 0.1, so the per-step exponent is again log sqrt(0.1)
_S = math.sqrt(0.92)
CYCLE_POINT = ((0.2 - _S) / 2, (0.2 + _S) / 2)

# a conservative map whose orbit 0.01 off its elliptic fixed point (y0, y0),
# y0 = 1 - sqrt(1.5), stays bounded and never repeats bit for bit
CONSERVATIVE = HenonMap(0.0, 1.0, Poly((1.0, 0.0, -0.5)))
_Y0 = 1.0 - math.sqrt(1.5)
OFF_ELLIPTIC = (_Y0 + 0.01, _Y0)


def test_fixed_point_oracle():
    params = condition_a_radius([QUAD_A])
    v = max_lyapunov_single(QUAD_A, (0.0, 0.0), 100_000, params, angle_seed=1)
    assert v is not None
    assert abs(v - ORACLE) < 1e-3


def test_cycle_oracle():
    params = condition_a_radius([QUAD_C])
    v = max_lyapunov_single(QUAD_C, CYCLE_POINT, 100_000, params, angle_seed=2)
    assert v is not None
    assert abs(v - ORACLE) < 1e-3


def test_cycle_point_is_periodic():
    z1 = eval_map(QUAD_C, CYCLE_POINT)
    z2 = eval_map(QUAD_C, z1)
    assert abs(z2[0] - CYCLE_POINT[0]) < 1e-14
    assert abs(z2[1] - CYCLE_POINT[1]) < 1e-14


def test_start_vector_independence():
    params = condition_a_radius([QUAD_C])
    n = 5000
    a = max_lyapunov_single(QUAD_C, CYCLE_POINT, n, params, angle_seed=3)
    b = max_lyapunov_single(QUAD_C, CYCLE_POINT, n, params, angle_seed=4)
    assert abs(a - b) <= 2.0 / n + 1e-6


def test_minimum_steps_enforced():
    params = condition_a_radius([QUAD_A])
    with pytest.raises(ValueError):
        max_lyapunov_single(QUAD_A, (0.0, 0.0), 50, params)
    with pytest.raises(ValueError):
        lyapunov_statistics(FiniteDist((QUAD_A,), (1.0,)), (0.0, 0.0), 5, 1000, SequenceSeed(1, 1))


def test_escaped_orbit_returns_none():
    params = condition_a_radius([QUAD])
    v = max_lyapunov_single(QUAD, (0.0, 500.0), 100, params)
    assert v is None


def test_renormalization_matches_scaled_product():
    # vector iteration vs the scaled direct product, within (1/n) log cond
    rs = np.random.RandomState(7)
    for trial in range(10):
        n = rs.randint(5, 51)
        mats = rs.randn(n, 2, 2) + 1j * rs.randn(n, 2, 2)
        v = np.array([1.0, 0.0], dtype=complex)
        acc = 0.0
        P = np.eye(2, dtype=complex)
        plog = 0.0
        for k in range(n):
            w = mats[k] @ v
            nw = np.linalg.norm(w)
            acc += math.log(nw)
            v = w / nw
            P = mats[k] @ P
            s = np.abs(P).max()
            plog += math.log(s)
            P = P / s
        norm_log = plog + math.log(np.linalg.norm(P, 2))
        cond = np.linalg.cond(P, 2)
        assert abs(acc / n - norm_log / n) <= math.log(cond) / n + 1e-9


def test_statistics_match_single_runs(noisy_cycle_dist):
    seed = SequenceSeed(123, 9)
    params = condition_a_params(noisy_cycle_dist)
    rep = lyapunov_statistics(noisy_cycle_dist, CYCLE_POINT, 12, 500, seed)
    assert rep.escaped_fraction == 0.0
    for k, val in enumerate(rep.values):
        s = rng.derive_stream(seed.stream_id, k)
        single = max_lyapunov_single(
            DistSource(noisy_cycle_dist, SequenceSeed(seed.master_seed, s)),
            CYCLE_POINT,
            500,
            params,
            angle_seed=s,
        )
        assert abs(single - val) < 1e-12


def test_mean_stable_noise_negative_exponent(noisy_cycle_dist):
    rep = lyapunov_statistics(noisy_cycle_dist, (0.1, 0.2), 24, 2000, SequenceSeed(42, 4))
    assert rep.exponent < 0.0
    assert rep.exponent + rep.ci95_halfwidth < 0.0


def test_ball_noise_negative_exponent(ball_cycle_dist):
    rep = lyapunov_statistics(ball_cycle_dist, (0.1, 0.2), 16, 1000, SequenceSeed(21, 2))
    assert rep.exponent < 0.0
    assert rep.escaped_fraction == 0.0


def test_volume_preserving_escapes():
    noisy = BallNoise(QUAD, 0.3)
    with pytest.raises(AllEscaped) as info:
        lyapunov_statistics(noisy, (0.4, 0.3), 10, 2000, SequenceSeed(11, 6))
    assert info.value.report.escaped_fraction == 1.0
    assert math.isnan(info.value.report.exponent)


def test_backward_is_forward_of_inverse(noisy_cycle_dist):
    # exact conjugation: backward(dist, z) is literally the forward run on
    # inverse_distribution(dist) at the swapped point
    seed = SequenceSeed(99, 3)
    dist = inverse_distribution(noisy_cycle_dist)  # its inverse is mean stable
    z = swap(CYCLE_POINT)
    bwd = backward_lyapunov_statistics(dist, z, 12, 400, seed)
    fwd = lyapunov_statistics(inverse_distribution(dist), swap(z), 12, 400, seed)
    assert bwd.values == fwd.values
    assert bwd.exponent == fwd.exponent
    assert bwd.exponent < 0.0


def test_local_stencil_shrinks_at_exponent_rate(noisy_cycle_dist):
    seed = SequenceSeed(31, 8)
    n = 20
    seq = sample_sequence(noisy_cycle_dist, seed, n)
    r = 1e-3
    pts = [
        CYCLE_POINT,
        (CYCLE_POINT[0] + r, CYCLE_POINT[1]),
        (CYCLE_POINT[0] - r, CYCLE_POINT[1]),
        (CYCLE_POINT[0], CYCLE_POINT[1] + r),
        (CYCLE_POINT[0], CYCLE_POINT[1] - r),
    ]
    def diam(ps):
        return max(
            math.hypot(abs(a[0] - b[0]), abs(a[1] - b[1]))
            for i, a in enumerate(ps)
            for b in ps[i + 1:]
        )
    d0 = diam(pts)
    for f in seq:
        pts = [eval_map(f, p) for p in pts]
    slope = (math.log(diam(pts)) - math.log(d0)) / n
    rep = lyapunov_statistics(noisy_cycle_dist, CYCLE_POINT, 16, 2000, SequenceSeed(17, 5))
    assert slope < 0
    assert abs(slope - rep.exponent) <= 0.2 * abs(rep.exponent)


def test_report_validation():
    with pytest.raises(ValueError):
        LyapunovReport(math.nan, 100, 10, 0.0, 0.5, (1.0,))
    with pytest.raises(ValueError):
        LyapunovReport(-1.0, 100, 10, -0.1, 0.0, (-1.0,))


def test_renorm_steps_on_quad_attracting_preset():
    # R = 18.2, P' = 2 * 182 + 1.3 = 365.3, |delta| = 0.1: k = floor(690.8 / 8.20)
    path = os.path.join(os.path.dirname(__file__), "..", "src", "henonlab", "presets",
                        "quad-attracting.json")
    with open(path) as fh:
        dist = dist_from(json.load(fh), "")
    params = condition_a_params(dist)
    assert params.R == pytest.approx(18.2)
    assert _renorm_steps(dist, ESCAPE_FACTOR * params.R) == 84
    # a ball's offsets enter no Jacobian: its base map alone sets k
    assert _renorm_steps(BallNoise(QUAD_C, 0.05), ESCAPE_FACTOR * params.R) == 84


def _kicked_pair() -> FiniteDist:
    tail = (0.0,) * 12 + (1e4, 0.0)
    return FiniteDist((HenonMap(0.0, 0.1, Poly((1.0,) + tail + (0.0,))),
                       HenonMap(0.0, 0.1, Poly((1.0,) + tail + (4e-5,)))), (0.5, 0.5))


def test_batched_blocks_match_scalar_runs_with_mid_block_escapes():
    # degree 16 with a large quadratic term: R = 2e4, so on the 10R bidisk
    # G/|delta| = 10 * (16 (2e5)^15 + ...) = 5.2e81 and k = floor(690.8 / 188.2)
    # = 3.  The origin attracts; the second map's constant kicks some sequences
    # out of its basin.
    dist = _kicked_pair()
    params = condition_a_params(dist)
    r_big = ESCAPE_FACTOR * params.R
    k = _renorm_steps(dist, r_big)
    assert k == 3
    n, samples, z, seed = 101, 16, (1e-6, 1e-6), SequenceSeed(5, 1)
    assert n % k
    vals, escaped = _batch_runs(dist, z, samples, n, seed, r_big)
    exits = []
    for i in range(samples):
        s = rng.derive_stream(seed.stream_id, i)
        src = DistSource(dist, SequenceSeed(seed.master_seed, s))
        single = max_lyapunov_single(src, z, n, params, angle_seed=s)
        assert escaped[i] == (single is None)
        if single is None:
            cur, step = z, 0
            while max(abs(cur[0]), abs(cur[1])) <= r_big:
                cur, step = image(src[step], cur), step + 1
            exits.append(step)
        else:
            assert abs(vals[i] - single) <= 1e-12 * abs(single)
    assert 0 < len(exits) < samples
    assert any(t % k for t in exits)  # some lanes leave in the middle of a block


def test_lanes_that_leave_mid_block_raise_no_warning():
    # the lanes that leave keep stepping to the block's end, through overflow
    dist = _kicked_pair()
    r_big = ESCAPE_FACTOR * condition_a_params(dist).R
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, escaped = _batch_runs(dist, (1e-6, 1e-6), 16, 101, SequenceSeed(5, 1), r_big)
    assert 0 < escaped.sum() < 16


@pytest.mark.parametrize("z", [CYCLE_POINT, (0.0, 30.0)], ids=["stays", "leaves"])
def test_one_map_orbit_matches_the_map_drawn_twice(z):
    # the shared scalar orbit against the same map as a drawing support's lanes
    one = FiniteDist((QUAD_C,), (1.0,))
    twice = FiniteDist((QUAD_C, QUAD_C), (0.5, 0.5))
    r_big = ESCAPE_FACTOR * condition_a_params(one).R
    seed = SequenceSeed(8, 2)
    v1, e1 = _batch_runs(one, z, 12, 3000, seed, r_big)
    v2, e2 = _batch_runs(twice, z, 12, 3000, seed, r_big)
    assert list(e1) == list(e2)
    assert e1.all() == (z != CYCLE_POINT)
    assert np.all(np.abs(v1 - v2) <= 1e-13 * np.abs(v2))


def test_one_map_orbit_that_leaves_reports_all_escaped():
    with pytest.raises(AllEscaped) as info:
        lyapunov_statistics(FiniteDist((QUAD,), (1.0,)), (0.0, 500.0), 10, 100, SequenceSeed(3, 1))
    assert info.value.report.escaped_fraction == 1.0


@pytest.mark.parametrize("dist", [FiniteDist((QUAD_C,), (1.0,)), BallNoise(QUAD_C, 0.05)],
                         ids=["one-map", "ball"])
@pytest.mark.parametrize("z", [(math.nan, 0.5), (0.5, complex(0.2, math.nan))])
def test_nan_start_is_escaped(dist, z):
    # a NaN part is not inside the 10R bidisk: the runs are escaped, not a
    # report with a NaN exponent and half-width
    with pytest.raises(AllEscaped) as info:
        lyapunov_statistics(dist, (complex(z[0]), complex(z[1])), 10, 1000, SequenceSeed(3, 1))
    assert info.value.report.escaped_fraction == 1.0
    assert max_lyapunov_single(QUAD_C, z, 100, condition_a_params(dist)) is None


def test_one_map_orbit_memory_does_not_grow_with_n():
    # holding the orbit's 400,000 y-values alone would take 6.4 MB
    dist = FiniteDist((QUAD_C,), (1.0,))
    r_big = ESCAPE_FACTOR * condition_a_params(dist).R
    tracemalloc.start()
    try:
        vals, escaped = _batch_runs(dist, CYCLE_POINT, 10, 400_000, SequenceSeed(2, 7), r_big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not escaped.any()
    assert abs(vals.mean() - ORACLE) < 1e-3
    assert peak < 2_000_000


def _one_map(f) -> tuple:
    dist = FiniteDist((f,), (1.0,))
    return dist, ESCAPE_FACTOR * condition_a_params(dist).R


def _per_step_orbit_runs(dist, z, samples, n, seed, r_big):
    # the one-map path of _batch_runs with every position of the orbit stepped
    streams = rng.stream_table(seed.stream_id, samples)
    V1 = np.empty(samples, dtype=np.complex128)
    V2 = np.empty(samples, dtype=np.complex128)
    for i in range(samples):
        V1[i], V2[i] = _start_vector(int(streams[i]))
    k = _renorm_steps(dist, r_big)
    chunk = k * max(1, lanes._BLOCK_CELLS // k)
    part = np.zeros(samples)
    cur = z
    for a in range(0, n, chunk):
        m = min(chunk, n - a)
        X = np.empty(m, dtype=np.complex128)
        Y = np.empty_like(X)
        for j in range(m):
            X[j], Y[j] = cur
            cur = image(dist.maps[0], cur)
        if _left(X, Y, r_big):
            return np.zeros(samples), np.ones(samples, dtype=bool)
        c, d = lanes.jacobian_rows(dist, None, Y)
        full = m - m % k
        Ps = list(_block_products(c[:full].reshape(-1, k).T, d[:full].reshape(-1, k).T).T)
        if full < m:
            Ps.append(_block_products(c[full:, None], d[full:, None])[:, 0])
        for P in Ps:
            V1, V2, part = _renormalize(P, V1, V2, part)
    return part / n, np.zeros(samples, dtype=bool)


# saddle at the origin with eigenvalues 1.1 and 0.1 / 1.1: from 1e-300 up
# its unstable direction the orbit leaves the 10R bidisk at step 7,227
_SADDLE = HenonMap(0.0, 0.1, Poly((1.0, 1.1 + 0.1 / 1.1, 0.0)))


@pytest.mark.parametrize("f, z, n", [
    (QUAD_C, (0.3, 0.65), 3 * 4032 + 43),  # period 2 from step 36, in the first chunk
    (QUAD_W, (0.3, 0.65), 3 * 4017 + 50),  # period 4 of subnormals from step 7,052
    (CONSERVATIVE, OFF_ELLIPTIC, 3 * 4056 + 33),  # never repeats
    (_SADDLE, (0.0, 1e-300), 10_001),  # leaves in its second chunk
], ids=["repeat-mid-chunk", "subnormal-cycle", "no-repeat", "leaves"])
def test_tiled_orbit_matches_stepping_bit_for_bit(f, z, n):
    dist, r_big = _one_map(f)
    k = _renorm_steps(dist, r_big)
    assert n % k and n > 2 * k * (lanes._BLOCK_CELLS // k)
    seed = SequenceSeed(6, 3)
    vals, escaped = _batch_runs(dist, z, 12, n, seed, r_big)
    ref_vals, ref_escaped = _per_step_orbit_runs(dist, z, 12, n, seed, r_big)
    assert np.array_equal(escaped, ref_escaped)
    assert np.array_equal(vals.view(np.int64), ref_vals.view(np.int64))
    assert escaped.all() == (f is _SADDLE)


def test_one_map_orbit_that_repeats_takes_at_most_one_chunk_of_steps(monkeypatch):
    # desk-mix's lyapunov input: the orbit repeats with period 2 after 38 steps
    dist, r_big = _one_map(QUAD_C)
    k = _renorm_steps(dist, r_big)
    calls = []

    def spy(f, z):
        calls.append(z)
        return image(f, z)

    monkeypatch.setattr(lyapunov, "image", spy)
    rep = lyapunov_statistics(dist, (0.3, 0.65), 10, 100_000, SequenceSeed(4, 9))
    assert len(calls) <= k * (lanes._BLOCK_CELLS // k)
    assert rep.escaped_fraction == 0.0 and abs(rep.exponent - ORACLE) < 1e-3


def test_repeat_is_matched_on_bits():
    X = np.array([1 + 0j, 0.5 + 0j, 1 + 0j, 0.5 + 0j])
    Y = np.array([0j, 0j, 0j, 0j])
    assert _repeat_at(X, Y, (1 + 0j, 0j)) == 2  # the last match
    assert _repeat_at(X, Y, (0.25 + 0j, 0j)) is None
    assert _repeat_at(X, Y, (1 + 0j, complex(-0.0, 0.0))) is None  # only the sign of a zero
    assert _repeat_at(X, Y, (1 + 0j, complex(0.0, -0.0))) is None
    nan = complex(math.nan, 0.0)
    assert _repeat_at(np.array([nan]), np.array([0j]), (nan, 0j)) is None


def test_stepped_one_map_orbit_memory_does_not_grow_with_n():
    # the orbit that never repeats is stepped through all 50 of its chunks;
    # holding its 200,000 y-values alone would take 3.2 MB
    dist, r_big = _one_map(CONSERVATIVE)
    tracemalloc.start()
    try:
        vals, escaped = _batch_runs(dist, OFF_ELLIPTIC, 10, 200_000, SequenceSeed(2, 7), r_big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not escaped.any()
    assert np.isfinite(vals).all()
    assert peak < 2_000_000
