from __future__ import annotations

import numpy as np
import pytest

from conftest import QUAD, QUAD_C
from henonlab import dist as dist_mod
from henonlab import rng
from henonlab.core import HenonMap, Poly
from henonlab.dist import (
    BallNoise,
    FiniteDist,
    NoiseFamily,
    SequenceSeed,
    ball_offsets_array,
    condition_a_params,
    family_at,
    finite_choices_array,
    inverse_distribution,
    sample_map,
    sample_sequence,
    support_sample,
)


def test_finite_dist_validation():
    with pytest.raises(ValueError):
        FiniteDist((QUAD,), (0.5,))  # weights do not sum to 1
    with pytest.raises(ValueError):
        FiniteDist((QUAD, QUAD_C), (1.0, -0.0))
    d = FiniteDist((QUAD, QUAD_C), (0.25, 0.75))
    assert abs(sum(d.weights) - 1.0) < 1e-12


def test_sequence_prefix_stability():
    d = FiniteDist((QUAD, QUAD_C), (0.5, 0.5))
    s = SequenceSeed(42, 0)
    short = sample_sequence(d, s, 5)
    long = sample_sequence(d, s, 50)
    assert short == long[:5]


def test_finite_frequencies_follow_weights():
    d = FiniteDist((QUAD, QUAD_C), (0.25, 0.75))
    s = SequenceSeed(7, 1)
    n = 20000
    hits = sum(1 for i in range(n) if sample_map(d, s, i) is d.maps[1])
    freq = hits / n
    assert abs(freq - 0.75) < 4 * (0.25 * 0.75 / n) ** 0.5 + 0.005


def test_independent_streams_differ():
    d = FiniteDist((QUAD, QUAD_C), (0.5, 0.5))
    a = sample_sequence(d, SequenceSeed(42, 0), 20)
    b = sample_sequence(d, SequenceSeed(42, 1), 20)
    assert a != b


def test_finite_choices_vectorized_matches_scalar():
    d = FiniteDist((QUAD, QUAD_C), (0.3, 0.7))
    streams = np.arange(64, dtype=np.uint64)
    for index in (0, 5, 1000):
        vec = finite_choices_array(d, 99, streams, index)
        for s, j in zip(streams.tolist(), vec.tolist()):
            assert d.maps[j] is sample_map(d, SequenceSeed(99, s), index)


def test_ball_draw_properties():
    bn = BallNoise(QUAD_C, 0.25)
    s = SequenceSeed(11, 4)
    for i in range(200):
        f = sample_map(bn, s, i)
        assert f.delta == QUAD_C.delta
        assert f.degree == QUAD_C.degree
        da = f.alpha - QUAD_C.alpha
        dc = f.poly.coeffs[-1] - QUAD_C.poly.coeffs[-1]
        assert (abs(da) ** 2 + abs(dc) ** 2) ** 0.5 <= 0.25
        # middle coefficients untouched
        assert f.poly.coeffs[:-1] == QUAD_C.poly.coeffs[:-1]
    assert sample_map(bn, s, 3) == sample_map(bn, s, 3)


def _reference_ball_draw(radius, master, stream, index):
    """Rejection from the 4-cube, one rng.uniform01 call per word; returns
    the offsets and the accepted attempt."""
    for attempt in range(256):
        c = [
            (2.0 * rng.uniform01(master, stream, index, 4 * attempt + w) - 1.0) * radius
            for w in range(4)
        ]
        if c[0] * c[0] + c[1] * c[1] + c[2] * c[2] + c[3] * c[3] <= radius * radius:
            return complex(c[0], c[1]), complex(c[2], c[3]), attempt
    raise AssertionError("reference rejection did not terminate")


def test_ball_draw_matches_per_word_reference():
    for radius in (0.25, 1.7):
        for index in range(2000):
            stream = rng.derive_stream(index, 5)
            a, b, _ = _reference_ball_draw(radius, 31, stream, index)
            assert dist_mod._ball_draw(radius, 31, stream, index) == (a, b)


def test_ball_offsets_vectorized_matches_scalar():
    bn = BallNoise(QUAD_C, 0.25)
    for lanes in (1, 9, 300, 1000, 5000):
        streams = rng.stream_table(lanes, lanes)
        k = dist_mod._block_attempts(lanes)
        second_pass = 0
        for index in (0, 17, 2**40 + 3):
            a, b = ball_offsets_array(bn, 11, streams, index)
            for j, s in enumerate(streams.tolist()):
                f = sample_map(bn, SequenceSeed(11, s), index)
                assert a[j] == f.alpha - QUAD_C.alpha
                assert b[j] == f.poly.coeffs[-1] - QUAD_C.poly.coeffs[-1]
                second_pass += _reference_ball_draw(0.25, 11, s, index)[2] >= k
        if lanes >= 300:
            # some lane's accepted attempt lies beyond its first block
            assert second_pass > 0


def test_broadcast_index_draws_match_per_step_calls():
    bn = BallNoise(QUAD_C, 0.25)
    fd = FiniteDist((QUAD, QUAD_C, QUAD), (0.2, 0.5, 0.3))
    for lanes in (1, 10, 100, 5000):
        streams = rng.stream_table(lanes, lanes)
        steps = np.array([0, 1, 2, 9, 2**40 + 3], dtype=np.uint64)
        a, b = ball_offsets_array(bn, 11, streams[None, :], steps[:, None])
        j = finite_choices_array(fd, 11, streams[None, :], steps[:, None])
        assert a.shape == b.shape == j.shape == (steps.size, lanes)
        for row, n in enumerate(steps.tolist()):
            want_a, want_b = ball_offsets_array(bn, 11, streams, n)
            assert np.array_equal(a[row], want_a) and np.array_equal(b[row], want_b)
            assert np.array_equal(j[row], finite_choices_array(fd, 11, streams, n))
    # one index per stream (the transposed layout) draws the same cells
    streams = rng.stream_table(2, 40)
    steps = np.arange(40, dtype=np.uint64) * 7
    a, b = ball_offsets_array(bn, 5, streams, steps)
    for k in range(40):
        f = sample_map(bn, SequenceSeed(5, int(streams[k])), int(steps[k]))
        assert a[k] == f.alpha - QUAD_C.alpha and b[k] == f.poly.coeffs[-1] - QUAD_C.poly.coeffs[-1]


def _bits(f):
    """Every field of a map as float hex strings: equal only bit for bit."""
    parts = (f.alpha, f.delta) + tuple(f.poly.coeffs)
    return tuple((complex(v).real.hex(), complex(v).imag.hex()) for v in parts)


SHIFTED = HenonMap(0.3 - 0.1j, 0.1, Poly((1.0, -1.3, 0.2 + 0.05j)))


@pytest.mark.parametrize("shape", [(1,), (511,), (512,), (2048,), (4096,), (32, 128)],
                         ids=lambda s: "x".join(map(str, s)))
def test_ball_offsets_equal_the_scalar_loop_across_pass_sizes(shape):
    # the cell counts straddle the pass sizes of _block_attempts; a broadcast
    # block draws (stream, step) cells as a walk's refill does
    bn = BallNoise(SHIFTED, 0.25)
    if len(shape) == 1:
        streams, steps = rng.stream_table(shape[0], shape[0]), np.uint64(5)
    else:
        streams = rng.stream_table(9, shape[1])[None, :]
        steps = np.arange(shape[0], dtype=np.uint64)[:, None] * 3
    a, b = ball_offsets_array(bn, 11, streams, steps)
    assert a.shape == b.shape == shape
    cells = np.broadcast_arrays(streams, steps)
    late = 0
    for s, n, x, y in zip(*(np.ravel(v).tolist() for v in (*cells, a, b))):
        f = sample_map(bn, SequenceSeed(11, s), n)
        assert _bits(dist_mod._perturbed(SHIFTED, x, y)) == _bits(f)
        late += _reference_ball_draw(0.25, 11, s, n)[2] >= 16
    if a.size >= 4096:
        assert late > 0  # some cell's accepted attempt lies past a 16-attempt block


@pytest.mark.parametrize("radius", [0.1, 1.7])
@pytest.mark.parametrize("k", [1, 64])
def test_support_sample_draws_the_scalar_loop(seed, radius, k):
    bn = BallNoise(SHIFTED, radius)
    reps = support_sample(bn, seed, k)
    sub = seed.derive(dist_mod.TAG_SUPPORT)
    want = [sample_map(bn, sub, i) for i in range(k)]
    assert [_bits(f) for f in reps] == [_bits(f) for f in want]
    for f in reps:
        assert type(f.alpha) is complex and all(type(c) is complex for c in f.poly.coeffs)


def test_one_map_support_hashes_nothing(monkeypatch):
    def spy(*args):
        raise AssertionError("a one-map support hashed a word")

    monkeypatch.setattr(rng, "uniform01", spy)
    d = FiniteDist((QUAD_C,), (1.0,))
    assert all(sample_map(d, SequenceSeed(3, s), i) is QUAD_C for s in (0, 7) for i in (0, 9))
    with pytest.raises(AssertionError, match="hashed"):
        sample_map(FiniteDist((QUAD, QUAD_C), (0.5, 0.5)), SequenceSeed(3, 0), 0)


@pytest.mark.parametrize("lanes", [5, 300])
def test_ball_rejection_cap_is_shared(monkeypatch, lanes):
    bn = BallNoise(QUAD_C, 0.25)
    drawn = []

    def corner(master, streams, index, words, *, prefix):
        # the kernel hands over each pending cell's hashed prefix
        drawn.append(np.asarray(words).ravel())
        return np.ones(np.broadcast_shapes(np.shape(prefix), np.shape(words))) * 0.99

    monkeypatch.setattr(rng, "uniform01_array", corner)
    with pytest.raises(RuntimeError, match="ball rejection failed to terminate"):
        ball_offsets_array(bn, 3, np.arange(lanes, dtype=np.uint64), 0)
    assert np.array_equal(np.concatenate(drawn), np.arange(4 * 256))
    monkeypatch.setattr(rng, "mix64", lambda z: rng.MASK64)
    with pytest.raises(RuntimeError, match="ball rejection failed to terminate"):
        sample_map(bn, SequenceSeed(3, 0), 0)


def test_ball_second_moment():
    # uniform on the radius-r ball in C^2 ~ R^4: E|offset|^2 = r^2 * 4/6
    bn = BallNoise(QUAD_C, 0.25)
    streams = np.arange(20000, dtype=np.uint64)
    a, b = ball_offsets_array(bn, 5, streams, 0)
    m = (np.abs(a) ** 2 + np.abs(b) ** 2).mean()
    want = 0.25**2 * 4.0 / 6.0
    assert abs(m - want) < 0.002


def test_inverse_distribution_involution():
    d = FiniteDist((QUAD, QUAD_C), (0.3, 0.7))
    q = inverse_distribution(d)
    assert q.weights == d.weights
    r = inverse_distribution(q)
    for f, g in zip(d.maps, r.maps):
        assert abs(f.alpha - g.alpha) == 0.0
        assert abs(f.delta - g.delta) == 0.0
        assert max(abs(a - b) for a, b in zip(f.poly.coeffs, g.poly.coeffs)) == 0.0


def test_inverse_distribution_rejects_ball():
    with pytest.raises(ValueError):
        inverse_distribution(BallNoise(QUAD_C, 0.1))


def test_condition_a_params_finite_matches_core():
    d = FiniteDist((QUAD,), (1.0,))
    p = condition_a_params(d)
    assert p.R == 38.0


def test_condition_a_params_ball_pads_coefficients():
    # alpha and constant inflated by the radius:
    # rho0 = 1 + max(8.1, 3.6) = 9.1, R = max(1+eps, 0.5+eps, 3.1, 18.2)
    p = condition_a_params(BallNoise(QUAD_C, 0.25))
    assert p.R == pytest.approx(18.2)
    # with a dominant linear coefficient the padded sum drives R up
    steep = HenonMap(0.0, 0.1, Poly((1.0, -10.0, 0.0)))
    r0 = condition_a_params(FiniteDist((steep,), (1.0,))).R
    r1 = condition_a_params(BallNoise(steep, 0.25)).R
    assert r0 == pytest.approx(20.0)
    assert r1 == pytest.approx(20.5)


def test_support_sample_kinds(seed):
    d = FiniteDist((QUAD, QUAD_C), (0.5, 0.5))
    assert support_sample(d, seed) == list(d.maps)
    bn = BallNoise(QUAD_C, 0.1)
    reps = support_sample(bn, seed, k=16)
    assert len(reps) == 16
    assert all(abs(f.alpha - QUAD_C.alpha) <= 0.1 for f in reps)
    assert reps == support_sample(bn, seed, k=16)


def test_noise_family_interpolates_radius():
    fam = NoiseFamily(QUAD_C, v=0.01, u=0.5)
    d0 = family_at(fam, 0.0)
    d1 = family_at(fam, 1.0)
    dm = family_at(fam, 0.5)
    assert d0.radius == 0.01
    assert d1.radius == 0.5
    assert d0.radius < dm.radius < d1.radius
    with pytest.raises(ValueError):
        family_at(fam, 1.5)


def test_seed_validation():
    with pytest.raises(ValueError):
        SequenceSeed(-1, 0)
    with pytest.raises(ValueError):
        SequenceSeed(2**64, 0)


def test_sequence_seed_derive_spells_out_the_sub_seed_rule():
    seed = SequenceSeed(0xABCDEF, 42)
    for tags in ((), (7,), (0x53555050, 3, 1)):
        assert seed.derive(*tags) == SequenceSeed(
            seed.master_seed, rng.derive_stream(seed.stream_id, *tags)
        )


def test_ball_sample_map_reuses_the_validated_polynomial():
    base = HenonMap(0.3, 0.5, Poly((2.0 - 1j, 0.0, -1.3, 0.25j)))
    dist = BallNoise(base, 0.2)
    seed = SequenceSeed(17, 4)
    for i in range(100):
        f = sample_map(dist, seed, i)
        fresh = Poly(f.poly.coeffs)
        assert f.poly.coeffs == fresh.coeffs
        assert f.poly._deriv == fresh._deriv
        assert f.poly.coeffs[:-1] == base.poly.coeffs[:-1]
        assert f.delta == base.delta and f.alpha != base.alpha


def test_with_constant_checks_only_the_new_constant():
    p = Poly((1.0, -1.3, 0.0))
    assert p.with_constant(0.5j).coeffs == (1.0, -1.3, 0.5j)
    with pytest.raises(ValueError):
        p.with_constant(complex(float("nan"), 0.0))
    with pytest.raises(ValueError):
        p.with_constant(complex(0.0, float("inf")))
