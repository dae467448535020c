from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from henonlab import rng

U64 = st.integers(min_value=0, max_value=2**64 - 1)


def test_mix64_matches_published_splitmix_stream():
    # sequential splitmix64 from seed 0 is mix64 of k * gamma; reference
    # outputs from the original splitmix64.c
    gamma = 0x9E3779B97F4A7C15
    first = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for k, want in enumerate(first, start=1):
        assert rng.mix64((k * gamma) & rng.MASK64) == want


def test_word64_is_pure():
    a = rng.word64(1, 2, 3, 4)
    b = rng.word64(1, 2, 3, 4)
    assert a == b
    assert a != rng.word64(1, 2, 3, 5)
    assert a != rng.word64(1, 2, 4, 4)


@given(U64, U64, st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=63))
def test_uniform01_range(master, stream, index, word):
    u = rng.uniform01(master, stream, index, word)
    assert 0.0 <= u < 1.0


@given(U64, st.integers(min_value=0, max_value=2**20))
def test_vector_words_match_scalar(master, index):
    streams = np.array([0, 1, 17, 2**63, 2**64 - 1], dtype=np.uint64)
    vec = rng.word64_array(master, streams, index, word=2)
    for s, w in zip(streams.tolist(), vec.tolist()):
        assert w == rng.word64(master, s, index, 2)
    block = rng.word64_array(master, streams[:, None], index, np.arange(9, dtype=np.uint64)[None, :])
    assert block.shape == (5, 9)
    for s, row in zip(streams.tolist(), block.tolist()):
        assert row == [rng.word64(master, s, index, w) for w in range(9)]


def test_vector_uniforms_match_scalar():
    streams = np.arange(100, dtype=np.uint64)
    vec = rng.uniform01_array(7, streams, 13, word=1)
    sca = np.array([rng.uniform01(7, int(s), 13, 1) for s in streams])
    assert np.array_equal(vec, sca)


def test_derive_stream_folds_order_sensitively():
    assert rng.derive_stream(1, 2) != rng.derive_stream(2, 1)
    assert rng.derive_stream(1, 2) == rng.derive_stream(1, 2)
    assert 0 <= rng.derive_stream(123, 456, 789) < 2**64


def test_uniform_equidistribution_coarse():
    streams = np.arange(20000, dtype=np.uint64)
    u = rng.uniform01_array(42, streams, 0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.01


def test_stream_table_matches_derive_stream():
    for tags in ((), (0x544C0001,), (3, 9)):
        want = np.array([rng.derive_stream(77, *tags, i) for i in range(300)], dtype=np.uint64)
        got = rng.stream_table(77, 300, *tags)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)
    assert rng.stream_table(77, 0).shape == (0,)


def test_prefix_draws_the_same_words():
    streams = rng.stream_table(5, 40)
    index = np.arange(40, dtype=np.uint64) * 3
    words = np.arange(12, dtype=np.uint64)[:, None]
    pre = rng.prefix_array(9, streams, index)
    for s, n, p in zip(streams.tolist(), index.tolist(), pre.tolist()):
        assert p == rng._prefix(9, s, n)
    assert np.array_equal(rng.word64_array(9, None, None, words, prefix=pre),
                          rng.word64_array(9, streams, index, words))
    assert np.array_equal(rng.uniform01_array(9, None, None, words, prefix=pre),
                          rng.uniform01_array(9, streams, index, words))


def test_in_place_mixing_leaves_the_arguments_alone():
    streams = rng.stream_table(5, 40)
    index = np.arange(40, dtype=np.uint64)
    words = np.arange(4, dtype=np.uint64)[:, None]
    pre = rng.prefix_array(9, streams, index)
    kept = [v.copy() for v in (streams, index, words, pre)]
    rng.prefix_array(9, streams, index)
    rng.word64_array(9, streams, index, words)
    rng.uniform01_array(9, None, None, words, prefix=pre)
    rng.stream_entries(streams, index)
    for v, w in zip((streams, index, words, pre), kept):
        assert np.array_equal(v, w)
    # scalar cells still give numpy scalars, as before
    assert rng.word64_array(1, 2, 3, 4) == rng.word64(1, 2, 3, 4)
