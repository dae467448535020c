"""Deterministic counter-based random words.

Every draw is a pure function of (master_seed, stream_id, index, word),
all 64-bit, pushed through a chain of SplitMix finalizers (Steele, Lea &
Flood, OOPSLA 2014): counter-based in the sense of Salmon et al., SC 2011.
Word w of a cell is mix64(prefix ^ w), so a caller drawing many words of
the same cells hashes their prefix once.  There is no mutable generator
state, so parallel workers can evaluate any cell of the (stream, index)
table in any order and always obtain the same bits.  This is what makes
multi-threaded runs bit-identical to single-threaded ones.

Scalar helpers operate on Python ints; the ``*_array`` variants accept
numpy uint64 arrays and vectorise the same mixing chain (numpy unsigned
arithmetic wraps mod 2^64, matching the masked scalar path).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 2^-53, so uniforms use the top 53 bits of a word
_U53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """Finalizer of splitmix64; a bijection on 64-bit words."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def _prefix(master_seed: int, stream_id: int, index: int) -> int:
    """Hash of the (master_seed, stream_id, index) cell prefix; every word of
    the cell is ``mix64(prefix ^ word)``, so a caller drawing many words of
    one cell hashes the prefix once."""
    h = mix64(master_seed ^ _GAMMA)
    h = mix64(h ^ (stream_id & MASK64))
    return mix64(h ^ (index & MASK64))


def word64(master_seed: int, stream_id: int, index: int, word: int = 0) -> int:
    """The 64-bit word at cell (master_seed, stream_id, index, word)."""
    return mix64(_prefix(master_seed, stream_id, index) ^ (word & MASK64))


def uniform01(master_seed: int, stream_id: int, index: int, word: int = 0) -> float:
    """Uniform double in [0, 1) from the addressed word."""
    return (word64(master_seed, stream_id, index, word) >> 11) * _U53


def derive_stream(*parts: int) -> int:
    """Fold integer tags into a stream id.

    Pure function of its arguments; used to hand each grid point, replicate
    or worker its own independent stream without coordination.
    """
    h = _GAMMA
    for p in parts:
        h = mix64(h ^ (int(p) & MASK64))
    return h


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every word of z, mixed in place: every caller passes
    a fresh uint64 array that it does not read again (a numpy scalar is
    rebound instead).  Only the three shifts allocate."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def prefix_array(master_seed: int, stream_ids, index) -> np.ndarray:
    """Vectorised :func:`_prefix` of the (stream, index) cells; stream_ids
    and index broadcast."""
    with np.errstate(over="ignore"):
        h0 = np.uint64(mix64(master_seed ^ _GAMMA))
        h = _mix64_np(h0 ^ np.asarray(stream_ids, dtype=np.uint64))
        return _mix64_np(h ^ np.asarray(index, dtype=np.uint64))


def word64_array(master_seed: int, stream_ids, index, word=0, *, prefix=None) -> np.ndarray:
    """Vectorised :func:`word64`; any of stream_ids/index/word may be arrays.
    A caller that draws several words of the same cells passes their
    :func:`prefix_array` as ``prefix``, hashed once; stream_ids and index
    are then not read."""
    if prefix is None:
        prefix = prefix_array(master_seed, stream_ids, index)
    with np.errstate(over="ignore"):
        return _mix64_np(prefix ^ np.asarray(word, dtype=np.uint64))


def stream_table(stream_id: int, n: int, *tags: int) -> np.ndarray:
    """Lane stream ids derive_stream(stream_id, *tags, i) for i in range(n)."""
    return stream_entries(derive_stream(stream_id, *tags), np.arange(n, dtype=np.uint64))


def stream_entries(prefix, index) -> np.ndarray:
    """Entries index of the stream tables whose prefixes are
    derive_stream(stream_id, *tags); prefix and index broadcast."""
    with np.errstate(over="ignore"):
        return _mix64_np(np.asarray(prefix, dtype=np.uint64) ^ np.asarray(index, dtype=np.uint64))


def uniform01_array(master_seed: int, stream_ids, index, word=0, *, prefix=None) -> np.ndarray:
    """Vectorised :func:`uniform01`, with :func:`word64_array`'s arguments."""
    w = word64_array(master_seed, stream_ids, index, word, prefix=prefix)
    w >>= np.uint64(11)
    u = w.astype(np.float64)
    u *= _U53
    return u
