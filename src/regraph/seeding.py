"""Deterministic 64-bit seed derivation and the one random stream.

Replicate seeds are derived with the splitmix64 finalizer, a fixed,
platform-independent integer mix. keystream vectorizes the same mix, and
every random choice in the library (generator sort keys, sampled-delta
quadruples, cycle-probe pairs) reads its words, so it traces back to
explicit 64-bit arithmetic rather than an interpreter-dependent RNG state.
below reduces words mod a bound, which favours the first 2^64 mod bound
residues by a relative bias under bound / 2^64.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One splitmix64 finalizer step on a 64-bit value."""
    x = (x + _GOLDEN) & MASK64
    x ^= x >> 30
    x = (x * _MIX1) & MASK64
    x ^= x >> 27
    x = (x * _MIX2) & MASK64
    x ^= x >> 31
    return x


def derive_seed(master: int, *parts: int) -> int:
    """Mix a master seed with integer labels (n, replicate index, ...).

    Deterministic and order-sensitive: derive_seed(s, a, b) differs from
    derive_seed(s, b, a). Used so each experiment replicate is
    reproducible from its (master seed, n, replicate) triple alone.
    """
    h = splitmix64(master & MASK64)
    for p in parts:
        h = splitmix64(h ^ (p & MASK64))
    return h


def keystream(seed: int, start: int, count: int) -> np.ndarray:
    """Words start .. start+count-1 of seed's splitmix64 stream, vectorized
    (uint64 wraps mod 2^64); any slice can be drawn on its own."""
    s0 = splitmix64(seed & MASK64)
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x = np.uint64(s0) + idx * np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def below(words: np.ndarray, bound: int) -> np.ndarray:
    """Stream words reduced mod bound, as int64 in [0, bound)."""
    return (words % np.uint64(bound)).astype(np.int64)
