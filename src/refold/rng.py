"""Deterministic, implementation-independent randomness.

All data splitting and shuffling in this package runs on splitmix64, a tiny
public-domain generator with 64-bit state, so that split indices can be
reproduced exactly from the seed in any language. Shuffles use the
Fisher-Yates algorithm with rejection-sampled bounded draws (no modulo bias).
Reports record the generator name so readers know what to re-implement.
"""

from __future__ import annotations

from .errors import ConfigError

GENERATOR_NAME = "splitmix64 + fisher-yates (rejection-sampled bounds)"

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(state: int) -> int:
    """One splitmix64 output step for the given 64-bit state.

    z = state + 0x9E3779B97F4A7C15, then two xorshift-multiply rounds and a
    final xorshift, all modulo 2**64. This is both the stream function and
    the seed-derivation mixer.
    """
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed by folding path components into the state.

    Defined as repeated s = mix64(s + component), so
    derive_seed(s, a, b) == derive_seed(derive_seed(s, a), b). The split
    planner uses derive_seed(plan_seed, repetition) per repetition; the
    benchmark runner uses (task_ordinal, stream, repetition) paths.
    """
    s = seed & _MASK64
    for component in path:
        s = mix64((s + component) & _MASK64)
    return s


def check_seed(seed: int) -> None:
    """Reject a seed that derive_seed, working modulo 2**64, would alias."""
    if not 0 <= seed <= _MASK64:
        raise ConfigError("seed must be in 0..2**64-1")


class SplitMix64:
    """splitmix64 stream: state advances by the golden-ratio increment."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        z = (self._state + _GOLDEN) & _MASK64
        self._state = z
        z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection; unbiased for any n."""
        if n <= 0:
            raise ConfigError("bound for random draw must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle, highest index first. Returns items."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items
