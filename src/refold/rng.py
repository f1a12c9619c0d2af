"""Deterministic, implementation-independent randomness.

All data splitting and shuffling in this package runs on splitmix64, a tiny
public-domain generator with 64-bit state, so that split indices can be
reproduced exactly from the seed in any language. Shuffles use the
Fisher-Yates algorithm with rejection-sampled bounded draws (no modulo bias).
Reports record the generator name so readers know what to re-implement.

SplitMix64 holds one stream per seed, as an (R,) uint64 state vector, and
shuffles the R rows of an (R, n) array at once, row r on stream r.
splitmix64 is counter-based: with G = 0x9E3779B97F4A7C15, output k
(k = 0, 1, ...) of the stream with state s is the splitmix64 output function
of s + (k + 1) * G mod 2**64, which is mix64(s + k * G). So all n - 1
bounded draws of every row of a shuffle come from one numpy expression over
an (R, n - 1) matrix; numpy uint64 arrays wrap silently. A draw is rejected
only when r >= 2**64 - (2**64 mod n), which has probability below n / 2**64;
a row with any rejected draw is redone by stepping below, the exact path.
"""

from __future__ import annotations

import numpy as np

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


def _output(z: np.ndarray) -> np.ndarray:
    """mix64 without its increment, in place on an array of advanced states.
    Only arrays are used: numpy scalar uint64 arithmetic warns on wraparound."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def _highest(bounds: np.ndarray) -> np.ndarray:
    """The largest draw accepted for each uint64 bound b, 2**64 - (2**64 mod
    b) - 1, with 2**64 mod b taken as (2**64 - b) mod b in wrapping uint64
    arithmetic."""
    return np.uint64(_MASK64) - (np.uint64(0) - bounds) % bounds


class SplitMix64:
    """splitmix64 streams, one per seed of a sequence of R seeds: each draw
    advances a stream's state by the golden-ratio increment. next_u64 and
    below give (R,) uint64 arrays, element r drawn from stream r."""

    def __init__(self, seeds):
        self._state = np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)

    def next_u64(self) -> np.ndarray:
        self._state += np.uint64(_GOLDEN)
        return _output(self._state.copy())

    def below(self, n: int) -> np.ndarray:
        """Uniform integer in [0, n) per stream by rejection; unbiased for any
        n. Every stream steps once, then only the streams whose draw was
        rejected step again, until none is."""
        if not 0 < n <= _MASK64:
            raise ConfigError("bound for random draw must be in 1..2**64-1")
        highest = _highest(np.array([n], dtype=np.uint64))
        draws = np.empty(len(self._state), dtype=np.uint64)
        rows = np.arange(len(self._state))
        while len(rows):
            self._state[rows] += np.uint64(_GOLDEN)
            draws[rows] = _output(self._state[rows])
            rows = rows[draws[rows] > highest]
        return draws % np.uint64(n)

    def shuffle(self, items: np.ndarray) -> np.ndarray:
        """Fisher-Yates shuffle of every row of an (R, n) integer array, in
        place, row r on stream r, highest index first. Returns items.

        Draw t of a row (for position n - 1 - t, bound n - t) is stream
        output t, so the draws of all rows are one (R, n - 1) counter
        expression, and each stream advances by n - 1 steps. A row with a
        rejected draw is redone from its starting state by stepping below,
        which advances its stream by every draw it takes. The swaps run as a
        loop over positions: each swaps a whole (R,) column with the drawn
        entries in one assignment through precomputed flat indices.
        """
        n = items.shape[1]
        if n < 2:
            return items
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        counters = np.arange(1, n, dtype=np.uint64) * np.uint64(_GOLDEN)
        raw = _output(self._state[:, np.newaxis] + counters)
        rejected = np.flatnonzero((raw > _highest(bounds)).any(axis=1))
        draws = (raw % bounds).astype(np.intp)
        stepper = SplitMix64(self._state[rejected])
        self._state += np.uint64(((n - 1) * _GOLDEN) & _MASK64)
        if len(rejected):
            for t, bound in enumerate(range(n, 1, -1)):
                draws[rejected, t] = stepper.below(bound)
            self._state[rejected] = stepper._state
        flat = items.ravel()  # a view if items is C-contiguous, else a copy
        starts = np.arange(0, flat.size, n)
        slots = starts + np.arange(n - 1, 0, -1)[:, np.newaxis]  # (n - 1, R)
        picks = starts + draws.T
        # row t of into and source swaps position n - 1 - t with draw t in
        # every row; the right side is read before any entry is written
        into = np.concatenate([slots, picks], axis=1)
        source = np.concatenate([picks, slots], axis=1)
        for a, b in zip(into, source):
            flat[a] = flat[b]
        items[...] = flat.reshape(items.shape)
        return items
