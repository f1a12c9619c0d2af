"""Tests for the splitmix64 streams and Fisher-Yates shuffle."""

import numpy as np
import pytest

import oracle
from refold.errors import ConfigError
from refold.rng import SplitMix64, derive_seed, mix64

# Published reference outputs of splitmix64 seeded with 0
# (Vigna's splitmix64.c test sequence).
SEED0_FIRST3 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_known_answer_vectors():
    g = SplitMix64([0])
    assert tuple(int(g.next_u64()[0]) for _ in range(3)) == SEED0_FIRST3


def test_mix64_is_one_stream_step():
    assert mix64(0) == SEED0_FIRST3[0]
    g = SplitMix64([12345])
    assert g.next_u64().tolist() == [mix64(12345)]


def test_stream_determinism_and_range():
    a = SplitMix64([999])
    b = SplitMix64([999])
    for _ in range(100):
        va, vb = a.next_u64().tolist(), b.next_u64().tolist()
        assert va == vb
        assert 0 <= va[0] < (1 << 64)


def test_below_bounds_and_coverage():
    g = SplitMix64([7])
    seen = set()
    for _ in range(500):
        [v] = g.below(10).tolist()
        assert 0 <= v < 10
        seen.add(v)
    assert seen == set(range(10))
    with pytest.raises(ConfigError):
        g.below(0)


def test_shuffle_is_permutation():
    g = SplitMix64([5])
    items = list(range(30))
    [out] = g.shuffle(np.array([items])).tolist()
    assert sorted(out) == items
    assert out != items  # astronomically unlikely to be identity


def test_shuffle_deterministic():
    def shuffled(seed):
        return SplitMix64([seed]).shuffle(np.arange(20)[np.newaxis]).tolist()

    assert shuffled(11) == shuffled(11)
    assert shuffled(11) != shuffled(12)


def test_shuffle_works_in_place_on_a_strided_array():
    strided = np.arange(40).reshape(20, 2).T
    want = SplitMix64([3, 4]).shuffle(strided.copy())
    assert SplitMix64([3, 4]).shuffle(strided) is strided
    assert strided.tolist() == want.tolist()


def test_derive_seed_composes():
    assert derive_seed(5, 1, 2) == derive_seed(derive_seed(5, 1), 2)
    assert derive_seed(5) == 5
    # repetition derivation rule: mix of (seed + index)
    assert derive_seed(100, 3) == mix64(103)


def test_derive_seed_spreads():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_reference_stream_known_answers():
    stream = oracle.Stream(0)
    assert tuple(stream.next() for _ in range(3)) == SEED0_FIRST3
    assert oracle.mix64(12345) == mix64(12345)


def test_streams_step_together():
    seeds = [0, 12345, 2**63 + 5, 2**64 - 1]
    g = SplitMix64(seeds)
    refs = [oracle.Stream(s) for s in seeds]
    for _ in range(5):
        assert g.next_u64().tolist() == [ref.next() for ref in refs]


def _reference_highest(n):
    return (1 << 64) - (1 << 64) % n - 1


def test_below_redraws_only_rejected_streams():
    """A bound of 2**63 + 1 rejects about half of all draws, so streams step
    unevenly; each still matches its one-stream reference."""
    n = 2**63 + 1
    seeds = [derive_seed(3, r) for r in range(32)]
    g = SplitMix64(seeds)
    refs = [oracle.Stream(s) for s in seeds]
    for _ in range(8):
        assert g.below(n).tolist() == [ref.below(n) for ref in refs]
    steps = {(ref.state - s) * pow(oracle.GOLDEN, -1, 1 << 64) % (1 << 64)
             for ref, s in zip(refs, seeds)}
    assert min(steps) > 8 and len(steps) > 1  # rejections, of uneven counts
    assert g.next_u64().tolist() == [ref.next() for ref in refs]


def test_shuffle_rejection_path_matches_reference(monkeypatch):
    """With the accepted range halved, about half of all draws are rejected,
    so most rows take the stepping path and some do not; every row, and the
    stream state it leaves for the next shuffle, matches the reference."""
    import refold.rng

    highest = refold.rng._highest
    monkeypatch.setattr(refold.rng, "_highest", lambda bounds: highest(bounds) >> np.uint64(1))
    seeds = [derive_seed(8, r) for r in range(40)]
    g = SplitMix64(seeds)
    refs = [oracle.Stream(s) for s in seeds]
    half = lambda n: _reference_highest(n) >> 1  # noqa: E731
    for n in (3, 7):
        items = np.tile(np.arange(n) * 5, (len(seeds), 1))
        want = [ref.shuffle(row, half) for ref, row in zip(refs, items.tolist())]
        assert g.shuffle(items) is items
        assert items.tolist() == want
    rejected = [oracle.Stream(s) for s in seeds]
    for ref in rejected:
        ref.shuffle(list(range(3)), half)
    drawn = {(ref.state - s) * pow(oracle.GOLDEN, -1, 1 << 64) % (1 << 64)
             for ref, s in zip(rejected, seeds)}
    assert 2 in drawn and max(drawn) > 2  # rows without and with a rejection


def test_shuffle_of_one_item_or_none_draws_nothing():
    g = SplitMix64([1, 2])
    for n in (0, 1):
        assert g.shuffle(np.zeros((2, n), dtype=np.intp)).shape == (2, n)
    assert g.next_u64().tolist() == [mix64(1), mix64(2)]
