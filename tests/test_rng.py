import numpy as np
import pytest

from smseg import rng


def test_uniform01_at_equals_uniform01():
    seed = 2**64 - 3
    index = np.arange(17, 17 + 300)
    assert rng.uniform01_at(seed, index).tobytes() == rng.uniform01(seed, 300, 17).tobytes()
    # ranges as a level's draws take them: streams 1,000,003 words apart
    ranges = [(0, 128), (13 * 1_000_003, 36), (5, 2), (1_000_003, 0), (999 * 1_000_003, 9)]
    index = np.concatenate([np.arange(start, start + n) for start, n in ranges])
    want = np.concatenate([rng.uniform01(seed, n, start) for start, n in ranges])
    assert rng.uniform01_at(seed, index).tobytes() == want.tobytes()


def test_uniform01_at_takes_an_array_of_seeds():
    # each row is bitwise its seed's own call; seeds are taken mod 2^64
    index = np.arange(40, 140)
    seeds = [3, -5, 2**64 - 3, -(2**70) + 9]
    want = np.stack([rng.uniform01_at(s, index) for s in seeds])
    got = rng.uniform01_at(np.array(seeds, dtype=object)[:, None], index)
    assert got.shape == (4, 100) and got.tobytes() == want.tobytes()
    got = rng.uniform01_at(np.array(seeds[:2])[:, None], index)         # int64 seeds
    assert got.tobytes() == want[:2].tobytes()


def test_raw64_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count must be non-negative"):
        rng.raw64(0, -1)
