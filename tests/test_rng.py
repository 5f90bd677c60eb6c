import sys
import threading

import numpy as np
import pytest

from dotchain.rng import MEASUREMENT, NOISE, normals, raw_words, uniforms

# The first block of seed 0 in the noise domain, counter block 1 of key 0.
SEED0_FIRST_BLOCK = [0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79, 0x907D7A052FD5B4DC]

# Streams 0 and 1 of seed 0, six normals each (noise domain): four from
# block 0 of the stream and two from its block 1.
SEED0_NORMALS = [
    [0.15853383451843983, 2.9828792826170765, -1.925691981917186,
     -0.8249255452762647, 0.3784091416407317, 1.720601646392512],
    [-0.2025032796912323, 1.1557642251763285, 0.33020450446762895,
     -0.028982948293703865, -0.6636568484795956, 0.2106181478953009],
]

# First uniform of measurement streams 0, 1 and 2 of seed 0.
SEED0_MEASUREMENT_UNIFORMS = [0.8133540609793565, 0.705195219001204, 0.5655957389815726]


def test_known_answers_seed0():
    words = raw_words(0, NOISE, 0, 1, 1)[0]
    assert words.tolist() == SEED0_FIRST_BLOCK
    assert np.array_equal(words, np.random.Philox(key=0, counter=0).random_raw(4))
    assert uniforms(0, MEASUREMENT, 0, 3)[:, 0].tolist() == SEED0_MEASUREMENT_UNIFORMS
    # Box-Muller goes through libm, so the normals are pinned to 1e-12, not bit for bit.
    np.testing.assert_allclose(normals(0, NOISE, 0, 2, 6), SEED0_NORMALS, rtol=1e-12)


def test_stream_reads_its_own_counter_blocks():
    # block j of stream s is counter block (s + 1) + j * 2**64 of key seed + domain * 2**64
    words = raw_words(5, MEASUREMENT, 3, 1, 2)[0]
    key = 5 + 2**64
    expected = [np.random.Philox(key=key, counter=3 + j * 2**64).random_raw(4) for j in (0, 1)]
    assert np.array_equal(words, np.concatenate(expected))


@pytest.mark.parametrize(
    "seed, domain, stream, block",
    [(0, NOISE, 0, 0), (0, NOISE, 0, 4), (9, MEASUREMENT, 41, 2), (2**64 - 1, NOISE, 2**64 - 1, 5)],
)
def test_block_is_stream_and_block_index_counter(seed, domain, stream, block):
    # counter words (stream + 1, block, 0, 0): the generator steps the counter before a block
    words = raw_words(seed, domain, stream, 1, block + 1)[0, 4 * block :]
    philox = np.random.Philox(key=seed + domain * 2**64, counter=stream + block * 2**64)
    assert np.array_equal(words, philox.random_raw(4))


@pytest.mark.parametrize("p, q", [(1, 2), (4, 5), (3, 23), (8, 9), (19, 23), (22, 23)])
def test_shorter_stream_is_prefix_of_longer(p, q):
    # a trial's normal for bond b is the same at every chain length
    assert np.array_equal(normals(13, NOISE, 5, 40, p), normals(13, NOISE, 5, 40, q)[:, :p])
    assert np.array_equal(raw_words(13, NOISE, 5, 40, 1), raw_words(13, NOISE, 5, 40, 6)[:, :4])


@pytest.mark.parametrize("per_stream", [1, 3, 4, 5, 19, 23])
def test_batch_rows_equal_single_streams(per_stream):
    batch = normals(11, NOISE, 7, 300, per_stream)
    assert batch.shape == (300, per_stream)
    for t in range(300):
        assert np.array_equal(batch[t], normals(11, NOISE, 7 + t, 1, per_stream)[0])


def test_domains_and_seeds_differ():
    base = raw_words(3, NOISE, 0, 4, 1)
    assert not np.array_equal(base, raw_words(3, MEASUREMENT, 0, 4, 1))
    assert not np.array_equal(base, raw_words(4, NOISE, 0, 4, 1))


def test_uniforms_open_interval():
    u = uniforms(2, MEASUREMENT, 0, 50_000, 2)
    assert 0.0 < u.min() and u.max() < 1.0
    # every value is an odd multiple of 2**-53, and so is its mirror 1 - u
    assert np.all(np.mod(u * 2.0**53, 2.0) == 1.0)
    assert np.all(np.mod((1.0 - u) * 2.0**53, 2.0) == 1.0)


def test_seed_and_stream_range():
    raw_words(2**64 - 1, NOISE, 2**64 - 1, 1, 1)
    with pytest.raises(ValueError):
        raw_words(2**64, NOISE, 0, 1, 1)
    with pytest.raises(ValueError):
        raw_words(-1, NOISE, 0, 1, 1)
    with pytest.raises(ValueError):
        raw_words(0, NOISE, 2**64 - 1, 2, 1)
    with pytest.raises(ValueError):
        raw_words(0, 2, 0, 1, 1)
    with pytest.raises(ValueError):
        normals(0, NOISE, 0, 1, 0)


def test_concurrent_draws_keep_their_streams():
    # draws re-key one shared generator under a lock; interleaved threads
    # must each still get exactly their own (seed, stream) words
    expected = {seed: raw_words(seed, NOISE, seed, 3, 2) for seed in range(8)}
    mismatches = []

    def worker(seed):
        for _ in range(300):
            if not np.array_equal(raw_words(seed, NOISE, seed, 3, 2), expected[seed]):
                mismatches.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in expected]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
