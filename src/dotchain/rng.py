"""Counter-based random streams for reproducible stochastic runs.

Every stochastic routine takes an explicit (base_seed, stream) pair. Draws
come from the Philox4x64-10 counter-based generator (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) through numpy's
built-in Philox:

- the 128-bit key is base_seed + domain * 2**64, so 0 <= base_seed < 2**64;
  the domain keeps Monte Carlo noise (NOISE) and measurement outcomes
  (MEASUREMENT) apart;
- block j of stream s is counter block (s + 1) + j * 2**64, the Philox
  counter words (s + 1, j, 0, 0), four 64-bit words per block; a stream of
  width w reads its blocks 0 .. w - 1;
- a word becomes the uniform ((word >> 12) + 0.5) * 2**-52, which is exact
  and lies strictly inside (0, 1);
- normals come from Box-Muller on consecutive word pairs, two per pair, so a
  stream of k normals has width ceil(k / 4) blocks.

A block depends only on (base_seed, domain, stream, block index), never on
the stream width, so a stream of width w is the first w blocks of any wider
stream: Monte Carlo trial t gives bond b the same normal for every chain
length and every grid, and the same value whether it is drawn alone or in a
batch. Block j of a batch of consecutive streams is one contiguous
vectorised draw. The algorithm identifier below is recorded in run
manifests.
"""

from __future__ import annotations

import threading

import numpy as np

NOISE = 0
MEASUREMENT = 1
WORDS_PER_BLOCK = 4

RNG_ALGORITHM = (
    "numpy.random.Philox 4x64-10, key = base_seed + domain*2**64 (noise 0, measurement 1); "
    "block j of stream s is counter block (s+1) + j*2**64; "
    "uniform ((word >> 12) + 0.5) * 2**-52; normals by Box-Muller on word pairs"
)

_WORD = 2**64
# Seeds fill the low 64-bit word of the key, so they lie in [0, SEED_BOUND).
SEED_BOUND = _WORD
# One generator, built on the first draw (not at import) and re-keyed for
# every draw: setting its state is four times cheaper than constructing a
# generator, which would seed (and discard) a SeedSequence each time. The
# state it is set from is one dict whose counter and key lists each draw
# overwrites in place, under the lock; the generator copies them in, and
# Python ints convert faster than numpy arrays. buffer_pos = 4 marks the
# buffer empty, so no word of an earlier draw is read.
_PHILOX: np.random.Philox | None = None
_PHILOX_LOCK = threading.Lock()
_COUNTER = [0] * WORDS_PER_BLOCK
_KEY = [0, 0]
_PHILOX_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": _COUNTER, "key": _KEY},
    "buffer": [0] * WORDS_PER_BLOCK,
    "buffer_pos": WORDS_PER_BLOCK,
    "has_uint32": 0,
    "uinteger": 0,
}


def raw_words(
    base_seed: int, domain: int, first_stream: int, n_streams: int, width: int
) -> np.ndarray:
    """Raw words of streams first_stream .. first_stream + n_streams - 1.

    One row per stream, 4 * width uint64 words each, block 0 first; row t
    equals the same call with first_stream + t and n_streams = 1, and the
    first 4 * v words of a row equal the same call with width v < width.
    """
    if not 0 <= base_seed < SEED_BOUND:
        raise ValueError(f"base_seed must lie in [0, 2**64), got {base_seed}")
    if domain not in (NOISE, MEASUREMENT):
        raise ValueError(f"unknown stream domain {domain}")
    if first_stream < 0 or n_streams < 1 or width < 1:
        raise ValueError("need first_stream >= 0, n_streams >= 1 and width >= 1")
    if first_stream + n_streams > _WORD:
        raise ValueError("streams must lie in [0, 2**64)")
    # counter words (first_stream, j, 0, 0): the generator steps the counter
    # before each block it draws, so block j of stream s is (s + 1, j, 0, 0)
    size = n_streams * WORDS_PER_BLOCK
    global _PHILOX
    with _PHILOX_LOCK:
        if _PHILOX is None:
            _PHILOX = np.random.Philox(0)
        _COUNTER[0], _KEY[0], _KEY[1] = first_stream, base_seed, domain
        _COUNTER[1] = 0
        _PHILOX.state = _PHILOX_STATE
        first = _PHILOX.random_raw(size).reshape(n_streams, WORDS_PER_BLOCK)
        if width == 1:
            return first
        words = np.empty((n_streams, width, WORDS_PER_BLOCK), dtype=np.uint64)
        words[:, 0] = first
        for j in range(1, width):
            _COUNTER[1] = j
            _PHILOX.state = _PHILOX_STATE
            words[:, j] = _PHILOX.random_raw(size).reshape(n_streams, WORDS_PER_BLOCK)
    return words.reshape(n_streams, width * WORDS_PER_BLOCK)


def uniforms(
    base_seed: int, domain: int, first_stream: int, n_streams: int, width: int = 1
) -> np.ndarray:
    """Uniforms in (0, 1), 4 * width per stream, one row per stream."""
    words = raw_words(base_seed, domain, first_stream, n_streams, width)
    return ((words >> 12) + 0.5) * 2.0**-52


def normal_width(per_stream: int) -> int:
    """Blocks a stream of per_stream normals reads: two normals a word pair."""
    return -(-per_stream // WORDS_PER_BLOCK)


def normals(
    base_seed: int, domain: int, first_stream: int, n_streams: int, per_stream: int
) -> np.ndarray:
    """Standard normals, shape (n_streams, per_stream), one row per stream."""
    if per_stream < 1:
        raise ValueError(f"per_stream must be >= 1, got {per_stream}")
    u = uniforms(base_seed, domain, first_stream, n_streams, normal_width(per_stream))
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * np.pi * u[:, 1::2]
    z = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)
    return z.reshape(n_streams, -1)[:, :per_stream]
