"""Counter-based random streams for reproducible, order-independent sampling."""

import numpy as np

_MASK64 = (1 << 64) - 1
# Fixed key salt so streams built here never collide with a user's own Philox
# streams keyed by the same seed.
_SALT = 0x9E3779B97F4A7C15


def sample_stream(seed: int, context: int, index: int) -> np.random.Generator:
    """Independent generator for one sample.

    Streams are separated through the Philox counter words by
    (seed, context, index), so any single sample can be drawn in isolation:
    the values never depend on how many other samples are drawn, in what
    order, or on which thread.  `context` is typically an algorithm iteration
    number, `index` the sample index within it.

    `Ellipsoid.sample` calls this once per call, with index 0, and moves
    the generator to each point with `rewind`: point i then consumes exactly
    the words that `sample_stream(seed, context, i)` yields.
    """
    key = np.array([seed & _MASK64, _SALT], dtype=np.uint64)
    counter = np.array([0, 0, index & _MASK64, context & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def rewind(stream: np.random.Generator, fresh: dict, index: int) -> None:
    """Put `stream` in the state `sample_stream(seed, context, index)` starts in.

    `stream` comes from `sample_stream(seed, context, 0)` and `fresh` is its
    bit generator's state before any draw.  The index is counter word 2, so
    setting that word and restoring the state replaces building a new Philox.
    """
    fresh["state"]["counter"][2] = index & _MASK64
    stream.bit_generator.state = fresh
