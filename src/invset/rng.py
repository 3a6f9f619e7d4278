"""Counter-based random streams for reproducible, order-independent sampling.

A stream is numpy's Philox generator; moving one to another sample's stream
writes one counter word into a state dict of plain Python ints (`fresh_state`,
`rewind`), which numpy reads about twice as fast as a state of numpy arrays.
"""

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

    `Ellipsoid.sample` calls this once per call, with index 0, takes its
    `fresh_state` as plain ints, and moves the generator to each point with
    `rewind`: point i then consumes exactly the words that
    `sample_stream(seed, context, i)` yields.
    """
    key = np.array([seed & _MASK64, _SALT], dtype=np.uint64)
    counter = np.array([0, 0, index & _MASK64, context & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def fresh_state(stream: np.random.Generator) -> dict:
    """The bit generator state of `stream`, with every number a plain int.

    Taken before any draw, it is the state `rewind` resets to; it holds the
    buffer and the cached 32-bit half too, so a reset also forgets a partly
    used block and a pending `uint32`.
    """
    state = stream.bit_generator.state
    return {
        "bit_generator": state["bit_generator"],
        "state": {name: [int(word) for word in words] for name, words in state["state"].items()},
        "buffer": [int(word) for word in state["buffer"]],
        "buffer_pos": int(state["buffer_pos"]),
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def rewind(stream: np.random.Generator, fresh: dict, index: int) -> None:
    """Put `stream` in the state `sample_stream(seed, context, index)` starts in.

    `stream` comes from `sample_stream(seed, context, 0)` and `fresh` is its
    `fresh_state` before any draw.  The index is counter word 2, so setting
    that word and restoring the state replaces building a new Philox.
    """
    fresh["state"]["counter"][2] = index & _MASK64
    stream.bit_generator.state = fresh
