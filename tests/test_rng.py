import numpy as np
import pytest

from invset.rng import fresh_state, rewind, sample_stream

SEED, CONTEXT = 2**40 + 5, 7 * 2**32 + 11


def _worn_stream():
    """A stream from index 0 with its fresh state, moved past everything a
    reset must undo: a pending 32-bit half and a second Philox block."""
    stream = sample_stream(SEED, CONTEXT, 0)
    fresh = fresh_state(stream)
    stream.integers(2**32, dtype=np.uint32)
    stream.bit_generator.random_raw(5)
    worn = stream.bit_generator.state
    assert worn["has_uint32"] == 1
    assert worn["state"]["counter"][0] == 2  # the second Philox block is in use
    assert worn["buffer_pos"] < 4
    return stream, fresh


@pytest.mark.parametrize("index", [0, 1, 3, 2**63 + 9])
def test_rewind_resets_every_word(index):
    stream, fresh = _worn_stream()
    rewind(stream, fresh, index)
    new = sample_stream(SEED, CONTEXT, index)
    assert np.array_equal(stream.bit_generator.random_raw(8), new.bit_generator.random_raw(8))


def test_rewind_drops_the_pending_half():
    # random_raw never reads the cached 32-bit half; a uint32 draw does
    stream, fresh = _worn_stream()
    rewind(stream, fresh, 2)
    new = sample_stream(SEED, CONTEXT, 2)
    draws = [s.integers(2**32, dtype=np.uint32, size=3) for s in (stream, new)]
    assert np.array_equal(*draws)


def test_fresh_state_is_plain_ints():
    state = fresh_state(sample_stream(SEED, CONTEXT, 0))
    words = [*state["state"]["counter"], *state["state"]["key"], *state["buffer"]]
    words += [state["buffer_pos"], state["has_uint32"], state["uinteger"]]
    assert all(type(word) is int for word in words)
    assert state["state"]["counter"] == [0, 0, 0, CONTEXT]
