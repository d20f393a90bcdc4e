import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segmt import rng
from segmt.rng import Stream, make_rng, uniforms

EDGE_SEEDS = [None, 0, 1, -1, -(2**40) - 3, 2**32 - 1, 2**32, 2**33 + 9, 2**64 - 1, np.int64(11)]
EDGE_INDICES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
HIGHS = [1.0, 0.3, 1e-300]


def oracle(seed, indices, high):
    return [float(make_rng(seed, i).uniform(0.0, high)) for i in indices]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(
        st.none(),
        st.sampled_from(EDGE_SEEDS),
        st.integers(min_value=-(2**64), max_value=2**66),
    ),
    indices=st.lists(
        st.one_of(st.sampled_from(EDGE_INDICES), st.integers(min_value=-(2**64), max_value=2**65)),
        max_size=8,
    ),
    high=st.one_of(st.sampled_from(HIGHS + [1e-310]), st.floats(min_value=5e-324, max_value=1.0)),
)
def test_uniforms_equal_make_rng_draws(seed, indices, high):
    # Exact float equality: the batched pass must reproduce the streams bit for bit.
    assert uniforms(seed, indices, high) == oracle(seed, indices, high)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("high", HIGHS)
def test_uniforms_edge_seeds_and_indices(seed, high):
    assert uniforms(seed, EDGE_INDICES, high) == oracle(seed, EDGE_INDICES, high)


def test_uniforms_empty_and_iterable_indices():
    assert uniforms(3, [], 0.3) == []
    assert uniforms(3, iter(range(0, 10, 2)), 0.3) == oracle(3, range(0, 10, 2), 0.3)


def test_uniforms_rejects_non_integer_index():
    with pytest.raises(TypeError):
        uniforms(3, [1.5], 0.3)


# integers(n) sizes: n == 1 draws nothing; 3 * 2**30 rejects about a quarter
# of the 32-bit halves and 3 * 2**61 a quarter of the 64-bit outputs; 2**32
# takes a half as it is; 3 * 2**62 is above numpy's int64 bound and raises.
STREAM_SIZES = [1, 2, 3, 20000, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61, 3 * 2**62, 2**63]


def draw(source, call):
    """``random()`` for ``None``, else ``int(integers(call))``; "refused" on a ValueError."""
    try:
        return source.random() if call is None else int(source.integers(call))
    except ValueError:
        return "refused"


def fetch_blocks(block):
    """Make ``Stream`` fetch ``block`` outputs at a time; ``None`` keeps its growing blocks."""
    if block is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(rng, _FIRST_BLOCK=block, _MAX_BLOCK=block)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    block=st.one_of(st.integers(min_value=1, max_value=7), st.none()),
    # Draws before the stream starts: an odd number of 3s and 20000s leaves
    # PCG64's high half buffered.
    warmup=st.lists(st.sampled_from([1, 3, 20000, 2**33]), max_size=3),
    calls=st.lists(
        st.one_of(
            st.none(),  # random()
            st.sampled_from(STREAM_SIZES),
            st.integers(min_value=1, max_value=2**63),
        ),
        max_size=60,
    ),
)
def test_stream_equals_generator_draws(seed, block, warmup, calls):
    reference, source = make_rng(seed, "stream"), make_rng(seed, "stream")
    for n in warmup:
        reference.integers(n)
        source.integers(n)
    with fetch_blocks(block):
        stream = Stream(source)
        drawn = [draw(stream, call) for call in calls]
    assert drawn == [draw(reference, call) for call in calls]


@pytest.mark.parametrize("block, count", [(None, 5000), (3, 200)])
@pytest.mark.parametrize("n", STREAM_SIZES)
def test_stream_repeated_size_equals_generator(n, block, count):
    # 5000 draws from the growing blocks cross every doubling and several
    # full-size refills.
    reference = make_rng(5, n)
    with fetch_blocks(block):
        stream = Stream(make_rng(5, n))
        drawn = [draw(stream, n) for _ in range(count)]
    assert drawn == [draw(reference, n) for _ in range(count)]


def test_stream_takes_buffered_high_half_first():
    reference, source = make_rng(8), make_rng(8)
    reference.integers(3)
    source.integers(3)
    assert source.bit_generator.state["has_uint32"]
    with fetch_blocks(1):
        stream = Stream(source)
        drawn = [stream.integers(2**32) for _ in range(5)]
    assert drawn == [int(reference.integers(2**32)) for _ in range(5)]


@pytest.mark.parametrize("n", [0, -1, 2**63 + 1])
def test_stream_refuses_sizes_numpy_refuses(n):
    stream, reference = Stream(make_rng(4)), make_rng(4)
    with pytest.raises(ValueError):
        stream.integers(n)
    with pytest.raises(ValueError):
        reference.integers(n)
    assert stream.random() == reference.random()  # a refused call draws nothing
