import contextlib
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segmt import rng
from segmt.rng import PCG64Outputs, Stream, bit_generators, make_rng, uniforms

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_uniforms_bulk_equal_make_rng_draws(seed):
    # Thousands of indices in one call: a carry of the 128-bit arithmetic
    # taken from the wrong row would show in some of them.  numpy warns of no
    # overflow, because the arrays wrap as 64-bit words.
    draws = random.Random(2024)
    indices = [draws.getrandbits(64) for _ in range(5000)]
    indices += [2**32 - 1, 2**32 + 1, 2**63, 2**64 - 1]
    assert uniforms(seed, indices, 0.3) == oracle(seed, indices, 0.3)


def test_uniforms_empty_and_iterable_indices():
    assert uniforms(3, [], 0.3) == []
    assert uniforms(3, iter(range(0, 10, 2)), 0.3) == oracle(3, range(0, 10, 2), 0.3)


def test_uniforms_rejects_non_integer_index():
    with pytest.raises(TypeError):
        uniforms(3, [1.5], 0.3)


# Consecutive random_raw calls: from one step, the tables double to cover 5
# and then 5,119 outputs, and 20,000 outputs take three blocks of at most
# rng._MAX_JUMP.
PCG64_CALLS = [0, 1, 5, 5119, 5121, 20000]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("context", ["mixture", 7, 2**40 + 1])
@pytest.mark.parametrize("seed", [None, 0, 2**32 + 5, 2**64 + 3])
def test_pcg64_outputs_equal_bit_generator(seed, context):
    reference = make_rng(seed, context).bit_generator
    with mock.patch.object(rng, "_jumps", None):  # grown from one step in this test
        outputs = PCG64Outputs(seed, context)
        for count in PCG64_CALLS:
            drawn = outputs.random_raw(count)
            assert drawn.dtype == np.uint64
            assert drawn.tolist() == reference.random_raw(count).tolist()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.none(), st.integers(min_value=-(2**64), max_value=2**66)),
    context=st.one_of(st.text(max_size=8), st.integers(min_value=-(2**64), max_value=2**65)),
    calls=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
)
def test_pcg64_outputs_any_seed_context_and_calls(seed, context, calls):
    reference = make_rng(seed, context).bit_generator
    outputs = PCG64Outputs(seed, context)
    for count in calls:
        assert outputs.random_raw(count).tolist() == reference.random_raw(count).tolist()


# Contexts of zero to three values.  2**40 has a zero low word, which
# SeedSequence keeps; 5 and the seeds below 2**32 have a zero high word, which
# it drops, so words of later values sit higher in some columns than others.
BATCH_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
BATCH_CONTEXTS = [(), (5,), (2**40,), ("d",), ("tokens", "d"), (2**40, 2**40, 5)]


def seeded_state(high_low):
    (s_high, s_low), (i_high, i_low) = high_low
    return [
        {"state": s_h << 64 | s_l, "inc": i_h << 64 | i_l}
        for s_h, s_l, i_h, i_l in zip(*(words.tolist() for words in (s_high, s_low, i_high, i_low)))
    ]


def test_seeded_columns_equal_make_rng_states():
    # Every seed with every context, in one call.
    cases = [(seed, context) for seed in BATCH_SEEDS for context in BATCH_CONTEXTS]
    values = [rng._entropy(seed, context) for seed, context in cases]
    entropy = np.array([v + [0] * (4 - len(v)) for v in values], dtype=np.uint64).T
    got = seeded_state(rng._seeded(entropy, np.array([len(v) for v in values])))
    assert got == [make_rng(seed, *context).bit_generator.state["state"] for seed, context in cases]


@pytest.mark.parametrize("seed", BATCH_SEEDS + [None])
def test_bit_generators_equal_make_rng(seed):
    # One bit generator in every stream's state in turn, with no buffered
    # half; a stream's draws are taken before the next state is set.
    contexts = BATCH_CONTEXTS * 2
    drawn = [(gen.state, gen.random_raw(k).tolist()) for k, gen in enumerate(bit_generators(seed, contexts))]
    expected = []
    for k, context in enumerate(contexts):
        reference = make_rng(seed, *context).bit_generator
        expected.append((reference.state, reference.random_raw(k).tolist()))
    assert drawn == expected
    assert list(bit_generators(seed, [])) == []


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.none(), st.integers(min_value=-(2**64), max_value=2**66)),
    contexts=st.lists(
        st.lists(
            st.one_of(
                st.text(max_size=4),
                st.integers(min_value=0, max_value=2**32 - 1),  # a zero high word
                st.integers(min_value=-(2**64), max_value=2**65),
            ),
            max_size=4,
        ).map(tuple),
        min_size=1,
        max_size=8,
    ),
)
def test_bit_generators_any_seed_and_contexts(seed, contexts):
    states = [gen.state["state"] for gen in bit_generators(seed, contexts)]
    assert states == [make_rng(seed, *context).bit_generator.state["state"] for context in contexts]


# integers(n) sizes: n == 1 draws nothing; 3 * 2**30 rejects about a quarter
# of the 32-bit halves; 2**32 takes a half as it is.
STREAM_SIZES = [1, 2, 3, 20000, 3 * 2**30, 2**32 - 1, 2**32]


def draw(source, call):
    """``random()`` for ``None``, else ``int(integers(call))``."""
    return source.random() if call is None else int(source.integers(call))


def fetch_blocks(block):
    """Make ``Stream`` fetch ``block`` outputs at a time; ``None`` keeps its growing blocks."""
    if block is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(rng, _FIRST_BLOCK=block, _MAX_BLOCK=block)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    block=st.one_of(st.integers(min_value=1, max_value=7), st.none()),
    calls=st.lists(
        st.one_of(
            st.none(),  # random()
            st.sampled_from(STREAM_SIZES),
            st.integers(min_value=1, max_value=2**32),
        ),
        max_size=60,
    ),
)
def test_stream_equals_generator_draws(seed, block, calls):
    reference = make_rng(seed, "stream")
    with fetch_blocks(block):
        stream = Stream(seed, "stream")
        drawn = [draw(stream, call) for call in calls]
    assert drawn == [draw(reference, call) for call in calls]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    read_ahead=st.integers(min_value=0, max_value=40),
    before=st.lists(st.one_of(st.none(), st.sampled_from(STREAM_SIZES)), max_size=12),
    after=st.lists(st.one_of(st.none(), st.sampled_from(STREAM_SIZES)), max_size=60),
)
def test_stream_resume_continues_generator_draws(seed, read_ahead, before, after):
    # A reader stops with read_ahead outputs fetched but unused and the
    # generator's buffered half (numpy's own state says which) in hand.
    reference = make_rng(seed, "resume")
    for call in before:
        draw(reference, call)
    state = reference.bit_generator.state
    bit_generator = np.random.PCG64()
    bit_generator.state = {**state, "has_uint32": 0, "uinteger": 0}
    pending = bit_generator.random_raw(read_ahead).tolist()
    half = state["uinteger"] if state["has_uint32"] else None
    with fetch_blocks(3):
        stream = Stream.resume(bit_generator, pending, half)
        drawn = [draw(stream, call) for call in after]
    assert drawn == [draw(reference, call) for call in after]


@pytest.mark.parametrize("block, count", [(None, 5000), (3, 200)])
@pytest.mark.parametrize("n", STREAM_SIZES)
def test_stream_repeated_size_equals_generator(n, block, count):
    # 5000 draws from the growing blocks cross every doubling and several
    # full-size refills.
    reference = make_rng(5, n)
    with fetch_blocks(block):
        stream = Stream(5, n)
        drawn = [draw(stream, n) for _ in range(count)]
    assert drawn == [draw(reference, n) for _ in range(count)]


@pytest.mark.parametrize("n", [0, -1, 2**63 + 1])
def test_stream_refuses_sizes_numpy_refuses(n):
    stream, reference = Stream(4), make_rng(4)
    with pytest.raises(ValueError):
        stream.integers(n)
    with pytest.raises(ValueError):
        reference.integers(n)
    assert stream.random() == reference.random()  # a refused call draws nothing


@pytest.mark.parametrize("n", [2**32 + 1, 3 * 2**61, 2**63, 3 * 2**62])
def test_stream_refuses_sizes_above_32_bits(n):
    # Vocabularies and pools never reach 2**32 entries, so Stream has no 64-bit path.
    stream, reference = Stream(4), make_rng(4)
    with pytest.raises(ValueError):
        stream.integers(n)
    assert stream.random() == reference.random()  # a refused call draws nothing
