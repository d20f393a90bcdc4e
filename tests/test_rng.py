import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segmt.rng import make_rng, uniforms

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
