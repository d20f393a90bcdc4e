import math
from unittest import mock

import bitext_oracle
import draw_oracle
import pytest
from bitext_oracle import BitextPair, as_line, augment_pair
from hypothesis import example, given, settings, strategies as st

from segmt import augment
from segmt.augment import (
    AugmentationConfig,
    MixtureSpec,
    augment_blocks,
    augment_line,
    build_training_mixture,
)
from segmt.rng import Stream, uniforms


def pair(src, tgt, origin=""):
    return BitextPair(list(src), list(tgt), origin=origin)


def indexed_pairs(count, width=4, origin=""):
    """Pairs whose tokens encode (pair index, position) for provenance checks."""
    return [
        pair([f"s{i}.{j}" for j in range(width)], [f"t{i}.{j}" for j in range(width)], origin)
        for i in range(count)
    ]


def indexed_lines(count, width=4):
    return [as_line(p) for p in indexed_pairs(count, width)]


def augment_corpus(lines, cfg):
    """A corpus of one document, augmented."""
    return augment_blocks([lines], cfg)[0]


def test_augment_pair_zero_p():
    first = pair(["a", "b"], ["x", "y"], origin="c1")
    second = pair(["c", "d"], ["z", "w"])
    out = augment_pair(first, second, 0.0)
    assert out.source == first.source
    assert out.target == first.target
    assert out.origin == "c1"
    assert augment_line("a b\tx y", "c d\tz w", 0.0) == "a b\tx y"


def test_augment_pair_proportional_truncation():
    first = pair([f"a{i}" for i in range(10)], ["t1"] * 4)
    second = pair([f"b{i}" for i in range(10)], ["t2"] * 4)
    out = augment_pair(first, second, 0.3)
    # ceil(0.3 * 10) = 3: drop 3 leading tokens of S1, keep 3 of S2.
    assert out.source == [f"a{i}" for i in range(3, 10)] + ["b0", "b1", "b2"]
    assert len(out.source) == 10
    # ceil(0.3 * 4) = 2 on the 4-token targets.
    assert out.target == ["t1", "t1"] + ["t2", "t2"]


def test_augment_pair_ceiling():
    first = pair([f"a{i}" for i in range(7)], ["t"] * 7)
    second = pair(["b"] * 7, ["u"] * 7)
    out = augment_pair(first, second, 0.25)
    # ceil(0.25 * 7) = ceil(1.75) = 2 tokens dropped from the front.
    assert out.source[: 7 - 2] == [f"a{i}" for i in range(2, 7)]


def test_augment_pair_rejects_negative_p():
    with pytest.raises(ValueError):
        augment_pair(pair(["a"], ["b"]), pair(["c"], ["d"]), -0.1)
    with pytest.raises(ValueError):
        augment_line("a\tb", "c\td", -0.1)


# Sides of 1, 2, 3, 7 and 10 tokens, with non-ASCII tokens, on either side of the merge.
LINE_SIDES = [["a"], ["\u00fc", "b"], ["x", "\u4e2d\u6587", "y"], [f"s{i}" for i in range(7)],
              [f"t{i}\u2019" for i in range(10)]]


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.5, 0.7, math.nextafter(1.0, 0.0), 1.0])
def test_augment_line_matches_augment_pair(p):
    for first_source in LINE_SIDES:
        for second_source in LINE_SIDES:
            for first_target, second_target in [(["t"], LINE_SIDES[-1]), (LINE_SIDES[3], ["u"])]:
                first = pair(first_source, first_target)
                second = pair(second_source, second_target)
                line = augment_line(as_line(first), as_line(second), p)
                assert line == as_line(augment_pair(first, second, p))
                # Every merge keeps two non-blank sides, so none is ever dropped.
                sides = line.split("\t")
                assert len(sides) == 2 and all(side.strip() for side in sides)


def test_augment_pair_full_truncation_keeps_sides_non_empty():
    # p = 1 drops all of S1 and keeps all of S2.
    first = pair(["a", "b"], ["x"])
    second = pair(["c"], ["y", "z"])
    out = augment_pair(first, second, 1.0)
    assert out.source == ["c"]
    assert out.target == ["y", "z"]
    assert augment_line("a b\tx", "c\ty z", 1.0) == "c\ty z"


def test_augment_corpus_pairing_counts():
    cfg = AugmentationConfig(p_max=0.3, seed=11)
    assert len(augment_corpus(indexed_lines(4), cfg)) == 2
    lines = augment_corpus(indexed_lines(5), cfg)
    assert len(lines) == 3
    assert lines[-1] == indexed_lines(5)[-1]  # trailing passthrough


def test_augment_corpus_deterministic():
    cfg = AugmentationConfig(p_max=0.3, seed=42)
    lines = indexed_lines(40)
    assert augment_corpus(lines, cfg) == augment_corpus(lines, cfg)


def test_augment_corpus_seed_changes_output():
    lines = indexed_lines(40, width=12)
    a = augment_corpus(lines, AugmentationConfig(seed=1))
    b = augment_corpus(lines, AugmentationConfig(seed=2))
    assert a != b


def test_augment_corpus_chunked_offsets_match_whole():
    lines = indexed_lines(12)
    cfg = AugmentationConfig(p_max=0.3, seed=9)
    first, second = augment_blocks([lines[:6], lines[6:]], cfg)
    assert first + second == augment_corpus(lines, cfg)


@pytest.mark.parametrize("index_offset", [0, 3, 2**40])
def test_augment_blocks_match_augment_corpus_with_running_offsets(index_offset):
    """The per-pair oracle, one generator per merge at running indices, agrees with
    ``augment_line`` on one batched ``rng.uniforms`` draw; from index 0 that is ``augment_blocks``."""
    pairs = indexed_pairs(60, width=10)
    blocks = [pairs[:1], pairs[1:3], pairs[3:8], [], pairs[8:60]]
    cfg = AugmentationConfig(p_max=0.5, seed=12)
    expected = [
        list(map(as_line, block))
        for block in bitext_oracle.augment_blocks(blocks, cfg, index_offset)
    ]
    lines = [list(map(as_line, block)) for block in blocks]
    indices, start = [], index_offset
    for block in lines:
        indices.extend(range(start, start + len(block) - 1, 2))
        start += len(block)
    fractions = iter(uniforms(cfg.seed, indices, cfg.p_max))
    batched = [
        [augment_line(block[k], block[k + 1], next(fractions)) for k in range(0, len(block) - 1, 2)]
        + block[len(block) - len(block) % 2 :]
        for block in lines
    ]
    assert batched == expected
    if index_offset == 0:
        assert augment_blocks(lines, cfg) == expected


def test_augment_corpus_output_structure():
    width = 9
    cfg = AugmentationConfig(p_max=0.3, seed=3)
    cap = math.ceil(cfg.p_max * width)
    for out in augment_corpus(indexed_lines(200, width=width), cfg):
        source = out.split("\t")[0].split(" ")
        # Tokens encode their pair index, so the S1/S2 split is recoverable.
        i = int(source[0][1:].split(".")[0])
        split = sum(1 for tok in source if tok.startswith(f"s{i}."))
        # Source is a contiguous suffix of S1 followed by a prefix of S2.
        assert source[:split] == [f"s{i}.{j}" for j in range(width - split, width)]
        assert source[split:] == [f"s{i + 1}.{j}" for j in range(len(source) - split)]
        assert width - split <= cap
        assert len(source) - split <= cap


def test_augmentation_config_validation():
    with pytest.raises(ValueError):
        AugmentationConfig(p_max=0.0)
    with pytest.raises(ValueError):
        AugmentationConfig(p_max=1.5)


def test_bitext_pair_rejects_empty_sides():
    with pytest.raises(ValueError):
        BitextPair([], ["a"])
    with pytest.raises(ValueError):
        BitextPair(["a"], [])


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureSpec(corpus_weights={})
    with pytest.raises(ValueError):
        MixtureSpec(corpus_weights={"a": 0.5})
    with pytest.raises(ValueError):
        MixtureSpec(corpus_weights={"a": 1.5, "b": -0.5})
    with pytest.raises(ValueError):
        MixtureSpec(corpus_weights={"a": 1.0}, augmented_fraction=1.2)


def test_mixture_degenerate_weights():
    originals = indexed_pairs(5, origin="A")
    spec = MixtureSpec(corpus_weights={"A": 1.0}, augmented_fraction=0.0, seed=5)
    out = build_training_mixture({"A": (originals, [])}, spec, 50)
    assert len(out) == 50
    assert all(p in originals for p in out)


def test_mixture_deterministic():
    corpora = {
        "A": (indexed_pairs(10, origin="A"), indexed_pairs(4, origin="A")),
        "B": (indexed_pairs(10, origin="B"), indexed_pairs(4, origin="B")),
    }
    spec = MixtureSpec(corpus_weights={"A": 0.7, "B": 0.3}, augmented_fraction=0.2, seed=8)
    assert build_training_mixture(corpora, spec, 100) == build_training_mixture(
        corpora, spec, 100
    )


def test_mixture_unknown_corpus():
    spec = MixtureSpec(corpus_weights={"missing": 1.0})
    with pytest.raises(ValueError):
        build_training_mixture({"A": (indexed_pairs(2), indexed_pairs(2))}, spec, 1)


def test_mixture_empty_pools_rejected():
    spec = MixtureSpec(corpus_weights={"A": 1.0}, augmented_fraction=0.2)
    with pytest.raises(ValueError):
        build_training_mixture({"A": ([], indexed_pairs(2))}, spec, 1)
    with pytest.raises(ValueError):
        build_training_mixture({"A": (indexed_pairs(2), [])}, spec, 1)


def test_mixture_zero_total():
    spec = MixtureSpec(corpus_weights={"A": 1.0}, augmented_fraction=0.0)
    assert build_training_mixture({"A": (indexed_pairs(2), [])}, spec, 0) == []


# Pool sizes whose 32-bit index draws Lemire's test rejects often: a quarter
# of them for 3 * 2**30 and about half for 2**31 + 1.
REJECTING_SIZES = [3 * 2**30, 2**31 + 1]


def pool_of(draw, label, kind, min_size):
    size = draw(st.one_of(st.integers(min_size, 4), st.sampled_from(REJECTING_SIZES)))
    return range(size) if size > 4 else [(label, kind, i) for i in range(size)]


@st.composite
def mixtures(draw):
    """Corpora of 1-3 labels with pools of 1-4 items or huge ranges, weights summing to 1,
    and a spec."""
    labels = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    raw = draw(st.lists(st.integers(0, 5), min_size=len(labels), max_size=len(labels)))
    raw[0] = raw[0] or 1  # at least one positive weight
    weights = {label: part / sum(raw) for label, part in zip(labels, raw)}
    fraction = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    corpora = {}
    for label in labels:
        # A pool of one draws nothing for its index, which breaks the bulk pattern.
        originals = pool_of(draw, label, "original", 1)
        augmented = pool_of(draw, label, "augmented", 0 if fraction == 0 else 1)
        corpora[label] = (originals, augmented)
    spec = MixtureSpec(weights, fraction, draw(st.integers(0, 2**32)))
    return corpora, spec


# Nine draws whose bulk pattern first breaks at a known draw: a pool of one
# picked at draw 0, 4, 5 (a buffered half pending) or 8, or a Lemire rejection
# at draw 0.  test_mixture_breaks_where_expected checks the break points.
ONE_OR_HUGE = {"a": (["only"], range(3 * 2**30))}
BREAKS = {
    "one_at_first": (ONE_OR_HUGE, MixtureSpec({"a": 1.0}, 0.5, 0), 0),
    "one_at_even_middle": (ONE_OR_HUGE, MixtureSpec({"a": 1.0}, 0.5, 43), 4),
    "one_at_odd_middle": (ONE_OR_HUGE, MixtureSpec({"a": 1.0}, 0.5, 150), 5),
    "one_at_last": (ONE_OR_HUGE, MixtureSpec({"a": 1.0}, 0.5, 1913), 8),
    "rejection_at_first": ({"a": (range(2**31 + 1), [])}, MixtureSpec({"a": 1.0}, 0.0, 0), 0),
}
BREAK_TOTAL = 9


@pytest.mark.parametrize("name", sorted(BREAKS))
def test_mixture_breaks_where_expected(name, monkeypatch):
    # From the break on, every draw makes two per-draw Stream.random calls.
    corpora, spec, first_break = BREAKS[name]
    calls = []
    random = Stream.random

    def counted(self):
        calls.append(self)
        return random(self)

    monkeypatch.setattr(Stream, "random", counted)
    build_training_mixture(corpora, spec, BREAK_TOTAL)
    assert len(calls) == 2 * (BREAK_TOTAL - first_break)


@settings(max_examples=300, deadline=None)
@given(
    mixture=mixtures(),
    total=st.one_of(st.just(0), st.integers(1, 80)),
    pairs=st.sampled_from([None, 1, 3]),
)
@example(mixture=BREAKS["one_at_first"][:2], total=BREAK_TOTAL, pairs=None)
@example(mixture=BREAKS["one_at_even_middle"][:2], total=BREAK_TOTAL, pairs=None)
@example(mixture=BREAKS["one_at_odd_middle"][:2], total=BREAK_TOTAL, pairs=None)
@example(mixture=BREAKS["one_at_last"][:2], total=BREAK_TOTAL, pairs=None)
@example(mixture=BREAKS["rejection_at_first"][:2], total=BREAK_TOTAL, pairs=None)
@example(mixture=BREAKS["one_at_odd_middle"][:2], total=BREAK_TOTAL, pairs=1)
@example(mixture=BREAKS["one_at_last"][:2], total=BREAK_TOTAL, pairs=3)
def test_mixture_matches_per_draw_oracle(mixture, total, pairs):
    # pairs=1 or 3 shrinks the bulk blocks to 2 or 6 draws, so totals cross
    # block boundaries, with and without a break inside a later block.
    corpora, spec = mixture
    with mock.patch.object(augment, "_PAIRS_PER_BLOCK", pairs or augment._PAIRS_PER_BLOCK):
        drawn = build_training_mixture(corpora, spec, total)
    assert drawn == draw_oracle.build_training_mixture(corpora, spec, total)
