import draw_oracle
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from segmt.evaluate import make_error_variants
from segmt.noise import NoiseConfig, _substitute, corrupt_boundaries, corrupt_tokens
from segmt.rng import make_rng
from segmt.text import SegmentedDocument, flatten, rebuild


def make_doc(tokens=30, seg_len=5, doc_id="d"):
    toks = [f"w{i}" for i in range(tokens)]
    segments = [toks[i : i + seg_len] for i in range(0, tokens, seg_len)]
    return SegmentedDocument(segments, doc_id=doc_id)


VOCAB = tuple(f"v{i}" for i in range(20))


def test_zero_rates_identity():
    doc = make_doc()
    cfg = NoiseConfig(vocabulary=VOCAB, seed=1)
    assert corrupt_tokens(doc, cfg) == doc
    assert corrupt_boundaries(doc, cfg) == doc


def test_full_substitution_singleton_vocabulary():
    doc = make_doc(tokens=12)
    cfg = NoiseConfig(substitution_rate=1.0, vocabulary=("z",), seed=2)
    out = corrupt_tokens(doc, cfg)
    assert all(tok == "z" for tok in out.tokens())
    assert [len(s) for s in out.segments] == [len(s) for s in doc.segments]


def test_deletion_rate_expectation():
    doc = make_doc(tokens=100_000, seg_len=50)
    cfg = NoiseConfig(deletion_rate=0.3, seed=3)
    out = corrupt_tokens(doc, cfg)
    survival = len(out.tokens()) / 100_000
    assert abs(survival - 0.7) < 0.02


def test_substitution_avoids_original():
    doc = make_doc(tokens=200)
    cfg = NoiseConfig(substitution_rate=1.0, vocabulary=("w0", "w1"), seed=4)
    out = corrupt_tokens(doc, cfg)
    originals = doc.tokens()
    for old, new in zip(originals[:2], out.tokens()[:2]):
        assert new != old  # w0/w1 must map to the other vocabulary entry


def test_insertions_come_from_vocabulary():
    doc = make_doc(tokens=500)
    cfg = NoiseConfig(insertion_rate=0.5, vocabulary=("x",), seed=5)
    out = corrupt_tokens(doc, cfg)
    extras = [tok for tok in out.tokens() if tok == "x"]
    assert len(out.tokens()) > 500
    assert len(extras) == len(out.tokens()) - 500


def substitute_by_list(token, vocabulary, rng):
    """Reference: build the candidate list and index it."""
    candidates = [v for v in vocabulary if v != token]
    if not candidates:
        candidates = list(vocabulary)
    return candidates[int(rng.integers(len(candidates)))]


@settings(max_examples=200, deadline=None)
@given(
    # A three-letter alphabet makes duplicates common; "d" never occurs.
    vocabulary=st.lists(st.sampled_from("abc"), min_size=1, max_size=30),
    token=st.sampled_from("abcd"),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_substitute_matches_candidate_list(vocabulary, token, seed):
    cfg = NoiseConfig(vocabulary=tuple(vocabulary))
    fast, slow = make_rng(seed), make_rng(seed)
    for _ in range(5):
        assert _substitute(token, cfg, fast) == substitute_by_list(token, cfg.vocabulary, slow)
    assert fast.random() == slow.random()  # the same number of draws


# (substitution, deletion, insertion): the edges, then any rates that sum to <= 1.
TOKEN_RATES = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.3, 0.2, 0.0), (0.0, 0.0, 1.0), (0.2, 0.1, 0.5)]),
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3).filter(lambda r: sum(r) <= 1),
)


@settings(max_examples=200, deadline=None)
@given(
    segments=st.lists(
        st.lists(st.sampled_from("abcde"), min_size=1, max_size=12), min_size=1, max_size=6
    ),
    vocabulary=st.one_of(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=12),  # duplicates common
        st.integers(min_value=1, max_value=5).map(lambda k: ["a"] * k),  # one repeated token
    ),
    rates=TOKEN_RATES,
    seed=st.integers(min_value=0, max_value=2**32),
    doc_id=st.sampled_from(["", "d", "talk7"]),
)
def test_corrupt_tokens_matches_per_draw_oracle(segments, vocabulary, rates, seed, doc_id):
    substitution, deletion, insertion = rates
    cfg = NoiseConfig(
        substitution_rate=substitution,
        deletion_rate=deletion,
        insertion_rate=insertion,
        vocabulary=tuple(vocabulary),
        seed=seed,
    )
    doc = SegmentedDocument(segments, doc_id=doc_id)
    assert corrupt_tokens(doc, cfg) == draw_oracle.corrupt_tokens(doc, cfg)


def test_substitute_falls_back_when_every_entry_is_the_token():
    cfg = NoiseConfig(vocabulary=("a",) * 4)
    assert _substitute("a", cfg, make_rng(1)) == "a"


def test_noise_config_equality_ignores_derived_index():
    assert NoiseConfig(vocabulary=("a", "b", "a")) == NoiseConfig(vocabulary=("a", "b", "a"))
    assert hash(NoiseConfig(vocabulary=("a",))) == hash(NoiseConfig(vocabulary=("a",)))


def test_corrupt_tokens_requires_vocabulary():
    doc = make_doc()
    with pytest.raises(ValueError):
        corrupt_tokens(doc, NoiseConfig(substitution_rate=0.5))
    with pytest.raises(ValueError):
        corrupt_tokens(doc, NoiseConfig(insertion_rate=0.5))


def test_merge_all_boundaries():
    doc = make_doc()
    cfg = NoiseConfig(boundary_merge_rate=1.0, seed=6)
    out = corrupt_boundaries(doc, cfg)
    assert len(out.segments) == 1
    assert out.tokens() == doc.tokens()


def test_split_all_gaps():
    doc = make_doc(tokens=10, seg_len=5)
    cfg = NoiseConfig(boundary_split_rate=1.0, seed=7)
    out = corrupt_boundaries(doc, cfg)
    assert [len(s) for s in out.segments] == [1] * 10
    assert out.tokens() == doc.tokens()


def test_corrupt_boundaries_preserves_tokens():
    rng = np.random.default_rng(8)
    cfg = NoiseConfig(boundary_merge_rate=0.4, boundary_split_rate=0.2, seed=9)
    for trial in range(50):
        doc = make_doc(tokens=int(rng.integers(1, 60)), seg_len=4, doc_id=f"d{trial}")
        out = corrupt_boundaries(doc, cfg)
        assert out.tokens() == doc.tokens()
        assert all(seg for seg in out.segments)


def corrupt_boundaries_by_gap(doc, cfg):
    """Reference: one scalar draw per gap, in order."""
    tokens, boundaries = flatten(doc)
    if len(tokens) <= 1:
        return SegmentedDocument([list(seg) for seg in doc.segments], doc_id=doc.doc_id)
    rng = make_rng(cfg.seed, "boundaries", doc.doc_id)
    internal = set(boundaries[:-1])
    kept = []
    for gap in range(len(tokens) - 1):
        draw = rng.random()
        if gap in internal:
            if draw >= cfg.boundary_merge_rate:
                kept.append(gap)
        elif draw < cfg.boundary_split_rate:
            kept.append(gap)
    return rebuild(tokens, kept, doc_id=doc.doc_id)


@pytest.mark.parametrize("merge, split", [(0.4, 0.2), (0.0, 0.0), (1.0, 1.0), (0.5, 0.05)])
def test_corrupt_boundaries_matches_scalar_draws(merge, split):
    rng = np.random.default_rng(15)
    cfg = NoiseConfig(boundary_merge_rate=merge, boundary_split_rate=split, seed=16)
    for trial in range(40):
        doc = make_doc(
            tokens=int(rng.integers(1, 80)), seg_len=int(rng.integers(1, 9)), doc_id=f"d{trial}"
        )
        assert corrupt_boundaries(doc, cfg) == corrupt_boundaries_by_gap(doc, cfg)


def test_single_token_document_unchanged():
    doc = SegmentedDocument([["only"]], doc_id="d")
    cfg = NoiseConfig(boundary_merge_rate=1.0, boundary_split_rate=1.0, seed=10)
    assert corrupt_boundaries(doc, cfg) == doc


def test_determinism_and_seed_sensitivity():
    doc = make_doc(tokens=200)
    base = NoiseConfig(
        substitution_rate=0.2, deletion_rate=0.1, insertion_rate=0.1,
        boundary_merge_rate=0.3, boundary_split_rate=0.2,
        vocabulary=VOCAB, seed=11,
    )
    assert corrupt_tokens(doc, base) == corrupt_tokens(doc, base)
    assert corrupt_boundaries(doc, base) == corrupt_boundaries(doc, base)
    other = NoiseConfig(
        substitution_rate=0.2, deletion_rate=0.1, insertion_rate=0.1,
        boundary_merge_rate=0.3, boundary_split_rate=0.2,
        vocabulary=VOCAB, seed=12,
    )
    assert corrupt_tokens(doc, other) != corrupt_tokens(doc, base)


def test_doc_id_isolates_streams():
    cfg = NoiseConfig(boundary_merge_rate=0.5, boundary_split_rate=0.3, seed=13)
    a = corrupt_boundaries(make_doc(doc_id="a"), cfg)
    b = corrupt_boundaries(make_doc(doc_id="b"), cfg)
    assert a.segments != b.segments  # seeded per document, not globally


def test_variant_composition_with_boundary_noise():
    gold = make_doc(tokens=40, seg_len=5, doc_id="g")
    cfg = NoiseConfig(boundary_merge_rate=0.5, boundary_split_rate=0.3, seed=14)
    system = corrupt_boundaries(gold, cfg)
    variants = make_error_variants(gold, system)
    assert variants.segmentation_errors.segments == system.segments
    assert variants.recognition_errors.segments == gold.segments


def test_rate_validation():
    with pytest.raises(ValueError):
        NoiseConfig(substitution_rate=1.1)
    with pytest.raises(ValueError):
        NoiseConfig(substitution_rate=-0.1)
    with pytest.raises(ValueError):
        NoiseConfig(substitution_rate=0.6, deletion_rate=0.3, insertion_rate=0.2)


@pytest.mark.parametrize("vocabulary", [("x y",), ("a", ""), (" a",), ("a\tb", "c"), ("a", "b\u3000c")])
def test_vocabulary_entries_must_be_single_tokens(vocabulary):
    with pytest.raises(ValueError, match="vocabulary entries must be single tokens"):
        NoiseConfig(substitution_rate=1.0, vocabulary=vocabulary)
