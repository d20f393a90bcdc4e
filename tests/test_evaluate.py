import math

import numpy as np
import pytest
from dp_oracle import (
    TIE_ORDERS,
    assert_tie_order_keeps_the_cost,
    oracle_projection,
    oracle_resegmentation,
)
from hypothesis import given, settings, strategies as st

from segmt.bleu import BleuConfig
from segmt.evaluate import (
    DEFAULT_BUCKET_BOUNDS,
    bucket_report,
    make_error_variants,
    resegment_hypothesis,
    score_documents,
)
from segmt.segment import split_fixed_length
from segmt.text import SegmentedDocument, flatten


def random_document(rng, tokens=20, segments=4, alphabet=8):
    toks = [f"w{rng.integers(0, alphabet)}" for _ in range(tokens)]
    cuts = sorted(rng.choice(tokens - 1, size=min(segments - 1, tokens - 1), replace=False))
    segs = []
    prev = 0
    for cut in cuts:
        segs.append(toks[prev : cut + 1])
        prev = cut + 1
    segs.append(toks[prev:])
    return SegmentedDocument([seg for seg in segs if seg])


def test_error_variants_weather_example():
    gold = SegmentedDocument([["the", "weather", "today", "was", "warm"]])
    system = SegmentedDocument([["the", "whether"], ["today", "was", "warm"]])
    variants = make_error_variants(gold, system)
    assert variants.gold == gold
    assert variants.system == system
    assert variants.recognition_errors.segments == [["the", "whether", "today", "was", "warm"]]
    assert variants.segmentation_errors.segments == [["the", "weather"], ["today", "was", "warm"]]


def test_error_variants_identical_inputs():
    doc = SegmentedDocument([["a", "b"], ["c"]])
    variants = make_error_variants(doc, doc)
    assert variants.recognition_errors.segments == doc.segments
    assert variants.segmentation_errors.segments == doc.segments


def test_error_variants_extra_boundary():
    gold = SegmentedDocument([["a", "b", "c", "d"]])
    system = SegmentedDocument([["a", "b"], ["c", "d"]])
    variants = make_error_variants(gold, system)
    assert variants.recognition_errors.segments == gold.segments
    assert variants.segmentation_errors.segments == system.segments


def test_error_variants_token_preservation():
    rng = np.random.default_rng(51)
    for _ in range(50):
        gold = random_document(rng)
        system = random_document(rng)
        variants = make_error_variants(gold, system)
        assert variants.recognition_errors.tokens() == system.tokens()
        assert variants.segmentation_errors.tokens() == gold.tokens()


@pytest.mark.parametrize("tie_break", TIE_ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_error_variants_match_oracle_projections(tie_break, data):
    # Both variants come from one forward pass; each must equal the projection
    # built from the full-table oracle's alignment in its own direction.  "..."
    # has the empty comparison key, "A," the key of "a"; 1-3 symbols make ties.
    alphabet = data.draw(
        st.lists(st.sampled_from(["a", "b", "...", "A,"]), min_size=1, max_size=3, unique=True)
    )
    segment = st.lists(st.sampled_from(alphabet), min_size=1, max_size=6)
    document = st.lists(segment, min_size=1, max_size=8).map(SegmentedDocument)
    gold, system = data.draw(document, label="gold"), data.draw(document, label="system")
    variants = make_error_variants(gold, system)
    assert variants.recognition_errors.segments == oracle_projection(gold, system.tokens()).segments
    assert variants.segmentation_errors.segments == oracle_projection(system, gold.tokens()).segments
    assert_tie_order_keeps_the_cost(gold.tokens(), system.tokens(), tie_break)
    assert_tie_order_keeps_the_cost(system.tokens(), gold.tokens(), tie_break)


def test_error_variants_reject_empty():
    doc = SegmentedDocument([["a"]])
    with pytest.raises(ValueError):
        make_error_variants(SegmentedDocument([]), doc)
    with pytest.raises(ValueError):
        make_error_variants(doc, SegmentedDocument([]))


def test_resegment_pieces_concatenate():
    rng = np.random.default_rng(52)
    for _ in range(50):
        ref = random_document(rng)
        hyp = random_document(rng)
        pieces = resegment_hypothesis(hyp, ref)
        assert len(pieces) == len(ref.segments)
        assert [tok for piece in pieces for tok in piece] == hyp.tokens()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_resegment_matches_clamped_oracle(data):
    # Tie-heavy documents over 1-3 symbols, either side possibly empty: the
    # shared cut must equal the oracle's clamped loop piece for piece.
    alphabet = data.draw(
        st.lists(st.sampled_from(["a", "b", "...", "A,"]), min_size=1, max_size=3, unique=True)
    )
    segment = st.lists(st.sampled_from(alphabet), min_size=1, max_size=6)
    document = st.lists(segment, max_size=8).map(SegmentedDocument)
    ref, hyp = data.draw(document, label="ref"), data.draw(document, label="hyp")
    pieces = resegment_hypothesis(hyp, ref)
    assert pieces == oracle_resegmentation(hyp, ref)
    assert len(pieces) == len(ref.segments)
    assert [tok for piece in pieces for tok in piece] == (hyp.tokens() if ref.segments else [])


def test_resegment_collapse_yields_empty_piece():
    # Both reference boundaries land at the end of the two-token hypothesis.
    ref = SegmentedDocument([["a", "b"], ["c"]])
    hyp = SegmentedDocument([["a", "b"]])
    pieces = resegment_hypothesis(hyp, ref)
    assert pieces == [["a", "b"], []]


def test_resegment_and_score_identity():
    ref = SegmentedDocument([["a", "b", "c"], ["d", "e"]])
    hyp = SegmentedDocument([["a"], ["b", "c", "d"], ["e"]])
    assert score_documents([hyp], [ref]).score == 100.0


def test_resegment_and_score_exact_match():
    doc = SegmentedDocument([["x", "y"], ["z"]])
    assert score_documents([doc], [doc]).score == 100.0


def test_resegment_substitution_drops_one_clipped_count():
    ref = SegmentedDocument([["a", "b", "c"], ["d", "e", "f"]])
    clean = SegmentedDocument([["a", "b", "c", "d"], ["e", "f"]])
    noisy = SegmentedDocument([["a", "b", "x", "d"], ["e", "f"]])
    base = score_documents([clean], [ref])
    worse = score_documents([noisy], [ref])
    assert base.score == 100.0
    base_matches = round(base.ngram_precisions[0] * 6)
    worse_matches = round(worse.ngram_precisions[0] * 6)
    assert base_matches - worse_matches == 1


def test_score_documents_pools_across_documents():
    refs = [SegmentedDocument([["a", "b"], ["c"]]), SegmentedDocument([["d", "e"]])]
    hyps = [SegmentedDocument([["a"], ["b", "c"]]), SegmentedDocument([["d", "e"]])]
    assert score_documents(hyps, refs).score == 100.0


def test_score_documents_count_mismatch():
    doc = SegmentedDocument([["a"]])
    with pytest.raises(ValueError):
        score_documents([doc], [doc, doc])


def test_resegmentation_identity_across_fixed_lengths():
    rng = np.random.default_rng(53)
    for _ in range(20):
        ref = random_document(rng, tokens=40, segments=6)
        for n in (1, 3, 7, 40):
            hyp = split_fixed_length(ref.tokens(), n)
            assert score_documents([hyp], [ref]).score == 100.0


def test_bucket_report_single_bucket():
    ref = SegmentedDocument([["a", "b", "c"], ["d", "e"]])
    report = bucket_report(ref, ref, bounds=((0, 20),))
    assert len(report.buckets) == 1
    assert report.buckets[0].count == 2
    assert report.buckets[0].mean_score == 100.0


def test_bucket_report_perfect_hypothesis():
    ref = SegmentedDocument([["a"] * 5, ["b"] * 25])
    report = bucket_report(ref, ref, bounds=((0, 20), (20, 40)))
    assert [b.count for b in report.buckets] == [1, 1]
    assert all(b.mean_score == 100.0 for b in report.buckets)


def test_bucket_report_assignment_by_reference_length():
    ref = SegmentedDocument([["a"] * 5, ["b"] * 25])
    hyp = SegmentedDocument([["a"] * 5 + ["b"] * 25])
    report = bucket_report(hyp, ref, bounds=((0, 20), (20, 40)))
    assert [b.count for b in report.buckets] == [1, 1]
    assert [(b.lower, b.upper) for b in report.buckets] == [(0, 20), (20, 40)]


def test_bucket_report_empty_bucket():
    ref = SegmentedDocument([["a", "b", "c"]])
    report = bucket_report(ref, ref, bounds=DEFAULT_BUCKET_BOUNDS)
    assert report.buckets[0].count == 1
    assert report.buckets[1].count == 0
    assert report.buckets[1].mean_score == 0.0


def test_bucket_report_ignores_out_of_range_lengths():
    ref = SegmentedDocument([["a"] * 70])
    report = bucket_report(ref, ref, bounds=DEFAULT_BUCKET_BOUNDS)
    assert all(b.count == 0 for b in report.buckets)


def test_bucket_report_smoothed_scores():
    ref = SegmentedDocument([["a", "b", "c", "d"]])
    hyp = SegmentedDocument([["a", "b", "x", "d"]])
    report = bucket_report(hyp, ref, bounds=((0, 20),))
    assert 0.0 < report.buckets[0].mean_score < 100.0


def test_bucket_report_invalid_bounds():
    doc = SegmentedDocument([["a"]])
    with pytest.raises(ValueError):
        bucket_report(doc, doc, bounds=())
    with pytest.raises(ValueError):
        bucket_report(doc, doc, bounds=((10, 5),))
    with pytest.raises(ValueError):
        bucket_report(doc, doc, bounds=((0, 20), (10, 30)))


def test_bucket_report_corpus_config_override():
    ref = SegmentedDocument([["a", "b"]])
    hyp = SegmentedDocument([["a", "c"]])
    unsmoothed = bucket_report(hyp, ref, bounds=((0, 20),), cfg=BleuConfig())
    assert unsmoothed.buckets[0].mean_score == 0.0
