import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bleu_oracle
from segmt import bleu
from segmt.bleu import (
    BleuConfig,
    SENTENCE_CONFIG,
    corpus_bleu,
    pair_statistics,
    pairwise_bleu,
    sentence_bleu,
)
from segmt.evaluate import bucket_report, resegment_hypothesis
from segmt.text import SegmentedDocument


def oracle_bleu(hypotheses, references, max_order=4, smoothing=False):
    """Straight-line reimplementation used as an independent check.

    Clips per segment, sums corpus-wide, excludes orders with no hypothesis
    n-grams, applies the brevity penalty for short hypotheses.
    """
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    logs = []
    for n in range(1, max_order + 1):
        num = 0
        den = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            den += sum(hyp_grams.values())
            num += sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        if den == 0:
            continue
        if smoothing and n > 1:
            p = (num + 1) / (den + 1)
        else:
            p = num / den
        if p == 0:
            return 0.0
        logs.append(math.log(p))
    if hyp_len == 0 or not logs:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(sum(logs) / len(logs))


def test_identical_corpus_scores_100():
    segs = [["the", "cat"], ["sat", "on", "the", "mat"]]
    assert corpus_bleu(segs, segs).score == 100.0


def test_identical_short_segments_score_100():
    # Segments shorter than the max order must still reach exactly 100.
    segs = [["a"], ["b"]]
    report = corpus_bleu(segs, segs)
    assert report.score == 100.0
    assert report.ngram_precisions[0] == 1.0
    assert report.ngram_precisions[1] == 0.0  # no bigrams anywhere


def test_clipped_unigram_precision():
    hyp = [["the"] * 7]
    ref = [["the", "cat", "is", "on", "the", "mat"]]
    report = corpus_bleu(hyp, ref)
    assert math.isclose(report.ngram_precisions[0], 2 / 7, rel_tol=1e-12)
    assert report.score == 0.0  # repeated unigram yields no matching bigrams


def test_empty_hypothesis_scores_zero():
    report = corpus_bleu([[]], [["a", "b"]])
    assert report.score == 0.0
    assert report.brevity_penalty == 0.0
    assert report.hyp_len == 0


def test_brevity_penalty_short_hypothesis():
    report = corpus_bleu([["a", "b", "c"]], [["a", "b", "c", "d"]])
    assert math.isclose(report.brevity_penalty, math.exp(1.0 - 4 / 3), rel_tol=1e-12)
    assert math.isclose(report.score, 100.0 * math.exp(-1 / 3), rel_tol=1e-12)


def test_no_penalty_for_long_hypothesis():
    report = corpus_bleu([["a", "b", "c", "d", "e"]], [["a", "b", "c"]])
    assert report.brevity_penalty == 1.0


def test_add_one_smoothing_sentence_level():
    report = sentence_bleu(["a", "b"], ["a", "c"])
    # p1 = 1/2 unsmoothed; p2 = (0+1)/(1+1); equal lengths, no penalty.
    assert math.isclose(report.score, 50.0, rel_tol=1e-12)


def test_unsmoothed_sentence_degenerate():
    report = sentence_bleu(["a", "b"], ["a", "c"], BleuConfig())
    assert report.score == 0.0


def test_case_sensitivity():
    assert corpus_bleu([["The"]], [["the"]]).score == 0.0
    insensitive = BleuConfig(case_sensitive=False)
    assert corpus_bleu([["The"]], [["the"]], insensitive).score == 100.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        corpus_bleu([["a"]], [["a"], ["b"]])


def test_all_empty_references_rejected():
    with pytest.raises(ValueError):
        corpus_bleu([["a"]], [[]])


def test_max_order_validation():
    with pytest.raises(ValueError):
        BleuConfig(max_ngram_order=0)
    with pytest.raises(ValueError):
        BleuConfig(smoothing="laplace")


def test_permutation_invariance():
    rng = np.random.default_rng(77)
    hyp = [[f"w{rng.integers(0, 6)}" for _ in range(rng.integers(1, 10))] for _ in range(20)]
    ref = [[f"w{rng.integers(0, 6)}" for _ in range(rng.integers(1, 10))] for _ in range(20)]
    base = corpus_bleu(hyp, ref)
    order = rng.permutation(20)
    shuffled = corpus_bleu([hyp[i] for i in order], [ref[i] for i in order])
    assert shuffled.score == base.score
    assert shuffled.ngram_precisions == base.ngram_precisions


def test_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(78)
    for _ in range(200):
        count = int(rng.integers(1, 8))
        hyp = [
            [f"w{rng.integers(0, 5)}" for _ in range(rng.integers(0, 9))] for _ in range(count)
        ]
        ref = [
            [f"w{rng.integers(0, 5)}" for _ in range(rng.integers(1, 9))] for _ in range(count)
        ]
        got = corpus_bleu(hyp, ref).score
        assert math.isclose(got, oracle_bleu(hyp, ref), rel_tol=1e-9, abs_tol=1e-9)
        smoothed = corpus_bleu(hyp, ref, BleuConfig(smoothing="add-one")).score
        assert math.isclose(
            smoothed, oracle_bleu(hyp, ref, smoothing=True), rel_tol=1e-9, abs_tol=1e-9
        )


def test_score_bounds():
    rng = np.random.default_rng(79)
    for _ in range(100):
        hyp = [[f"w{rng.integers(0, 3)}" for _ in range(rng.integers(0, 6))]]
        ref = [[f"w{rng.integers(0, 3)}" for _ in range(rng.integers(1, 6))]]
        report = corpus_bleu(hyp, ref, SENTENCE_CONFIG)
        assert 0.0 <= report.score <= 100.0
        assert 0.0 <= report.brevity_penalty <= 1.0


# ------------------------------------------- differential tests vs the oracle


def assert_plain_types(report):
    # numpy scalars would change the --json output.
    assert type(report.score) is float
    assert type(report.brevity_penalty) is float
    assert all(type(p) is float for p in report.ngram_precisions)
    assert type(report.hyp_len) is int
    assert type(report.ref_len) is int


configs_st = st.builds(
    BleuConfig,
    max_ngram_order=st.integers(1, 6),
    case_sensitive=st.booleans(),
    smoothing=st.sampled_from(["none", "add-one"]),
)


@st.composite
def corpora_st(draw, min_ref_len=0):
    """Tie-heavy pairs over 1-3 symbols, each in lower and upper case."""
    symbols = draw(st.sampled_from(["a", "ab", "abc"]))
    token = st.sampled_from(list(symbols) + list(symbols.upper()))
    count = draw(st.integers(1, 8))
    hyps = draw(st.lists(st.lists(token, max_size=12), min_size=count, max_size=count))
    refs = draw(
        st.lists(st.lists(token, min_size=min_ref_len, max_size=12), min_size=count, max_size=count)
    )
    return hyps, refs


@settings(max_examples=300, deadline=None)
@given(corpora_st(), configs_st, st.sampled_from([1, 3, 7, 20, bleu.BLOCK_TOKENS]))
def test_corpus_bleu_equals_oracle(corpus, cfg, block_tokens):
    hyps, refs = corpus
    with mock.patch.object(bleu, "BLOCK_TOKENS", block_tokens):
        if not any(refs):
            with pytest.raises(ValueError):
                corpus_bleu(hyps, refs, cfg)
            return
        report = corpus_bleu(hyps, refs, cfg)
    assert report == bleu_oracle.corpus_bleu(hyps, refs, cfg)
    assert_plain_types(report)


@settings(max_examples=300, deadline=None)
@given(corpora_st(min_ref_len=1), configs_st, st.sampled_from([1, 3, 7, 20, bleu.BLOCK_TOKENS]))
def test_pairwise_bleu_equals_oracle_per_pair(corpus, cfg, block_tokens):
    hyps, refs = corpus
    with mock.patch.object(bleu, "BLOCK_TOKENS", block_tokens):
        reports = pairwise_bleu(hyps, refs, cfg)
    assert reports == [bleu_oracle.sentence_bleu(h, r, cfg) for h, r in zip(hyps, refs)]
    for hyp, ref, report in zip(hyps, refs, reports):
        assert sentence_bleu(hyp, ref, cfg) == report
        assert_plain_types(report)


def test_corpus_larger_than_one_block_equals_oracle():
    rng = np.random.default_rng(80)
    words = ["a", "A", "b", "B", "c"]

    def segment(lo):
        return [words[k] for k in rng.integers(0, len(words), size=int(rng.integers(lo, 13)))]

    hyps = [segment(0) for _ in range(3000)]
    refs = [segment(1) for _ in range(3000)]
    assert sum(map(len, hyps + refs)) > 2 * bleu.BLOCK_TOKENS
    for cfg in (BleuConfig(), BleuConfig(max_ngram_order=6, case_sensitive=False), SENTENCE_CONFIG):
        report = corpus_bleu(hyps, refs, cfg)
        assert report == bleu_oracle.corpus_bleu(hyps, refs, cfg)
        assert_plain_types(report)
        stats = pair_statistics(hyps, refs, cfg)
        with mock.patch.object(bleu, "BLOCK_TOKENS", 10**9):
            whole = pair_statistics(hyps, refs, cfg)
        assert np.array_equal(stats.matched, whole.matched)
        assert np.array_equal(stats.total, whole.total)


def test_pair_statistics_counts():
    stats = pair_statistics([["a", "a", "b"], []], [["a", "b", "b"], ["a"]])
    assert stats.matched.tolist() == [[2, 1, 0, 0], [0, 0, 0, 0]]
    assert stats.total.tolist() == [[3, 2, 1, 0], [0, 0, 0, 0]]
    assert stats.hyp_len.tolist() == [3, 0]
    assert stats.ref_len.tolist() == [3, 1]
    with pytest.raises(ValueError):
        pair_statistics([["a"]], [["a"], ["b"]])


def test_pairwise_bleu_rejects_empty_reference():
    with pytest.raises(ValueError):
        pairwise_bleu([["a"], ["b"]], [["a"], []])


@st.composite
def documents_st(draw):
    symbols = draw(st.sampled_from(["a", "ab", "abc"]))
    token = st.sampled_from(list(symbols) + list(symbols.upper()))
    segments = st.lists(st.lists(token, min_size=1, max_size=12), min_size=1, max_size=6)
    count = draw(st.integers(1, 3))
    hyps = [SegmentedDocument(draw(segments)) for _ in range(count)]
    refs = [SegmentedDocument(draw(segments)) for _ in range(count)]
    return hyps, refs


@settings(max_examples=150, deadline=None)
@given(documents_st(), configs_st)
def test_bucket_report_equals_oracle_mean_sentence_bleu(docs, cfg):
    hyp_docs, ref_docs = docs
    bounds = ((0, 3), (3, 6), (7, 13))
    sums = [0.0] * len(bounds)
    counts = [0] * len(bounds)
    for hyp_doc, ref_doc in zip(hyp_docs, ref_docs):
        pieces = resegment_hypothesis(hyp_doc, ref_doc)
        for hyp, ref in zip(pieces, ref_doc.segments):
            for i, (lo, hi) in enumerate(bounds):
                if lo <= len(ref) < hi:
                    sums[i] += bleu_oracle.sentence_bleu(hyp, ref, cfg).score
                    counts[i] += 1
    report = bucket_report(hyp_docs, ref_docs, bounds, cfg)
    assert [b.count for b in report.buckets] == counts
    assert [b.mean_score for b in report.buckets] == [
        s / c if c else 0.0 for s, c in zip(sums, counts)
    ]
    assert all(type(b.mean_score) is float for b in report.buckets)
