"""Document-level scoring through boundary projection, and error isolation.

When a hypothesis document's segmentation does not match the reference's,
its segments cannot be scored pairwise.  The reference boundaries are
instead projected onto the hypothesis token stream via token alignment,
giving one hypothesis piece per reference segment; those pairs are then
scored with case-sensitive corpus BLEU.  Alignment for the projection is
case- and punctuation-insensitive, but scoring sees the original tokens.

Error isolation builds the two single-error-class variants of a (gold,
system) transcript pair: system tokens re-cut with gold boundaries, and
gold tokens re-cut with system boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .align import ALIGNMENT_NORMALIZATION, corpus_cross_project, corpus_positions, project_positions
from .bleu import BleuConfig, BleuReport, DEFAULT_CONFIG as DEFAULT_BLEU, SENTENCE_CONFIG, corpus_bleu, pairwise_bleu
from .text import NormalizationPolicy, SegmentedDocument, _cut, paired_documents

#: Reference-length bucket bounds used by the length breakdown, as
#: (inclusive lower, exclusive upper) pairs.
DEFAULT_BUCKET_BOUNDS = ((0, 20), (20, 40), (40, 60))


@dataclass
class ErrorVariantSet:
    """A transcript pair plus its two single-error-class variants.

    ``recognition_errors`` carries the system tokens under gold boundaries
    (token errors only); ``segmentation_errors`` carries the gold tokens
    under system boundaries (boundary errors only).
    """

    gold: SegmentedDocument
    system: SegmentedDocument
    recognition_errors: SegmentedDocument
    segmentation_errors: SegmentedDocument


@dataclass
class LengthBucket:
    """Mean sentence score over reference segments in [lower, upper)."""

    lower: int
    upper: int
    mean_score: float
    count: int


@dataclass
class LengthBucketReport:
    buckets: List[LengthBucket]


def make_error_variants(
    gold: SegmentedDocument,
    system: SegmentedDocument,
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> ErrorVariantSet:
    """Isolate token errors from boundary errors by cross-projection."""
    return corpus_error_variants([(gold, system)], policy)[0]


def corpus_error_variants(
    pairs: Sequence[Tuple[SegmentedDocument, SegmentedDocument]],
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> List[ErrorVariantSet]:
    """``make_error_variants`` of every ``(gold, system)`` pair, in one lane pass over the corpus."""
    for gold, system in pairs:
        if not gold.segments or not system.segments:
            raise ValueError("error variants need non-empty gold and system documents")
    return [
        ErrorVariantSet(
            gold=gold,
            system=system,
            recognition_errors=SegmentedDocument(recognition.segments, doc_id=system.doc_id),
            segmentation_errors=SegmentedDocument(segmentation.segments, doc_id=gold.doc_id),
        )
        for (gold, system), (recognition, segmentation) in zip(
            pairs, corpus_cross_project(pairs, policy)
        )
    ]


def resegment_hypothesis(
    hyp_doc: SegmentedDocument,
    ref_doc: SegmentedDocument,
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> List[List[str]]:
    """Cut the hypothesis token stream into one piece per reference segment.

    Reference boundaries are mapped onto the hypothesis tokens; boundaries
    that collapse onto the same position yield empty pieces, so the result
    always pairs 1:1 with the reference segments and concatenates back to
    the hypothesis tokens.  The final piece always extends to the end.
    """
    hyp_tokens = hyp_doc.tokens()
    return _pieces(hyp_tokens, project_positions(ref_doc, hyp_tokens, policy))


def _pieces(hyp_tokens: List[str], ends: List[int]) -> List[List[str]]:
    """``hyp_tokens`` cut at projected ``ends``, the last piece extended to the end."""
    if ends:
        ends[-1] = len(hyp_tokens) - 1
    return _cut(hyp_tokens, ends)


def score_documents(
    hyp_docs: Sequence[SegmentedDocument],
    ref_docs: Sequence[SegmentedDocument],
    cfg: BleuConfig = DEFAULT_BLEU,
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> BleuReport:
    """Resegment each hypothesis document and score the pooled corpus."""
    hyp_segments, ref_segments = _paired_segments(hyp_docs, ref_docs, policy)
    return corpus_bleu(hyp_segments, ref_segments, cfg)


def _paired_segments(
    hyp_docs: Sequence[SegmentedDocument],
    ref_docs: Sequence[SegmentedDocument],
    policy: NormalizationPolicy,
) -> Tuple[List[List[str]], List[List[str]]]:
    hyp_segments: List[List[str]] = []
    ref_segments: List[List[str]] = []
    pairs = [(ref_doc, hyp_doc.tokens()) for hyp_doc, ref_doc in paired_documents(hyp_docs, ref_docs)]
    for (ref_doc, hyp_tokens), ends in zip(pairs, corpus_positions(pairs, policy)):
        hyp_segments.extend(_pieces(hyp_tokens, ends))
        ref_segments.extend(ref_doc.segments)
    return hyp_segments, ref_segments


def bucket_report(
    hyp_docs,
    ref_docs,
    bounds: Sequence[Tuple[int, int]] = DEFAULT_BUCKET_BOUNDS,
    cfg: BleuConfig = SENTENCE_CONFIG,
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> LengthBucketReport:
    """Per-length-bucket mean sentence BLEU after resegmentation.

    Accepts single documents or equal-length sequences of documents.  Each
    resegmented (hypothesis, reference) pair is bucketed by reference
    segment length; sentence scores use add-one smoothing by default.
    Buckets must be disjoint and ordered; reference segments outside every
    bucket are ignored; empty buckets report count 0 and mean 0.0.
    """
    if isinstance(hyp_docs, SegmentedDocument):
        hyp_docs = [hyp_docs]
    if isinstance(ref_docs, SegmentedDocument):
        ref_docs = [ref_docs]
    _validate_bounds(bounds)
    hyp_segments, ref_segments = _paired_segments(hyp_docs, ref_docs, policy)

    sums = [0.0] * len(bounds)
    counts = [0] * len(bounds)
    for ref, report in zip(ref_segments, pairwise_bleu(hyp_segments, ref_segments, cfg)):
        index = _bucket_index(len(ref), bounds)
        if index is None:
            continue
        sums[index] += report.score
        counts[index] += 1
    buckets = [
        LengthBucket(
            lower=lo,
            upper=hi,
            mean_score=sums[i] / counts[i] if counts[i] else 0.0,
            count=counts[i],
        )
        for i, (lo, hi) in enumerate(bounds)
    ]
    return LengthBucketReport(buckets)


def _validate_bounds(bounds: Sequence[Tuple[int, int]]) -> None:
    if not bounds:
        raise ValueError("at least one bucket is required")
    prev_hi: Optional[int] = None
    for lo, hi in bounds:
        if hi <= lo:
            raise ValueError(f"empty bucket bounds ({lo}, {hi})")
        if prev_hi is not None and lo < prev_hi:
            raise ValueError("bucket bounds must be disjoint and ordered")
        prev_hi = hi


def _bucket_index(length: int, bounds: Sequence[Tuple[int, int]]) -> Optional[int]:
    for i, (lo, hi) in enumerate(bounds):
        if lo <= length < hi:
            return i
    return None
