"""String-tuple corpus BLEU, kept as the test oracle for ``segmt.bleu``.

This is the BLEU the package used before the vectorised statistics path:
each pair's n-grams are counted as string tuples in a ``Counter`` per order,
clipped against the reference and summed over the corpus before the float
finalisation.  It is slow but obviously correct, so the differential tests
compare the package against it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from segmt.bleu import (
    DEFAULT_CONFIG,
    SENTENCE_CONFIG,
    SMOOTHING_ADD_ONE,
    BleuConfig,
    BleuReport,
)


def _ngrams(tokens: Sequence[str], order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def corpus_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    cfg: BleuConfig = DEFAULT_CONFIG,
) -> BleuReport:
    """Corpus-level BLEU of paired hypothesis/reference segments.

    Hypothesis segments may be empty (they only contribute length); at least
    one reference must be non-empty.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not any(references):
        raise ValueError("all reference segments are empty")
    if not cfg.case_sensitive:
        hypotheses = [[tok.lower() for tok in seg] for seg in hypotheses]
        references = [[tok.lower() for tok in seg] for seg in references]

    orders = cfg.max_ngram_order
    matched = [0] * orders
    total = [0] * orders
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, orders + 1):
            hyp_counts = _ngrams(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, n)
            total[n - 1] += sum(hyp_counts.values())
            matched[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )

    precisions = []
    log_sum = 0.0
    used_orders = 0
    degenerate = False
    for n in range(1, orders + 1):
        num, den = matched[n - 1], total[n - 1]
        if den == 0:
            precisions.append(0.0)
            continue
        if cfg.smoothing == SMOOTHING_ADD_ONE and n > 1:
            p = (num + 1) / (den + 1)
        else:
            p = num / den
        precisions.append(p)
        used_orders += 1
        if p == 0.0:
            degenerate = True
        else:
            log_sum += math.log(p)

    if hyp_len == 0 or used_orders == 0:
        return BleuReport(0.0, precisions, 0.0, hyp_len, ref_len)
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if degenerate:
        return BleuReport(0.0, precisions, brevity, hyp_len, ref_len)
    score = 100.0 * brevity * math.exp(log_sum / used_orders)
    return BleuReport(score, precisions, brevity, hyp_len, ref_len)


def sentence_bleu(
    hypothesis: Sequence[str],
    reference: Sequence[str],
    cfg: BleuConfig = SENTENCE_CONFIG,
) -> BleuReport:
    """BLEU of a single segment pair (add-one smoothed by default)."""
    return corpus_bleu([hypothesis], [reference], cfg)
