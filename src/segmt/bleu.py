"""Corpus BLEU with modified n-gram precision and brevity penalty.

Scores are on the 0-100 scale: geometric mean of clipped n-gram precisions
over orders 1..max, times a brevity penalty for short hypotheses.  Counts
are clipped per segment against the single reference and summed over the
corpus before any ratio is taken, so aggregation is order-independent.

Scoring is extract-then-finalise: :func:`pair_statistics` counts, for every
(hypothesis, reference) pair at once, the clipped matches and hypothesis
n-grams per order plus both lengths; a corpus score sums those integers
and finalises once, a sentence score finalises one pair.

Orders for which the hypothesis corpus contains no n-grams at all carry no
evidence and are excluded from the geometric mean; this keeps an identical
corpus at exactly 100 even when every segment is shorter than the maximum
order.  Optional add-one smoothing (orders above 1) supports sentence-level
scores, which are degenerate unsmoothed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, List, Sequence

from .text import InputError

if TYPE_CHECKING:
    import numpy as np

SMOOTHING_NONE = "none"
SMOOTHING_ADD_ONE = "add-one"

#: Pairs are counted in blocks of about this many tokens (both sides), so
#: the transient per-token arrays stay small on large corpora.
BLOCK_TOKENS = 8192


@dataclass(frozen=True)
class BleuConfig:
    max_ngram_order: int = 4
    case_sensitive: bool = True
    smoothing: str = SMOOTHING_NONE

    def __post_init__(self):
        if self.max_ngram_order < 1:
            raise ValueError("max_ngram_order must be >= 1")
        if self.smoothing not in (SMOOTHING_NONE, SMOOTHING_ADD_ONE):
            raise ValueError(f"unknown smoothing {self.smoothing!r}")


DEFAULT_CONFIG = BleuConfig()
#: Sentence-level scoring config: add-one smoothing for orders above 1.
SENTENCE_CONFIG = BleuConfig(smoothing=SMOOTHING_ADD_ONE)


@dataclass
class BleuReport:
    """Corpus score with its components.

    ``ngram_precisions`` holds the effective per-order precisions that enter
    the geometric mean (smoothed when smoothing is on; 0.0 for orders with
    no hypothesis n-grams, which are excluded from the mean).
    """

    score: float
    ngram_precisions: List[float] = field(default_factory=list)
    brevity_penalty: float = 1.0
    hyp_len: int = 0
    ref_len: int = 0


@dataclass
class PairStatistics:
    """Sufficient BLEU statistics of each (hypothesis, reference) pair.

    Row ``i`` of ``matched`` and ``total`` holds pair ``i``'s clipped
    n-gram matches and hypothesis n-gram counts, column ``n - 1`` for order
    ``n``; ``hyp_len`` and ``ref_len`` are the pairs' token counts.  All
    arrays are int64.
    """

    matched: np.ndarray
    total: np.ndarray
    hyp_len: np.ndarray
    ref_len: np.ndarray


def pair_statistics(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    cfg: BleuConfig = DEFAULT_CONFIG,
) -> PairStatistics:
    """Count the clipped n-gram matches of every pair in one vectorised pass.

    Tokens (case-folded first when ``cfg.case_sensitive`` is off) are
    interned to integer ids.  Within a block of pairs, the order-n code of
    a position is the dense rank of (its order n-1 code, the id n-1 tokens
    on), where the order-0 code is the pair index; a position has an
    order-n code only if its n-gram stays inside its segment.  Codes thus
    name (pair, n-gram), so each side's per-code count is one ``bincount``
    and the clipped matches of a pair are the sum of the smaller counts of
    its codes.
    """
    import numpy as np

    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    orders = cfg.max_ngram_order
    pairs = len(hypotheses)
    hyp_len = np.fromiter(map(len, hypotheses), np.int64, pairs)
    ref_len = np.fromiter(map(len, references), np.int64, pairs)
    total = np.maximum(hyp_len[:, None] - np.arange(orders), 0)
    matched = np.zeros((pairs, orders), np.int64)

    sizes = (hyp_len + ref_len).tolist()
    start = 0
    while start < pairs:
        stop, block_tokens = start, 0
        while stop < pairs and (stop == start or block_tokens + sizes[stop] <= BLOCK_TOKENS):
            block_tokens += sizes[stop]
            stop += 1
        tokens = list(chain.from_iterable((*hypotheses[start:stop], *references[start:stop])))
        if not cfg.case_sensitive:
            tokens = [tok.lower() for tok in tokens]
        # A token's id is the block position where it first occurs.
        ids = np.fromiter(map({}.setdefault, tokens, range(len(tokens))), np.int64, len(tokens))
        width = max(len(tokens), 1)
        lengths = np.concatenate((hyp_len[start:stop], ref_len[start:stop]))
        seg_end = np.repeat(np.cumsum(lengths), lengths)
        hyp_tokens = int(hyp_len[start:stop].sum())
        block = stop - start
        # Order-0 codes: the pair index of every position, for both sides.
        code = np.repeat(np.tile(np.arange(block), 2), lengths)
        pair_of_code = np.arange(block)
        pos = np.arange(len(ids))
        for n in range(orders):
            keep = pos + n < seg_end[pos]
            pos = pos[keep]
            unique, code = np.unique(code[keep] * width + ids[pos + n], return_inverse=True)
            pair_of_code = pair_of_code[unique // width]
            split = int(np.searchsorted(pos, hyp_tokens))
            clipped = np.minimum(
                np.bincount(code[:split], minlength=len(unique)),
                np.bincount(code[split:], minlength=len(unique)),
            )
            matched[start:stop, n] = np.bincount(pair_of_code, weights=clipped, minlength=block)
        start = stop
    return PairStatistics(matched, total, hyp_len, ref_len)


def _finalise(
    matched: List[int], total: List[int], hyp_len: int, ref_len: int, cfg: BleuConfig
) -> BleuReport:
    """BLEU from summed statistics; the arguments are Python ints, not numpy scalars."""
    precisions = []
    log_sum = 0.0
    used_orders = 0
    degenerate = False
    for n in range(1, cfg.max_ngram_order + 1):
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


def corpus_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    cfg: BleuConfig = DEFAULT_CONFIG,
) -> BleuReport:
    """Corpus-level BLEU of paired hypothesis/reference segments.

    Hypothesis segments may be empty (they only contribute length); at least
    one reference must be non-empty.
    """
    stats = pair_statistics(hypotheses, references, cfg)
    ref_len = int(stats.ref_len.sum())
    if ref_len == 0:
        raise InputError("all reference segments are empty")
    return _finalise(
        stats.matched.sum(axis=0).tolist(),
        stats.total.sum(axis=0).tolist(),
        int(stats.hyp_len.sum()),
        ref_len,
        cfg,
    )


def sentence_bleu(
    hypothesis: Sequence[str],
    reference: Sequence[str],
    cfg: BleuConfig = SENTENCE_CONFIG,
) -> BleuReport:
    """BLEU of a single segment pair (add-one smoothed by default)."""
    return corpus_bleu([hypothesis], [reference], cfg)


def pairwise_bleu(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    cfg: BleuConfig = SENTENCE_CONFIG,
) -> List[BleuReport]:
    """:func:`sentence_bleu` of every pair, from one statistics pass."""
    stats = pair_statistics(hypotheses, references, cfg)
    ref_lens = stats.ref_len.tolist()
    if 0 in ref_lens:
        raise ValueError(f"reference segment {ref_lens.index(0)} is empty")
    return [
        _finalise(matched, total, hyp_len, ref_len, cfg)
        for matched, total, hyp_len, ref_len in zip(
            stats.matched.tolist(), stats.total.tolist(), stats.hyp_len.tolist(), ref_lens
        )
    ]
