"""Per-draw ``Generator`` loops, kept as the test oracle for ``segmt``'s scalar draws.

These are ``noise.corrupt_tokens`` and ``augment.build_training_mixture``
as the package ran them before ``rng.Stream``: one numpy call for every
``random()`` and every ``integers(n)``, and substitution candidates built
as a list.  They are slow but obviously draw what the generator gives, so
the differential tests compare the package against them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, TypeVar

from segmt.augment import MixtureSpec
from segmt.noise import NoiseConfig
from segmt.rng import make_rng
from segmt.text import SegmentedDocument

Item = TypeVar("Item")


def _substitute(token: str, vocabulary: Sequence[str], rng) -> str:
    candidates = [v for v in vocabulary if v != token] or list(vocabulary)
    return candidates[int(rng.integers(len(candidates)))]


def corrupt_tokens(doc: SegmentedDocument, cfg: NoiseConfig) -> SegmentedDocument:
    """``noise.corrupt_tokens``, drawing from the generator one call at a time."""
    if (cfg.substitution_rate > 0 or cfg.insertion_rate > 0) and not cfg.vocabulary:
        raise ValueError("substitution/insertion need a non-empty vocabulary")
    rng = make_rng(cfg.seed, "tokens", doc.doc_id)
    segments: List[List[str]] = []
    for seg in doc.segments:
        out: List[str] = []
        for tok in seg:
            draw = rng.random()
            if draw < cfg.substitution_rate:
                out.append(_substitute(tok, cfg.vocabulary, rng))
            elif draw >= cfg.substitution_rate + cfg.deletion_rate:
                out.append(tok)
            if cfg.insertion_rate > 0 and rng.random() < cfg.insertion_rate:
                out.append(cfg.vocabulary[int(rng.integers(len(cfg.vocabulary)))])
        if out:
            segments.append(out)
    return SegmentedDocument(segments, doc_id=doc.doc_id)


def build_training_mixture(
    corpora: Dict[str, Tuple[Sequence[Item], Sequence[Item]]],
    spec: MixtureSpec,
    total: int,
) -> List[Item]:
    """``augment.build_training_mixture``'s draws, one generator call at a time.

    Draws only: the caller passes corpora the package accepts.
    """
    labels = sorted(spec.corpus_weights)
    rng = make_rng(spec.seed, "mixture")
    out: List[Item] = []
    for _ in range(total):
        u = rng.random()
        running = 0.0
        label = labels[-1]
        for lab in labels:
            running += spec.corpus_weights[lab]
            if u < running:
                label = lab
                break
        originals, augmented = corpora[label]
        pool = augmented if rng.random() < spec.augmented_fraction else originals
        out.append(pool[int(rng.integers(len(pool)))])
    return out
