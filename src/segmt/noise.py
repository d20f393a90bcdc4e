"""Synthetic transcript corruption for pipeline testing and demos.

Stands in for a real speech recognizer at desk scale: token corruption
(substitute/delete/insert against a vocabulary) and boundary corruption
(merge or split segments without touching tokens).  All draws come from a
per-document sub-stream derived from (seed, doc_id), so corruption is
reproducible and independent of processing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .rng import make_rng
from .text import SegmentedDocument, flatten, rebuild


@dataclass(frozen=True)
class NoiseConfig:
    substitution_rate: float = 0.0
    deletion_rate: float = 0.0
    insertion_rate: float = 0.0
    boundary_merge_rate: float = 0.0
    boundary_split_rate: float = 0.0
    vocabulary: Tuple[str, ...] = ()
    seed: Optional[int] = None  # unset: CLI falls back to the top-level seed; draws as 0

    def __post_init__(self):
        rates = (
            self.substitution_rate,
            self.deletion_rate,
            self.insertion_rate,
            self.boundary_merge_rate,
            self.boundary_split_rate,
        )
        for rate in rates:
            if not 0 <= rate <= 1:
                raise ValueError(f"rates must lie in [0, 1], got {rate}")
        total = self.substitution_rate + self.deletion_rate + self.insertion_rate
        # Small slack so rates like 0.3 + 0.3 + 0.4 pass despite float rounding.
        if total > 1 + 1e-9:
            raise ValueError("substitution + deletion + insertion rates must sum to <= 1")


def _substitute(token: str, vocabulary: Sequence[str], rng) -> str:
    # Prefer a replacement different from the original so the edit is visible.
    candidates = [v for v in vocabulary if v != token]
    if not candidates:
        candidates = list(vocabulary)
    return candidates[int(rng.integers(len(candidates)))]


def corrupt_tokens(doc: SegmentedDocument, cfg: NoiseConfig) -> SegmentedDocument:
    """Independently substitute, delete, or keep each token; insert after it.

    Boundaries re-anchor to the surviving tokens: segments keep their
    identity, and segments whose tokens all disappear are dropped.
    """
    if (cfg.substitution_rate > 0 or cfg.insertion_rate > 0) and not cfg.vocabulary:
        raise ValueError("substitution/insertion need a non-empty vocabulary")
    rng = make_rng(cfg.seed, "tokens", doc.doc_id)
    sub_cut = cfg.substitution_rate
    del_cut = cfg.substitution_rate + cfg.deletion_rate
    segments: List[List[str]] = []
    for seg in doc.segments:
        out: List[str] = []
        for tok in seg:
            draw = rng.random()
            if draw < sub_cut:
                out.append(_substitute(tok, cfg.vocabulary, rng))
            elif draw < del_cut:
                pass
            else:
                out.append(tok)
            if cfg.insertion_rate > 0 and rng.random() < cfg.insertion_rate:
                out.append(cfg.vocabulary[int(rng.integers(len(cfg.vocabulary)))])
        if out:
            segments.append(out)
    return SegmentedDocument(segments, doc_id=doc.doc_id)


def corrupt_boundaries(doc: SegmentedDocument, cfg: NoiseConfig) -> SegmentedDocument:
    """Merge or split segments at random while leaving tokens untouched.

    Every internal boundary survives with probability 1 - merge rate; every
    non-boundary gap becomes a boundary with the split rate.  The final
    boundary is always preserved.
    """
    tokens, boundaries = flatten(doc)
    if len(tokens) <= 1:
        return SegmentedDocument([list(seg) for seg in doc.segments], doc_id=doc.doc_id)
    rng = make_rng(cfg.seed, "boundaries", doc.doc_id)
    internal = set(boundaries.positions[:-1])
    kept: List[int] = []
    for gap in range(len(tokens) - 1):
        draw = rng.random()
        if gap in internal:
            if draw >= cfg.boundary_merge_rate:
                kept.append(gap)
        elif draw < cfg.boundary_split_rate:
            kept.append(gap)
    return rebuild(tokens, kept, doc_id=doc.doc_id)
