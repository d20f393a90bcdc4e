"""Synthetic transcript corruption for pipeline testing and demos.

Stands in for a real speech recognizer at desk scale: token corruption
(substitute/delete/insert against a vocabulary) and boundary corruption
(merge or split segments without touching tokens).  All draws come from a
per-document sub-stream derived from (seed, doc_id), so corruption is
reproducible and independent of processing order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .rng import Stream, make_rng
from .text import InputError, SegmentedDocument, flatten, rebuild


@dataclass(frozen=True)
class NoiseConfig:
    substitution_rate: float = 0.0
    deletion_rate: float = 0.0
    insertion_rate: float = 0.0
    boundary_merge_rate: float = 0.0
    boundary_split_rate: float = 0.0
    vocabulary: Tuple[str, ...] = ()
    seed: Optional[int] = None  # unset: the CLI's settings give it the top-level seed; draws as 0
    # Derived from ``vocabulary``: for each token, the number of other
    # entries before each of its occurrences (see ``_substitute``).
    _others_before: Dict[str, List[int]] = field(init=False, repr=False, compare=False)

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
        if " ".join(self.vocabulary).split() != list(self.vocabulary):
            bad = next(entry for entry in self.vocabulary if entry.split() != [entry])
            raise ValueError(f"vocabulary entries must be single tokens, got {bad!r}")
        others_before: Dict[str, List[int]] = {}
        for position, token in enumerate(self.vocabulary):
            occurrences = others_before.setdefault(token, [])
            occurrences.append(position - len(occurrences))
        object.__setattr__(self, "_others_before", others_before)


def _substitute(token: str, cfg: NoiseConfig, rng) -> str:
    """Draw a vocabulary entry other than ``token``, or any entry if all equal it.

    Draws the k-th entry of ``[v for v in cfg.vocabulary if v != token]``
    without building that list: it sits at position k + m, where m counts
    the occurrences of ``token`` with fewer than k + 1 other entries before
    them.
    """
    vocabulary = cfg.vocabulary
    others_before = cfg._others_before.get(token, ())
    if len(others_before) == len(vocabulary):
        return vocabulary[rng.integers(len(vocabulary))]
    k = rng.integers(len(vocabulary) - len(others_before))
    return vocabulary[k + bisect_right(others_before, k)]


def corrupt_tokens(doc: SegmentedDocument, cfg: NoiseConfig) -> SegmentedDocument:
    """Independently substitute, delete, or keep each token; insert after it.

    Boundaries re-anchor to the surviving tokens: segments keep their
    identity, and segments whose tokens all disappear are dropped.
    """
    if (cfg.substitution_rate > 0 or cfg.insertion_rate > 0) and not cfg.vocabulary:
        raise InputError("substitution/insertion need a non-empty vocabulary")
    rng = Stream(cfg.seed, "tokens", doc.doc_id)
    sub_cut = cfg.substitution_rate
    del_cut = cfg.substitution_rate + cfg.deletion_rate
    segments: List[List[str]] = []
    for seg in doc.segments:
        out: List[str] = []
        for tok in seg:
            draw = rng.random()
            if draw < sub_cut:
                out.append(_substitute(tok, cfg, rng))
            elif draw < del_cut:
                pass
            else:
                out.append(tok)
            if cfg.insertion_rate > 0 and rng.random() < cfg.insertion_rate:
                out.append(cfg.vocabulary[rng.integers(len(cfg.vocabulary))])
        if out:
            segments.append(out)
    return SegmentedDocument(segments, doc_id=doc.doc_id)


def corrupt_boundaries(doc: SegmentedDocument, cfg: NoiseConfig) -> SegmentedDocument:
    """Merge or split segments at random while leaving tokens untouched.

    Every internal boundary survives with probability 1 - merge rate; every
    non-boundary gap becomes a boundary with the split rate.  The final
    boundary is always preserved.
    """
    import numpy as np

    tokens, boundaries = flatten(doc)
    if len(tokens) <= 1:
        return SegmentedDocument([list(seg) for seg in doc.segments], doc_id=doc.doc_id)
    draws = make_rng(cfg.seed, "boundaries", doc.doc_id).random(len(tokens) - 1)
    internal = np.zeros(len(draws), dtype=bool)
    internal[boundaries[:-1]] = True
    kept = np.where(internal, draws >= cfg.boundary_merge_rate, draws < cfg.boundary_split_rate)
    return rebuild(tokens, np.flatnonzero(kept).tolist(), doc_id=doc.doc_id)
