"""Synthetic transcript corruption for pipeline testing and demos.

Stands in for a real speech recognizer at desk scale: token corruption
(substitute/delete/insert against a vocabulary) and boundary corruption
(merge or split segments without touching tokens).  All draws come from a
per-document sub-stream derived from (seed, doc_id), so corruption is
reproducible and independent of processing order.

``corpus_corruption`` runs both passes over a corpus: it seeds every
document's two streams in one pass and draws them all from one PCG64
(``rng.bit_generators``).  ``corrupt_tokens`` and ``corrupt_boundaries`` are
one pass over one document, seeded by ``make_rng``, which is cheaper for a
single stream; all three share the loops below.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .rng import Stream, bit_generators, make_rng
from .text import InputError, SegmentedDocument, _cut, flatten


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


def _raw_cut(rate: float) -> int:
    """The bound ``t`` for which ``random() < rate`` holds exactly when the output is below ``t``.

    ``random()`` is ``(raw >> 11) * 2**-53``, and ``rate * 2**53`` is exact, so
    ``random() < rate`` is ``raw >> 11 < ceil(rate * 2**53)``.
    """
    return math.ceil(rate * 2**53) << 11


def _token_pass(
    docs: Iterable[SegmentedDocument], cfg: NoiseConfig, streams: Iterable[Stream]
) -> List[SegmentedDocument]:
    # corrupt_tokens on each document, drawing from the matching stream.  Each
    # uniform is compared as the raw output it comes from; the deletion cut
    # stays the float sum of the rates.  A zero insertion cut draws nothing.
    if (cfg.substitution_rate > 0 or cfg.insertion_rate > 0) and not cfg.vocabulary:
        raise InputError("substitution/insertion need a non-empty vocabulary")
    sub_cut = _raw_cut(cfg.substitution_rate)
    del_cut = _raw_cut(cfg.substitution_rate + cfg.deletion_rate)
    ins_cut = _raw_cut(cfg.insertion_rate)
    vocabulary = cfg.vocabulary
    corrupted = []
    for doc, rng in zip(docs, streams):
        raw = rng.raw
        segments: List[List[str]] = []
        for seg in doc.segments:
            out: List[str] = []
            for tok in seg:
                draw = raw()
                if draw < sub_cut:
                    out.append(_substitute(tok, cfg, rng))
                elif draw >= del_cut:
                    out.append(tok)
                if ins_cut and raw() < ins_cut:
                    out.append(vocabulary[rng.integers(len(vocabulary))])
            if out:
                segments.append(out)
        corrupted.append(SegmentedDocument(segments, doc_id=doc.doc_id))
    return corrupted


def _boundary_pass(
    docs: Sequence[SegmentedDocument], cfg: NoiseConfig, generators: Iterable
) -> List[SegmentedDocument]:
    # corrupt_boundaries on each document, drawing from the matching bit
    # generator, which is read before the next is taken.  The draws of every
    # document are compared in one array.
    import numpy as np

    flat = [flatten(doc) for doc in docs]
    draws = [
        bit_generator.random_raw(len(tokens) - 1)
        for (tokens, _), bit_generator in zip(flat, generators)
        if len(tokens) > 1
    ]
    starts = [0]
    internal = []  # the draws, across documents, of gaps that are boundaries
    for tokens, boundaries in flat:
        internal += [starts[-1] + k for k in boundaries[:-1]]
        starts.append(starts[-1] + max(len(tokens) - 1, 0))
    raw = np.concatenate(draws) if draws else np.zeros(0, dtype=np.uint64)
    uniform = (raw >> 11) * 2.0**-53  # as Generator.random
    is_boundary = np.zeros(len(uniform), dtype=bool)
    is_boundary[internal] = True
    kept = np.flatnonzero(
        np.where(is_boundary, uniform >= cfg.boundary_merge_rate, uniform < cfg.boundary_split_rate)
    )
    cuts = np.searchsorted(kept, starts).tolist()
    kept = kept.tolist()
    # A document's kept gaps are sorted and come before its last token, which ends the last segment.
    return [
        SegmentedDocument(
            _cut(tokens, [k - start for k in kept[lo:hi]] + [len(tokens) - 1]) if tokens else [],
            doc_id=doc.doc_id,
        )
        for (tokens, _), doc, start, lo, hi in zip(flat, docs, starts, cuts, cuts[1:])
    ]


def corpus_corruption(docs: Sequence[SegmentedDocument], cfg: NoiseConfig) -> List[SegmentedDocument]:
    """``corrupt_boundaries(corrupt_tokens(doc, cfg), cfg)`` for every document, in one pass each.

    The streams of every document, ``(seed, "tokens", doc_id)`` then
    ``(seed, "boundaries", doc_id)``, are seeded in one pass and drawn from
    one PCG64, one stream after the other.
    """
    if not docs:  # draws nothing, so it needs no vocabulary
        return []
    ids = [doc.doc_id for doc in docs]
    generators = bit_generators(cfg.seed, [("tokens", i) for i in ids] + [("boundaries", i) for i in ids])
    corrupted = _token_pass(docs, cfg, map(Stream.resume, generators))
    return _boundary_pass(corrupted, cfg, generators)


def corrupt_tokens(doc: SegmentedDocument, cfg: NoiseConfig) -> SegmentedDocument:
    """Independently substitute, delete, or keep each token; insert after it.

    Boundaries re-anchor to the surviving tokens: segments keep their
    identity, and segments whose tokens all disappear are dropped.
    """
    return _token_pass([doc], cfg, [Stream(cfg.seed, "tokens", doc.doc_id)])[0]


def corrupt_boundaries(doc: SegmentedDocument, cfg: NoiseConfig) -> SegmentedDocument:
    """Merge or split segments at random while leaving tokens untouched.

    Every internal boundary survives with probability 1 - merge rate; every
    non-boundary gap becomes a boundary with the split rate.  The final
    boundary is always preserved.
    """
    generator = make_rng(cfg.seed, "boundaries", doc.doc_id).bit_generator
    return _boundary_pass([doc], cfg, [generator])[0]
