"""Cross-boundary data augmentation and training-data mixing.

The augmentation walks a bitext in corpus order, takes consecutive disjoint
sentence pairs, concatenates them, and truncates each side proportionally:
a shared truncation fraction ``p`` is drawn once per pair, then each of the
four sequences drops or keeps ``ceil(p * len)`` tokens.  The result imitates
a sentence that starts or breaks in the wrong place while keeping most of
the first sentence's content and a short continuation from the second.
Pairs are the canonical ``source<TAB>target`` lines of
``formats.read_bitext_lines``, cut without splitting them into token lists.

Mixing builds a training stream by repeatedly sampling a corpus by weight,
then an original-versus-augmented pool, then a pair within the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

from .rng import Stream, uniforms
from .text import InputError

Item = TypeVar("Item")


@dataclass(frozen=True)
class AugmentationConfig:
    """Augmentation knobs: truncation-fraction cap and RNG seed."""

    p_max: float = 0.3
    seed: Optional[int] = None  # unset: CLI falls back to the top-level seed; draws as 0

    def __post_init__(self):
        if not 0 < self.p_max <= 1:
            raise ValueError("p_max must be in (0, 1]")


@dataclass(frozen=True)
class MixtureSpec:
    """Sampling proportions for the training mixture.

    ``corpus_weights`` sets how often each corpus is drawn;
    ``augmented_fraction`` sets how often a draw comes from the augmented
    pool rather than the originals.
    """

    corpus_weights: Dict[str, float] = field(default_factory=dict)
    augmented_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not self.corpus_weights:
            raise ValueError("corpus_weights must not be empty")
        for label, weight in self.corpus_weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for corpus {label!r}")
        total = sum(self.corpus_weights.values())
        if not abs(total - 1.0) <= 1e-9:  # a NaN weight makes a NaN total, which fails too
            raise ValueError(f"corpus weights must sum to 1, got {total}")
        if not 0 <= self.augmented_fraction <= 1:
            raise ValueError("augmented_fraction must be in [0, 1]")


def _truncation(p: float, length: int) -> int:
    if p < 0:
        raise ValueError("p must be non-negative")
    return math.ceil(p * length)


def augment_line(first: str, second: str, p: float) -> str:
    """Each side keeps its last ``len - ceil(p*len)`` tokens and takes the first ``ceil(p*len)``
    of the next line's side (``split(" ", k)`` cuts after k tokens).  ``p = 0`` returns ``first``;
    any ``p > 0`` takes a token of each next side, so no output side is empty."""
    sides = []
    for head, tail in zip(first.split("\t"), second.split("\t")):
        length = head.count(" ") + 1
        drop = _truncation(p, length)
        kept = head.split(" ", drop)[drop] if drop < length else ""
        take = _truncation(p, tail.count(" ") + 1)
        taken = " ".join(tail.split(" ", take)[:take])
        sides.append(f"{kept} {taken}" if kept and taken else kept or taken)
    return "\t".join(sides)


def augment_blocks(blocks: Sequence[Sequence[str]], cfg: AugmentationConfig) -> List[List[str]]:
    """Merge lines (0,1), (2,3), ... of every document with :func:`augment_line`.

    Lines are numbered in corpus order, across documents.  Each merge draws
    ``p`` uniformly from [0, p_max) with a sub-stream derived from (seed,
    index of its first line), so results do not depend on processing order;
    the fractions of all documents come from one ``rng.uniforms`` call.  A
    document's trailing unpaired line passes through unmodified.
    """
    indices: List[int] = []
    offset = 0
    for block in blocks:
        indices.extend(range(offset, offset + len(block) - 1, 2))
        offset += len(block)
    fractions = iter(uniforms(cfg.seed, indices, cfg.p_max))
    out = []
    for block in blocks:
        pairs = range(0, len(block) - 1, 2)
        merged = [augment_line(block[i], block[i + 1], next(fractions)) for i in pairs]
        if len(block) % 2 == 1:
            merged.append(block[-1])
        out.append(merged)
    return out


def build_training_mixture(
    corpora: Dict[str, Tuple[Sequence[Item], Sequence[Item]]],
    spec: MixtureSpec,
    total: int,
) -> List[Item]:
    """Sample ``total`` pairs with replacement according to the mixture spec.

    ``corpora`` maps each label to its (originals, augmented) pools, whose
    items may be anything standing for a pair (``mix`` uses ``(label, line)``).
    Each draw picks a corpus by weight, then the augmented pool with probability
    ``augmented_fraction`` (originals otherwise), then a uniform element.
    Fully determined by ``spec.seed``.
    """
    labels = sorted(spec.corpus_weights)
    for label in labels:
        if label not in corpora:
            raise ValueError(f"mixture references unknown corpus {label!r}")
        originals, augmented = corpora[label]
        if not originals:
            raise InputError(f"corpus {label!r} has no original pairs")
        if spec.augmented_fraction > 0 and not augmented:
            raise InputError(
                f"corpus {label!r} has no augmented pairs but augmented_fraction > 0"
            )
    cumulative = []
    running = 0.0
    for label in labels:
        running += spec.corpus_weights[label]
        cumulative.append((running, label))

    rng = Stream(spec.seed, "mixture")
    out: List[Item] = []
    for _ in range(total):
        u = rng.random()
        label = labels[-1]  # guards against the cumulative sum rounding below 1
        for bound, lab in cumulative:
            if u < bound:
                label = lab
                break
        originals, augmented = corpora[label]
        pool = augmented if rng.random() < spec.augmented_fraction else originals
        out.append(pool[rng.integers(len(pool))])
    return out
