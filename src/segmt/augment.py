"""Cross-boundary data augmentation and training-data mixing.

The augmentation walks a bitext in corpus order, takes consecutive disjoint
sentence pairs, concatenates them, and truncates each side proportionally:
a shared truncation fraction ``p`` is drawn once per pair, then each of the
four sequences drops or keeps ``ceil(p * len)`` tokens.  The result imitates
a sentence that starts or breaks in the wrong place while keeping most of
the first sentence's content and a short continuation from the second.

Mixing builds a training stream by repeatedly sampling a corpus by weight,
then an original-versus-augmented pool, then a pair within the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar

from .rng import Stream, make_rng, uniforms
from .text import InputError

Item = TypeVar("Item")


@dataclass
class BitextPair:
    """A source/target sentence pair tagged with its corpus of origin."""

    source: List[str]
    target: List[str]
    origin: str = ""

    def __post_init__(self):
        if not self.source or not self.target:
            raise ValueError("bitext pair sides must be non-empty")


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


def augment_pair(first: BitextPair, second: BitextPair, p: float) -> Optional[BitextPair]:
    """Concatenate two adjacent pairs and truncate both ends proportionally.

    The same ``p`` governs all four truncations, but counts are computed per
    sequence length: the output keeps the last ``len - ceil(p*len)`` tokens
    of the first sentence and the first ``ceil(p*len)`` tokens of the
    second.  ``p = 0`` returns the first pair unchanged.

    Returns None when either output side would be empty (cannot happen for
    valid non-empty inputs; kept as a guard for the contract).
    """
    source = (
        first.source[_truncation(p, len(first.source)) :]
        + second.source[: _truncation(p, len(second.source))]
    )
    target = (
        first.target[_truncation(p, len(first.target)) :]
        + second.target[: _truncation(p, len(second.target))]
    )
    if not source or not target:
        return None
    return BitextPair(source, target, origin=first.origin)


def augment_line(first: str, second: str, p: float) -> str:
    """:func:`augment_pair` on canonical lines: ``split(" ", k)`` cuts a side after k tokens."""
    sides = []
    for head, tail in zip(first.split("\t"), second.split("\t")):
        length = head.count(" ") + 1
        drop = _truncation(p, length)
        kept = head.split(" ", drop)[drop] if drop < length else ""
        take = _truncation(p, tail.count(" ") + 1)
        taken = " ".join(tail.split(" ", take)[:take])
        sides.append(f"{kept} {taken}" if kept and taken else kept or taken)
    return "\t".join(sides)


@dataclass
class AugmentationResult(Generic[Item]):
    """Augmented pairs plus a count of rejected (empty-sided) outputs."""

    pairs: List[Item]
    skipped: int = 0


def augment_corpus(
    pairs: Sequence[BitextPair],
    cfg: AugmentationConfig,
    index_offset: int = 0,
) -> AugmentationResult:
    """Augment consecutive disjoint pairs (0,1), (2,3), ... of a corpus.

    For each pair of pairs, ``p`` is drawn uniformly from [0, p_max) with a
    sub-stream derived from (seed, pair index), so results do not depend on
    processing order.  A trailing unpaired sentence passes through
    unmodified.  Empty-sided outputs are skipped and counted.

    ``index_offset`` shifts the pair indices, so a corpus processed in
    chunks draws the same values as one processed whole.
    """
    return augment_blocks([pairs], cfg, index_offset)[0]


def augment_blocks(
    blocks: Sequence[Sequence[Item]],
    cfg: AugmentationConfig,
    index_offset: int = 0,
    merge: Callable[[Item, Item, float], Optional[Item]] = augment_pair,
) -> List[AugmentationResult[Item]]:
    """``augment_corpus`` of every block, each offset by the lengths of those before it.

    Block ``k`` gets the result of ``augment_corpus(blocks[k], cfg,
    index_offset + len(blocks[0]) + ... + len(blocks[k - 1]))``, but the
    fractions of all blocks are drawn in one ``rng.uniforms`` call.  ``merge``
    is :func:`augment_pair` for ``BitextPair``s or :func:`augment_line` for lines.
    """
    indices: List[int] = []
    for block in blocks:
        indices.extend(range(index_offset, index_offset + len(block) - 1, 2))
        index_offset += len(block)
    fractions = iter(uniforms(cfg.seed, indices, cfg.p_max))
    results = []
    for block in blocks:
        out: List[Item] = []
        skipped = 0
        for index in range(0, len(block) - 1, 2):
            merged = merge(block[index], block[index + 1], next(fractions))
            if merged is None:
                skipped += 1
            else:
                out.append(merged)
        if len(block) % 2 == 1:
            out.append(block[-1])
        results.append(AugmentationResult(out, skipped))
    return results


def build_training_mixture(
    corpora: Dict[str, Tuple[Sequence[Item], Sequence[Item]]],
    spec: MixtureSpec,
    total: int,
) -> List[Item]:
    """Sample ``total`` pairs with replacement according to the mixture spec.

    ``corpora`` maps each label to its (originals, augmented) pools, whose
    items may be ``BitextPair``s or anything else standing for a pair.  Each
    draw picks a corpus by weight, then the augmented pool with probability
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

    rng = Stream(make_rng(spec.seed, "mixture"))
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
