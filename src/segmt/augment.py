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
then an original-versus-augmented pool, then a pair within the pool.  The
draws replay one generator's scalar calls, but numpy makes them a block at a
time from bulk PCG64 output, down to the draw where the regular pattern of
outputs breaks (see ``build_training_mixture``); per-draw ``rng.Stream``
calls take over from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import getitem
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

from .rng import Stream, make_rng, uniforms
from .text import InputError

Item = TypeVar("Item")

# build_training_mixture reads the PCG64 outputs of this many pairs of draws
# at a time (five outputs a pair), so its arrays stay small.
_PAIRS_PER_BLOCK = 1024


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
    ``augmented_fraction`` (originals otherwise), then a uniform element: the
    ``random()``, ``random()`` and ``integers(len(pool))`` calls of one
    ``make_rng(spec.seed, "mixture")`` generator, so ``spec.seed`` fixes the result.

    The calls are replayed in bulk.  While every pool drawn from holds 2..2**32
    items and Lemire's test accepts every index, each draw reads two outputs
    for its uniforms, and each pair of draws shares one more: the first takes
    its low 32 bits for the index and the second the high 32 bits, which
    PCG64 buffers.  numpy computes that pattern for blocks of
    ``_PAIRS_PER_BLOCK`` pairs, each from one ``random_raw`` call.  It breaks
    at the first draw from a pool of one (whose index draws nothing) or
    whose index Lemire rejects; a ``Stream`` resumed at that draw's output
    and buffered half makes the remaining draws one call at a time.  NEP 19
    does not freeze numpy's ``integers`` algorithm, so
    ``tests/test_augment.py::test_mixture_matches_per_draw_oracle``, against
    the generator's own calls, is the guard.
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

    import numpy as np

    # Pool 2i holds label i's originals and pool 2i+1 its augmented pairs.  A
    # pool the pattern cannot draw from (one item, or a size outside 2..2**32)
    # gets scale 1 and threshold 2**32, so every draw from it breaks the pattern.
    pools = [pool for label in labels for pool in corpora[label]]
    sizes = [len(pool) if 2 <= len(pool) <= 1 << 32 else 0 for pool in pools]
    scales = np.array([size or 1 for size in sizes], dtype=np.uint64)
    thresholds = np.array(
        [((1 << 32) - size) % size if size else 1 << 32 for size in sizes], dtype=np.uint64
    )
    bounds = np.array([bound for bound, _ in cumulative])
    mask32 = (1 << 32) - 1

    bit_generator = make_rng(spec.seed, "mixture").bit_generator
    out: List[Item] = []
    rng: Optional[Stream] = None  # set at the draw that breaks the pattern
    while rng is None and len(out) < total:
        count = min(2 * _PAIRS_PER_BLOCK, total - len(out))
        # Row p holds pair p's five outputs: draw 2p's two uniforms, the output
        # whose low half is draw 2p's index half and whose high half is draw
        # 2p+1's (PCG64 buffers it), then draw 2p+1's two uniforms.
        outputs = bit_generator.random_raw(5 * ((count + 1) // 2)).reshape(-1, 5)
        u = (outputs[:, 0::3].ravel()[:count] >> 11) * 2.0**-53  # as Stream.random
        u2 = (outputs[:, 1::3].ravel()[:count] >> 11) * 2.0**-53
        shared = outputs[:, 2]
        halves = np.stack((shared & mask32, shared >> 32), axis=1).ravel()[:count]
        # searchsorted's "right" side is the first bound above u; past the
        # last bound the last label is taken, as in the per-draw loop.
        corpus = np.minimum(np.searchsorted(bounds, u, side="right"), len(labels) - 1)
        pool_ids = 2 * corpus + (u2 < spec.augmented_fraction)
        scaled = halves * scales[pool_ids]
        broken = np.flatnonzero((scaled & mask32) < thresholds[pool_ids])
        regular = int(broken[0]) if len(broken) else count
        indices = (scaled[:regular] >> 32).tolist()
        out.extend(map(getitem, map(pools.__getitem__, pool_ids[:regular].tolist()), indices))
        if regular < count:
            pair, second = divmod(regular, 2)
            half = int(shared[pair]) >> 32 if second else None
            rng = Stream.resume(bit_generator, outputs[pair:].ravel()[3 * second :].tolist(), half)

    for _ in range(total - len(out)):
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
