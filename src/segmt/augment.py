"""Cross-boundary data augmentation and training-data mixing.

The augmentation walks a bitext in corpus order, takes consecutive disjoint
sentence pairs, concatenates them, and truncates each side proportionally:
a shared truncation fraction ``p`` is drawn once per pair, then each of the
four sequences drops or keeps ``ceil(p * len)`` tokens.  The result imitates
a sentence that starts or breaks in the wrong place while keeping most of
the first sentence's content and a short continuation from the second.
Pairs are the canonical ``source<TAB>target`` lines of
``formats.read_bitext_lines``, cut without splitting them into token lists:
``augment_blocks`` cuts ``_MERGES_PER_BATCH`` merges at a time, numpy finding
every cut point of a batch in its UTF-8 bytes (``_cut_batch``), and
``augment_line`` is the one-pair case of that cut.  Neither ``augment`` nor
``mix`` imports ``numpy.random``: ``rng.uniforms`` computes the fractions, and
``rng.PCG64Outputs`` the mixture's PCG64 outputs, with uint64 arithmetic.

Mixing builds a training stream by repeatedly sampling a corpus by weight,
then an original-versus-augmented pool, then a pair within the pool.
``mixture_draws`` hands the draws out a block at a time, as pool ids and
indices.  They replay one generator's scalar calls, but numpy makes them
from blocks of its PCG64 outputs (``rng.PCG64Outputs``), down to the draw
where the regular pattern of outputs breaks; per-draw ``rng.Stream`` calls
take over from there.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from operator import getitem
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .rng import PCG64Outputs, Stream, uniforms
from .text import InputError

# augment_blocks cuts this many merges at a time (see _cut_batch), so its
# arrays stay small.
_MERGES_PER_BATCH = 1024

# mixture_draws reads the PCG64 outputs of this many pairs of draws
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


def _check_line(line: str) -> None:
    if line.count("\t") != 1 or "\n" in line:
        raise ValueError(f"expected one source<TAB>target line, got {line!r}")


def _cut_batch(lines: Sequence[str], fractions: Sequence[float]) -> List[str]:
    """The merges of lines (0, 1), (2, 3), ..., merge k truncated by ``fractions[k]``.

    A side of ``n`` spaces has ``n + 1`` tokens, and a merge keeps, of each
    side, the first line's text after its ``ceil(p * len)``-th space and the
    second line's text before it: the cut of ``split(" ", k)``.  numpy finds
    the spaces, tabs and newlines of the batch's UTF-8 encoding in one pass,
    counts each side's tokens between the tab or newline at either end, and
    computes ``ceil(p * len)`` in float64, as ``math.ceil(p * len)`` does.
    Python slices the four pieces of each merge and joins each side's two
    with a space when both are non-empty.  Byte offsets become character
    offsets by subtracting the UTF-8 continuation bytes before them.
    """
    import numpy as np

    # The newline before the first line puts every side between two separators.
    text = "\n" + "\n".join(lines) + "\n"
    codes = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    seps = np.flatnonzero((codes == 32) | (codes == 9) | (codes == 10))
    kinds = codes[seps]
    # Valid lines make the tabs and newlines alternate: newline, tab, newline, ...
    marks = np.flatnonzero(kinds != 32)
    if len(marks) != 2 * len(lines) + 1 or np.any(kinds[marks[1::2]] != 9):
        for line in lines:  # one of them is not a pair: name it
            _check_line(line)
    p = np.repeat(np.array(fractions, dtype=np.float64), 4)  # one per side
    if not np.all(p >= 0):  # NaN too, which math.ceil refuses
        raise ValueError("p must be non-negative")

    # Side i runs from separator marks[i] to marks[i + 1], so its count-th
    # token ends at separator marks[i] + count.
    lengths = np.diff(marks)
    with np.errstate(over="ignore"):
        products = p * lengths
    if np.any(np.isinf(products)):
        raise OverflowError("cannot convert float infinity to integer")
    counts = np.minimum(np.ceil(products), lengths).astype(np.int64)
    bounds = seps[marks]
    cuts = seps[marks[:-1] + counts]
    # Merge k's sides are 4k and 4k + 1 (the first line's source and target),
    # then 4k + 2 and 4k + 3.  The first line keeps [cut + 1, end of side) and
    # the second takes [start of side, cut).
    offsets = np.stack((
        cuts[0::4] + 1, bounds[1::4], bounds[2::4] + 1, cuts[2::4],
        cuts[1::4] + 1, bounds[2::4], bounds[3::4] + 1, cuts[3::4],
    ))
    if len(codes) != len(text):
        offsets -= np.searchsorted(np.flatnonzero((codes & 0xC0) == 0x80), offsets)

    merged = []
    for a, b, c, d, e, f, g, h in zip(*offsets.tolist()):
        kept, taken = text[a:b], text[c:d]
        source = f"{kept} {taken}" if kept and taken else kept or taken
        kept, taken = text[e:f], text[g:h]
        target = f"{kept} {taken}" if kept and taken else kept or taken
        merged.append(f"{source}\t{target}")
    return merged


def augment_line(first: str, second: str, p: float) -> str:
    """Each side keeps its last ``len - ceil(p*len)`` tokens and takes the first ``ceil(p*len)``
    of the next line's side (``split(" ", k)`` cuts after k tokens).  ``p = 0`` returns ``first``;
    any ``p > 0`` takes a token of each next side, so no output side is empty.

    Raises ``ValueError`` for a line without exactly one tab or with a newline,
    and for a negative or NaN ``p``; ``OverflowError`` when ``p * len`` is infinite.
    """
    return _cut_batch([first, second], [p])[0]


def _merged_batches(
    blocks: Sequence[Sequence[str]], cfg: AugmentationConfig
) -> Iterator[List[str]]:
    # Every merge in corpus order, in batches of _MERGES_PER_BATCH.
    lines: List[str] = []
    indices: List[int] = []
    offset = 0  # the running index of the block's first line
    for block in blocks:
        start, paired = 0, len(block) - len(block) % 2
        while start < paired:
            stop = min(paired, start + 2 * (_MERGES_PER_BATCH - len(indices)))
            lines += block[start:stop]
            indices += range(offset + start, offset + stop, 2)
            start = stop
            if len(indices) == _MERGES_PER_BATCH:
                yield _cut_batch(lines, uniforms(cfg.seed, indices, cfg.p_max))
                lines, indices = [], []
        offset += len(block)
    if indices:
        yield _cut_batch(lines, uniforms(cfg.seed, indices, cfg.p_max))


def augment_blocks(blocks: Sequence[Sequence[str]], cfg: AugmentationConfig) -> List[List[str]]:
    """Merge lines (0,1), (2,3), ... of every document as :func:`augment_line` does.

    Lines are numbered in corpus order, across documents.  Each merge draws
    ``p`` uniformly from [0, p_max) with a sub-stream derived from (seed,
    index of its first line), so results do not depend on processing order.
    The merges are cut ``_MERGES_PER_BATCH`` at a time, each batch's
    fractions from one ``rng.uniforms`` call, so the working memory stays
    small whatever the size of the corpus.  A document's trailing unpaired
    line passes through unmodified.  A line without exactly one tab, or
    with a newline, raises ``ValueError``.
    """
    merged = chain.from_iterable(_merged_batches(blocks, cfg))
    out = []
    for block in blocks:
        lines = list(islice(merged, len(block) // 2))
        if len(block) % 2 == 1:
            _check_line(block[-1])
            lines.append(block[-1])
        out.append(lines)
    return out


def mixture_draws(sizes: Dict[str, Tuple[int, int]], spec: MixtureSpec, total: int) -> Iterator:
    """The ``total`` draws of the mixture, in blocks of ``(pool_ids, indices)`` lists.

    ``sizes`` maps each label to its (originals, augmented) pool sizes; pool
    ``2k`` is the originals of the k-th sorted label and ``2k + 1`` its augmented
    pairs.  Weighted labels are checked in sorted order before anything is
    drawn: ``ValueError`` for one missing from ``sizes``, ``InputError`` for one
    with no originals, or none augmented while ``augmented_fraction > 0``.

    Each draw picks a corpus by weight, then the augmented pool with probability
    ``augmented_fraction`` (originals otherwise), then a uniform element: the
    ``random()``, ``random()`` and ``integers(size)`` calls of one
    ``make_rng(spec.seed, "mixture")`` generator, so ``spec.seed`` fixes the result.

    The calls are replayed in bulk.  While every pool drawn from holds 2..2**32
    items and Lemire's test accepts every index, each draw reads two outputs
    for its uniforms, and each pair of draws shares one more: the first takes
    its low 32 bits for the index and the second the high 32 bits, which
    PCG64 buffers.  numpy computes that pattern for blocks of
    ``_PAIRS_PER_BLOCK`` pairs, each from one ``PCG64Outputs.random_raw``
    call.  It breaks at the first draw from a pool of one (whose index draws
    nothing) or whose index Lemire rejects; a ``Stream`` resumed at that
    draw's output and buffered half makes the remaining draws one call at a
    time, in blocks of the same size.  NEP 19 does not freeze numpy's
    ``integers`` algorithm, so
    ``tests/test_augment.py::test_mixture_matches_per_draw_oracle``, against
    the generator's own calls, is the guard.
    """
    labels = sorted(spec.corpus_weights)
    for label in labels:
        if label not in sizes:
            raise ValueError(f"mixture references unknown corpus {label!r}")
        originals, augmented = sizes[label]
        if not originals:
            raise InputError(f"corpus {label!r} has no original pairs")
        if spec.augmented_fraction > 0 and not augmented:
            raise InputError(f"corpus {label!r} has no augmented pairs but augmented_fraction > 0")
    # A draw below bounds[k] and at or above bounds[k - 1] picks corpus k; past
    # the last bound (the sum rounding below 1) the last corpus is taken.
    bounds = list(accumulate(spec.corpus_weights[label] for label in labels))
    return _draw_blocks([size for label in labels for size in sizes[label]], bounds, spec, total)


def _draw_blocks(sizes: List[int], bounds: List[float], spec: MixtureSpec, total: int):
    import numpy as np

    # A pool the pattern cannot draw from (one item, or a size outside 2..2**32)
    # gets scale 1 and threshold 2**32, so every draw from it breaks the pattern.
    fits = [size if 2 <= size <= 1 << 32 else 0 for size in sizes]
    scales = np.array([size or 1 for size in fits], dtype=np.uint64)
    thresholds = np.array([((1 << 32) - n) % n if n else 1 << 32 for n in fits], dtype=np.uint64)
    last = len(bounds) - 1
    mask32 = (1 << 32) - 1

    bit_generator = PCG64Outputs(spec.seed, "mixture")
    drawn = 0
    while drawn < total:
        count = min(2 * _PAIRS_PER_BLOCK, total - drawn)
        # Row p holds pair p's five outputs: draw 2p's two uniforms, the output
        # whose low half is draw 2p's index half and whose high half is draw
        # 2p+1's (PCG64 buffers it), then draw 2p+1's two uniforms.
        outputs = bit_generator.random_raw(5 * ((count + 1) // 2)).reshape(-1, 5)
        u = (outputs[:, 0::3].ravel()[:count] >> 11) * 2.0**-53  # as Stream.random
        u2 = (outputs[:, 1::3].ravel()[:count] >> 11) * 2.0**-53
        shared = outputs[:, 2]
        halves = np.stack((shared & mask32, shared >> 32), axis=1).ravel()[:count]
        corpus = np.minimum(np.searchsorted(bounds, u, side="right"), last)
        pool_ids = 2 * corpus + (u2 < spec.augmented_fraction)
        scaled = halves * scales[pool_ids]
        broken = np.flatnonzero((scaled & mask32) < thresholds[pool_ids])
        regular = int(broken[0]) if len(broken) else count
        yield pool_ids[:regular].tolist(), (scaled[:regular] >> 32).tolist()
        drawn += regular
        if regular < count:
            pair, second = divmod(regular, 2)
            half = int(shared[pair]) >> 32 if second else None
            rng = Stream.resume(bit_generator, outputs[pair:].ravel()[3 * second :].tolist(), half)
            break

    while drawn < total:
        pool_ids, indices = [], []
        for _ in range(min(2 * _PAIRS_PER_BLOCK, total - drawn)):
            pool = 2 * min(bisect_right(bounds, rng.random()), last)
            pool += rng.random() < spec.augmented_fraction
            pool_ids.append(pool)
            indices.append(rng.integers(sizes[pool]))
        yield pool_ids, indices
        drawn += len(pool_ids)


def build_training_mixture(
    corpora: Dict[str, Tuple[Sequence, Sequence]], spec: MixtureSpec, total: int
) -> List:
    """``total`` items drawn from the ``(originals, augmented)`` pools of each label.

    The items may be anything standing for a pair; the draws and checks are
    those of :func:`mixture_draws` on the pools' sizes.
    """
    sizes = {label: tuple(map(len, pools)) for label, pools in corpora.items()}
    draws = mixture_draws(sizes, spec, total)
    pools = [pool for label in sorted(spec.corpus_weights) for pool in corpora[label]]
    return [pools[pool][i] for pool_ids, indices in draws for pool, i in zip(pool_ids, indices)]
