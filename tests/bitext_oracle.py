"""Token-level bitext pairs, reader, writer and augmentation, kept as the test oracle.

``read_bitext`` splits every side into a ``BitextPair``'s tokens and
``write_bitext`` joins them with single spaces; ``augment_pair`` cuts
token lists and ``augment_blocks`` draws one fraction per merge, index by
index, with its own generator.  ``segmt`` no longer has any of them:
``augment`` and ``mix`` read, cut and write ``source<TAB>target`` lines
directly (``formats.read_bitext_lines``, and ``augment.augment_blocks``,
which cuts batches of merges at cut points numpy finds in their UTF-8
bytes, one ``rng.uniforms`` call of fractions a batch; ``augment_line``
is its one-pair case).  The tests check those against this obvious form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from segmt.augment import AugmentationConfig
from segmt.formats import PathLike, _bitext_sides, _utf8_located
from segmt.rng import make_rng


@dataclass
class BitextPair:
    """A source/target sentence pair tagged with its corpus of origin."""

    source: List[str]
    target: List[str]
    origin: str = ""

    def __post_init__(self):
        if not self.source or not self.target:
            raise ValueError("bitext pair sides must be non-empty")


def _truncation(p: float, length: int) -> int:
    if p < 0:
        raise ValueError("p must be non-negative")
    return math.ceil(p * length)


def augment_pair(first: BitextPair, second: BitextPair, p: float) -> BitextPair:
    """Concatenate two adjacent pairs and truncate both ends proportionally.

    The output keeps the last ``len - ceil(p*len)`` tokens of each side of
    the first pair and the first ``ceil(p*len)`` tokens of each side of the
    second, and the first pair's origin.
    """
    source = (
        first.source[_truncation(p, len(first.source)) :]
        + second.source[: _truncation(p, len(second.source))]
    )
    target = (
        first.target[_truncation(p, len(first.target)) :]
        + second.target[: _truncation(p, len(second.target))]
    )
    return BitextPair(source, target, origin=first.origin)


def augment_blocks(
    blocks: Sequence[Sequence[BitextPair]], cfg: AugmentationConfig, index_offset: int = 0
) -> List[List[BitextPair]]:
    """Merge pairs (0,1), (2,3), ... of every block, numbering pairs across blocks.

    The merge whose first pair has running index ``i`` (counted from
    ``index_offset``) uses ``p = make_rng(seed, i).uniform(0.0, p_max)``, one
    generator per draw.  A block's trailing unpaired pair passes through.
    """
    out: List[List[BitextPair]] = []
    index = index_offset
    for block in blocks:
        merged = []
        for k in range(0, len(block) - 1, 2):
            p = float(make_rng(cfg.seed, index + k).uniform(0.0, cfg.p_max))
            merged.append(augment_pair(block[k], block[k + 1], p))
        if len(block) % 2 == 1:
            merged.append(block[-1])
        out.append(merged)
        index += len(block)
    return out


def as_line(pair: BitextPair) -> str:
    return " ".join(pair.source) + "\t" + " ".join(pair.target)


@_utf8_located
def read_bitext(path: PathLike, origin: str = "") -> List[List[BitextPair]]:
    """Read a bitext file as a list of documents (lists of pairs)."""
    blocks: List[List[BitextPair]] = []
    current: List[BitextPair] = []
    with open(path, encoding="utf-8") as handle:
        for sides in _bitext_sides(path, handle):
            if sides is None:
                if current:
                    blocks.append(current)
                    current = []
                continue
            current.append(BitextPair(sides[0].split(), sides[1].split(), origin=origin))
    if current:
        blocks.append(current)
    return blocks


def write_bitext(path: PathLike, blocks: Sequence[Sequence[BitextPair]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i, block in enumerate(blocks):
            if i:
                handle.write("\n")
            handle.writelines(as_line(pair) + "\n" for pair in block)
