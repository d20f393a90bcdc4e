"""Token-level bitext reader and writer, kept as the test oracle for ``segmt``'s raw lines.

``read_bitext`` splits every side into a ``BitextPair``'s tokens and
``write_bitext`` joins them with single spaces.  No command has used them
since ``augment`` and ``mix`` began to read and write ``source<TAB>target``
lines directly (``formats.read_bitext_lines`` and ``write_bitext_lines``);
the tests check those commands and readers against this obvious form.
"""

from __future__ import annotations

from typing import List, Sequence

from segmt.augment import BitextPair
from segmt.formats import PathLike, _bitext_sides, _utf8_located


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
            for pair in block:
                handle.write(" ".join(pair.source) + "\t" + " ".join(pair.target) + "\n")
