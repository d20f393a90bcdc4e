"""Core text data model: tokens, segments, documents, and normalization.

Tokens are plain strings that are non-empty and contain no whitespace.
A segment is a list of tokens; a :class:`SegmentedDocument` is an ordered
list of non-empty segments.  Documents can be flattened to a token stream
plus a :class:`BoundarySet` and rebuilt losslessly, which is the basis for
every boundary-manipulating operation in this package.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence, Tuple


class InputError(ValueError):
    """Caller-supplied data that cannot be processed (the CLI exits 2 on it)."""


@dataclass(frozen=True)
class NormalizationPolicy:
    """Which character-level transforms to apply to tokens.

    Punctuation means Unicode category P*, symbols category S*.  Characters
    are removed in place inside tokens ("don't" -> "dont"); tokens that
    become empty are dropped.
    """

    strip_punctuation: bool = False
    lowercase: bool = False
    strip_symbols: bool = False


#: Full stripping: no punctuation, no case, no symbols (ASR-style source text).
STRIPPED = NormalizationPolicy(strip_punctuation=True, lowercase=True, strip_symbols=True)
#: Identity policy: text left untouched.
PUNCTUATED = NormalizationPolicy(strip_punctuation=False, lowercase=False, strip_symbols=False)


@dataclass(frozen=True)
class BoundarySet:
    """Segment boundaries over a flat token sequence.

    Each position ``k`` means "a boundary after token k" (0-based).
    Positions are strictly increasing and all lie in ``[0, total_tokens)``.
    """

    positions: tuple
    total_tokens: int

    def __post_init__(self):
        prev = -1
        for k in self.positions:
            if not 0 <= k < self.total_tokens:
                raise ValueError(
                    f"boundary position {k} out of range for {self.total_tokens} tokens"
                )
            if k <= prev:
                raise ValueError(f"boundary positions not strictly increasing: {self.positions}")
            prev = k


@dataclass
class SegmentedDocument:
    """An ordered list of non-empty segments with a document label."""

    segments: list
    doc_id: str = ""

    def __post_init__(self):
        for i, seg in enumerate(self.segments):
            if not seg:
                raise ValueError(f"document {self.doc_id!r}: segment {i} is empty")

    def tokens(self) -> list:
        """All tokens in order, ignoring segment boundaries."""
        return [tok for seg in self.segments for tok in seg]

    def __len__(self) -> int:
        return len(self.segments)


def paired_documents(
    first: Sequence[SegmentedDocument], second: Sequence[SegmentedDocument]
) -> Iterator[Tuple[SegmentedDocument, SegmentedDocument]]:
    """``zip(first, second)``, refused with :class:`InputError` unless the counts match."""
    if len(first) != len(second):
        paired = min(len(first), len(second))
        unpaired = (first if len(first) > paired else second)[paired]
        raise InputError(
            f"document count mismatch: {len(first)} vs {len(second)} documents; "
            f"first unpaired document {unpaired.doc_id}"
        )
    return zip(first, second)


@lru_cache(maxsize=65536)
def _strip_categories(text: str, strip_punctuation: bool, strip_symbols: bool) -> str:
    out = []
    for ch in text:
        cat = unicodedata.category(ch)[0]
        if strip_punctuation and cat == "P":
            continue
        if strip_symbols and cat == "S":
            continue
        out.append(ch)
    return "".join(out)


def normalize_token(text: str, policy: NormalizationPolicy) -> str:
    """Apply a policy to one token's text. May return the empty string."""
    if policy.lowercase:
        text = text.lower()
    if policy.strip_punctuation or policy.strip_symbols:
        text = _strip_categories(text, policy.strip_punctuation, policy.strip_symbols)
    return text


def normalize(segment: Sequence[str], policy: NormalizationPolicy) -> list:
    """Normalize every token in a segment, dropping tokens that become empty."""
    out = []
    for tok in segment:
        norm = normalize_token(tok, policy)
        if norm:
            out.append(norm)
    return out


def normalize_document(doc: SegmentedDocument, policy: NormalizationPolicy) -> SegmentedDocument:
    """Normalize each segment of a document, dropping segments that become empty."""
    segments = []
    for seg in doc.segments:
        norm = normalize(seg, policy)
        if norm:
            segments.append(norm)
    return SegmentedDocument(segments, doc_id=doc.doc_id)


def flatten(doc: SegmentedDocument):
    """Concatenate a document's tokens; return them with their BoundarySet.

    One boundary is recorded after the last token of every segment,
    including the final segment.
    """
    tokens = []
    positions = []
    for seg in doc.segments:
        tokens.extend(seg)
        positions.append(len(tokens) - 1)
    return tokens, BoundarySet(tuple(positions), len(tokens))


def rebuild(tokens: Sequence[str], boundaries, doc_id: str = "") -> SegmentedDocument:
    """Inverse of flatten: cut a token sequence at the given boundary positions.

    Accepts a BoundarySet or any iterable of positions.  Duplicate or
    out-of-order positions are collapsed to a strictly increasing set, and a
    final boundary after the last token is implied, so the result never
    contains empty segments.
    """
    if isinstance(boundaries, BoundarySet):
        positions: Iterable[int] = boundaries.positions
    else:
        positions = boundaries
    n = len(tokens)
    cuts = set()
    for k in positions:
        if not 0 <= k < n:
            raise ValueError(f"boundary position {k} out of range for {n} tokens")
        cuts.add(k)
    if n == 0:
        return SegmentedDocument([], doc_id=doc_id)
    cuts.add(n - 1)
    segments = []
    start = 0
    for k in sorted(cuts):
        segments.append(list(tokens[start : k + 1]))
        start = k + 1
    return SegmentedDocument(segments, doc_id=doc_id)
