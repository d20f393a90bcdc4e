"""Core text data model: tokens, segments, documents, and normalization.

Tokens are plain strings that are non-empty and contain no whitespace.
A segment is a list of tokens; a :class:`SegmentedDocument` is an ordered
list of non-empty segments.  Documents can be flattened to a token stream
plus a list of boundary positions and rebuilt losslessly, which is the basis
for every boundary-manipulating operation in this package.  Position ``k``
means "a boundary after token k" (0-based); one helper, ``_cut``, slices a
token stream at non-decreasing positions for both ``rebuild`` and
``evaluate.resegment_hypothesis``.

Normalizing a token under a :class:`NormalizationPolicy` gives its key.
Keys come from one memo per policy, ``KEY_MEMOS``, which ``normalize``, WER
and every aligner share: each distinct token is normalized once per process
and policy, and a memo holds at most ``KEY_MEMO_SIZE`` tokens.  Category
stripping is one ``str.translate`` call per token.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple


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
) -> List[Tuple[SegmentedDocument, SegmentedDocument]]:
    """``list(zip(first, second))``, refused with :class:`InputError` unless the counts match."""
    if len(first) != len(second):
        paired = min(len(first), len(second))
        unpaired = (first if len(first) > paired else second)[paired]
        raise InputError(
            f"document count mismatch: {len(first)} vs {len(second)} documents; "
            f"first unpaired document {unpaired.doc_id}"
        )
    return list(zip(first, second))


#: Bound of one policy's key memo: a memo that reaches it is cleared.
KEY_MEMO_SIZE = 65_536


class _CategoryTable(dict):
    """A ``str.translate`` table that deletes the characters of some Unicode
    major categories; each code point's category is looked up on first use."""

    def __init__(self, categories: str):
        super().__init__()
        self.categories = categories

    def __missing__(self, code: int):
        dropped = unicodedata.category(chr(code))[0] in self.categories
        kept = self[code] = None if dropped else code
        return kept


#: One table per set of stripped categories, shared by the policies that strip it.
_TABLES = {cats: _CategoryTable(cats) for cats in ("P", "S", "PS")}


class _KeyMemo(dict):
    """One policy's keys, token -> normalized text, each computed on first use."""

    def __init__(self, policy: NormalizationPolicy):
        super().__init__()
        self.policy = policy
        self.table = _TABLES.get("P" * policy.strip_punctuation + "S" * policy.strip_symbols)

    def __missing__(self, token: str) -> str:
        key = token.lower() if self.policy.lowercase else token
        if self.table is not None:
            key = key.translate(self.table)
        if len(self) >= KEY_MEMO_SIZE:
            self.clear()
        self[token] = key
        return key


class _KeyMemos(dict):
    def __missing__(self, policy: NormalizationPolicy) -> _KeyMemo:
        memo = self[policy] = _KeyMemo(policy)
        return memo


#: ``KEY_MEMOS[policy][token]`` is ``normalize_token(token, policy)``, computed
#: on first use; a policy's memo starts over when it reaches ``KEY_MEMO_SIZE``.
KEY_MEMOS = _KeyMemos()


def normalize_token(text: str, policy: NormalizationPolicy) -> str:
    """Apply a policy to one token's text. May return the empty string.

    Lowercasing comes first, then the characters of the stripped categories
    are removed.  The key is read from the policy's memo in ``KEY_MEMOS``,
    so each distinct token is normalized once per process and policy.
    """
    return KEY_MEMOS[policy][text]


def normalize(segment: Sequence[str], policy: NormalizationPolicy) -> list:
    """Normalize every token in a segment, dropping tokens that become empty."""
    return list(filter(None, map(KEY_MEMOS[policy].__getitem__, segment)))


def normalize_document(doc: SegmentedDocument, policy: NormalizationPolicy) -> SegmentedDocument:
    """Normalize each segment of a document, dropping segments that become empty."""
    segments = []
    for seg in doc.segments:
        norm = normalize(seg, policy)
        if norm:
            segments.append(norm)
    return SegmentedDocument(segments, doc_id=doc.doc_id)


def flatten(doc: SegmentedDocument) -> Tuple[list, list]:
    """Concatenate a document's tokens; return them with their boundary positions.

    One boundary is recorded after the last token of every segment,
    including the final segment, so the positions are strictly increasing
    and the last one is ``len(tokens) - 1``.
    """
    tokens = []
    positions = []
    for seg in doc.segments:
        tokens.extend(seg)
        positions.append(len(tokens) - 1)
    return tokens, positions


def _cut(tokens: list, ends: Sequence[int]) -> list:
    """One piece per end: ``tokens[a + 1 : b + 1]`` for consecutive ends a, b.

    ``ends`` is non-decreasing and at least -1, with an implied -1 before
    the first; an end equal to the one before it gives an empty piece.
    """
    return [tokens[a + 1 : b + 1] for a, b in zip([-1, *ends], ends)]


def rebuild(tokens: Sequence[str], positions: Iterable[int], doc_id: str = "") -> SegmentedDocument:
    """Inverse of flatten: cut a token sequence at the given boundary positions.

    Duplicate or out-of-order positions are collapsed to a strictly
    increasing set, and a final boundary after the last token is implied,
    so the result never contains empty segments.
    """
    n = len(tokens)
    cuts = set()
    for k in positions:
        if not 0 <= k < n:
            raise ValueError(f"boundary position {k} out of range for {n} tokens")
        cuts.add(k)
    if n:
        cuts.add(n - 1)
    return SegmentedDocument(_cut(list(tokens), sorted(cuts)), doc_id=doc_id)
