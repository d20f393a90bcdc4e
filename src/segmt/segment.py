"""Segmentation strategies for long-form transcripts.

Three ways to cut a token stream into segments: a rule-based sentence
breaker over punctuated text, pause-based splitting of timed transcripts
with a maximum-length cap, and greedy fixed-length splitting.  All three
preserve the flat token sequence exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

from .text import SegmentedDocument

TERMINAL_MARKS = frozenset(".!?")

# Closing quotes/brackets that may trail a terminal mark (e.g. `end."`).
CLOSING_MARKS = frozenset("\"')]}»”’")

#: Abbreviations whose trailing period does not end a sentence.
DEFAULT_ABBREVIATIONS = frozenset({"Mr.", "Mrs.", "Dr.", "St.", "No.", "U.S."})


@dataclass(frozen=True)
class PauseSplitConfig:
    """Pause-based splitting parameters.

    A boundary is placed wherever the silence between adjacent words is at
    least ``pause_threshold_sec``; segments that still exceed ``max_tokens``
    are greedily chopped.
    """

    pause_threshold_sec: float = 1.0
    max_tokens: int = 50

    def __post_init__(self):
        if self.pause_threshold_sec <= 0:
            raise ValueError("pause_threshold_sec must be positive")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class TimedWord:
    """One spoken word with its utterance time span in seconds."""

    text: str
    start: float
    end: float


@dataclass
class TimedTranscript:
    """Words with timing, ordered by start time."""

    words: List[TimedWord]
    doc_id: str = ""

    def __post_init__(self):
        prev_start = 0.0
        for i, word in enumerate(self.words):
            if word.text.split() != [word.text]:  # empty, or holds whitespace
                raise ValueError(f"transcript {self.doc_id!r}: bad word text {word.text!r}")
            if word.end < word.start or word.start < 0:
                raise ValueError(
                    f"transcript {self.doc_id!r}: bad time span for word {i} "
                    f"({word.start}, {word.end})"
                )
            if word.start < prev_start:
                raise ValueError(
                    f"transcript {self.doc_id!r}: start times decrease at word {i}"
                )
            prev_start = word.start

    def tokens(self) -> List[str]:
        return [w.text for w in self.words]


def ends_sentence(token: str, abbreviations: FrozenSet[str] = DEFAULT_ABBREVIATIONS) -> bool:
    """Whether a token ends in a terminal mark, skipping closing punctuation."""
    if token in abbreviations:
        return False
    i = len(token) - 1
    while i >= 0 and token[i] in CLOSING_MARKS:
        i -= 1
    return i >= 0 and token[i] in TERMINAL_MARKS


def break_on_punctuation(
    tokens: Sequence[str],
    abbreviations: FrozenSet[str] = DEFAULT_ABBREVIATIONS,
    doc_id: str = "",
) -> SegmentedDocument:
    """Cut after every token carrying a sentence-terminal mark.

    Tokens are expected to retain their punctuation.  A final boundary is
    always added, so token streams without terminal marks come back as a
    single segment.
    """
    segments = []
    current: List[str] = []
    for tok in tokens:
        current.append(tok)
        if ends_sentence(tok, abbreviations):
            segments.append(current)
            current = []
    if current:
        segments.append(current)
    return SegmentedDocument(segments, doc_id=doc_id)


def split_fixed_length(tokens: Sequence[str], n: int, doc_id: str = "") -> SegmentedDocument:
    """Greedy left-to-right chunks of exactly ``n`` tokens (last may be short)."""
    if n < 1:
        raise ValueError("segment length must be >= 1")
    segments = [list(tokens[i : i + n]) for i in range(0, len(tokens), n)]
    return SegmentedDocument(segments, doc_id=doc_id)


def split_on_pauses(transcript: TimedTranscript, cfg: PauseSplitConfig) -> SegmentedDocument:
    """Cut at speaker pauses, then cap over-long segments.

    A boundary goes after word ``i`` whenever the next word starts at least
    ``pause_threshold_sec`` after word ``i`` ends.  Any segment longer than
    ``max_tokens`` is then chopped greedily into ``max_tokens``-sized chunks.
    """
    words = transcript.words
    segments: List[List[str]] = []
    current: List[str] = []
    for i, word in enumerate(words):
        current.append(word.text)
        if i + 1 < len(words):
            gap = max(0.0, words[i + 1].start - word.end)
            if gap >= cfg.pause_threshold_sec:
                segments.append(current)
                current = []
    if current:
        segments.append(current)

    capped: List[List[str]] = []
    for seg in segments:
        if len(seg) <= cfg.max_tokens:
            capped.append(seg)
        else:
            capped.extend(seg[i : i + cfg.max_tokens] for i in range(0, len(seg), cfg.max_tokens))
    return SegmentedDocument(capped, doc_id=transcript.doc_id)
