"""Segmentation strategies for long-form transcripts.

Three ways to cut a token stream into segments: a rule-based sentence
breaker over punctuated text, pause-based splitting of timed transcripts
with a maximum-length cap, and greedy fixed-length splitting.  All three
preserve the flat token sequence exactly.  A timed transcript is three
parallel columns (word texts, start times, end times), the form
``formats.read_transcripts`` reads and pause splitting cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
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
        if not self.pause_threshold_sec > 0:  # NaN fails too
            raise ValueError("pause_threshold_sec must be positive")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass
class TimedTranscript:
    """Words ordered by start time: word ``i`` is ``texts[i]``, spoken from ``starts[i]``
    to ``ends[i]`` seconds."""

    texts: List[str]
    starts: List[float]
    ends: List[float]
    doc_id: str = ""

    def __post_init__(self):
        """Raise for the first bad word; every check fails on a NaN time."""
        texts, starts, ends, doc_id = self.texts, self.starts, self.ends, self.doc_id
        if not len(texts) == len(starts) == len(ends):
            raise ValueError(f"transcript {doc_id!r}: columns differ in length")
        if not (  # whole-column checks; the loop only names the word that failed them
            " ".join(texts).split() == texts  # no word is empty or holds whitespace
            and all(map(le, starts, ends))
            and (not starts or starts[0] >= 0)
            and all(map(le, starts, starts[1:]))
        ):
            prev_start = 0.0
            for i, (text, start, end) in enumerate(zip(texts, starts, ends)):
                if text.split() != [text]:
                    raise ValueError(f"transcript {doc_id!r}: bad word text {text!r}")
                if not 0 <= start <= end:
                    raise ValueError(
                        f"transcript {doc_id!r}: bad time span for word {i} ({start}, {end})"
                    )
                if start < prev_start:
                    raise ValueError(f"transcript {doc_id!r}: start times decrease at word {i}")
                prev_start = start

    def tokens(self) -> List[str]:
        return list(self.texts)


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
    texts, threshold = transcript.texts, cfg.pause_threshold_sec
    # Overlapping words give a negative gap, which the positive threshold never reaches.
    gaps = zip(transcript.ends, transcript.starts[1:])
    cuts = [i for i, (end, start) in enumerate(gaps, 1) if start - end >= threshold]
    bounds = [0, *cuts, len(texts)]
    segments = [texts[a:b] for a, b in zip(bounds, bounds[1:])] if texts else []

    capped: List[List[str]] = []
    for seg in segments:
        if len(seg) <= cfg.max_tokens:
            capped.append(seg)
        else:
            capped.extend(seg[i : i + cfg.max_tokens] for i in range(0, len(seg), cfg.max_tokens))
    return SegmentedDocument(capped, doc_id=transcript.doc_id)
