"""Word-at-a-time transcript reader, kept as the test oracle for ``segmt``'s columns.

These are ``formats.read_transcripts``, ``TimedTranscript``'s checks and
``segment.split_on_pauses`` as the package ran them before transcripts
became three columns: one frozen ``TimedWord`` per word, each checked in a
Python loop, and a pause cut wherever ``max(0.0, start - end)`` reaches the
threshold.  They are slow but plainly word by word, so the differential
tests compare the package against them.  Like the old code they accept a
NaN time, which the package now refuses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List

from segmt.formats import ParseError, PathLike, _utf8_located
from segmt.segment import PauseSplitConfig, TimedTranscript
from segmt.text import SegmentedDocument


@dataclass(frozen=True)
class TimedWord:
    """One spoken word with its utterance time span in seconds."""

    text: str
    start: float
    end: float


def words_of(transcript: TimedTranscript) -> List[TimedWord]:
    """A package transcript's columns as one ``TimedWord`` per word."""
    return list(map(TimedWord, transcript.texts, transcript.starts, transcript.ends))


def from_words(words: List[TimedWord], doc_id: str = "") -> TimedTranscript:
    """A package transcript with the words' texts, starts and ends as its columns."""
    columns = [[w.text for w in words], [w.start for w in words], [w.end for w in words]]
    return TimedTranscript(*columns, doc_id=doc_id)


@dataclass
class OracleTranscript:
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


@_utf8_located
def read_transcripts(path: PathLike) -> List[OracleTranscript]:
    """Read a transcript file; records without a doc id get doc0, doc1, ... by index."""
    transcripts = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as err:  # a JSONDecodeError, or an integer of too many digits
                raise ParseError(path, lineno, f"invalid JSON: {getattr(err, 'msg', err)}") from err
            if not isinstance(record, dict) or not isinstance(record.get("words"), list):
                raise ParseError(path, lineno, "expected an object with a 'words' list")
            words = []
            for i, item in enumerate(record["words"]):
                try:
                    words.append(
                        TimedWord(
                            text=str(item["text"]),
                            start=float(item["start"]),
                            end=float(item["end"]),
                        )
                    )
                except (KeyError, TypeError, ValueError, OverflowError) as err:
                    raise ParseError(
                        path, lineno, f"word {i} needs text/start/end fields: {err}"
                    ) from err
            try:
                transcripts.append(
                    OracleTranscript(words, doc_id=str(record.get("doc_id", f"doc{len(transcripts)}")))
                )
            except ValueError as err:
                raise ParseError(path, lineno, str(err)) from err
    return transcripts


def split_on_pauses(transcript: OracleTranscript, cfg: PauseSplitConfig) -> SegmentedDocument:
    """Cut at speaker pauses, then cap over-long segments."""
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
