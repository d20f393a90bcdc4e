"""File formats: documents, timed transcripts, bitext, and reports.

Documents
    UTF-8 text; one segment per line (tokens separated by spaces); a blank
    line separates documents.  Runs of blank lines count as one separator.

Timed transcripts
    JSON Lines; one document per line, shaped as
    ``{"doc_id": str, "words": [{"text": str, "start": sec, "end": sec}]}``.

Bitext
    Tab-separated ``source<TAB>target`` token lines; a blank line separates
    documents (adjacency within a document drives augmentation pairing).
    ``augment`` and ``mix`` never split a side into tokens: they keep
    canonical lines (one tab, single spaces between tokens, no other
    whitespace; any script) unchanged and normalise the whitespace of any
    other line.  They read a bitext in bounded chunks of whole lines, so the
    working memory above the lines they keep is a few MiB, whatever the
    size of the file.

Reports
    JSON Lines records with a ``"type"`` discriminator, plus human-readable
    tables rendered by the CLI.

All readers raise :class:`ParseError` with a file/line diagnostic on
malformed input.
"""

from __future__ import annotations

import functools
import json
from itertools import islice
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .bleu import BleuReport
from .evaluate import LengthBucketReport
from .segment import TimedTranscript
from .text import InputError, SegmentedDocument

PathLike = Union[str, Path]


class ParseError(InputError):
    """Malformed input file."""

    def __init__(self, path: PathLike, line: Optional[int], message: str):
        self.path = str(path)
        self.line = line
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


def _utf8_located(reader):
    """Turn a reader's UnicodeDecodeError into a ParseError naming the bad line.

    The happy path only pays for a ``try``; on failure the file is re-read
    as bytes to find the first line that does not decode.  Lines end at
    ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in the text-mode readers.
    """

    @functools.wraps(reader)
    def wrapper(path: PathLike, *args, **kwargs):
        try:
            return reader(path, *args, **kwargs)
        except UnicodeDecodeError as err:
            with open(path, "rb") as handle:
                raws = (line for part in handle for line in part.splitlines(keepends=True))
                for lineno, raw in enumerate(raws, start=1):
                    try:
                        raw.decode("utf-8")
                    except UnicodeDecodeError as bad:
                        message = f"invalid UTF-8: byte 0x{raw[bad.start]:02x} at column {bad.start + 1}"
                        raise ParseError(path, lineno, message) from err
            raise ParseError(path, None, f"invalid UTF-8: {err.reason}") from err

    return wrapper


@_utf8_located
def read_documents(path: PathLike) -> List[SegmentedDocument]:
    """Read a document file; doc ids are assigned as doc0, doc1, ..."""
    blocks: List[List[List[str]]] = []
    current: List[List[str]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            tokens = line.split()
            if tokens:
                current.append(tokens)
            elif current:
                blocks.append(current)
                current = []
    if current:
        blocks.append(current)
    return [SegmentedDocument(block, doc_id=f"doc{i}") for i, block in enumerate(blocks)]


def write_documents(path: PathLike, docs: Sequence[SegmentedDocument]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i, doc in enumerate(docs):
            if i:
                handle.write("\n")
            for seg in doc.segments:
                handle.write(" ".join(seg) + "\n")


@_utf8_located
def read_transcripts(path: PathLike) -> List[TimedTranscript]:
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
            words = record["words"]
            try:
                texts = [str(item["text"]) for item in words]
                starts = [float(item["start"]) for item in words]
                ends = [float(item["end"]) for item in words]
            except (KeyError, TypeError, ValueError, OverflowError):
                _check_word_fields(path, lineno, words)  # names the first bad word
                raise
            doc_id = str(record.get("doc_id", f"doc{len(transcripts)}"))
            try:
                transcripts.append(TimedTranscript(texts, starts, ends, doc_id))
            except ValueError as err:
                raise ParseError(path, lineno, str(err)) from err
    return transcripts


def _check_word_fields(path: PathLike, lineno: int, words: list) -> None:
    """Raise for the first word whose text, start or end does not convert, word by word."""
    for i, item in enumerate(words):
        try:
            str(item["text"]), float(item["start"]), float(item["end"])
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise ParseError(path, lineno, f"word {i} needs text/start/end fields: {err}") from err


def write_transcripts(path: PathLike, transcripts: Sequence[TimedTranscript]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for t in transcripts:
            record = {
                "doc_id": t.doc_id,
                "words": [
                    {"text": text, "start": start, "end": end}
                    for text, start, end in zip(t.texts, t.starts, t.ends)
                ],
            }
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _bitext_sides(
    path: PathLike, lines: Iterable[str], start: int = 1
) -> Iterator[Optional[List[str]]]:
    """Validate bitext lines: None for a blank line, else its ``[source, target]`` strings.

    A line of whitespace alone (tabs included) is blank.  Any other line
    needs exactly one tab, with non-blank text before and after it.  The
    first line is line ``start`` of ``path``.
    """
    for lineno, line in enumerate(lines, start=start):
        fields = line.rstrip("\n").split("\t")
        if len(fields) == 2 and fields[0].strip() and fields[1].strip():
            yield fields
        elif not line.strip():
            yield None
        elif len(fields) != 2:
            raise ParseError(
                path, lineno, f"expected 'source<TAB>target', got {len(fields)} fields"
            )
        else:
            raise ParseError(path, lineno, "empty source or target side")


#: The characters beyond ASCII that ``str.split()`` splits on.
_WIDE_SPACES = (
    "\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u2028\u2029\u202f\u205f\u3000"
)


def _plain_blanks(text: str) -> Optional[List[int]]:
    """The indices of the blank lines of ``text`` when it is canonical and every line valid.

    Canonical means ``" ".join(side.split()) == side`` for every side: the
    only whitespace is tab, newline and spaces that each stand between two
    other characters, so that no side has leading, trailing, doubled or
    other whitespace.  In canonical text a line is valid when it is blank
    (empty or tabs only) or holds exactly one tab, neither first nor last.
    Otherwise None, and ``_bitext_sides`` normalises the lines or names
    the bad one.  Past the one scan for each wide space, decided in a few
    numpy passes over the UTF-8 bytes, in which every byte of a non-ASCII
    character is 128 or more: substring scans for each bad pair of
    characters cost about five times as much.
    """
    if not text.isascii() and any(space in text for space in _WIDE_SPACES):
        return None
    import numpy as np

    # The newlines around the text end its first and last lines, and put a
    # space at either end next to whitespace.
    codes = np.frombuffer(f"\n{text}\n".encode("utf-8"), dtype=np.uint8)
    newlines = np.flatnonzero(codes == 10)
    tabs = np.flatnonzero(codes == 9)
    if np.count_nonzero(codes < 32) != len(newlines) + len(tabs):
        return None  # another control character, such as \v, \f or \x1c
    printable = codes > 32
    if not np.all((printable[:-2] & printable[2:]) | (codes[1:-1] != 32)):
        return None
    tab_counts = np.diff(np.searchsorted(tabs, newlines))  # per line
    blank = tab_counts == np.diff(newlines) - 1
    # A line that is not blank needs one tab, and that tab between two other
    # characters; the tabs of a blank line never are.
    inner = np.count_nonzero((codes[tabs - 1] > 10) & (codes[tabs + 1] > 10))
    if not np.all(blank | (tab_counts == 1)) or inner != len(blank) - np.count_nonzero(blank):
        return None
    return np.flatnonzero(blank).tolist()


#: ``read_bitext_lines`` reads this many characters at a time, so its working
#: memory stays a few MiB whatever the size of the file.
_CHUNK_CHARS = 1 << 18


def _line_runs(handle) -> Iterator[str]:
    """The text of ``handle`` in runs of whole lines, split at newlines that end a chunk.

    Every run but the last loses the newline after it; the last is the text
    after the last newline, so ``"\\n".join`` of the runs is the whole text.
    """
    carry = ""
    for chunk in iter(functools.partial(handle.read, _CHUNK_CHARS), ""):
        cut = chunk.rfind("\n")
        if cut < 0:
            carry += chunk
        else:
            yield carry + chunk[:cut]
            carry = chunk[cut + 1 :]
    yield carry


@_utf8_located
def read_bitext_lines(path: PathLike) -> List[List[str]]:
    """A bitext file as documents of ``source<TAB>target`` lines, one per pair.

    Each line is the pair's sides with their tokens joined by single spaces,
    built without splitting into tokens.  The file is read in chunks of
    about ``_CHUNK_CHARS`` characters cut at a line end: the lines of a
    chunk that is canonical with only valid lines come back as they are,
    and any other chunk goes line by line through ``_bitext_sides``, which
    normalises the whitespace of its sides or names the bad line.
    """
    blocks: List[List[str]] = [[]]
    start = 1  # the line number of a run's first line
    with open(path, encoding="utf-8") as handle:
        for run in _line_runs(handle):
            lines = run.split("\n")
            blanks = _plain_blanks(run)
            if blanks is None:
                blanks = []
                for k, sides in enumerate(_bitext_sides(path, lines, start)):
                    if sides is None:
                        blanks.append(k)
                    else:
                        lines[k] = "\t".join(" ".join(side.split()) for side in sides)
            begin = 0
            for blank in blanks:  # a document may run on from the last run
                blocks[-1] += lines[begin:blank]
                if blocks[-1]:
                    blocks.append([])
                begin = blank + 1
            blocks[-1] += lines[begin:]
            start += len(lines)
    return [block for block in blocks if block]


# write_bitext_lines joins and writes this many lines at a time.
_LINES_PER_WRITE = 2048


def write_bitext_lines(path: PathLike, blocks: Iterable[Iterable[str]]) -> None:
    """Write documents of ``source<TAB>target`` lines, a blank line between documents.

    A document may be any iterable of lines; it is written in slices of
    ``_LINES_PER_WRITE`` lines, one join and one write each, so the memory
    used stays one slice's whatever the length of the document.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for i, block in enumerate(blocks):
            if i:
                handle.write("\n")
            lines = iter(block)
            while chunk := list(islice(lines, _LINES_PER_WRITE)):
                chunk.append("")  # the last line's newline
                handle.write("\n".join(chunk))


def bleu_record(report: BleuReport) -> Dict:
    return {
        "type": "bleu",
        "score": report.score,
        "precisions": report.ngram_precisions,
        "brevity_penalty": report.brevity_penalty,
        "hyp_len": report.hyp_len,
        "ref_len": report.ref_len,
    }


def wer_record(rate: float, errors: int, ref_len: int) -> Dict:
    return {"type": "wer", "wer": rate, "errors": errors, "ref_len": ref_len}


def bucket_records(report: LengthBucketReport) -> List[Dict]:
    return [
        {
            "type": "bucket",
            "lower": b.lower,
            "upper": b.upper,
            "mean_bleu": b.mean_score,
            "count": b.count,
        }
        for b in report.buckets
    ]


def write_records(path: PathLike, records: Sequence[Dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
