import json
import sys
import tracemalloc
from unittest import mock

import pytest
from bitext_oracle import BitextPair, as_line, read_bitext, write_bitext
from hypothesis import given, settings, strategies as st

import segmt.formats
from segmt.bleu import BleuReport
from segmt.evaluate import LengthBucket, LengthBucketReport
from segmt.formats import (
    ParseError,
    _WIDE_SPACES,
    _plain_blanks,
    bleu_record,
    bucket_records,
    read_bitext_lines,
    read_documents,
    read_transcripts,
    wer_record,
    write_bitext_lines,
    write_documents,
    write_records,
    write_transcripts,
)
from segmt.segment import TimedTranscript
from segmt.text import SegmentedDocument


def test_documents_round_trip(tmp_path):
    docs = [
        SegmentedDocument([["a", "b"], ["c"]], doc_id="doc0"),
        SegmentedDocument([["d"]], doc_id="doc1"),
    ]
    path = tmp_path / "docs.txt"
    write_documents(path, docs)
    assert read_documents(path) == docs


def test_documents_blank_line_runs(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("a b\n\n\n\nc d\n\n", encoding="utf-8")
    docs = read_documents(path)
    assert [d.segments for d in docs] == [[["a", "b"]], [["c", "d"]]]


def test_documents_empty_file(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text("", encoding="utf-8")
    assert read_documents(path) == []


def test_documents_file_layout(tmp_path):
    path = tmp_path / "docs.txt"
    write_documents(path, [SegmentedDocument([["a"]]), SegmentedDocument([["b"], ["c"]])])
    assert path.read_text(encoding="utf-8") == "a\n\nb\nc\n"


def test_transcripts_round_trip(tmp_path):
    transcripts = [
        TimedTranscript(["hello", "there"], [0.0, 0.9], [0.4, 1.3], doc_id="talk1")
    ]
    path = tmp_path / "t.jsonl"
    write_transcripts(path, transcripts)
    assert read_transcripts(path) == transcripts
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["doc_id"] == "talk1"
    assert record["words"][0] == {"text": "hello", "start": 0.0, "end": 0.4}


def test_transcripts_default_doc_id_is_index(tmp_path):
    # Named by index among the transcripts read, as documents are, not by line.
    word = '{"words": [{"text": "a", "start": 0.0, "end": 0.1}]}\n'
    path = tmp_path / "t.jsonl"
    path.write_text(word + "\n" + word, encoding="utf-8")
    assert [t.doc_id for t in read_transcripts(path)] == ["doc0", "doc1"]


def test_transcripts_invalid_json(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"doc_id": "x", "words": [\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_transcripts(path)
    assert ":1:" in str(err.value)


@pytest.mark.parametrize("words", [5, None, True, 1.5])
def test_transcripts_words_must_be_a_list(tmp_path, words):
    path = tmp_path / "t.jsonl"
    path.write_text('{"words": []}\n' + json.dumps({"words": words}) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r":2: expected an object with a 'words' list"):
        read_transcripts(path)


def test_transcripts_missing_field(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"doc_id": "x", "words": [{"text": "a", "start": 0.0}]}\n', encoding="utf-8")
    with pytest.raises(ParseError):
        read_transcripts(path)


def test_transcripts_bad_timing(tmp_path):
    path = tmp_path / "t.jsonl"
    record = {"doc_id": "x", "words": [{"text": "a", "start": 2.0, "end": 1.0}]}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_transcripts(path)


def test_bitext_round_trip(tmp_path):
    blocks = [
        [BitextPair(["a", "b"], ["x"], origin="c"), BitextPair(["c"], ["y", "z"], origin="c")],
        [BitextPair(["d"], ["w"], origin="c")],
    ]
    path = tmp_path / "bi.tsv"
    write_bitext(path, blocks)
    assert read_bitext(path, origin="c") == blocks
    assert path.read_text(encoding="utf-8") == "a b\tx\nc\ty z\n\nd\tw\n"


def test_bitext_field_count_error(tmp_path):
    path = tmp_path / "bi.tsv"
    path.write_text("a b\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read_bitext(path)
    assert ":1:" in str(err.value)


def test_bitext_empty_side_error(tmp_path):
    path = tmp_path / "bi.tsv"
    path.write_text("a\t\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_bitext(path)


def test_bitext_origin_label(tmp_path):
    path = tmp_path / "bi.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    assert read_bitext(path, origin="wmt")[0][0].origin == "wmt"


BITEXT_PIECES = ["a", "b", " ", "\t", "\n", "\r\n", "\r", "\u00a0", "\x1c", "\u2028", "\u00fc", "\u3000"]


# Chunks this small cut the test files between lines, and between \r and \n.
CHUNK_SIZES = [1, 2, 3, 7, segmt.formats._CHUNK_CHARS]


def assert_bitext_readers_agree(path):
    """``read_bitext_lines`` gives ``read_bitext``'s documents as joined lines, or its error.

    The same holds whatever the size of the chunks the file is read in.
    """
    try:
        blocks = read_bitext(path)
    except ParseError as err:
        for chunk in CHUNK_SIZES:
            with mock.patch.object(segmt.formats, "_CHUNK_CHARS", chunk):
                with pytest.raises(ParseError) as lines_err:
                    read_bitext_lines(path)
            assert str(lines_err.value) == str(err)
        return
    expected = [[" ".join(p.source) + "\t" + " ".join(p.target) for p in block] for block in blocks]
    for chunk in CHUNK_SIZES:
        with mock.patch.object(segmt.formats, "_CHUNK_CHARS", chunk):
            assert read_bitext_lines(path) == expected


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(BITEXT_PIECES), max_size=30))
def test_bitext_lines_reader_matches_tokenised_reader(tmp_path_factory, pieces):
    path = tmp_path_factory.getbasetemp() / "differential.tsv"
    path.write_bytes("".join(pieces).encode("utf-8"))
    assert_bitext_readers_agree(path)


# A canonical file, then files one character away from canonical, each with one line to normalise.
@pytest.mark.parametrize(
    "text",
    [
        "ab a\tb\n\nb\ta a\n",
        "a \tb\n",
        "a\t b\n",
        "a\tb \n",
        "a\tb\n b\ta\n",
        " a\tb",
        "a\tb ",
        "a  b\ta",
        "a\x1cb\ta",
        "a\x0bb\ta",
        "a\u00a0b\ta",
        "a\u2028b\ta",
        "a\tb\r\n\t\nb\ta",
        "\u00fc a\tb\u2019\n\t\nb\ta\n",
        "\u00fc  a\tb",
        "\u00fc\tb\u3000",
        "a\u205fb\t\u00fc",
        "a\x85b\t\u2019",
    ],
)
def test_bitext_lines_reader_near_canonical(tmp_path, text):
    path = tmp_path / "bi.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert_bitext_readers_agree(path)


def test_bitext_parse_error_in_a_later_chunk_names_its_line(tmp_path):
    path = tmp_path / "bi.tsv"
    path.write_text("a b\tc\n" * 10 + "\n" + "d\te\n" + "f g h\n" + "i\tj\n", encoding="utf-8")
    for chunk in [1, 2, 3, 7, 40]:
        with mock.patch.object(segmt.formats, "_CHUNK_CHARS", chunk):
            with pytest.raises(ParseError) as err:
                read_bitext_lines(path)
        assert str(err.value) == f"{path}:13: expected 'source<TAB>target', got 1 fields"
    assert_bitext_readers_agree(path)


def test_bitext_crlf_split_across_reads(tmp_path):
    # "a\tb\r" fills the first read of 4 characters; its "\n" comes in the next.
    path = tmp_path / "bi.tsv"
    path.write_bytes(b"a\tb\r\nc\td\r\n\r\ne\tf\r\n")
    for chunk in range(1, 9):
        with mock.patch.object(segmt.formats, "_CHUNK_CHARS", chunk):
            assert read_bitext_lines(path) == [["a\tb", "c\td"], ["e\tf"]]
    assert_bitext_readers_agree(path)


def test_bitext_reader_memory_stays_bounded(tmp_path):
    # A canonical file of 8 MiB or more: what the reader holds at its peak
    # beyond the lines it returns must not grow with the file.
    path = tmp_path / "big.tsv"
    block = "".join(f"w{i} x{i % 7} y{i % 13} z\tq{i % 11} r{i} s{i % 5} t u v\n" for i in range(50))
    with open(path, "w", encoding="utf-8") as handle:
        for _ in range(6100):
            handle.write(block + "\n")
    assert path.stat().st_size >= 8 * 2**20
    warm = tmp_path / "warm.tsv"
    warm.write_text(block, encoding="utf-8")
    read_bitext_lines(warm)  # imports numpy outside the traced read
    tracemalloc.start()
    try:
        blocks = read_bitext_lines(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blocks) == 6100 and blocks[-1][-1] == "w49 x0 y10 z\tq5 r49 s4 t u v"
    assert peak - held < 4 * 2**20


def test_wide_spaces_are_what_split_splits_on():
    wide = map(chr, range(128, sys.maxunicode + 1))
    splitters = {c for c in wide if len(f"a{c}a".split()) == 2}
    assert set(_WIDE_SPACES) == splitters


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("ab a\tb\n\t\nb\ta\n", True),
        ("\u00fc a\tb\n", True),
        ("\u4e2d\u6587 \u2019a\tb \U0001f600\n", True),
        ("\u00fc a\tb\u3000\n", False),
        ("\u00fc\u00a0a\tb\n", False),
        ("\u00fc a \tb\n", False),
        ("\u00fc a\tb\x0c\n", False),
    ],
)
def test_canonical_files_in_any_script(text, canonical):
    assert (_plain_blanks(text) is not None) is canonical


@pytest.mark.parametrize(
    "text, blanks",
    [
        ("a\tb\n\t\t\n\nc d\te", [1, 2]),
        ("a\tb\n", [1]),
        ("\t", [0]),
        ("", [0]),
        ("ab\n", None),
        ("a\tb\tc\n", None),
        ("a\t\tb\n", None),
        ("\ta\n", None),
        ("a\t\n", None),
        ("a\tb\n\ta\t\n", None),
    ],
)
def test_plain_blanks_needs_one_inner_tab_per_pair(text, blanks):
    assert _plain_blanks(text) == blanks


def test_bitext_lines_round_trip(tmp_path):
    path = tmp_path / "bi.tsv"
    write_bitext_lines(path, [["a b\tx", "c\ty z"], ["d\tw"]])
    assert path.read_text(encoding="utf-8") == "a b\tx\nc\ty z\n\nd\tw\n"
    assert read_bitext_lines(path) == [["a b\tx", "c\ty z"], ["d\tw"]]


def test_sliced_writer_matches_per_line_writer(tmp_path):
    # A generator document of about 2.5 slices, then documents of one, two,
    # one and exactly one slice's lines.
    slice_lines = segmt.formats._LINES_PER_WRITE
    pairs = [
        [BitextPair([f"s{i}", "é"], [f"t{i}"]) for i in range(5 * slice_lines // 2)],
        [BitextPair(["one"], ["line"])],
        [BitextPair(["a"], ["b"]), BitextPair(["c"], ["d e"])],
        [BitextPair(["last"], ["one"])],
        [BitextPair([f"u{i}"], ["v"]) for i in range(slice_lines)],
    ]
    first = (as_line(pair) for pair in pairs[0])
    rest = [[as_line(pair) for pair in block] for block in pairs[1:]]
    write_bitext_lines(tmp_path / "sliced.tsv", [first, *rest])
    write_bitext(tmp_path / "per_line.tsv", pairs)
    assert (tmp_path / "sliced.tsv").read_bytes() == (tmp_path / "per_line.tsv").read_bytes()


def test_report_records(tmp_path):
    report = BleuReport(50.0, [0.5, 0.25, 0.1, 0.05], 0.9, 100, 110)
    record = bleu_record(report)
    assert record["type"] == "bleu"
    assert record["score"] == 50.0

    wer = wer_record(0.2, 1, 5)
    assert wer == {"type": "wer", "wer": 0.2, "errors": 1, "ref_len": 5}

    buckets = bucket_records(
        LengthBucketReport([LengthBucket(0, 20, 90.0, 3), LengthBucket(20, 40, 0.0, 0)])
    )
    assert [b["type"] for b in buckets] == ["bucket", "bucket"]

    path = tmp_path / "report.jsonl"
    write_records(path, [record, wer] + buckets)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert json.loads(lines[0])["type"] == "bleu"


def test_parse_error_message_format(tmp_path):
    err = ParseError("input.tsv", 7, "bad field")
    assert str(err) == "input.tsv:7: bad field"
    assert ParseError("input.tsv", None, "oops").line is None



def _assert_utf8_error_at_line_2(reader, path):
    with pytest.raises(ParseError) as err:
        reader(path)
    assert err.value.line == 2
    assert str(err.value) == f"{path}:2: invalid UTF-8: byte 0xff at column 3"


# The first line ends as text mode ends lines: at \n, \r\n or a lone \r.
NEWLINES = [b"\n", b"\r\n", b"\r"]


def test_documents_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "docs.txt"
    for newline in NEWLINES:
        path.write_bytes("café au lait".encode("utf-8") + newline + b"b \xff c\n")
        _assert_utf8_error_at_line_2(read_documents, path)


def test_transcripts_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "t.jsonl"
    record = json.dumps(
        {"doc_id": "x", "words": [{"text": "é", "start": 0.0, "end": 0.1}]}, ensure_ascii=False
    )
    for newline in NEWLINES:
        path.write_bytes(record.encode("utf-8") + newline + b'{"\xff": 1}\n')
        _assert_utf8_error_at_line_2(read_transcripts, path)


def test_bitext_invalid_utf8_names_line(tmp_path):
    path = tmp_path / "bi.tsv"
    for newline in NEWLINES:
        path.write_bytes("a\tü".encode("utf-8") + newline + b"b\t\xff\n")
        _assert_utf8_error_at_line_2(read_bitext, path)
        for chunk in CHUNK_SIZES:
            with mock.patch.object(segmt.formats, "_CHUNK_CHARS", chunk):
                _assert_utf8_error_at_line_2(read_bitext_lines, path)
