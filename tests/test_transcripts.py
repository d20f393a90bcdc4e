"""Timed transcripts as columns, against the word-at-a-time oracle.

``formats.read_transcripts`` converts each record's words as three columns
and checks them in bulk; ``transcript_oracle`` builds and checks one
``TimedWord`` at a time, as the package did before.  On valid files both
give the same transcripts and pause segments; on malformed files the same
``ParseError`` text and exit code.  The one deliberate difference is a NaN
time, which the oracle accepts and the package refuses as a bad time span.
"""

import contextlib
import copy
import dataclasses
import io
import json
import math

import pytest
import transcript_oracle
from hypothesis import HealthCheck, given, settings, strategies as st
from transcript_oracle import TimedWord, from_words, words_of

from segmt.cli import main
from segmt.formats import ParseError, read_transcripts, write_documents
from segmt.segment import PauseSplitConfig, TimedTranscript, split_on_pauses

# str() of these has no whitespace, so they are valid word texts.
ODD_TEXTS = [7, 0, -3, 1.5, True, None, []]
# Empty, whitespace, or str() holding a space.
BAD_TEXTS = ["", " ", "a b", "a\u00a0b", "\t", [1, 2], {"k": 1}]
NAN_TIMES = [float("nan"), "nan", "NaN", " nan "]
STEPS = [0, 0.25, 0.5, 0.75, 1, 1.0, 1.25, 2, 0.1 + 0.2]


def spelled(value):
    """A time as a float, an int or bool when integral, or a string float() reads."""
    forms = [st.just(float(value)), st.just(str(value)), st.just(f" {value} ")]
    if value == int(value):
        forms.append(st.just(int(value)))
        if value in (0, 1):
            forms.append(st.just(bool(value)))
    return st.one_of(forms)


@st.composite
def valid_words(draw):
    """Words with non-decreasing starts and end >= start; later words may overlap earlier ones."""
    words, start = [], 0.0
    for _ in range(draw(st.integers(0, 8))):
        start += draw(st.sampled_from(STEPS) | st.floats(0, 2.5))
        end = start + draw(st.sampled_from(STEPS) | st.floats(0, 2.5))
        text = draw(st.sampled_from(["a", "b", "ü", "w1", "."]) | st.sampled_from(ODD_TEXTS))
        words.append({"text": text, "start": draw(spelled(start)), "end": draw(spelled(end))})
    return words


def record(words, doc_id):
    return {"words": words} if doc_id is None else {"doc_id": doc_id, "words": words}


def break_word(draw, words):
    """Make one whole word (or its order against the word before) malformed."""
    whole = [i for i, word in enumerate(words) if isinstance(word, dict) and len(word) == 3]
    if not whole:
        return
    i = draw(st.sampled_from(whole))
    word = words[i]
    kind = draw(st.sampled_from(
        ["missing", "not a dict", "text", "end < start", "negative start", "decreasing", "bad time", "nan"]
    ))
    if kind == "missing":
        del word[draw(st.sampled_from(["text", "start", "end"]))]
    elif kind == "not a dict":
        words[i] = draw(st.sampled_from([5, "a", [1], None]))
    elif kind == "text":
        word["text"] = draw(st.sampled_from(BAD_TEXTS))
    elif kind == "end < start":
        word["start"], word["end"] = 3.0, 2.0
    elif kind == "negative start":
        word["start"] = -1
    elif kind == "decreasing":
        words.insert(i, {"text": "x", "start": 9.0, "end": 9.5})
    elif kind == "bad time":
        word[draw(st.sampled_from(["start", "end"]))] = draw(st.sampled_from(["x", None, [1], {}, 10**400]))
    else:
        word[draw(st.sampled_from(["start", "end"]))] = draw(st.sampled_from(NAN_TIMES))


@st.composite
def transcript_files(draw, malformed):
    records = [
        record(draw(valid_words()), draw(st.none() | st.sampled_from(["t", "talk 2", 5])))
        for _ in range(draw(st.integers(1, 3)))
    ]
    if malformed:
        for _ in range(draw(st.integers(1, 3))):
            candidates = [r for r in records if r["words"]]
            if not candidates:
                records.append(record([{"text": "a", "start": 0, "end": 1}], None))
                candidates = records[-1:]
            break_word(draw, draw(st.sampled_from(candidates))["words"])
    return records


def is_nan(value):
    try:
        return math.isnan(float(value))
    except (TypeError, ValueError, OverflowError):
        return False


def without_nan(records):
    """The records with every NaN time replaced by -inf, which the oracle refuses at the same check."""
    records = copy.deepcopy(records)
    for rec in records:
        for word in rec["words"]:
            if isinstance(word, dict):
                for key in ("start", "end"):
                    if key in word and is_nan(word[key]):
                        word[key] = float("-inf")
    return records


def write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


CONFIGS = st.builds(PauseSplitConfig, st.sampled_from([0.25, 0.5, 1.0, 1.5]), st.sampled_from([1, 2, 3, 50]))


@given(records=st.one_of(transcript_files(malformed=False), transcript_files(malformed=True)), cfg=CONFIGS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_columns_match_the_word_oracle(tmp_path, records, cfg):
    path, out = tmp_path / "t.jsonl", tmp_path / "out.txt"
    write_records(path, without_nan(records))
    try:
        expected = transcript_oracle.read_transcripts(path)
    except ParseError as err:
        expected = err
    write_records(path, records)
    argv = ["segment", "pause", str(path), "-o", str(out),
            "--threshold", str(cfg.pause_threshold_sec), "--max-tokens", str(cfg.max_tokens)]
    code, stderr = run(argv)

    if isinstance(expected, ParseError):
        message = str(expected).replace("-inf", "nan")
        with pytest.raises(ParseError) as err:
            read_transcripts(path)
        assert str(err.value) == message
        assert (code, stderr) == (2, f"error: {message}\n")
        return
    transcripts = read_transcripts(path)
    assert [(t.doc_id, words_of(t)) for t in transcripts] == [(t.doc_id, t.words) for t in expected]
    assert transcripts == [from_words(t.words, doc_id=t.doc_id) for t in expected]
    docs = [split_on_pauses(t, cfg) for t in transcripts]
    assert docs == [transcript_oracle.split_on_pauses(t, cfg) for t in expected]
    assert code == 0, stderr
    write_documents(tmp_path / "expected.txt", [doc for doc in docs if doc.segments])
    assert out.read_bytes() == (tmp_path / "expected.txt").read_bytes()


def test_first_bad_word_is_reported(tmp_path):
    path = tmp_path / "t.jsonl"
    words = [
        {"text": "a", "start": 0, "end": 1},
        {"text": "b", "start": 2, "end": 1},  # bad span
        {"text": "c d", "start": 2, "end": 3},  # bad text
        {"text": "e", "start": 0.5, "end": 0.6},  # decreasing
    ]
    write_records(path, [{"doc_id": "x", "words": words}])
    with pytest.raises(ParseError, match=r":1: transcript 'x': bad time span for word 1 \(2.0, 1.0\)$"):
        read_transcripts(path)
    write_records(path, [{"doc_id": "x", "words": words + [{"text": "f"}]}])  # a missing field comes first
    with pytest.raises(ParseError, match=r":1: word 4 needs text/start/end fields: 'start'$"):
        read_transcripts(path)


@pytest.mark.parametrize("nan", ["NaN", '"nan"'])
@pytest.mark.parametrize("field", ["start", "end"])
def test_nan_time_exits_2_as_a_bad_time_span(tmp_path, nan, field):
    word = {"text": "b", "start": 1.0, "end": 2.0}
    line = json.dumps({"doc_id": "x", "words": [{"text": "a", "start": 0, "end": 0.5}, word]})
    path = tmp_path / "t.jsonl"
    path.write_text("\n" + line.replace(f'"{field}": {word[field]}', f'"{field}": {nan}') + "\n", encoding="utf-8")
    span = "(nan, 2.0)" if field == "start" else "(1.0, nan)"
    code, err = run(["segment", "pause", str(path), "-o", str(tmp_path / "out.txt")])
    assert code == 2
    assert err == f"error: {path}:2: transcript 'x': bad time span for word 1 {span}\n"


def test_nan_time_is_refused_by_the_constructor():
    with pytest.raises(ValueError, match=r"bad time span for word 0 \(nan, 1.0\)"):
        TimedTranscript(["a"], [float("nan")], [1.0])
    with pytest.raises(ValueError, match=r"bad time span for word 1 \(1.0, nan\)"):
        TimedTranscript(["a", "b"], [0.0, 1.0], [1.0, float("nan")])


def test_words_are_built_from_the_columns():
    transcript = TimedTranscript(["a", "b"], [0.0, 0.5], [0.5, 2.0], doc_id="d")
    assert words_of(transcript) == [TimedWord("a", 0.0, 0.5), TimedWord("b", 0.5, 2.0)]
    assert transcript.tokens() == ["a", "b"]
    assert from_words(words_of(transcript), "d") == transcript
    assert TimedTranscript([], [], [], doc_id="e").tokens() == []
    # dataclasses.replace rebuilds through the constructor, so it runs the checks too.
    assert dataclasses.replace(transcript, doc_id="f") == TimedTranscript(
        ["a", "b"], [0.0, 0.5], [0.5, 2.0], doc_id="f"
    )
    with pytest.raises(ValueError, match=r"transcript 'd': bad time span for word 1 \(nan, 2.0\)"):
        dataclasses.replace(transcript, starts=[0.0, float("nan")])
    with pytest.raises(ValueError, match=r"transcript 'd': start times decrease at word 1"):
        dataclasses.replace(transcript, starts=[0.5, 0.0], ends=[0.5, 0.5])
    with pytest.raises(ValueError, match=r"transcript 'd': columns differ in length"):
        dataclasses.replace(transcript, ends=[0.5])
