import numpy as np
import pytest

from segmt.segment import (
    PauseSplitConfig,
    TimedTranscript,
    break_on_punctuation,
    ends_sentence,
    split_fixed_length,
    split_on_pauses,
)


def make_transcript(texts, gaps, doc_id="t"):
    """Build a transcript where gaps[i] is the pause after word i."""
    starts = []
    t = 0.0
    for i in range(len(texts)):
        starts.append(t)
        t += 1.0 + (gaps[i] if i < len(gaps) else 0.0)
    return TimedTranscript(list(texts), starts, [start + 1.0 for start in starts], doc_id=doc_id)


def test_ends_sentence_terminal_marks():
    assert ends_sentence("rained.")
    assert ends_sentence("left!")
    assert ends_sentence("why?")
    assert not ends_sentence("warm")
    assert not ends_sentence("mid,")


def test_ends_sentence_skips_closing_marks():
    assert ends_sentence('end."')
    assert ends_sentence("done.)")
    assert not ends_sentence('"')


def test_ends_sentence_abbreviations():
    assert not ends_sentence("Dr.")
    assert not ends_sentence("U.S.")
    assert ends_sentence("Dr.", abbreviations=frozenset())


def test_break_on_punctuation_basic():
    doc = break_on_punctuation(["It", "rained.", "We", "left."])
    assert doc.segments == [["It", "rained."], ["We", "left."]]


def test_break_on_punctuation_no_marks():
    doc = break_on_punctuation(["no", "terminal", "marks"])
    assert doc.segments == [["no", "terminal", "marks"]]


def test_break_on_punctuation_abbreviation():
    doc = break_on_punctuation(["Dr.", "Smith", "left."])
    assert doc.segments == [["Dr.", "Smith", "left."]]


def test_break_on_punctuation_empty():
    assert break_on_punctuation([]).segments == []


def test_break_boundaries_follow_terminal_tokens():
    tokens = ["a.", "b", "c?", "d", "e"]
    doc = break_on_punctuation(tokens)
    assert doc.segments == [["a."], ["b", "c?"], ["d", "e"]]
    for seg in doc.segments[:-1]:
        assert ends_sentence(seg[-1])


def test_split_fixed_length_remainder():
    doc = split_fixed_length([f"t{i}" for i in range(25)], 10)
    assert [len(seg) for seg in doc.segments] == [10, 10, 5]


def test_split_fixed_length_exact_fit():
    doc = split_fixed_length(["x"] * 10, 10)
    assert [len(seg) for seg in doc.segments] == [10]


def test_split_fixed_length_empty():
    assert split_fixed_length([], 4).segments == []


def test_split_fixed_length_rejects_bad_n():
    with pytest.raises(ValueError):
        split_fixed_length(["a"], 0)


def test_split_on_pauses_threshold():
    t = make_transcript(["w1", "w2", "w3"], [1.2, 0.0])
    doc = split_on_pauses(t, PauseSplitConfig(pause_threshold_sec=1.0, max_tokens=50))
    assert doc.segments == [["w1"], ["w2", "w3"]]


def test_split_on_pauses_max_tokens_chop():
    t = make_transcript([f"w{i}" for i in range(120)], [0.0] * 119)
    doc = split_on_pauses(t, PauseSplitConfig(pause_threshold_sec=1.0, max_tokens=50))
    assert [len(seg) for seg in doc.segments] == [50, 50, 20]


def test_split_on_pauses_all_gaps():
    t = make_transcript(["a", "b", "c"], [1.5, 2.0])
    doc = split_on_pauses(t, PauseSplitConfig())
    assert doc.segments == [["a"], ["b"], ["c"]]


def test_split_on_pauses_overlapping_words():
    # Next word starts before the current one ends: gap clamps to zero.
    doc = split_on_pauses(TimedTranscript(["a", "b"], [0.0, 1.0], [2.0, 3.0]), PauseSplitConfig())
    assert doc.segments == [["a", "b"]]


def test_split_on_pauses_sub_threshold():
    t = make_transcript(["a", "b"], [0.99])
    doc = split_on_pauses(t, PauseSplitConfig(pause_threshold_sec=1.0))
    assert doc.segments == [["a", "b"]]


def test_timed_transcript_validation():
    with pytest.raises(ValueError):
        TimedTranscript(["a"], [1.0], [0.5])
    with pytest.raises(ValueError):
        TimedTranscript(["a", "b"], [2.0, 1.0], [3.0, 4.0])
    with pytest.raises(ValueError):
        TimedTranscript(["a b"], [0.0], [1.0])
    with pytest.raises(ValueError):
        TimedTranscript([""], [0.0], [1.0])


@pytest.mark.parametrize("text", ["", " a", "a\n", "a b", "a\u00a0b", "\x1c"])
def test_timed_transcript_rejects_word_with_whitespace(text):
    with pytest.raises(ValueError) as err:
        TimedTranscript(["ok", text], [0.0, 0.5], [0.5, 1.0], doc_id="d")
    assert str(err.value) == f"transcript 'd': bad word text {text!r}"


def test_pause_split_config_validation():
    with pytest.raises(ValueError):
        PauseSplitConfig(pause_threshold_sec=0.0)
    with pytest.raises(ValueError):
        PauseSplitConfig(max_tokens=0)


def test_strategies_preserve_tokens_randomized():
    rng = np.random.default_rng(404)
    for _ in range(300):
        count = int(rng.integers(0, 60))
        tokens = [f"t{rng.integers(0, 9)}" for _ in range(count)]
        n = int(rng.integers(1, 12))
        fixed = split_fixed_length(tokens, n)
        assert fixed.tokens() == tokens
        assert all(len(seg) == n for seg in fixed.segments[:-1])
        assert all(seg for seg in fixed.segments)

        punct_tokens = [
            tok + "." if rng.random() < 0.2 else tok for tok in tokens
        ]
        assert break_on_punctuation(punct_tokens).tokens() == punct_tokens


def test_pause_split_invariants_randomized():
    rng = np.random.default_rng(405)
    cfg = PauseSplitConfig(pause_threshold_sec=1.0, max_tokens=7)
    for _ in range(300):
        count = int(rng.integers(1, 40))
        # Dyadic gap values keep the accumulated word times exact in floats.
        gaps = [float(rng.choice([0.0, 0.5, 1.0, 1.75])) for _ in range(count - 1)]
        t = make_transcript([f"w{i}" for i in range(count)], gaps)
        doc = split_on_pauses(t, cfg)
        assert doc.tokens() == t.tokens()
        assert all(1 <= len(seg) <= cfg.max_tokens for seg in doc.segments)
        # Every qualifying pause must coincide with a segment end.
        ends = set(np.cumsum([len(seg) for seg in doc.segments]) - 1)
        for i, gap in enumerate(gaps):
            if gap >= cfg.pause_threshold_sec:
                assert i in ends
