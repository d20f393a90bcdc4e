import itertools

import pytest
from hypothesis import example, given, settings, strategies as st
from text_oracle import oracle_normalize_token

from segmt.text import (
    KEY_MEMO_SIZE,
    KEY_MEMOS,
    PUNCTUATED,
    STRIPPED,
    NormalizationPolicy,
    SegmentedDocument,
    flatten,
    normalize,
    normalize_document,
    normalize_token,
    rebuild,
)

tokens_st = st.text(
    alphabet=st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=6
)
segment_st = st.lists(tokens_st, min_size=1, max_size=5)
document_st = st.builds(SegmentedDocument, st.lists(segment_st, min_size=0, max_size=6))


def test_normalize_strips_and_lowercases():
    assert normalize(["Hello,", "World!"], STRIPPED) == ["hello", "world"]


def test_normalize_fixpoint():
    assert normalize(["hello", "world"], STRIPPED) == ["hello", "world"]


def test_normalize_drops_emptied_tokens():
    assert normalize(["...", "---"], STRIPPED) == []


def test_normalize_identity_policy():
    seg = ["Hello,", "World!"]
    assert normalize(seg, PUNCTUATED) == seg


def test_normalize_token_inner_punctuation():
    assert normalize_token("don't", STRIPPED) == "dont"


def test_normalize_token_symbols():
    # "$" is Unicode category Sc; stripped only when strip_symbols is set.
    assert normalize_token("$5", STRIPPED) == "5"
    keep_symbols = NormalizationPolicy(strip_punctuation=True, lowercase=True)
    assert normalize_token("$5", keep_symbols) == "$5"


def test_normalize_token_unicode_punctuation():
    assert normalize_token("“quoted”", STRIPPED) == "quoted"


@given(tokens_st)
def test_normalize_token_idempotent(token):
    once = normalize_token(token, STRIPPED)
    assert normalize_token(once, STRIPPED) == once


@given(segment_st)
def test_normalize_idempotent(segment):
    once = normalize(segment, STRIPPED)
    assert normalize(once, STRIPPED) == once


@given(segment_st)
def test_normalize_never_grows(segment):
    assert len(normalize(segment, STRIPPED)) <= len(segment)


#: The 8 policies: every setting of the three flags.
ALL_POLICIES = [
    NormalizationPolicy(*flags) for flags in itertools.product((False, True), repeat=3)
]


@settings(max_examples=500)
@given(st.text())
@example("e\u0301a\u0308\u20dd")  # combining marks (Mn, Me) are kept
@example("\u0130")  # lowercases to "i" plus a combining dot
@example("ΟΔΟΣ-ΑΝ")  # Σ before "-" lowercases to final ς, so lowercasing comes first
@example("𝄞x")  # an astral symbol (So)
@example("don’t")
@example("“quoted”")
@example("$5_a")
@example("¿qué?")
@example("a\u3000b")  # an ideographic space (Zs) is kept
@example("…“$”…")  # strips to "" under stripping policies
def test_normalize_token_matches_character_oracle(token):
    for policy in ALL_POLICIES:
        key = oracle_normalize_token(token, policy)
        assert normalize_token(token, policy) == key
        assert normalize([token], policy) == ([key] if key else [])


def test_key_memo_stays_bounded_and_exact():
    # More distinct tokens than the memo holds: it is cleared when full, and
    # every key is still the oracle's.
    KEY_MEMOS.pop(STRIPPED, None)
    marks = "’$_¿“"
    tokens = [f"{chr(0x41 + i % 26)}{i}{marks[i % 5]}" for i in range(KEY_MEMO_SIZE + 5_000)]
    sizes = []
    for token in tokens:
        assert normalize([token], STRIPPED) == [oracle_normalize_token(token, STRIPPED)]
        sizes.append(len(KEY_MEMOS[STRIPPED]))
    assert max(sizes) == KEY_MEMO_SIZE
    assert sizes[-1] < KEY_MEMO_SIZE


def test_flatten_two_segments():
    tokens, bounds = flatten(SegmentedDocument([["a", "b"], ["c"]]))
    assert tokens == ["a", "b", "c"]
    assert bounds == [1, 2]


def test_flatten_empty_document():
    tokens, bounds = flatten(SegmentedDocument([]))
    assert tokens == []
    assert bounds == []


def test_flatten_single_segment():
    tokens, bounds = flatten(SegmentedDocument([["a"]]))
    assert tokens == ["a"]
    assert bounds == [0]


def test_rebuild_inverts_flatten():
    doc = rebuild(["a", "b", "c"], [1, 2])
    assert doc.segments == [["a", "b"], ["c"]]


def test_rebuild_implicit_final_boundary():
    assert rebuild(["a", "b"], []).segments == [["a", "b"]]


def test_rebuild_collapses_duplicates():
    assert rebuild(["a", "b"], [0, 0]).segments == [["a"], ["b"]]


def test_rebuild_out_of_range():
    with pytest.raises(ValueError):
        rebuild(["a", "b"], [2])
    with pytest.raises(ValueError):
        rebuild(["a", "b"], [-1])


def test_rebuild_empty_tokens():
    assert rebuild([], []).segments == []


def test_document_rejects_empty_segment():
    with pytest.raises(ValueError):
        SegmentedDocument([["a"], []])


def test_document_tokens_and_len():
    doc = SegmentedDocument([["a", "b"], ["c"]], doc_id="d1")
    assert doc.tokens() == ["a", "b", "c"]
    assert len(doc) == 2


@given(document_st)
def test_flatten_rebuild_round_trip(doc):
    tokens, bounds = flatten(doc)
    assert rebuild(tokens, bounds, doc_id=doc.doc_id) == doc


@given(document_st)
def test_flatten_preserves_token_count(doc):
    tokens, bounds = flatten(doc)
    assert len(tokens) == sum(len(seg) for seg in doc.segments)
    # One position per segment, strictly increasing, the last after the final token.
    assert len(bounds) == len(doc.segments)
    assert all(a < b for a, b in zip([-1, *bounds], bounds))
    assert bounds[-1:] == ([len(tokens) - 1] if tokens else [])


def test_normalize_document_drops_empty_segments():
    doc = SegmentedDocument([["Hello,"], ["..."], ["World!"]], doc_id="d")
    out = normalize_document(doc, STRIPPED)
    assert out.segments == [["hello"], ["world"]]
    assert out.doc_id == "d"
