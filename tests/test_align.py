import contextlib
import itertools
import tracemalloc

import numpy as np
import pytest
import segmt.align
from dp_oracle import (
    TIE_ORDERS,
    assert_tie_order_keeps_the_cost,
    oracle_align,
    oracle_distance,
    oracle_positions,
    oracle_projection,
)
from hypothesis import given, settings, strategies as st

from segmt.align import (
    ALIGNMENT_NORMALIZATION,
    DELETE,
    INSERT,
    MATCH,
    SUBSTITUTE,
    Alignment,
    cross_project,
    edit_distance,
    levenshtein_align,
    project_boundaries,
    project_positions,
    wer,
    wer_counts,
)
from segmt.text import STRIPPED, NormalizationPolicy, SegmentedDocument, flatten, normalize

#: Compare tokens literally, with no case or punctuation folding.
PLAIN = NormalizationPolicy()

token_seq_st = st.lists(st.sampled_from(["a", "b", "c"]), max_size=8)


def naive_distance(a, b):
    """Exponential recursive definition, no memoization; tiny inputs only."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        naive_distance(a[:-1], b[:-1]) + (a[-1] != b[-1]),
        naive_distance(a[:-1], b) + 1,
        naive_distance(a, b[:-1]) + 1,
    )


def test_align_identity():
    alignment = levenshtein_align(["the", "weather", "today"], ["the", "weather", "today"])
    assert [op.kind for op in alignment.ops] == [MATCH, MATCH, MATCH]
    assert alignment.distance() == 0


def test_align_single_substitution():
    gold = ["the", "weather", "today", "was", "warm"]
    system = ["the", "whether", "today", "was", "warm"]
    alignment = levenshtein_align(gold, system)
    assert alignment.distance() == 1
    subs = [op for op in alignment.ops if op.kind == SUBSTITUTE]
    assert len(subs) == 1
    assert subs[0].a_index == 1 and subs[0].b_index == 1


def test_align_deletion():
    alignment = levenshtein_align(["a", "b", "c"], ["a", "c"])
    assert [(op.kind, op.a_index, op.b_index) for op in alignment.ops] == [
        (MATCH, 0, 0),
        (DELETE, 1, None),
        (MATCH, 2, 1),
    ]


def test_align_empty_sides():
    assert [op.kind for op in levenshtein_align([], ["x", "y"]).ops] == [INSERT, INSERT]
    assert [op.kind for op in levenshtein_align(["x"], []).ops] == [DELETE]
    assert levenshtein_align([], []).ops == []


def test_align_index_coverage():
    a = ["a", "b", "c", "a"]
    b = ["b", "c", "c"]
    alignment = levenshtein_align(a, b)
    a_indices = [op.a_index for op in alignment.ops if op.a_index is not None]
    b_indices = [op.b_index for op in alignment.ops if op.b_index is not None]
    assert a_indices == list(range(len(a)))
    assert b_indices == list(range(len(b)))


def test_align_deterministic():
    a = ["a", "b", "a", "b", "a"]
    b = ["b", "a", "b"]
    first = levenshtein_align(a, b)
    for _ in range(5):
        assert levenshtein_align(a, b) == first


def test_edit_distance_identical():
    assert edit_distance(["x", "y"], ["x", "y"]) == 0


def test_edit_distance_to_empty():
    assert edit_distance(["x", "y", "z"], []) == 3
    assert edit_distance([], ["x"]) == 1


def test_edit_distance_swap():
    assert edit_distance(["a", "b"], ["b", "a"]) == 2


def test_edit_distance_matches_naive_exhaustively():
    # Every pair of sequences of length <= 3 over a two-letter alphabet.
    sequences = [
        list(seq)
        for n in range(4)
        for seq in itertools.product("ab", repeat=n)
    ]
    for a in sequences:
        for b in sequences:
            assert edit_distance(a, b, PLAIN) == naive_distance(a, b)


@given(token_seq_st, token_seq_st)
def test_edit_distance_symmetric(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


@given(token_seq_st, token_seq_st)
def test_distance_equals_script_cost(a, b):
    alignment = levenshtein_align(a, b)
    assert alignment.distance() == edit_distance(a, b)


def test_alignment_folds_case_and_punctuation():
    assert edit_distance(["Weather,"], ["weather"]) == 0
    assert edit_distance(["Weather,"], ["weather"], PLAIN) == 1


def test_alignment_empty_keys_match_positionally():
    # Tokens that normalize away still occupy a slot and match each other.
    assert edit_distance(["...", "a"], ["!!!", "a"]) == 0


def test_cost_ties_go_to_match_then_substitute_then_delete_then_insert():
    def script(a, b):
        return [op.kind for op in levenshtein_align(a.split(), b.split()).ops]

    assert script("a a", "a") == [DELETE, MATCH]  # the last "a" matches
    assert script("a b", "b c") == [SUBSTITUTE, SUBSTITUTE]  # not DELETE, MATCH, INSERT
    assert script("a b a", "b a b") == [INSERT, MATCH, MATCH, DELETE]  # the last step deletes


def assert_matches_oracle(a, b, policy, tie_break):
    """The bit-parallel aligner equals the full-table DP in the package's tie
    order (script and corner cell), and the DP's script in ``tie_break`` costs
    the same."""
    assert levenshtein_align(a, b, policy) == oracle_align(a, b, policy)
    assert edit_distance(a, b, policy) == oracle_distance(a, b, policy)
    assert_tie_order_keeps_the_cost(a, b, tie_break, policy)


# Each of the 24 tie orders of the oracle is one case; every case compares
# the package with the oracle in the package's order on its own examples.
@pytest.mark.parametrize("tie_break", TIE_ORDERS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_align_matches_full_table_oracle(tie_break, data):
    # Alphabets of 1-3 symbols make ties common, so the tie order matters.
    alphabet = ["a", "b", "c"][: data.draw(st.integers(1, 3), label="alphabet size")]
    tokens = st.lists(st.sampled_from(alphabet), max_size=40)
    a, b = data.draw(tokens, label="a"), data.draw(tokens, label="b")
    assert_matches_oracle(a, b, PLAIN, tie_break)


@pytest.mark.parametrize("tie_break", TIE_ORDERS)
@settings(max_examples=25, deadline=None)
@given(
    a=st.lists(st.sampled_from(["a", "A,", "...", "!!!", "b"]), max_size=20),
    b=st.lists(st.sampled_from(["a", "A,", "...", "!!!", "b"]), max_size=20),
)
def test_align_matches_oracle_with_empty_keys(tie_break, a, b):
    # "..." and "!!!" normalize to the empty key and match each other.
    assert_matches_oracle(a, b, ALIGNMENT_NORMALIZATION, tie_break)


@pytest.mark.parametrize("tie_break", TIE_ORDERS)
def test_align_matches_oracle_on_empty_sides(tie_break):
    for a, b in [([], []), ([], ["x", "y"]), (["x", "y", "z"], []), (["..."], []), ([], ["!!!"])]:
        assert_matches_oracle(a, b, ALIGNMENT_NORMALIZATION, tie_break)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_last_row_distance_matches_full_table_and_script(data):
    # 1-3 symbols, or symbols with empty keys ("...", "!!!") and folded ones ("A,").
    alphabet = data.draw(
        st.sampled_from([["a"], ["a", "b"], ["a", "b", "c"], ["a", "...", "!!!", "A,"]]),
        label="alphabet",
    )
    tokens = st.lists(st.sampled_from(alphabet), max_size=30)
    a, b = data.draw(tokens, label="a"), data.draw(tokens, label="b")
    for policy in (PLAIN, ALIGNMENT_NORMALIZATION):
        distance = edit_distance(a, b, policy)
        assert distance == oracle_distance(a, b, policy)
        assert distance == levenshtein_align(a, b, policy).distance()


#: "..." has the empty comparison key; "A," has the key of "a".
SHARED_PASS_SYMBOLS = ["a", "b", "...", "A,"]


def documents(alphabet, min_segments=0):
    """Documents of up to 8 non-empty segments over ``alphabet``."""
    segment = st.lists(st.sampled_from(alphabet), min_size=1, max_size=6)
    return st.lists(segment, min_size=min_segments, max_size=8).map(SegmentedDocument)


def draw_alphabet(data):
    """1-3 distinct symbols: small alphabets make cost ties common."""
    return data.draw(
        st.lists(st.sampled_from(SHARED_PASS_SYMBOLS), min_size=1, max_size=3, unique=True),
        label="alphabet",
    )


@pytest.mark.parametrize("tie_break", TIE_ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_project_positions_matches_oracle(tie_break, data):
    alphabet = draw_alphabet(data)
    source = data.draw(documents(alphabet), label="source")
    target = data.draw(st.lists(st.sampled_from(alphabet), max_size=20), label="target")
    assert project_positions(source, target) == oracle_positions(source, target)
    assert_tie_order_keeps_the_cost(source.tokens(), target, tie_break)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_project_positions_are_a_monotone_cut(data):
    # Non-decreasing, in [-1, len(target)), with the -1 entries as a prefix:
    # cutting at these positions needs no clamp.
    alphabet = draw_alphabet(data)
    source = data.draw(documents(alphabet), label="source")
    target = data.draw(
        st.one_of(st.just([]), st.lists(st.sampled_from(alphabet), max_size=20)), label="target"
    )
    positions = project_positions(source, target)
    assert len(positions) == len(source.segments)
    assert positions == sorted(positions)
    assert all(-1 <= k < len(target) for k in positions)
    before_first = positions.count(-1)
    assert positions[:before_first] == [-1] * before_first
    if not target:
        assert positions == [-1] * len(source.segments)


@pytest.mark.parametrize("tie_break", TIE_ORDERS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cross_project_matches_oracle_in_both_directions(tie_break, data):
    # The second backtrace over the (a, b) rows, insert before delete, must
    # equal aligning b to a in the fixed order.
    alphabet = draw_alphabet(data)
    a_doc = data.draw(documents(alphabet), label="a")
    b_doc = data.draw(documents(alphabet), label="b")
    on_b, on_a = cross_project(a_doc, b_doc)
    assert on_b == oracle_projection(a_doc, b_doc.tokens())
    assert on_a == oracle_projection(b_doc, a_doc.tokens())
    assert_tie_order_keeps_the_cost(a_doc.tokens(), b_doc.tokens(), tie_break)
    assert_tie_order_keeps_the_cost(b_doc.tokens(), a_doc.tokens(), tie_break)


def test_alignment_over_budget_fails_before_any_row(monkeypatch):
    monkeypatch.setattr(segmt.align, "MAX_ALIGN_CELLS", 11)
    assert len(levenshtein_align(["a"] * 3, ["b"] * 3).ops) == 3  # 9 cells fit
    with pytest.raises(ValueError, match=r"3 x 4 tokens"):
        levenshtein_align(["a"] * 3, ["b"] * 4)
    with pytest.raises(ValueError, match=r"4 x 3 tokens"):
        project_positions(SegmentedDocument([["a"] * 4]), ["b"] * 3)
    # Distance alone keeps one row and has no budget.
    assert edit_distance(["a"] * 3, ["b"] * 4) == 4


def noisy_copy(n, seed):
    """A seeded n-token document over 300 types and a copy with ~11% token noise."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(300)]
    a = [vocab[int(k)] for k in rng.integers(0, len(vocab), size=n)]
    b = []
    for tok in a:
        roll = rng.random()
        if roll >= 0.03:
            b.append(vocab[int(rng.integers(len(vocab)))] if roll < 0.08 else tok)
        if rng.random() < 0.03:
            b.append(vocab[int(rng.integers(len(vocab)))])
    return a, b


def test_30k_token_document_aligns_under_1_gib():
    a, b = noisy_copy(30_000, seed=3030)
    tracemalloc.start()
    try:
        alignment = levenshtein_align(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**30
    assert [op.a_index for op in alignment.ops if op.a_index is not None] == list(range(len(a)))
    assert [op.b_index for op in alignment.ops if op.b_index is not None] == list(range(len(b)))


def test_edit_distance_memory_is_linear():
    # The full table for 30k x 30k tokens would take about 3.4 GiB.
    a, b = noisy_copy(30_000, seed=3031)
    tracemalloc.start()
    try:
        distance = edit_distance(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert 0 < distance < len(a)


# ------------------------------------------------------------ banded passes


@contextlib.contextmanager
def banded_from(first_k):
    """Every pair takes the banded path, however short its rows, from a first
    band of half-width ``first_k``.  Yields the ``(width, distance)`` of every
    banded pass."""
    passes = []
    myers = segmt.align._myers

    def spy(a_keys, b_keys, lo, width, rows=None):
        distance = myers(a_keys, b_keys, lo, width, rows)
        if width < len(b_keys):  # a band; the full row is as wide as the row
            passes.append((width, distance))
        return distance

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(segmt.align, "BAND_MIN_COLUMNS", 0)
        patch.setattr(segmt.align, "_first_band", lambda a_keys, b_keys: first_k)
        patch.setattr(segmt.align, "_myers", spy)
        yield passes


def draw_near_copies(data, alphabet):
    """``(a, b)``: b is a after up to 10 random edits, so the distance is small
    next to the rows and a band narrower than half the row can hold it.  Runs
    of inserts or deletes make |n - m| much larger than a first K of 0 to 3."""
    size = data.draw(st.integers(0, 100), label="size")
    a = data.draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size), label="a")
    b = list(a)
    edits = st.tuples(st.sampled_from("dis"), st.integers(0, 100), st.sampled_from(alphabet))
    for kind, where, symbol in data.draw(st.lists(edits, max_size=10), label="edits"):
        where = min(where, len(b))
        if kind == "i":
            b.insert(where, symbol)
        elif where < len(b):
            b[where : where + 1] = [] if kind == "d" else [symbol]
    return (b, a) if data.draw(st.booleans(), label="swap") else (a, b)


def draw_document(data, tokens, label):
    """``tokens`` cut into non-empty segments at drawn positions."""
    cuts = data.draw(st.sets(st.integers(1, max(1, len(tokens) - 1)), max_size=8), label=label)
    cuts = sorted(k for k in cuts if k < len(tokens))
    bounds = [0, *cuts, len(tokens)] if tokens else []
    return SegmentedDocument([tokens[lo:hi] for lo, hi in zip(bounds, bounds[1:])])


def settled(passes):
    """True when one aligner call took at most two banded passes, and took a
    second only after a first band that failed Ukkonen's check, which the
    second passed.  Empties ``passes`` for the next call."""
    ok = len(passes) < 2 or (
        len(passes) == 2 and passes[0][1] > passes[0][0] and passes[1][1] <= passes[1][0]
    )
    passes.clear()
    return ok


@pytest.mark.parametrize("first_k", [0, 3])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_banded_passes_match_the_full_table_oracle(first_k, data):
    alphabet = draw_alphabet(data)
    a, b = draw_near_copies(data, alphabet)
    a_doc, b_doc = draw_document(data, a, "a cuts"), draw_document(data, b, "b cuts")
    stripped_distance = oracle_distance(normalize(a, STRIPPED), normalize(b, STRIPPED), PLAIN)
    with banded_from(first_k) as passes:
        assert levenshtein_align(a, b) == oracle_align(a, b) and settled(passes)
        assert edit_distance(a, b) == oracle_distance(a, b) and settled(passes)
        assert wer_counts(a, b) == (stripped_distance, len(normalize(a, STRIPPED)))
        assert settled(passes)
        assert project_positions(a_doc, b) == oracle_positions(a_doc, b) and settled(passes)
        on_b, on_a = cross_project(a_doc, b_doc)
        assert settled(passes)
    assert on_b == oracle_projection(a_doc, b)
    assert on_a == oracle_projection(b_doc, a)


@pytest.mark.parametrize("first_k", [0, 3])
def test_banded_passes_on_empty_sides_and_one_symbol(first_k):
    for a, b in [([], []), ([], ["x"] * 9), (["x"] * 7, []), (["x"] * 12, ["x"] * 5),
                 (["x"] * 30, ["x"] * 31), (["x", "y"] * 15, ["y", "x"] * 15)]:
        with banded_from(first_k) as passes:
            assert levenshtein_align(a, b) == oracle_align(a, b) and settled(passes)
            assert edit_distance(a, b) == oracle_distance(a, b) and settled(passes)


def test_a_failed_first_band_sizes_a_second_that_holds_the_script():
    # 40 tokens, 3 substitutions spread out: the 1-column band of K = 0 finds a
    # path of cost 3 > 1, and 3 sizes a band of K = 1 (3 columns).
    a = list("abcabcabcabcabcabcabcabcabcabcabcabcabca")
    b = list(a)
    for k in (5, 20, 35):
        b[k] = "z"
    with banded_from(0) as passes:
        assert levenshtein_align(a, b, PLAIN) == oracle_align(a, b, PLAIN)
    assert passes == [(1, 3), (3, 3)]
    # 5 net inserts: the first band is |n - m| + 1 = 6 columns wide and holds it.
    b = a[:10] + list("zzzzz") + a[10:]
    with banded_from(0) as passes:
        assert levenshtein_align(a, b, PLAIN) == oracle_align(a, b, PLAIN)
    assert passes == [(6, 5)]


def skewed_copies(n, seed, clean, noise):
    """A seeded n-token document over 300 types, and a copy whose first ``clean``
    tokens are equal and whose rest has ``noise`` substitutions, deletions and
    insertions per token, a third each."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(300)]
    a = [vocab[int(k)] for k in rng.integers(0, len(vocab), size=n)]
    b = a[:clean]
    for tok in a[clean:]:
        roll = rng.random() * 3
        if roll >= noise:
            b.append(vocab[int(rng.integers(len(vocab)))] if roll < 2 * noise else tok)
        if rng.random() * 3 < noise:
            b.append(vocab[int(rng.integers(len(vocab)))])
    return a, b


def test_no_pair_takes_more_than_two_forward_passes(monkeypatch):
    """Real gate and first band: the passes each forward pass makes over the
    whole pair (the prefix sample that sizes the first band is not one), and
    scripts in both directions equal to those of the full rows."""
    passes = []
    myers = segmt.align._myers

    def spy(a_keys, b_keys, lo, width, rows=None):
        # A band is narrower than the row; the full row is as wide as the row.
        name = "_banded" if width < len(b_keys) else "_myers"
        passes.append((name, len(a_keys), len(b_keys)))
        return myers(a_keys, b_keys, lo, width, rows)

    monkeypatch.setattr(segmt.align, "_myers", spy)
    cases = {
        "even noise: one band": (noisy_copy(3000, seed=7001), ["_banded"]),
        "clean prefix, 3% noise after it: a second band": (
            skewed_copies(3000, 7002, clean=400, noise=0.03), ["_banded", "_banded"]),
        "clean prefix, random after it: the full row second": (
            skewed_copies(3000, 7003, clean=400, noise=3), ["_banded", "_myers"]),
        "random: the full row": (skewed_copies(3000, 7004, clean=0, noise=3), ["_myers"]),
    }
    a, b = noisy_copy(2400, seed=7005)
    cases["400 tokens more at the end: one band"] = ((a, b + a[:400]), ["_banded"])

    def scripts(a, b):
        forward = segmt.align._forward(a, b, ALIGNMENT_NORMALIZATION)
        return segmt.align._backtrace(forward), segmt.align._backtrace(forward, b_to_a=True)

    for label, ((a, b), expected) in cases.items():
        for first, second in ((a, b), (b, a)):
            passes.clear()
            banded = scripts(first, second)
            whole = [name for name, n, m in passes if (n, m) == (len(first), len(second))]
            assert whole == expected, (label, passes)
            assert len(passes) <= 3  # the two passes and the prefix sample
            distance = edit_distance(first, second)
            with monkeypatch.context() as full_rows:
                full_rows.setattr(segmt.align, "BAND_MIN_COLUMNS", 10**9)
                assert scripts(first, second) == banded, label
                assert edit_distance(first, second) == distance, label


def test_banded_rows_of_an_8k_pair_take_under_half_the_memory_of_full_rows():
    # c11's generator at 8k tokens: the full rows peak at about 22 MiB.
    a, b = noisy_copy(8000, seed=8008)
    tracemalloc.start()
    try:
        forward = segmt.align._forward(a, b, ALIGNMENT_NORMALIZATION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20
    assert forward[-1] > 0  # last = m - width: the window moves, so these are banded rows


def test_wer_identical():
    assert wer(["the", "weather"], ["the", "weather"]) == 0.0


def test_wer_single_substitution():
    gold = ["the", "weather", "today", "was", "warm"]
    system = ["the", "whether", "today", "was", "warm"]
    assert wer(gold, system) == 0.2


def test_wer_empty_hypothesis():
    assert wer(["a", "b", "c", "d"], []) == 1.0


def test_wer_ignores_case_and_punctuation():
    assert wer(["Hello,", "World!"], ["hello", "world"]) == 0.0


def test_wer_counts_errors_and_reference_length():
    assert wer_counts(["Hello,", "big", "World!"], ["hello", "world"]) == (1, 3)
    assert wer_counts(["..."], ["a"]) == (1, 0)


def test_wer_empty_reference_rejected():
    with pytest.raises(ValueError):
        wer(["..."], ["a"])


def test_project_segmentation_variant():
    system = SegmentedDocument([["the", "whether"], ["today", "was", "warm"]])
    gold_tokens = ["the", "weather", "today", "was", "warm"]
    assert project_boundaries(system, gold_tokens).segments == [
        ["the", "weather"],
        ["today", "was", "warm"],
    ]


def test_project_recognition_variant():
    gold = SegmentedDocument([["the", "weather", "today", "was", "warm"]])
    system_tokens = ["the", "whether", "today", "was", "warm"]
    assert project_boundaries(gold, system_tokens).segments == [
        ["the", "whether", "today", "was", "warm"]
    ]


def test_project_self_identity():
    doc = SegmentedDocument([["a", "b"], ["c"], ["d", "e"]], doc_id="d")
    tokens, _ = flatten(doc)
    assert project_boundaries(doc, tokens) == doc


def test_project_deleted_token_attaches_before():
    # Boundary after b; b is deleted in the target, so it follows a instead.
    source = SegmentedDocument([["a", "b"], ["c"]])
    assert project_boundaries(source, ["a", "c"]).segments == [["a"], ["c"]]


def test_project_leading_boundary_dropped():
    # x aligns to nothing before the first target token; its boundary vanishes.
    source = SegmentedDocument([["x"], ["a"]])
    assert project_boundaries(source, ["a"]).segments == [["a"]]


def test_project_positions_non_decreasing():
    source = SegmentedDocument([["x"], ["y"], ["a"], ["b"]])
    positions = project_positions(source, ["a", "b"])
    assert positions == sorted(positions)
    assert positions[0] == -1


def test_project_empty_target():
    source = SegmentedDocument([["a"], ["b"]])
    assert project_boundaries(source, []).segments == []


@given(
    st.lists(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4), min_size=1, max_size=4),
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=10),
)
def test_project_preserves_target_tokens(segments, target):
    out = project_boundaries(SegmentedDocument(segments), target)
    tokens, bounds = flatten(out)
    assert tokens == target
    assert all(seg for seg in out.segments)
    assert bounds[-1] == len(target) - 1
