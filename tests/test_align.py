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
    corpus_cross_project,
    corpus_positions,
    corpus_wer_counts,
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
    band = segmt.align._band

    def spy(a_keys, b_keys, lo, width, rows=None):
        distance = band(a_keys, b_keys, lo, width, rows)
        if width < len(b_keys):  # a band; the full row is as wide as the row
            passes.append((width, distance))
        return distance

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(segmt.align, "BAND_MIN_COLUMNS", 0)
        patch.setattr(segmt.align, "_first_band", lambda a_keys, b_keys: first_k)
        patch.setattr(segmt.align, "_band", spy)
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
    whole pair, on a band (``_band``) or in a lane group (``_lanes``; the
    prefix sample that sizes the first band is not one), and scripts in both
    directions equal to those of the full rows."""
    passes = []
    band, lanes = segmt.align._band, segmt.align._lanes

    def band_spy(a_keys, b_keys, lo, width, rows=None):
        assert width < len(b_keys)  # a band never runs a full row
        passes.append(("band", len(a_keys), len(b_keys)))
        return band(a_keys, b_keys, lo, width, rows)

    def lane_spy(pairs, keep=False):
        passes.extend(("lanes", len(a_keys), len(b_keys)) for a_keys, b_keys in pairs)
        return lanes(pairs, keep)

    monkeypatch.setattr(segmt.align, "_band", band_spy)
    monkeypatch.setattr(segmt.align, "_lanes", lane_spy)
    cases = {
        "even noise: one band": (noisy_copy(3000, seed=7001), ["band"]),
        "clean prefix, 3% noise after it: a second band": (
            skewed_copies(3000, 7002, clean=400, noise=0.03), ["band", "band"]),
        "clean prefix, random after it: the full row second": (
            skewed_copies(3000, 7003, clean=400, noise=3), ["band", "lanes"]),
        "random: the full row": (skewed_copies(3000, 7004, clean=0, noise=3), ["lanes"]),
    }
    a, b = noisy_copy(2400, seed=7005)
    cases["400 tokens more at the end: one band"] = ((a, b + a[:400]), ["band"])

    def scripts(a, b):
        (forward,) = segmt.align._forward([(a, b)], ALIGNMENT_NORMALIZATION)
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
        (forward,) = segmt.align._forward([(a, b)], ALIGNMENT_NORMALIZATION)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20
    *_, last, off = forward
    assert last > 0  # last = m - width: the window moves, so these are banded rows


def test_a_band_one_over_its_width_is_not_accepted():
    """Ukkonen's bound is strict: a band whose D'[n][m] is W + 1 is redone.

    "bbabbcba" to "abbbac" (n = 8, m = 6): the K = 0 band holds the
    diagonals -2 .. 0, W = 3 columns.  Every optimal path (cost 4) leaves it
    by one diagonal, and the cheapest path inside it costs 5, but the
    band's border column still gives D' = 4 = W + 1.  Its rows do not hold
    the tie order's path, so accepting it would backtrace off the band.
    "abab" to "baaba": W = 2 and D' = 3 = D, and the band holds a path of
    cost 3 (substitute, substitute, match, match, insert), but not the tie
    order's (insert, insert, match, match, match, delete).  In both, the
    second band (K = 1) would be wider than half the row, so the pair runs
    on full rows.
    """
    for a, b, first_pass in (("bbabbcba", "abbbac", (3, 4)), ("abab", "baaba", (2, 3))):
        a, b = list(a), list(b)
        a_doc, b_doc = SegmentedDocument([a[:3], a[3:]]), SegmentedDocument([b[:2], b[2:]])
        with banded_from(0) as passes:
            assert segmt.align._passes(a, b, keep=True) is None
            assert passes == [first_pass]
            passes.clear()
            assert levenshtein_align(a, b, PLAIN) == oracle_align(a, b, PLAIN)
            assert edit_distance(a, b, PLAIN) == oracle_distance(a, b, PLAIN) == first_pass[1]
            on_b, on_a = cross_project(a_doc, b_doc, PLAIN)
            assert passes == [first_pass] * 3
        assert on_b == oracle_projection(a_doc, b, PLAIN)
        assert on_a == oracle_projection(b_doc, a, PLAIN)


# ------------------------------------------------------------ lane pass

#: Rows at a lane's byte edges: with m = 7 or 15 the one guard bit is the
#: top bit of the last byte; with m = 8 or 16 it is a byte of its own.
LANE_EDGES = [0, 7, 8, 9, 15, 16, 17]


def draw_lane_batch(data):
    """1-12 ``(a, b)`` pairs over 1-3 symbols, full of ties: sides empty or at
    a lane's byte edges among them, and maybe one ``a`` of 40-60 tokens, so
    that one lane runs many rows past every other lane's last."""
    alphabet = ["a", "b", "c"][: data.draw(st.integers(1, 3), label="alphabet size")]

    def tokens(size):
        return st.lists(st.sampled_from(alphabet), min_size=size, max_size=size)

    sizes = st.one_of(st.sampled_from(LANE_EDGES), st.integers(0, 20))
    pairs = [
        (data.draw(sizes.flatmap(tokens), label="a"), data.draw(sizes.flatmap(tokens), label="b"))
        for _ in range(data.draw(st.integers(1, 12), label="pairs"))
    ]
    tall = data.draw(st.none() | st.integers(0, len(pairs) - 1), label="tall lane")
    if tall is not None:
        pairs[tall] = (data.draw(st.integers(40, 60).flatmap(tokens), label="tall a"), pairs[tall][1])
    return pairs


def oracle_kinds(a, b, b_to_a=False):
    """The oracle's script kinds, last step first as ``_backtrace`` gives
    them; with ``b_to_a``, the script from b to a in a's kinds."""
    if not b_to_a:
        return [op.kind for op in reversed(oracle_align(a, b, PLAIN).ops)]
    swap = {DELETE: INSERT, INSERT: DELETE}
    return [swap.get(op.kind, op.kind) for op in reversed(oracle_align(b, a, PLAIN).ops)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lane_pass_equals_a_batch_of_one_and_the_oracle(data):
    pairs = draw_lane_batch(data)
    groups = []
    lanes = segmt.align._lanes

    def spy(group, keep=False):
        groups.append(len(group))
        return lanes(group, keep)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(segmt.align, "_lanes", spy)
        forwards = list(segmt.align._forward(pairs, PLAIN))
        distances = list(segmt.align._aligned(pairs))  # the tokens are their own PLAIN keys
    assert groups == [len(pairs), len(pairs)]  # every pair in one group, twice
    for (a, b), forward, distance in zip(pairs, forwards, distances, strict=True):
        (alone,) = segmt.align._forward([(a, b)], PLAIN)
        script = segmt.align._backtrace(forward)
        assert script == segmt.align._backtrace(alone) == oracle_kinds(a, b)
        script = segmt.align._backtrace(forward, b_to_a=True)
        assert script == segmt.align._backtrace(alone, b_to_a=True) == oracle_kinds(a, b, True)
        assert distance == edit_distance(a, b, PLAIN) == oracle_distance(a, b, PLAIN)
    a_docs = [draw_document(data, a, "a cuts") for a, _ in pairs]
    b_docs = [draw_document(data, b, "b cuts") for _, b in pairs]
    targets = [b for _, b in pairs]
    assert corpus_positions(zip(a_docs, targets), PLAIN) == [
        oracle_positions(a_doc, b, PLAIN) for a_doc, b in zip(a_docs, targets)
    ]
    assert corpus_cross_project(zip(a_docs, b_docs), PLAIN) == [
        (oracle_projection(a_doc, b_doc.tokens(), PLAIN), oracle_projection(b_doc, a_doc.tokens(), PLAIN))
        for a_doc, b_doc in zip(a_docs, b_docs)
    ]
    assert corpus_wer_counts(pairs) == [wer_counts(a, b) for a, b in pairs]


def test_a_corpus_of_band_and_lane_pairs_keeps_its_order():
    band = noisy_copy(2400, seed=7006)  # at least BAND_MIN_COLUMNS: one band
    wide = skewed_copies(2400, 7007, clean=0, noise=3)  # band too wide: full rows
    short = [noisy_copy(n, seed) for n, seed in ((300, 1), (0, 2), (150, 3), (450, 4), (9, 5))]
    pairs = [short[0], short[1], band, short[2], wide, short[3], (short[4][0], []), ([], band[1])]
    log = []
    band, lanes = segmt.align._band, segmt.align._lanes

    def band_spy(a_keys, b_keys, lo, width, rows=None):
        log.append(("band", len(a_keys)))
        return band(a_keys, b_keys, lo, width, rows)

    def lane_spy(group, keep=False):
        sizes = [len(a_keys) for a_keys, _ in group]
        if sizes != [segmt.align.BAND_SAMPLE]:  # not the sample that sizes a first band
            log.append(("lanes", sizes))
        return lanes(group, keep)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(segmt.align, "_band", band_spy)
        patch.setattr(segmt.align, "_lanes", lane_spy)
        forwards = list(segmt.align._forward(pairs, ALIGNMENT_NORMALIZATION))
    n = [len(a) for a, _ in pairs]
    # A band closes the group before it.  The wide pair's sample sizes a band
    # wider than half its row, so it runs on full rows at once, and the cap
    # closes the groups on both sides of its 2,400 rows.
    assert log == [("band", n[2]), ("lanes", n[:2]), ("lanes", n[3:4]), ("lanes", n[4:5]),
                   ("lanes", n[5:8])]
    for (a, b), forward in zip(pairs, forwards, strict=True):
        assert forward[:2] == segmt.align._comparison_keys(a, b, ALIGNMENT_NORMALIZATION)
        (alone,) = segmt.align._forward([(a, b)], ALIGNMENT_NORMALIZATION)
        assert segmt.align._backtrace(forward) == segmt.align._backtrace(alone)
        assert segmt.align._backtrace(forward, True) == segmt.align._backtrace(alone, True)
    docs = [SegmentedDocument([a[:5], a[5:]] if len(a) > 5 else [a] if a else []) for a, _ in pairs]
    assert corpus_positions(zip(docs, (b for _, b in pairs))) == [
        project_positions(doc, b) for doc, (_, b) in zip(docs, pairs)
    ]
    assert corpus_wer_counts(pairs) == [wer_counts(a, b) for a, b in pairs]


def test_a_long_a_lane_gets_a_group_of_its_own():
    """One 100k x 40-token pair among 200 pairs of 300 x 300 tokens.

    A group at the cap keeps 3 x ``LANE_GROUP_BITS`` bits of rows: 0.75
    MiB.  The long pair alone keeps 100k rows of three ints of one 48-bit
    lane, at most 40 bytes each with its list slot: 11.4 MiB.  Had it joined
    even one 300-token neighbour, its 100k rows would be 352 bits wide: the
    corpus then peaks at 20.9 MiB; in a group with all 200, about 2.3 GB.  So the corpus
    must peak under the long pair's own rows plus four groups at the cap.
    """
    rng = np.random.default_rng(100_040)
    vocab = np.array([f"w{i}" for i in range(300)])

    def tokens(n):
        return vocab[rng.integers(0, len(vocab), size=n)].tolist()

    pairs = [(tokens(300), tokens(300)) for _ in range(200)]
    pairs.insert(100, (tokens(100_000), tokens(40)))
    docs = [(SegmentedDocument([a]), b) for a, b in pairs]
    cap_bytes = 3 * segmt.align.LANE_GROUP_BITS // 8
    tracemalloc.start()
    try:
        positions = corpus_positions(docs, PLAIN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000 * 3 * 40 + 4 * cap_bytes
    assert len(positions) == 201 and positions[100] == project_positions(*docs[100], PLAIN)


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
