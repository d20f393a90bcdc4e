"""``segmt wer`` and ``segmt project`` end to end against ``cli_oracle``.

Each test writes the same generated document files for the CLI and the
oracle, then compares the exit code, stdout and the bytes of the written
file.  The files mix ASCII and non-ASCII tokens, tokens whose key is empty,
and alphabets of one to three tokens, whose alignments are full of ties.
Lines are padded and spaced irregularly, end in ``\\n`` or ``\\r\\n``, and runs
of blank lines separate documents; now and then the two files hold
different numbers of documents, which exits 2 on both sides.
"""

import contextlib
import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import cli_oracle
import segmt.align
from segmt.cli import main

#: Tokens that alphabets are drawn from: "..." and "!?" have empty keys, and
#: "$" keeps its key in alignment but not in WER, which strips symbols.
TOKENS = ["a", "b", "A", "a.", "é", "É", "日本", "straße", "ǅ", "...", "!?", "$"]
GAP = st.sampled_from([" ", "  ", "\t "])
PAD = st.sampled_from(["", "", " ", "  "])
END = st.sampled_from(["\n", "\r\n"])
BLANK = st.sampled_from(["\n", "\r\n", "  \n"])


@st.composite
def corpora(draw):
    """Two document files over one alphabet of 1-3 tokens, as text."""
    alphabet = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3, unique=True))
    segment = st.lists(st.sampled_from(alphabet), min_size=1, max_size=6)

    def document_file(count):
        text = "".join(draw(st.lists(BLANK, max_size=1)))
        for k in range(count):
            if k:
                text += "".join(draw(st.lists(BLANK, min_size=1, max_size=2)))
            for tokens in draw(st.lists(segment, min_size=1, max_size=4)):
                text += draw(PAD) + "".join(draw(GAP) + token for token in tokens)[1:] + draw(PAD)
                text += draw(END)
        return text

    count = draw(st.integers(0, 4))
    return document_file(count), document_file(draw(st.one_of(st.just(count), st.integers(0, 4))))


def run_both(tmp_path, command, first, second):
    """The CLI's outcome and the oracle's on the same two files, as (code, stdout, written)."""
    paths = [tmp_path / "first.txt", tmp_path / "second.txt"]
    for path, text in zip(paths, (first, second)):
        path.write_bytes(text.encode("utf-8"))
    out = tmp_path / "out"
    out.unlink(missing_ok=True)
    flag = "--json" if command == "wer" else "-o"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, *map(str, paths), flag, str(out)])
    produced = (code, stdout.getvalue(), out.read_bytes() if out.exists() else None)
    return produced, getattr(cli_oracle, command)(*paths)


@settings(max_examples=40, deadline=None)
@given(files=corpora())
@example(files=("...  $\r\n!?\n", "a  b\n"))  # a reference empty after normalisation exits 2
def test_wer_matches_the_oracle_cli(tmp_path_factory, files):
    produced, expected = run_both(tmp_path_factory.getbasetemp(), "wer", *files)
    assert produced == expected


@settings(max_examples=40, deadline=None)
@given(files=corpora())
@example(files=("... a\r\n\r\n\r\nb\n", "a b ...\n\n$\n"))
def test_project_matches_the_oracle_cli(tmp_path_factory, files):
    produced, expected = run_both(tmp_path_factory.getbasetemp(), "project", *files)
    assert produced == expected


def noisy_document(rng, alphabet, length):
    """A document of ``length`` tokens and a copy with a few edits, each cut at random."""
    tokens = rng.choices(alphabet, k=length)
    copy = list(tokens)
    for _ in range(rng.randint(0, max(1, length // 15))):
        k = rng.randrange(len(copy))
        copy[k : k + rng.randint(0, 1)] = rng.choices(alphabet, k=rng.randint(0, 2))

    def cut(seq):
        ends = sorted(rng.sample(range(1, len(seq)), len(seq) // 8)) + [len(seq)]
        lines = (" ".join(seq[a:b]) for a, b in zip([0, *ends], ends))
        return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)

    return cut(tokens), cut(copy or tokens[:1])


@pytest.mark.parametrize("command", ["wer", "project"])
def test_a_corpus_of_band_and_lane_pairs_matches_the_oracle_cli(tmp_path, command):
    """With ``BAND_MIN_COLUMNS`` low, long pairs run on a band and short ones in lanes."""
    rng = random.Random(2024)
    lengths = (9, 70, 14, 60, 3, 85, 20, 11)
    docs = [noisy_document(rng, ["a", "é", "..."], length) for length in lengths]
    first, second = ("\n".join(doc[side] for doc in docs) for side in (0, 1))
    calls = {"band": 0, "lanes": 0}
    band, lanes = segmt.align._band, segmt.align._lanes

    def band_spy(*args, **kwargs):
        calls["band"] += 1
        return band(*args, **kwargs)

    def lane_spy(group, keep=False):
        calls["lanes"] += len(group) > 1  # a group of several pairs, not a band's sample
        return lanes(group, keep)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(segmt.align, "BAND_MIN_COLUMNS", 24)
        patch.setattr(segmt.align, "_band", band_spy)
        patch.setattr(segmt.align, "_lanes", lane_spy)
        produced, expected = run_both(tmp_path, command, first, second)
    assert calls["band"] and calls["lanes"], calls
    assert produced == expected
    assert produced[0] == 0
