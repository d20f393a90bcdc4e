"""``segmt wer``, ``project`` and ``simulate`` end to end against ``cli_oracle``.

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


#: simulate's rate flags, by the ``NoiseConfig`` field each sets.
RATE_FLAGS = {
    "substitution_rate": "--substitution-rate",
    "deletion_rate": "--deletion-rate",
    "insertion_rate": "--insertion-rate",
    "boundary_merge_rate": "--merge-rate",
    "boundary_split_rate": "--split-rate",
}
RATE = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))


@st.composite
def simulate_cases(draw):
    """Many documents of 1-3 tokens, now and then a longer one, with rates, a seed and a vocabulary."""
    alphabet = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3, unique=True))
    short = st.lists(st.lists(st.sampled_from(alphabet), min_size=1, max_size=2), min_size=1, max_size=2)
    long = st.lists(st.lists(st.sampled_from(alphabet), min_size=1, max_size=8), min_size=4, max_size=8)
    docs = draw(st.lists(st.one_of(short, short, short, long), max_size=30))
    text = "\n".join("".join(" ".join(seg) + "\n" for seg in doc) for doc in docs)
    vocab = draw(st.one_of(st.none(), st.lists(st.sampled_from(TOKENS + ["x", "y"]), max_size=4)))
    token_rates = draw(st.lists(RATE, min_size=3, max_size=3).filter(lambda rates: sum(rates) <= 1))
    rates = dict(zip(RATE_FLAGS, token_rates + draw(st.lists(RATE, min_size=2, max_size=2))))
    seed = draw(st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**70)))
    return text, vocab, rates, seed


@settings(max_examples=40, deadline=None)
@given(case=simulate_cases())
@example(case=("a b\na\n\nb\n\na\n", None, dict.fromkeys(RATE_FLAGS, 0.0), 0))  # no draw changes a thing
@example(case=("a\n\nb b\nb\n", ["x"], dict(dict.fromkeys(RATE_FLAGS, 0.0), deletion_rate=1.0), 2**32))
@example(case=("a\n", [], dict(dict.fromkeys(RATE_FLAGS, 0.0), insertion_rate=0.5), 3))  # no vocabulary: exits 2
@example(case=(  # the first document is emptied, and the gaps of those after it still draw their own
    "a\n\nb a b\na b\n\nb\n\na b a\nb a b a\n", None,
    dict(dict.fromkeys(RATE_FLAGS, 0.5), substitution_rate=0.0, insertion_rate=0.0), 1,
))
def test_simulate_matches_the_oracle_cli(tmp_path_factory, case):
    text, vocab, rates, seed = case
    base = tmp_path_factory.getbasetemp()
    docs, out = base / "docs.txt", base / "out"
    docs.write_bytes(text.encode("utf-8"))
    out.unlink(missing_ok=True)
    argv = ["simulate", str(docs), "-o", str(out), "--seed", str(seed)]
    if vocab is not None:
        (base / "vocab.txt").write_bytes(" ".join(vocab).encode("utf-8") + b"\n")
        argv += ["--vocab", str(base / "vocab.txt")]
    for field, rate in rates.items():
        argv += [RATE_FLAGS[field], repr(rate)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    produced = (code, stdout.getvalue(), out.read_bytes() if out.exists() else None)
    expected = cli_oracle.simulate(docs, base / "vocab.txt" if vocab is not None else None, seed, rates)
    assert produced == expected
    if code == 0:  # corruption that empties a document drops it, with a note
        dropped = len(cli_oracle.read_documents(docs)) - len(cli_oracle.read_documents(out))
        note = f"note: corruption left {dropped} document(s) empty; dropped\n"
        assert stderr.getvalue() == (note if dropped else "")
