"""The CLI's exit-code contract: bad input exits 2 (or 1), a bug exits 3.

Every test runs ``main`` in-process.  Input that a command cannot use
raises ``InputError`` (``ParseError`` and ``ConfigError`` are kinds of it)
and exits 2 with the file, line or document named; any other exception,
a library ``ValueError`` included, exits 3 as an internal error.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import segmt.align
from segmt.cli import main
from segmt.config import ConfigError
from segmt.formats import ParseError
from segmt.text import InputError, SegmentedDocument, paired_documents

GOOD_DOCS = "a b c\nd e\n\nf g\n"
PAIRING = {
    "project": lambda first, second, out: ["project", first, second, "-o", out],
    "variants": lambda first, second, out: ["variants", first, second, "-d", out],
    "wer": lambda first, second, out: ["wer", first, second],
    "score": lambda first, second, out: ["score", first, second],
    "score --resegment": lambda first, second, out: ["score", first, second, "--resegment"],
    "report": lambda first, second, out: ["report", first, second],
}


def run(argv):
    """``main(argv)``'s exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def documents_text(sizes):
    """A document file with one document of ``n`` one-token segments per size."""
    return "\n".join("".join(f"w{i}\n" for i in range(n)) for n in sizes)


# ------------------------------------------------------- malformed files

printable = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
# A byte that cannot start a UTF-8 character, a lead byte cut short, or a
# surrogate: UTF-8 text never starts with a continuation byte, so each stays bad.
bad_utf8 = st.builds(
    lambda before, bad, after: before.encode() + bad + after.encode(),
    printable,
    st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]),
    printable,
)
tab_free = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"))
not_blank = tab_free.filter(lambda text: text.strip())
wrong_field_count = st.one_of(
    not_blank,
    st.lists(tab_free, min_size=3, max_size=5).map("\t".join).filter(lambda text: text.strip()),
)
empty_side = st.one_of(
    st.builds(lambda side, blank: f"{side}\t{blank}", not_blank, st.sampled_from(["", " ", "  "])),
    st.builds(lambda blank, side: f"{blank}\t{side}", st.sampled_from(["", " "]), not_blank),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | printable,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(printable, inner, max_size=3),
    max_leaves=6,
)


def is_time(text, end=1.0):
    """Whether ``float()`` reads ``text`` as a start time in [0, end] (README's rule)."""
    try:
        return 0 <= float(text) <= end  # NaN is not
    except ValueError:
        return False


bad_word = st.one_of(
    json_values,
    st.fixed_dictionaries({"text": st.just("a")}),
    st.fixed_dictionaries({"text": st.sampled_from(["", "a b", " a"]), "start": st.just(0), "end": st.just(1)}),
    st.fixed_dictionaries({"text": st.just("a"), "start": st.just(2), "end": st.just(1)}),
    st.fixed_dictionaries({"text": st.just("a"), "start": st.just(-1), "end": st.just(1)}),
    st.fixed_dictionaries(
        {"text": st.just("a"), "start": printable.filter(lambda s: not is_time(s)), "end": st.just(1)}
    ),
)
SCALARS = {
    "seed": st.one_of(st.booleans(), st.floats(), printable, st.lists(st.integers(), max_size=2)),
    "fixed_length": st.one_of(st.booleans(), st.floats(), printable),
    "mixture_augmented_fraction": st.one_of(st.booleans(), printable, st.lists(st.integers(), max_size=2)),
    "input_path": st.one_of(st.booleans(), st.integers(), st.lists(printable, max_size=2)),
    "pause_split": st.fixed_dictionaries({"max_tokens": st.one_of(st.floats(), printable)}),
    "bleu": st.fixed_dictionaries({"max_ngram_order": st.one_of(st.booleans(), st.floats())}),
    "augmentation": st.fixed_dictionaries({"seed": st.one_of(st.floats(), printable)}),
    "noise": st.fixed_dictionaries(
        {"vocabulary": st.one_of(st.integers(), printable, st.lists(st.integers(), min_size=1))}
    ),
}
bad_config = st.sampled_from(sorted(SCALARS)).flatmap(
    lambda key: SCALARS[key].map(lambda value: json.dumps({key: value}))  # JSON is YAML
)


def document_commands(bad, good, out):
    return [
        ["normalize", bad, "-o", out],
        ["segment", "punct", bad, "-o", out],
        ["segment", "fixed", bad, "-o", out],
        ["project", bad, good, "-o", out],
        ["variants", good, bad, "-d", out],
        ["score", bad, good],
        ["score", good, bad, "--resegment"],
        ["wer", good, bad],
        ["simulate", bad, "-o", out],
        ["report", bad, good],
    ]


def bitext_commands(bad, out):
    return [
        ["augment", bad, "-o", out],
        ["mix", "--corpus", f"a={bad}", "--weight", "a=1.0", "--augmented-fraction", "0",
         "--total", "2", "-o", out],
    ]


def lines(strategy):
    return st.lists(strategy, min_size=1, max_size=3).map(lambda rows: ("\n".join(rows) + "\n").encode())


#: Malformed file contents, and the reader whose commands get the file.
MALFORMED = {
    "documents bad utf-8": (bad_utf8, "documents"),
    "bitext bad utf-8": (bad_utf8, "bitext"),
    "bitext wrong field count": (lines(wrong_field_count), "bitext"),
    "bitext empty side": (lines(empty_side), "bitext"),
    "transcripts bad utf-8": (bad_utf8, "transcripts"),
    "transcripts bad json": (lines(st.builds(lambda text: "{" + text, printable)), "transcripts"),
    "transcripts not an object": (
        lines(json_values.filter(lambda value: not isinstance(value, dict)).map(json.dumps)),
        "transcripts",
    ),
    "transcripts words not a list": (
        lines(json_values.filter(lambda value: not isinstance(value, list))
              .map(lambda words: json.dumps({"words": words}))),
        "transcripts",
    ),
    "transcripts bad words": (
        lines(st.lists(bad_word, min_size=1, max_size=3).map(lambda words: json.dumps({"words": words}))),
        "transcripts",
    ),
    "vocabulary bad utf-8": (bad_utf8, "vocabulary"),
    "config bad utf-8": (bad_utf8, "config"),
    "config bad scalar": (bad_config.map(str.encode), "config"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_files_exit_1_or_2_naming_the_file(tmp_path, case, data):
    strategy, reader = MALFORMED[case]
    bad = tmp_path / "bad"
    bad.write_bytes(data.draw(strategy, label="contents"))
    good = tmp_path / "good.txt"
    good.write_text(GOOD_DOCS, encoding="utf-8")
    bad, good, out = str(bad), str(good), str(tmp_path / "out")
    commands = {
        "documents": document_commands(bad, good, out),
        "bitext": bitext_commands(bad, out),
        "transcripts": [["segment", "pause", bad, "-o", out]],
        "vocabulary": [["simulate", good, "--vocab", bad, "--substitution-rate", "0.5", "-o", out]],
        "config": [["segment", "fixed", good, "-o", out, "--config", bad],
                   ["augment", "--config", bad, "-o", out],
                   ["mix", "--corpus", f"a={good}", "--weight", "a=1.0", "--total", "1",
                    "-o", out, "--config", bad]],
    }[reader]
    argv = data.draw(st.sampled_from(commands), label="argv")
    code, err = run(argv)
    assert code in (1, 2), err
    assert "internal error" not in err
    assert bad in err


@example(start="0")
@example(start=" 1 ")
@example(start="2")
@example(start="nan")
@given(start=printable)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_start_times_are_read_with_float(tmp_path, start):
    # "transcripts bad words" draws only the start strings that is_time refuses.
    path = tmp_path / "words.jsonl"
    path.write_text(json.dumps({"words": [{"text": "a", "start": start, "end": 1}]}), encoding="utf-8")
    code, err = run(["segment", "pause", str(path), "-o", str(tmp_path / "out")])
    assert code == (0 if is_time(start) else 2), err


@given(sizes=st.lists(st.integers(1, 3), min_size=2, max_size=6), split=st.integers(0, 5),
       command=st.sampled_from(sorted(PAIRING)))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mismatched_document_counts_exit_2_naming_the_document(tmp_path, sizes, split, command):
    split = split % (len(sizes) - 1) + 1  # both files keep at least one document
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text(documents_text(sizes), encoding="utf-8")
    second.write_text(documents_text(sizes[:split]), encoding="utf-8")
    code, err = run(PAIRING[command](str(first), str(second), str(tmp_path / "out")))
    assert code == 2, err
    assert f"document count mismatch: {len(sizes)} vs {split} documents" in err
    assert f"first unpaired document doc{split}" in err


# ---------------------------------------------------------- the two sides


def test_value_error_inside_the_library_exits_3(tmp_path, monkeypatch):
    def broken(forward, b_to_a=False):
        raise ValueError("backtrace bug")

    backtrace, forward = segmt.align._backtrace, segmt.align._forward
    monkeypatch.setattr(segmt.align, "_backtrace", broken)
    docs = tmp_path / "docs.txt"
    docs.write_text(GOOD_DOCS, encoding="utf-8")
    commands = (["project", str(docs), str(docs), "-o", str(tmp_path / "out.txt")],
                ["score", str(docs), str(docs), "--resegment"])
    for argv in commands:
        code, err = run(argv)
        assert code == 3
        assert "internal error: ValueError: backtrace bug" in err
        assert "test_exit_codes.py:" in err and " in broken)" in err  # the innermost frame
    # A forward pass cut to its first four values fails to unpack inside the real backtrace.
    monkeypatch.setattr(segmt.align, "_backtrace", backtrace)
    monkeypatch.setattr(segmt.align, "_forward", lambda *args: (f[:4] for f in forward(*args)))
    for argv in commands:
        code, err = run(argv)
        assert code == 3
        assert "internal error: ValueError: not enough values to unpack" in err
        assert "align.py:" in err and " in _backtrace)" in err


def test_input_errors_are_value_errors():
    assert issubclass(InputError, ValueError)
    assert issubclass(ParseError, InputError)
    assert issubclass(ConfigError, InputError)


def test_every_pairing_command_reports_the_one_mismatch_message(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text(documents_text([2, 1, 1]), encoding="utf-8")
    second.write_text(documents_text([2]), encoding="utf-8")
    docs = [SegmentedDocument([["w"]], doc_id=f"doc{i}") for i in range(3)]
    with pytest.raises(InputError) as expected:
        paired_documents(docs, docs[:1])
    for command, argv in PAIRING.items():
        code, err = run(argv(str(first), str(second), str(tmp_path / "out")))
        assert (code, err) == (2, f"error: {expected.value}\n"), command


def test_align_wer_empty_reference_is_input_error():
    with pytest.raises(InputError, match="reference is empty"):
        segmt.align.wer([], ["a"])


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_each_input_rejection_exits_2_with_its_message(tmp_path, monkeypatch):
    docs = write(tmp_path / "docs.txt", GOOD_DOCS)
    empty = write(tmp_path / "empty.txt", "")
    bitext = write(tmp_path / "bi.tsv", "a\tb\n")
    out = str(tmp_path / "out")
    cases = [
        (["score", empty, empty], "all reference segments are empty"),
        (["wer", empty, empty], "WER is undefined: reference corpus is empty"),
        (["simulate", docs, "--vocab", empty, "--substitution-rate", "0.5", "-o", out],
         "substitution/insertion need a non-empty vocabulary"),
        (["mix", "--corpus", f"a={empty}", "--weight", "a=1.0", "--augmented-fraction", "0",
          "--total", "1", "-o", out], "corpus 'a' has no original pairs"),
        (["mix", "--corpus", f"a={bitext}:{empty}", "--weight", "a=1.0",
          "--augmented-fraction", "0.5", "--total", "1", "-o", out],
         "corpus 'a' has no augmented pairs"),
    ]
    for argv, message in cases:
        code, err = run(argv)
        assert code == 2 and message in err, (argv, err)
    monkeypatch.setattr(segmt.align, "MAX_ALIGN_CELLS", 10)
    for argv in (["project", docs, docs, "-o", out], ["variants", docs, docs, "-d", out],
                 ["score", docs, docs, "--resegment"], ["report", docs, docs]):
        code, err = run(argv)
        assert code == 2 and "5 x 5 tokens exceeds the budget" in err, (argv, err)
    # Only the second pair (4 x 4) is over budget: the whole corpus is checked
    # before the first alignment runs, so none does: no pass of Myers'
    # recurrence (``_recurrence``), which every band and lane group runs.
    late = write(tmp_path / "late.txt", "a b\n\nc d\ne f\n")
    recurrence = segmt.align._recurrence
    calls = []
    monkeypatch.setattr(segmt.align, "_recurrence", lambda *a, **kw: calls.append(a) or recurrence(*a, **kw))
    aligning = (["project", late, late, "-o", out],
                ["variants", late, late, "-d", str(tmp_path / "variants")],
                ["score", late, late, "--resegment"], ["report", late, late])
    for argv in aligning:
        code, err = run(argv)
        assert code == 2 and "4 x 4 tokens exceeds the budget" in err, (argv, err)
        assert calls == [], argv
    assert run(["wer", late, late]) == (0, "")  # wer keeps no budget
    # Within the budget, every one of those commands reaches a spied pass.
    monkeypatch.setattr(segmt.align, "MAX_ALIGN_CELLS", 16)
    for argv in aligning:
        calls.clear()
        assert run(argv)[0] == 0 and calls, argv


def test_nan_pause_threshold_exits_1_or_2_from_a_config(tmp_path):
    transcripts = write(tmp_path / "t.jsonl", '{"words": [{"text": "a", "start": 0, "end": 1}]}\n')
    config = write(tmp_path / "config.yaml", "pause_split:\n  pause_threshold_sec: .nan\n")
    out = tmp_path / "out.txt"
    code, err = run(["segment", "pause", transcripts, "-o", str(out), "--threshold", "nan"])
    assert code == 1, err
    assert "pause_threshold_sec must be positive" in err
    code, err = run(["segment", "pause", transcripts, "-o", str(out), "--config", config])
    assert code == 2, err
    assert f"{config}: invalid section 'pause_split': pause_threshold_sec must be positive" in err
    assert not out.exists()


def test_nan_mixture_weight_exits_1(tmp_path):
    a, b = write(tmp_path / "a.tsv", "a\tb\n"), write(tmp_path / "b.tsv", "c\td\n")
    out = tmp_path / "out.txt"
    for weights in (["a=nan", "b=1.0"], ["a=nan", "b=nan"], ["a=inf", "b=1.0"]):
        argv = ["mix", "--corpus", f"a={a}", "--corpus", f"b={b}", "--augmented-fraction", "0",
                "--total", "5", "-o", str(out)]
        code, err = run(argv + [arg for weight in weights for arg in ("--weight", weight)])
        assert code == 1, err
        assert "corpus weights must sum to 1" in err
    assert not out.exists()


def test_transcript_words_must_be_a_list(tmp_path):
    transcripts = write(tmp_path / "t.jsonl", '{"words": 5}\n')
    code, err = run(["segment", "pause", transcripts, "-o", str(tmp_path / "out.txt")])
    assert code == 2
    assert f"{transcripts}:1: expected an object with a 'words' list" in err


@pytest.mark.parametrize(
    "config, argv",
    [
        ("fixed_length: x\n", ["segment", "fixed", "{docs}", "-o", "{out}"]),
        ("seed: [1]\n", ["augment", "{bitext}", "-o", "{out}"]),
        ("noise:\n  seed: 1.5\n", ["simulate", "{docs}", "-o", "{out}"]),
    ],
)
def test_bad_config_scalars_exit_2(tmp_path, config, argv):
    paths = {
        "docs": write(tmp_path / "docs.txt", GOOD_DOCS),
        "bitext": write(tmp_path / "bi.tsv", "a\tb\n"),
        "out": str(tmp_path / "out"),
    }
    config_path = write(tmp_path / "config.yaml", config)
    code, err = run([arg.format(**paths) for arg in argv] + ["--config", config_path])
    assert code == 2
    assert f"{config_path}: invalid value for" in err
    assert not (tmp_path / "out").exists()


def test_bad_utf8_vocabulary_and_config_exit_2_naming_the_file(tmp_path):
    docs = write(tmp_path / "docs.txt", GOOD_DOCS)
    vocab = tmp_path / "vocab.txt"
    vocab.write_bytes(b"a b\nc \xff\n")
    out = str(tmp_path / "out.txt")
    code, err = run(["simulate", docs, "--vocab", str(vocab), "--substitution-rate", "0.5", "-o", out])
    assert code == 2
    assert f"{vocab}:2: invalid UTF-8" in err
    config = tmp_path / "config.yaml"
    config.write_bytes(b"seed: 1\n# \xfe\n")
    code, err = run(["normalize", docs, "-o", out, "--config", str(config)])
    assert code == 2
    assert f"{config}:2: invalid UTF-8" in err


def test_values_past_python_limits_exit_2(tmp_path):
    docs = write(tmp_path / "docs.txt", GOOD_DOCS)
    out = str(tmp_path / "out.txt")
    huge = "1" + "0" * 5000  # more digits than int() converts
    cases = [
        (write(tmp_path / "nul.yaml", 'input_path: "a\\0b"\n'), ["normalize", "-o", out], "invalid value for"),
        (write(tmp_path / "digits.yaml", f"seed: {huge}\n"), ["normalize", docs, "-o", out], "invalid YAML"),
    ]
    for config, argv, message in cases:
        code, err = run(argv + ["--config", config])
        assert code == 2 and f"{config}: {message}" in err, err
    for start in (huge, "1" + "0" * 400):  # too many digits; too large for a float
        transcripts = write(tmp_path / "t.jsonl", f'{{"words": [{{"text": "a", "start": {start}, "end": 1}}]}}\n')
        code, err = run(["segment", "pause", transcripts, "-o", out])
        assert code == 2 and f"{transcripts}:1: " in err, err


#: Each subcommand with its path operands as "{...}" fields, one name per operand.
PATH_OPERANDS = {
    "normalize": ["normalize", "{docs}", "-o", "{out}"],
    "segment punct": ["segment", "punct", "{docs}", "-o", "{out}"],
    "segment fixed": ["segment", "fixed", "{docs}", "-o", "{out}"],
    "segment pause": ["segment", "pause", "{transcripts}", "-o", "{out}"],
    "project": ["project", "{docs}", "{target}", "-o", "{out}"],
    "variants": ["variants", "{docs}", "{system}", "-d", "{out}"],
    "augment": ["augment", "{bitext}", "-o", "{out}"],
    "mix": ["mix", "--corpus", "a={bitext}:{augmented}", "--weight", "a=1.0", "--total", "1",
            "-o", "{out}"],
    "score": ["score", "{docs}", "{reference}", "--json", "{out}"],
    "wer": ["wer", "{docs}", "{hypothesis}", "--json", "{out}"],
    "simulate": ["simulate", "{docs}", "--vocab", "{vocab}", "-o", "{out}"],
    "report": ["report", "{docs}", "{reference}", "--json", "{out}"],
}
NUL_CASES = [
    (name, operand)
    for name, argv in PATH_OPERANDS.items()
    for operand in re.findall(r"\{(\w+)\}", " ".join(argv)) + ["config"]
]


@pytest.mark.parametrize("name, operand", NUL_CASES, ids=[" ".join(case) for case in NUL_CASES])
def test_a_nul_byte_in_a_path_exits_1_naming_the_argument(tmp_path, name, operand):
    """No file name holds a NUL byte, so the parser refuses one before any file is touched."""
    docs = write(tmp_path / "docs.txt", GOOD_DOCS)
    paths = dict.fromkeys(["docs", "target", "system", "reference", "hypothesis", "vocab"], docs)
    paths["bitext"] = paths["augmented"] = write(tmp_path / "bi.tsv", "a\tb\nc\td\n")
    paths["transcripts"] = write(tmp_path / "t.jsonl", '{"words": [{"text": "a", "start": 0, "end": 1}]}\n')
    paths["config"] = write(tmp_path / "config.yaml", "seed: 1\n")
    paths["out"] = str(tmp_path / "out")
    argv = PATH_OPERANDS[name] + ["--config", "{config}"]
    files = sorted(tmp_path.iterdir())
    code, err = run([arg.format(**dict(paths, **{operand: str(tmp_path / "a\0b")})) for arg in argv])
    assert code == 1, err
    assert "internal error" not in err
    assert "error: argument " in err and "a path cannot hold a NUL byte" in err, err
    assert sorted(tmp_path.iterdir()) == files
    assert run([arg.format(**paths) for arg in argv]) == (0, "")  # the NUL byte was the fault


def path_operands(tmp_path):
    """Good files for every operand of ``PATH_OPERANDS``, plus ``--config``."""
    docs = write(tmp_path / "docs.txt", GOOD_DOCS)
    paths = dict.fromkeys(["docs", "target", "system", "reference", "hypothesis", "vocab"], docs)
    paths["bitext"] = paths["augmented"] = write(tmp_path / "bi.tsv", "a\tb\nc\td\n")
    paths["transcripts"] = write(tmp_path / "t.jsonl", '{"words": [{"text": "a", "start": 0, "end": 1}]}\n')
    paths["config"] = write(tmp_path / "config.yaml", "seed: 1\n")
    paths["out"] = str(tmp_path / "out")
    return paths


#: Every operand but ``mix``'s augmented file: ``a=ORIGINALS:`` names none.
EMPTY_CASES = [case for case in NUL_CASES if case != ("mix", "augmented")]


@pytest.mark.parametrize("name, operand", EMPTY_CASES, ids=[" ".join(case) for case in EMPTY_CASES])
def test_an_empty_path_exits_1_naming_the_argument(tmp_path, monkeypatch, name, operand):
    """An empty path names no file, so the parser refuses it rather than fall back to another."""
    work = tmp_path / "work"  # the working directory, where Path("") would point
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("SEGMT_CONFIG", "")  # empty means unset, so the good run below passes
    paths = path_operands(tmp_path)
    argv = PATH_OPERANDS[name] + ["--config", "{config}"]
    files = sorted(tmp_path.rglob("*"))
    code, err = run([arg.format(**dict(paths, **{operand: ""})) for arg in argv])
    assert code == 1, err
    assert "internal error" not in err
    assert "error: argument " in err and "a path cannot be empty" in err, err
    assert sorted(tmp_path.rglob("*")) == files
    assert run([arg.format(**paths) for arg in argv]) == (0, "")  # the empty path was the fault


#: Each setting that its dataclass range-checks: a bad config value, the
#: command that reads it, and the flag that sets the same bad value (None
#: where no flag can: a ``--vocab`` file is split into tokens).
OUT_OF_RANGE = [
    ("fixed_length: 0", ["segment", "fixed", "{docs}", "-o", "{out}"], ["--n", "0"]),
    ("mixture_augmented_fraction: 2.0",
     ["mix", "--corpus", "a={bitext}:{bitext}", "--weight", "a=1.0", "--total", "1", "-o", "{out}"],
     ["--augmented-fraction", "2"]),
    ("pause_split: {pause_threshold_sec: 0}", ["segment", "pause", "{transcripts}", "-o", "{out}"],
     ["--threshold", "0"]),
    ("pause_split: {max_tokens: 0}", ["segment", "pause", "{transcripts}", "-o", "{out}"],
     ["--max-tokens", "0"]),
    ("augmentation: {p_max: 0}", ["augment", "{bitext}", "-o", "{out}"], ["--p-max", "0"]),
    ("bleu: {max_ngram_order: 0}", ["score", "{docs}", "{docs}", "--json", "{out}"], ["--max-order", "0"]),
    ("bleu: {smoothing: x}", ["score", "{docs}", "{docs}", "--json", "{out}"], ["--smoothing", "x"]),
    ("noise: {substitution_rate: 2}", ["simulate", "{docs}", "-o", "{out}"], ["--substitution-rate", "2"]),
    ("noise: {deletion_rate: -1}", ["simulate", "{docs}", "-o", "{out}"], ["--deletion-rate", "-1"]),
    ("noise: {insertion_rate: .nan}", ["simulate", "{docs}", "-o", "{out}"], ["--insertion-rate", "nan"]),
    ("noise: {boundary_merge_rate: 2}", ["simulate", "{docs}", "-o", "{out}"], ["--merge-rate", "2"]),
    ("noise: {boundary_split_rate: 2}", ["simulate", "{docs}", "-o", "{out}"], ["--split-rate", "2"]),
    ('noise: {vocabulary: ["x y", ""], substitution_rate: 1.0}', ["simulate", "{docs}", "-o", "{out}"], None),
    ('noise: {vocabulary: [a, ""]}', ["simulate", "{docs}", "-o", "{out}"], None),
]


@pytest.mark.parametrize("config, argv, flag", OUT_OF_RANGE, ids=[case[0] for case in OUT_OF_RANGE])
def test_out_of_range_settings_exit_2_from_a_config_and_1_from_a_flag(tmp_path, config, argv, flag):
    paths = {
        "docs": write(tmp_path / "docs.txt", GOOD_DOCS),
        "bitext": write(tmp_path / "bi.tsv", "a\tb\n"),
        "transcripts": write(tmp_path / "t.jsonl", '{"words": [{"text": "a", "start": 0, "end": 1}]}\n'),
        "out": str(tmp_path / "out"),
    }
    argv = [arg.format(**paths) for arg in argv]
    config_path = write(tmp_path / "config.yaml", config + "\n")
    code, err = run(argv + ["--config", config_path])
    assert code == 2, err
    assert err.startswith(f"error: {config_path}: "), err
    if flag is not None:
        code, err = run(argv + flag)
        assert code == 1, err
        assert "internal error" not in err
    assert not (tmp_path / "out").exists()
