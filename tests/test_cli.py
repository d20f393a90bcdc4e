import argparse
import ast
import builtins
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import takewhile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import bitext_oracle
import draw_oracle
from bitext_oracle import read_bitext, write_bitext
from hypothesis import given, settings, strategies as st

import segmt.align
import segmt.augment
import segmt.cli
import segmt.formats
import segmt.rng
import segmt.text
from segmt.align import ALIGNMENT_NORMALIZATION
from segmt.augment import AugmentationConfig, MixtureSpec, build_training_mixture
from segmt.cli import build_parser, main
from segmt.config import PipelineConfig
from segmt.formats import write_transcripts
from segmt.rng import make_rng
from segmt.segment import TimedTranscript
from segmt.text import STRIPPED


def write_lines(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_normalize(tmp_path, capsys):
    src = write_lines(tmp_path / "in.txt", "Hello, World!\nIt's Fine.\n")
    out = tmp_path / "out.txt"
    assert main(["normalize", src, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "hello world\nits fine\n"


def test_normalize_punctuated_policy(tmp_path):
    src = write_lines(tmp_path / "in.txt", "Hello, World!\n")
    out = tmp_path / "out.txt"
    assert main(["normalize", src, "-o", str(out), "--policy", "punctuated"]) == 0
    assert out.read_text(encoding="utf-8") == "Hello, World!\n"


def test_normalize_drops_empty_documents(tmp_path, capsys):
    src = write_lines(tmp_path / "in.txt", "...\n\nkeep this\n")
    out = tmp_path / "out.txt"
    assert main(["normalize", src, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "keep this\n"
    assert "dropped" in capsys.readouterr().err


def test_segment_fixed(tmp_path):
    tokens = " ".join(f"t{i}" for i in range(25))
    src = write_lines(tmp_path / "in.txt", tokens + "\n")
    out = tmp_path / "out.txt"
    assert main(["segment", "fixed", src, "-o", str(out), "--n", "10"]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert [len(line.split()) for line in lines] == [10, 10, 5]


def test_segment_round_trip_token_stream(tmp_path):
    text = "a b c d e f g\nh i j\n"
    src = write_lines(tmp_path / "in.txt", text)
    out = tmp_path / "out.txt"
    assert main(["segment", "fixed", src, "-o", str(out), "--n", "4"]) == 0
    assert out.read_text(encoding="utf-8").split() == text.split()


def test_segment_punct(tmp_path):
    src = write_lines(tmp_path / "in.txt", "It rained. We left.\n")
    out = tmp_path / "out.txt"
    assert main(["segment", "punct", src, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "It rained.\nWe left.\n"


def test_segment_pause(tmp_path):
    transcript = TimedTranscript(["w1", "w2", "w3"], [0.0, 2.0, 2.6], [0.5, 2.5, 3.0], doc_id="t0")
    src = tmp_path / "in.jsonl"
    write_transcripts(src, [transcript])
    out = tmp_path / "out.txt"
    assert main(["segment", "pause", str(src), "-o", str(out), "--threshold", "1.0"]) == 0
    assert out.read_text(encoding="utf-8") == "w1\nw2 w3\n"


def test_project(tmp_path):
    source = write_lines(tmp_path / "src.txt", "the weather\ntoday was warm\n")
    target = write_lines(tmp_path / "tgt.txt", "the whether today was warm\n")
    out = tmp_path / "out.txt"
    assert main(["project", source, target, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "the whether\ntoday was warm\n"


def test_variants_table_layout(tmp_path):
    gold = write_lines(tmp_path / "gold.txt", "the weather today was warm\n")
    system = write_lines(tmp_path / "system.txt", "the whether\ntoday was warm\n")
    out_dir = tmp_path / "variants"
    assert main(["variants", gold, system, "-d", str(out_dir)]) == 0
    assert (out_dir / "gold.txt").read_text(encoding="utf-8") == "the weather today was warm\n"
    assert (out_dir / "system.txt").read_text(encoding="utf-8") == "the whether\ntoday was warm\n"
    assert (
        out_dir / "recognition.txt"
    ).read_text(encoding="utf-8") == "the whether today was warm\n"
    assert (
        out_dir / "segmentation.txt"
    ).read_text(encoding="utf-8") == "the weather\ntoday was warm\n"


def seeded_documents(rng, docs, alphabet):
    """Document-file text: ``docs`` documents of 30-60 tokens cut at random."""
    blocks = []
    for _ in range(docs):
        tokens = [alphabet[k] for k in rng.integers(0, len(alphabet), size=rng.integers(30, 61))]
        cuts = sorted({0, *rng.integers(1, len(tokens), size=6).tolist(), len(tokens)})
        blocks.append("".join(" ".join(tokens[i:j]) + "\n" for i, j in zip(cuts, cuts[1:])))
    return "\n".join(blocks)


def test_variants_match_project_in_each_direction(tmp_path):
    # One forward pass serves both variants; each must equal its own `project`
    # run.  This pair has cost ties that the default tie order resolves
    # differently in the two directions: backtracing both with one order fails.
    rng = np.random.default_rng(404)
    alphabet = ["a", "b", "c", "B.", "..."]
    gold = write_lines(tmp_path / "gold.txt", seeded_documents(rng, 4, alphabet))
    system = write_lines(tmp_path / "system.txt", seeded_documents(rng, 4, alphabet))
    out_dir = tmp_path / "variants"
    assert main(["variants", gold, system, "-d", str(out_dir)]) == 0
    assert main(["project", gold, system, "-o", str(tmp_path / "on_system.txt")]) == 0
    assert main(["project", system, gold, "-o", str(tmp_path / "on_gold.txt")]) == 0
    recognition = (out_dir / "recognition.txt").read_bytes()
    segmentation = (out_dir / "segmentation.txt").read_bytes()
    assert recognition == (tmp_path / "on_system.txt").read_bytes()
    assert segmentation == (tmp_path / "on_gold.txt").read_bytes()


def test_project_over_alignment_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(segmt.align, "MAX_ALIGN_CELLS", 10)
    source = write_lines(tmp_path / "src.txt", "a b\nc\n")
    target = write_lines(tmp_path / "tgt.txt", "a b c d\n")
    out = tmp_path / "out.txt"
    assert main(["project", source, target, "-o", str(out)]) == 2
    assert "3 x 4 tokens" in capsys.readouterr().err
    assert not out.exists()


def test_score_resegment_identity(tmp_path, capsys):
    hyp = write_lines(tmp_path / "hyp.txt", "the cat sat\non the mat\n")
    ref = write_lines(tmp_path / "ref.txt", "the cat\nsat on the mat\n")
    assert main(["score", hyp, ref, "--resegment"]) == 0
    assert "BLEU 100.00" in capsys.readouterr().out


def test_score_plain_and_json(tmp_path, capsys):
    hyp = write_lines(tmp_path / "hyp.txt", "a b c d\n")
    ref = write_lines(tmp_path / "ref.txt", "a b x d\n")
    report_path = tmp_path / "report.jsonl"
    assert main(["score", hyp, ref, "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("BLEU ")
    record = json.loads(report_path.read_text(encoding="utf-8"))
    assert record["type"] == "bleu"
    assert record["hyp_len"] == 4


def test_score_segment_count_mismatch(tmp_path, capsys):
    hyp = write_lines(tmp_path / "hyp.txt", "a b\nc d\n")
    ref = write_lines(tmp_path / "ref.txt", "a b\n")
    assert main(["score", hyp, ref]) == 2
    assert "mismatch" in capsys.readouterr().err


def test_score_plain_rejects_segments_paired_across_documents(tmp_path, capsys):
    # Same flattened segment count, but hypothesis document doc0 holds two
    # segments where the reference's doc0 holds one.
    hyp = write_lines(tmp_path / "hyp.txt", "a b\nc d\n\ne f\n")
    ref = write_lines(tmp_path / "ref.txt", "a b\n\nc d\ne f\n")
    assert main(["score", hyp, ref]) == 2
    err = capsys.readouterr().err
    assert "mismatch" in err and "doc0" in err


def test_score_plain_rejects_document_count_mismatch(tmp_path, capsys):
    hyp = write_lines(tmp_path / "hyp.txt", "a b\n\nc d\n")
    ref = write_lines(tmp_path / "ref.txt", "a b\n\nc d\n\ne f\n")
    assert main(["score", hyp, ref]) == 2
    err = capsys.readouterr().err
    assert "document count mismatch" in err and "doc2" in err


def test_score_plain_checks_document_counts_before_segment_counts(tmp_path, capsys):
    # doc0 differs in segment count too, yet plain `score` reports the unequal
    # document count first, as `report` and `wer` do on the same files.
    hyp = write_lines(tmp_path / "hyp.txt", "a b\nc d\n\ne f\n")
    ref = write_lines(tmp_path / "ref.txt", "a b c d\n")
    for argv, counts in [
        (["score", hyp, ref], "2 vs 1"),
        (["report", hyp, ref], "2 vs 1"),
        (["wer", ref, hyp], "1 vs 2"),
    ]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"document count mismatch: {counts} documents; first unpaired document doc1" in err


def test_wer_output(tmp_path, capsys):
    ref = write_lines(tmp_path / "ref.txt", "the weather today was warm\n")
    hyp = write_lines(tmp_path / "hyp.txt", "the whether today was warm\n")
    report_path = tmp_path / "wer.jsonl"
    assert main(["wer", ref, hyp, "--json", str(report_path)]) == 0
    assert "WER 0.2000" in capsys.readouterr().out
    record = json.loads(report_path.read_text(encoding="utf-8"))
    assert record == {"type": "wer", "wer": 0.2, "errors": 1, "ref_len": 5}


#: Three documents over one vocabulary, with case, punctuation and symbol variants.
SHARED_VOCABULARY_REF = "The cat sat\non the mat.\n\nthe cat, sat on $5\n\n... The mat sat\n"
SHARED_VOCABULARY_HYP = "the cat sat on\nthe Mat\n\nThe cat sat on $5 ...\n\nthe mat, sat\n"


@pytest.mark.parametrize("command", ["score", "variants", "wer"])
def test_each_distinct_token_is_normalized_once_per_policy(tmp_path, monkeypatch, capsys, command):
    ref = write_lines(tmp_path / "ref.txt", SHARED_VOCABULARY_REF)
    hyp = write_lines(tmp_path / "hyp.txt", SHARED_VOCABULARY_HYP)
    argv = {
        "score": ["score", hyp, ref, "--resegment"],
        "variants": ["variants", ref, hyp, "-d", str(tmp_path / "variants")],
        "wer": ["wer", ref, hyp],
    }[command]
    misses = Counter()
    compute = segmt.text._KeyMemo.__missing__

    def counted(memo, token):
        misses[memo.policy, token] += 1
        return compute(memo, token)

    segmt.text.KEY_MEMOS.clear()
    monkeypatch.setattr(segmt.text._KeyMemo, "__missing__", counted)
    assert main(argv) == 0
    tokens = set((SHARED_VOCABULARY_REF + SHARED_VOCABULARY_HYP).split())
    if command == "wer":  # the stripped tokens are compared as they are
        expected = {(STRIPPED, tok) for tok in tokens}
    else:
        expected = {(ALIGNMENT_NORMALIZATION, tok) for tok in tokens}
    assert set(misses) == expected
    assert set(misses.values()) == {1}


def test_augment_deterministic(tmp_path, capsys):
    # 12-token sides so ceil(p * len) actually varies with the drawn p.
    lines = "".join(
        " ".join(f"s{i}.{j}" for j in range(12))
        + "\t"
        + " ".join(f"t{i}.{j}" for j in range(12))
        + "\n"
        for i in range(10)
    )
    src = write_lines(tmp_path / "bi.tsv", lines)
    out1 = tmp_path / "a1.tsv"
    out2 = tmp_path / "a2.tsv"
    assert main(["augment", src, "-o", str(out1), "--seed", "5"]) == 0
    assert "effective seed: 5" in capsys.readouterr().out
    assert main(["augment", src, "-o", str(out2), "--seed", "5"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["augment", src, "-o", str(out2), "--seed", "6"]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_augment_blocks_use_running_offsets(tmp_path, capsys):
    # Blocks of 1, 2, 5 and 50 pairs; the odd ones end in a pass-through, so
    # every later block starts at an odd pair index.
    lines = []
    index = 0
    for size in (1, 2, 5, 50):
        for _ in range(size):
            lines.append(
                " ".join(f"s{index}.{j}" for j in range(12))
                + "\t"
                + " ".join(f"t{index}.{j}" for j in range(9))
                + "\n"
            )
            index += 1
        lines.append("\n")
    src = write_lines(tmp_path / "bi.tsv", "".join(lines))
    out = tmp_path / "aug.tsv"
    assert main(["augment", src, "-o", str(out), "--seed", "21", "--p-max", "0.6"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "augmented 30 pair(s), skipped 0"

    expected = tmp_path / "expected.tsv"
    cfg = AugmentationConfig(p_max=0.6, seed=21)
    write_bitext(expected, bitext_oracle.augment_blocks(read_bitext(src), cfg))
    assert out.read_bytes() == expected.read_bytes()


TOKENS = ["a", "bc", "\u00fc", "\u4e2d\u6587", "x\u2019", "s1.2"]


@st.composite
def bitext_files(draw):
    """Bitext text in blocks of 1-7 pairs, canonical or with irregular whitespace."""
    canonical = draw(st.booleans())
    gap = st.just(" ") if canonical else st.sampled_from([" ", "  ", "\u00a0", " \u3000"])
    pad = st.just("") if canonical else st.sampled_from(["", " ", "  ", "\u00a0"])
    end = st.just("\n") if canonical else st.sampled_from(["\n", "\r\n"])
    blank = st.sampled_from(["\n", "\t\n", "\t\t\n"] + ([] if canonical else ["\r\n", " \n"]))

    def side():
        tokens = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6))
        text = tokens[0]
        for token in tokens[1:]:
            text += draw(gap) + token
        return draw(pad) + text + draw(pad)

    text = "".join(draw(st.lists(blank, max_size=2)))
    for _ in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(1, 7))):
            text += side() + "\t" + side() + draw(end)
        text += "".join(draw(st.lists(blank, min_size=1, max_size=3)))
    return text


@settings(max_examples=150, deadline=None)
@given(
    text=bitext_files(),
    p_max=st.sampled_from([0.01, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([3, segmt.formats._CHUNK_CHARS]),
)
def test_augment_matches_tokenised_oracle(tmp_path_factory, text, p_max, seed, chunk):
    """``segmt augment`` writes what the per-pair oracle over read_bitext's pairs gives.

    That holds also when the bitext is read in chunks of a few characters.
    """
    work = tmp_path_factory.getbasetemp()
    src, out, expected = work / "oracle_in.tsv", work / "oracle_out.tsv", work / "oracle.tsv"
    src.write_bytes(text.encode("utf-8"))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), mock.patch.object(segmt.formats, "_CHUNK_CHARS", chunk):
        argv = ["augment", str(src), "-o", str(out), "--seed", str(seed), "--p-max", str(p_max)]
        assert main(argv) == 0

    blocks = bitext_oracle.augment_blocks(read_bitext(src), AugmentationConfig(p_max, seed))
    write_bitext(expected, blocks)
    produced = sum(map(len, blocks))
    assert out.read_bytes() == expected.read_bytes()
    assert stdout.getvalue() == f"effective seed: {seed}\naugmented {produced} pair(s), skipped 0\n"


@pytest.mark.parametrize(
    "text", ["a b\tx\nc\ty z\n\nd\tw\n", "a  b\tx\r\nc\ty\u00a0z \n\t\nd\tw\n"],
    ids=["canonical", "irregular"],
)
def test_augment_builds_no_token_pairs(tmp_path, monkeypatch, capsys, text):
    # augment merges the canonical lines themselves: one batch cut of the
    # two raw lines of the one merged pair.
    calls = []
    cut = segmt.augment._cut_batch

    def counted(lines, fractions):
        calls.append(list(lines))
        return cut(lines, fractions)

    monkeypatch.setattr(segmt.augment, "_cut_batch", counted)
    src = tmp_path / "bi.tsv"
    src.write_bytes(text.encode("utf-8"))
    out = tmp_path / "aug.tsv"
    assert main(["augment", str(src), "-o", str(out), "--seed", "3", "--p-max", "0.5"]) == 0
    assert calls == [["a b\tx", "c\ty z"]]
    assert capsys.readouterr().out.splitlines()[-1] == "augmented 2 pair(s), skipped 0"
    assert out.read_text(encoding="utf-8").count("\n\n") == 1


def test_section_seed_zero_beats_top_level_seed(tmp_path, capsys):
    # An explicit section seed of 0 is set, not missing: top-level seed 7 must not replace it.
    def side(prefix):
        return " ".join(f"{prefix}.{j}" for j in range(8))

    lines = "".join(f"{side(f's{i}')}\t{side(f't{i}')}\n" for i in range(10))
    src = write_lines(tmp_path / "bi.tsv", lines)
    config = write_lines(tmp_path / "config.yaml", "seed: 7\naugmentation:\n  seed: 0\n")
    outs = {name: tmp_path / f"{name}.tsv" for name in ("config", "flag0", "flag7")}
    assert main(["augment", src, "-o", str(outs["config"]), "--config", config]) == 0
    assert "effective seed: 0" in capsys.readouterr().out
    assert main(["augment", src, "-o", str(outs["flag0"]), "--seed", "0"]) == 0
    assert main(["augment", src, "-o", str(outs["flag7"]), "--seed", "7"]) == 0
    assert outs["config"].read_bytes() == outs["flag0"].read_bytes()
    assert outs["config"].read_bytes() != outs["flag7"].read_bytes()


def test_noise_seed_zero_beats_top_level_seed(tmp_path, capsys):
    src = write_lines(tmp_path / "in.txt", " ".join(f"w{i}" for i in range(50)) + "\n")
    config = write_lines(tmp_path / "config.yaml", "seed: 7\nnoise:\n  seed: 0\n")
    rates = ["--substitution-rate", "0.3", "--split-rate", "0.3"]
    out_config, out_flag = tmp_path / "c.txt", tmp_path / "f.txt"
    assert main(["simulate", src, "-o", str(out_config), "--config", config] + rates) == 0
    assert "effective seed: 0" in capsys.readouterr().out
    assert main(["simulate", src, "-o", str(out_flag), "--seed", "0"] + rates) == 0
    assert out_config.read_bytes() == out_flag.read_bytes()


def test_mix(tmp_path, capsys):
    wmt = write_lines(tmp_path / "wmt.tsv", "w1\tx1\nw2\tx2\nw3\tx3\n")
    iwslt = write_lines(tmp_path / "iwslt.tsv", "i1\ty1\ni2\ty2\n")
    out = tmp_path / "mix.tsv"
    code = main(
        [
            "mix",
            "--corpus", f"wmt={wmt}",
            "--corpus", f"iwslt={iwslt}",
            "--weight", "wmt=0.9",
            "--weight", "iwslt=0.1",
            "--augmented-fraction", "0",
            "--total", "40",
            "--seed", "2",
            "-o", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "effective seed: 2" in printed
    assert len(out.read_text(encoding="utf-8").splitlines()) == 40


def test_mix_duplicate_label_usage_error(tmp_path, capsys):
    bi = write_lines(tmp_path / "bi.tsv", "a\tb\n")
    code = main(
        [
            "mix",
            "--corpus", f"x={bi}",
            "--corpus", f"x={bi}",
            "--weight", "x=1.0",
            "--total", "1",
            "-o", str(tmp_path / "out.tsv"),
        ]
    )
    assert code == 1


def test_mix_bad_weights_usage_error(tmp_path):
    bi = write_lines(tmp_path / "bi.tsv", "a\tb\n")
    code = main(
        [
            "mix",
            "--corpus", f"x={bi}",
            "--weight", "x=0.5",
            "--total", "1",
            "-o", str(tmp_path / "out.tsv"),
        ]
    )
    assert code == 1


def test_mix_unknown_weight_label_is_usage_error_before_reading(tmp_path, capsys):
    code = main(
        [
            "mix",
            "--corpus", f"x={tmp_path / 'missing.tsv'}",
            "--weight", "y=1.0",
            "--total", "1",
            "-o", str(tmp_path / "out.tsv"),
        ]
    )
    assert code == 1
    assert "mixture references unknown corpus 'y'" in capsys.readouterr().err


def test_mix_missing_augmented_path_is_usage_error_before_reading(tmp_path, capsys):
    # The original path does not exist: the flags alone decide the error.
    args = ["mix", "--corpus", f"a={tmp_path / 'missing.tsv'}", "--weight", "a=1.0"]
    args += ["--total", "1", "-o", str(tmp_path / "out.tsv")]
    assert main(args + ["--augmented-fraction", "0.3"]) == 1
    assert "corpus 'a' has no augmented pairs but augmented_fraction > 0" in capsys.readouterr().err
    # The config's default fraction (0.2) is above 0 too.
    assert main(args) == 1
    assert "has no augmented pairs" in capsys.readouterr().err
    # With no augmented draws the missing original is read, and fails as input.
    assert main(args + ["--augmented-fraction", "0"]) == 2


def test_mix_missing_augmented_paths_name_the_first_label_in_sorted_order(tmp_path, capsys):
    # build_training_mixture checks corpora in sorted order; the early check names the same one.
    args = ["mix", "--corpus", f"b={tmp_path / 'x.tsv'}", "--corpus", f"a={tmp_path / 'y.tsv'}"]
    args += ["--weight", "b=0.5", "--weight", "a=0.5", "--augmented-fraction", "0.3"]
    assert main(args + ["--total", "1", "-o", str(tmp_path / "out.tsv")]) == 1
    assert "corpus 'a' has no augmented pairs" in capsys.readouterr().err


def test_mix_empty_augmented_file_is_input_error(tmp_path, capsys):
    bi = write_lines(tmp_path / "bi.tsv", "a\tb\n")
    empty = write_lines(tmp_path / "empty.tsv", "")
    code = main(mix_args({"a": (bi, empty)}, {"a": 1.0}, 0.3, 0, 1, tmp_path / "out.tsv"))
    assert code == 2
    assert "corpus 'a' has no augmented pairs but augmented_fraction > 0" in capsys.readouterr().err


def test_mix_reads_only_weighted_corpora(tmp_path, capsys):
    one = write_lines(tmp_path / "one.tsv", "a1\tx1\na2 b\tx2\n\na3\tx3 y\n")
    missing = str(tmp_path / "missing.tsv")
    alone, with_unweighted = tmp_path / "alone.tsv", tmp_path / "with_unweighted.tsv"
    assert main(mix_args({"a": (one, None)}, {"a": 1.0}, 0, 4, 3, alone)) == 0
    expected_stdout = capsys.readouterr().out
    corpora = {"a": (one, None), "b": (missing, missing)}
    assert main(mix_args(corpora, {"a": 1.0}, 0, 4, 3, with_unweighted)) == 0
    assert capsys.readouterr().out == expected_stdout
    assert with_unweighted.read_bytes() == alone.read_bytes()


def tokenised_mix(corpora, weights, fraction, seed, total, out):
    """Reference ``mix``: read pairs as tokens, draw them, write them back; returns stdout."""
    pools = {
        label: tuple(
            [pair for block in read_bitext(path, origin=label) for pair in block] if path else []
            for path in paths
        )
        for label, paths in corpora.items()
    }
    mixture = build_training_mixture(pools, MixtureSpec(weights, fraction, seed), total)
    write_bitext(out, [mixture])
    counts = Counter(pair.origin for pair in mixture)
    summary = ", ".join(f"{label}: {counts[label]}" for label in sorted(counts))
    return f"effective seed: {seed}\ndrew {len(mixture)} pair(s) ({summary})\n"


def mix_args(corpora, weights, fraction, seed, total, out):
    args = ["mix", "--augmented-fraction", str(fraction), "--total", str(total)]
    args += ["--seed", str(seed), "-o", str(out)]
    for label, (original, augmented) in corpora.items():
        args += ["--corpus", f"{label}={original}" + (f":{augmented}" if augmented else "")]
    for label, weight in weights.items():
        args += ["--weight", f"{label}={weight}"]
    return args


def test_mix_reads_a_shared_path_once(tmp_path, capsys, monkeypatch):
    a = write_lines(tmp_path / "a.tsv", "a1 p\tx1\na2\tx2 q\n\na3\tx3\n")
    b = write_lines(tmp_path / "b.tsv", "b1\ty1\nb2\ty2\n")
    shared = write_lines(tmp_path / "aug.tsv", "u1\tv1 w\nu2\tv2\n\nu3 t\tv3\n")
    corpora = {"a": (a, shared), "b": (b, shared)}
    weights = {"a": 0.6, "b": 0.4}
    expected = tmp_path / "expected.tsv"
    expected_stdout = tokenised_mix(corpora, weights, 0.5, 4, 80, expected)

    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "mix.tsv"
    code = main(mix_args(corpora, weights, 0.5, 4, 80, out))
    monkeypatch.undo()
    assert code == 0
    assert opened[shared] == 1
    assert out.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().out == expected_stdout


def test_mix_normalises_messy_bitext_like_tokenised_path(tmp_path, monkeypatch, capsys):
    messy = tmp_path / "messy.tsv"
    messy.write_bytes(
        "a  b \tx\r\n c\t y  z\r\n\t\nd\u00a0e\tw\u2028v\n\x1cf\tg\x0bh\rk\tl\n".encode("utf-8")
    )
    clean = write_lines(tmp_path / "clean.tsv", "m n\to\np\tq r\n")
    corpora = {"m": (str(messy), clean), "c": (clean, str(messy))}
    weights = {"m": 0.8, "c": 0.2}
    expected = tmp_path / "expected.tsv"
    expected_stdout = tokenised_mix(corpora, weights, 0.25, 9, 60, expected)
    out = tmp_path / "mix.tsv"
    assert main(mix_args(corpora, weights, 0.25, 9, 60, out)) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().out == expected_stdout
    assert {"a b\tx", "c\ty z", "d e\tw v", "f\tg h", "k\tl"} <= set(
        out.read_text(encoding="utf-8").splitlines()
    )
    # Read in chunks of a few characters, the files give the same mixture.
    monkeypatch.setattr(segmt.formats, "_CHUNK_CHARS", 3)
    assert main(mix_args(corpora, weights, 0.25, 9, 60, out)) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().out == expected_stdout


def test_mix_input_error_leaves_the_output_alone(tmp_path, capsys):
    # Every pool is checked before the output is opened: an existing file keeps
    # its bytes, and none is made where there was none.
    bi = write_lines(tmp_path / "bi.tsv", "a\tb\n")
    empty = write_lines(tmp_path / "empty.tsv", "")
    existing, absent = tmp_path / "existing.tsv", tmp_path / "absent.tsv"
    existing.write_bytes(b"kept\tas is\n")
    for out in (existing, absent):
        assert main(mix_args({"a": (bi, empty)}, {"a": 1.0}, 0.3, 0, 5, out)) == 2
        assert "corpus 'a' has no augmented pairs" in capsys.readouterr().err
    assert existing.read_bytes() == b"kept\tas is\n"
    assert not absent.exists()


def test_mix_output_may_name_one_of_its_inputs(tmp_path, capsys):
    # The pools are read in full before the output is opened.
    lines = "".join(f"a{i}\tx{i}\n" for i in range(7))
    original = write_lines(tmp_path / "a.tsv", lines)
    augmented = write_lines(tmp_path / "aug.tsv", "u\tv\nw\ty z\n")
    separate = tmp_path / "separate.tsv"
    assert main(mix_args({"a": (original, augmented)}, {"a": 1.0}, 0.4, 3, 50, separate)) == 0
    expected_stdout = capsys.readouterr().out
    assert main(mix_args({"a": (original, augmented)}, {"a": 1.0}, 0.4, 3, 50, original)) == 0
    assert capsys.readouterr().out == expected_stdout
    assert Path(original).read_bytes() == separate.read_bytes()


def test_mix_memory_does_not_grow_with_total(tmp_path):
    # mix writes each block of draws as it is drawn, so its traced peak is set
    # by the pools, not by --total.
    a = write_lines(tmp_path / "a.tsv", "".join(f"a{i} b\tx{i} y\n" for i in range(2000)))
    aug = write_lines(tmp_path / "aug.tsv", "".join(f"u{i}\tv{i} w\n" for i in range(500)))
    b = write_lines(tmp_path / "b.tsv", "".join(f"b{i}\ty{i}\n" for i in range(1000)))
    corpora = {"a": (a, aug), "b": (b, aug)}
    out = tmp_path / "mix.tsv"

    def traced_peak(total):
        tracemalloc.start()
        try:
            assert main(mix_args(corpora, {"a": 0.7, "b": 0.3}, 0.3, 5, total, out)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert main(mix_args(corpora, {"a": 0.7, "b": 0.3}, 0.3, 5, 10, out)) == 0  # imports
    small = traced_peak(20_000)
    large = traced_peak(200_000)
    assert len(out.read_bytes().splitlines()) == 200_000
    assert abs(large - small) < 2**20, (small, large)


def test_mix_invalid_utf8_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"a\tb\nc\t\xffd\n")
    code = main(mix_args({"x": (str(bad), None)}, {"x": 1.0}, 0.0, 0, 1, tmp_path / "out.tsv"))
    assert code == 2
    assert f"{bad}:2: invalid UTF-8" in capsys.readouterr().err


class ScalarDrawsRefused(np.random.Generator):
    """A Generator whose scalar ``random()`` and every ``integers`` call fail."""

    def integers(self, *args, **kwargs):
        raise AssertionError("per-draw Generator.integers call")

    def random(self, size=None, *args, **kwargs):
        if size is None:
            raise AssertionError("per-draw Generator.random call")
        return super().random(size, *args, **kwargs)


def test_simulate_and_mix_make_no_per_draw_numpy_calls(tmp_path, monkeypatch, capsys):
    docs = write_lines(tmp_path / "in.txt", "a b c d e f\ng h i\n\nj k l m\n")
    vocab = write_lines(tmp_path / "vocab.txt", "a x y y z\n")
    bitext = write_lines(tmp_path / "bi.tsv", "a b\tx\nc\ty z\nd\tw\n")
    augmented = write_lines(tmp_path / "aug.tsv", "e\tv\n")
    rates = ["--substitution-rate", "0.4", "--deletion-rate", "0.1", "--insertion-rate", "0.3"]
    rates += ["--merge-rate", "0.3", "--split-rate", "0.2", "--seed", "6"]

    def run(tag):
        sim, mix = tmp_path / f"sim_{tag}.txt", tmp_path / f"mix_{tag}.tsv"
        assert main(["simulate", docs, "-o", str(sim), "--vocab", vocab] + rates) == 0
        corpora = {"a": (bitext, augmented), "b": (augmented, bitext)}
        assert main(mix_args(corpora, {"a": 0.6, "b": 0.4}, 0.3, 6, 50, mix)) == 0
        return sim.read_bytes(), mix.read_bytes(), capsys.readouterr().out

    expected = run("numpy")
    monkeypatch.setattr(np.random, "Generator", ScalarDrawsRefused)
    with pytest.raises(AssertionError):
        make_rng(1).integers(3)
    with pytest.raises(AssertionError):
        make_rng(1).random()
    assert run("patched") == expected


@pytest.mark.parametrize("one_line_corpus", [False, True])
def test_mix_draws_in_bulk_until_a_pool_of_one(tmp_path, monkeypatch, capsys, one_line_corpus):
    # Pools of two or more lines keep mix's bulk pattern whole, so it makes no
    # per-draw Stream call; a one-line corpus breaks the pattern at its first
    # pick, and the per-draw continuation draws the rest.
    lines = {
        "a": [f"a{i}\tx{i}" for i in range(5)],
        "b": ["b0\ty0"] if one_line_corpus else ["b0\ty0", "b1 c\ty1"],
        "aug": [f"u{i}\tv{i} w" for i in range(3)],
    }
    paths = {
        name: write_lines(tmp_path / f"{name}.tsv", "".join(line + "\n" for line in text))
        for name, text in lines.items()
    }
    calls = Counter()

    def counted(name):
        method = getattr(segmt.rng.Stream, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(segmt.rng.Stream, name, wrapper)

    counted("random")
    counted("integers")
    total, out = 3001, tmp_path / "mix.tsv"  # crosses a block boundary; odd
    corpora = {"a": (paths["a"], paths["aug"]), "b": (paths["b"], paths["aug"])}
    assert main(mix_args(corpora, {"a": 0.5, "b": 0.5}, 0.3, 9, total, out)) == 0

    def items(label, name):
        return [(label, line) for line in lines[name]]

    pools = {label: (items(label, label), items(label, "aug")) for label in ("a", "b")}
    spec = MixtureSpec({"a": 0.5, "b": 0.5}, 0.3, 9)
    expected = draw_oracle.build_training_mixture(pools, spec, total)
    assert out.read_bytes() == "".join(line + "\n" for _, line in expected).encode("utf-8")
    if one_line_corpus:
        assert 0 < calls["integers"] < total  # the break comes after draw 0
        assert calls["random"] == 2 * calls["integers"]
    else:
        assert calls == Counter()


def test_simulate_identity_with_zero_rates(tmp_path, capsys):
    src = write_lines(tmp_path / "in.txt", "a b c\nd e\n")
    out = tmp_path / "out.txt"
    assert main(["simulate", src, "-o", str(out), "--seed", "3"]) == 0
    assert out.read_text(encoding="utf-8") == "a b c\nd e\n"
    assert "effective seed: 3" in capsys.readouterr().out


def test_simulate_checks_rates_before_reading(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code = main(["simulate", str(missing), "--substitution-rate", "2", "-o", str(tmp_path / "o.txt")])
    assert code == 1
    assert "rates must lie in [0, 1]" in capsys.readouterr().err


def test_simulate_deterministic(tmp_path):
    src = write_lines(tmp_path / "in.txt", " ".join(f"w{i}" for i in range(50)) + "\n")
    out1 = tmp_path / "o1.txt"
    out2 = tmp_path / "o2.txt"
    args = ["--substitution-rate", "0.2", "--split-rate", "0.3", "--seed", "9"]
    assert main(["simulate", src, "-o", str(out1)] + args) == 0
    assert main(["simulate", src, "-o", str(out2)] + args) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_table(tmp_path, capsys):
    hyp = write_lines(tmp_path / "hyp.txt", "a b c\n")
    ref = write_lines(tmp_path / "ref.txt", "a b c\n")
    report_path = tmp_path / "buckets.jsonl"
    assert main(["report", hyp, ref, "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "bucket" in out and "[0,20)" in out
    records = [json.loads(line) for line in report_path.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 3
    assert records[0]["count"] == 1


def test_report_custom_bounds(tmp_path, capsys):
    hyp = write_lines(tmp_path / "hyp.txt", "a b c\n")
    ref = write_lines(tmp_path / "ref.txt", "a b c\n")
    assert main(["report", hyp, ref, "--bounds", "0:5,5:10"]) == 0
    assert "[0,5)" in capsys.readouterr().out


def test_report_malformed_bounds_usage_error(tmp_path, capsys):
    hyp = write_lines(tmp_path / "hyp.txt", "a\n")
    assert main(["report", hyp, hyp, "--bounds", "nope"]) == 1


@pytest.mark.parametrize(
    "bounds, message",
    [
        ("5:5", "empty bucket bounds (5, 5)"),
        ("20:10", "empty bucket bounds (20, 10)"),
        ("0:20,10:30", "bucket bounds must be disjoint and ordered"),
    ],
    ids=["empty", "reversed", "overlapping"],
)
def test_report_invalid_bounds_usage_error_before_reading(tmp_path, capsys, bounds, message):
    missing = str(tmp_path / "missing.txt")
    assert main(["report", missing, missing, "--bounds", bounds]) == 1
    assert message in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("fixed_length: 2\n", encoding="utf-8")
    src = write_lines(tmp_path / "in.txt", "a b c d e\n")
    out = tmp_path / "out.txt"
    assert main(["segment", "fixed", src, "-o", str(out), "--config", str(config)]) == 0
    assert out.read_text(encoding="utf-8") == "a b\nc d\ne\n"


def test_config_env_var(tmp_path, monkeypatch):
    config = tmp_path / "config.yaml"
    config.write_text("fixed_length: 3\n", encoding="utf-8")
    monkeypatch.setenv("SEGMT_CONFIG", str(config))
    src = write_lines(tmp_path / "in.txt", "a b c d e f\n")
    out = tmp_path / "out.txt"
    assert main(["segment", "fixed", src, "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "a b c\nd e f\n"


def test_config_flag_beats_env(tmp_path, monkeypatch):
    env_config = tmp_path / "env.yaml"
    env_config.write_text("fixed_length: 3\n", encoding="utf-8")
    flag_config = tmp_path / "flag.yaml"
    flag_config.write_text("fixed_length: 2\n", encoding="utf-8")
    monkeypatch.setenv("SEGMT_CONFIG", str(env_config))
    src = write_lines(tmp_path / "in.txt", "a b c d\n")
    out = tmp_path / "out.txt"
    assert main(["segment", "fixed", src, "-o", str(out), "--config", str(flag_config)]) == 0
    assert out.read_text(encoding="utf-8") == "a b\nc d\n"


def test_config_paths_used_when_flags_missing(tmp_path):
    src = write_lines(tmp_path / "in.txt", "Hello World\n")
    out = tmp_path / "out.txt"
    config = tmp_path / "config.yaml"
    config.write_text(f"input_path: {src}\noutput_path: {out}\n", encoding="utf-8")
    assert main(["normalize", "--config", str(config)]) == 0
    assert out.read_text(encoding="utf-8") == "hello world\n"


SIMULATE = ["simulate", "{docs}", "-o", "{out}"]
MIX = ["mix", "--corpus", "a={bitext}:{augmented}", "--weight", "a=1.0", "--total", "20", "-o", "{out}"]

#: Each flag that sets a config value: the command, the flag ("{}" is the
#: value), the config keys it falls back to in order, and two values whose
#: results differ from each other and from the default's.
PRECEDENCE = {
    "--n": (["segment", "fixed", "{docs}", "-o", "{out}"], ["--n", "{}"], ["fixed_length"], 3, 5),
    "--threshold": (["segment", "pause", "{transcripts}", "-o", "{out}"], ["--threshold", "{}"],
                    ["pause_split.pause_threshold_sec"], 0.5, 0.25),
    "--max-tokens": (["segment", "pause", "{transcripts}", "-o", "{out}"], ["--max-tokens", "{}"],
                     ["pause_split.max_tokens"], 2, 3),
    "--p-max": (["augment", "{bitext}", "-o", "{out}"], ["--p-max", "{}"], ["augmentation.p_max"], 0.9, 0.5),
    "--augmented-fraction": (MIX, ["--augmented-fraction", "{}"], ["mixture_augmented_fraction"], 1.0, 0.5),
    "--max-order": (["score", "{hyp}", "{ref}"], ["--max-order", "{}"], ["bleu.max_ngram_order"], 2, 3),
    "--case-insensitive": (["score", "{hyp}", "{ref}"], ["--case-insensitive"], ["bleu.case_sensitive"],
                           False, True),
    "--smoothing": (["score", "{hyp}", "{ref}"], ["--smoothing", "{}"], ["bleu.smoothing"], "add-one", "none"),
    "--substitution-rate": (SIMULATE, ["--substitution-rate", "{}"], ["noise.substitution_rate"], 0.5, 0.2),
    "--deletion-rate": (SIMULATE, ["--deletion-rate", "{}"], ["noise.deletion_rate"], 0.5, 0.2),
    "--insertion-rate": (SIMULATE, ["--insertion-rate", "{}"], ["noise.insertion_rate"], 0.5, 0.2),
    "--merge-rate": (SIMULATE, ["--merge-rate", "{}"], ["noise.boundary_merge_rate"], 0.5, 0.2),
    "--split-rate": (SIMULATE, ["--split-rate", "{}"], ["noise.boundary_split_rate"], 0.5, 0.2),
    "augment --seed": (["augment", "{bitext}", "-o", "{out}"], ["--seed", "{}"],
                       ["augmentation.seed", "seed"], 5, 7),
    "mix --seed": (MIX, ["--seed", "{}"], ["seed"], 5, 7),
    "simulate --seed": (SIMULATE + ["--substitution-rate", "0.3", "--split-rate", "0.3"], ["--seed", "{}"],
                        ["noise.seed", "seed"], 5, 7),
}


@pytest.mark.parametrize("name", list(PRECEDENCE))
def test_flag_beats_config_beats_default(tmp_path, name):
    argv, flag, keys, value, other = PRECEDENCE[name]
    words = [{"text": f"w{i}", "start": start, "end": start + 0.1}
             for i, start in enumerate([0.0, 0.4, 1.1, 2.7, 2.9, 3.1, 3.3, 3.5])]
    paths = {
        "docs": write_lines(tmp_path / "docs.txt", "".join(f"t{i} t{i + 1} t{i + 2}\n" for i in range(0, 36, 3))),
        "transcripts": write_lines(tmp_path / "t.jsonl", json.dumps({"words": words}) + "\n"),
        "bitext": write_lines(tmp_path / "bi.tsv", "".join(
            f"{' '.join(f's{i}.{j}' for j in range(8))}\t{' '.join(f't{i}.{j}' for j in range(8))}\n"
            for i in range(10))),
        "augmented": write_lines(tmp_path / "aug.tsv", "".join(f"a{i}\tb{i}\n" for i in range(10))),
        "hyp": write_lines(tmp_path / "hyp.txt", "The cat sat on a mat by the door\nA dog ran home\n"),
        "ref": write_lines(tmp_path / "ref.txt", "the cat sat on the mat by a door\na dog ran home\n"),
        "out": str(tmp_path / "out"),
    }
    out = tmp_path / "out"

    def result(flag_value=None, **config):
        """Stdout and output bytes of ``argv`` with the flag at ``flag_value`` and a config of ``config``."""
        args = [arg.format(**paths) for arg in argv]
        if flag_value is not None:
            args += [arg.format(flag_value) for arg in flag]
        if config:
            nested = {}
            for key, setting in config.items():
                section, _, field = key.rpartition(".")
                (nested.setdefault(section, {}) if section else nested)[field] = setting
            config_path = tmp_path / "config.yaml"
            config_path.write_text(json.dumps(nested), encoding="utf-8")  # JSON is YAML
            args += ["--config", str(config_path)]
        out.unlink(missing_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(args) == 0
        return stdout.getvalue(), out.read_bytes() if out.exists() else b""

    expected = result(value)
    assert expected != result() and expected != result(**{keys[-1]: other})
    # Each source, the flag first, sets the same value and beats every later one.
    assert result(value, **{key: other for key in keys}) == expected
    for i, key in enumerate(keys):
        assert result(**{key: value}, **{later: other for later in keys[i + 1:]}) == expected, key


def test_policy_flag_beats_a_normalization_section_beats_the_default(tmp_path):
    src = write_lines(tmp_path / "in.txt", "Hello, World!\n")
    config = tmp_path / "config.yaml"
    config.write_text("normalization: {lowercase: false}\n", encoding="utf-8")  # still strips punctuation
    out = tmp_path / "out.txt"

    def normalized(*flags):
        assert main(["normalize", src, "-o", str(out), *flags]) == 0
        return out.read_text(encoding="utf-8")

    assert normalized() == "hello world\n"  # the default policy strips everything
    assert normalized("--config", str(config)) == "Hello World\n"
    assert normalized("--config", str(config), "--policy", "punctuated") == "Hello, World!\n"
    assert normalized("--config", str(config), "--policy", "stripped") == "hello world\n"


def leaf_parsers(parser, words=()):
    """Each subcommand's parser, with the words that select it."""
    subparsers = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subparsers:
        yield words, parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from leaf_parsers(sub, words + (name,))


def is_config_key(dest):
    """Whether ``dest`` names a config key: a section's (dotted) or a ``PipelineConfig`` field."""
    return "." in dest or dest in {field.name for field in dataclasses.fields(PipelineConfig)}


def test_settings_are_resolved_in_one_place():
    """Each settings flag stores into the config key it sets, and no handler reads one off ``args``.

    So the settings resolver, which merges every such ``dest`` over the
    config, is the only code that sees a settings flag.
    """
    leaves = list(leaf_parsers(build_parser()))
    actions = {(words, option): action for words, parser in leaves
               for action in parser._actions for option in action.option_strings}
    covered = set()
    for argv, flag, keys, _, _ in PRECEDENCE.values():
        words = tuple(takewhile(lambda word: not word.startswith(("{", "-")), argv))
        dest = actions[words, flag[0]].dest
        assert dest in keys, (words, flag[0], dest)
        covered.add((words, dest))
    paths_and_policy = {"input_path", "output_path", "normalization"}
    setting_flags = {(words, action.dest) for words, parser in leaves for action in parser._actions
                     if is_config_key(action.dest) and action.dest not in paths_and_policy}
    assert setting_flags == covered

    tree = ast.parse(Path(segmt.cli.__file__).read_text(encoding="utf-8"))
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert {node.name for node in handlers} == {parser.get_default("func").__name__ for _, parser in leaves}
    read = set()  # the names that handlers read off ``args``
    for node in (node for handler in handlers for node in ast.walk(handler)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
            if isinstance(node.args[0], ast.Name) and node.args[0].id == "args":
                read.add(ast.literal_eval(node.args[1]))  # a name built at run time fails here
    assert read and not {name for name in read if is_config_key(name)}


def test_missing_input_usage_error(tmp_path, capsys):
    assert main(["normalize", "-o", str(tmp_path / "out.txt")]) == 1
    assert "input" in capsys.readouterr().err


def test_bad_config_exit_code(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("unknown_key: 1\n", encoding="utf-8")
    src = write_lines(tmp_path / "in.txt", "a\n")
    code = main(["normalize", src, "-o", str(tmp_path / "o.txt"), "--config", str(config)])
    assert code == 2


def test_invalid_utf8_exit_code_names_line(tmp_path, capsys):
    ref = write_lines(tmp_path / "ref.txt", "a b\n")
    hyp = tmp_path / "hyp.txt"
    hyp.write_bytes(b"a\nb \xfe\n")
    assert main(["wer", ref, str(hyp)]) == 2
    assert f"{hyp}:2: invalid UTF-8" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["wer", str(tmp_path / "none.txt"), str(tmp_path / "none2.txt")]) == 2


def test_malformed_bitext_exit_code(tmp_path, capsys):
    bad = write_lines(tmp_path / "bad.tsv", "no tab here\n")
    assert main(["augment", bad, "-o", str(tmp_path / "o.tsv")]) == 2
    assert ":1:" in capsys.readouterr().err


def test_unknown_flag_usage_error(tmp_path, capsys):
    src = write_lines(tmp_path / "in.txt", "a\n")
    assert main(["normalize", src, "--frobnicate"]) == 1


def test_no_subcommand_usage_error(capsys):
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" not in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "segmt" in capsys.readouterr().out


# ------------------------------------------------- start-up in a fresh process

# Prints which heavy third-party modules the process has loaded.
_LOADED = 'print("loaded:", *(m for m in ("numpy", "yaml") if m in sys.modules))'


def run_fresh(cwd, *lines):
    """Run ``lines`` as a script in a fresh interpreter without SEGMT_CONFIG."""
    env = {key: value for key, value in os.environ.items() if key != "SEGMT_CONFIG"}
    src = str(Path(segmt.align.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "\n".join(("import sys",) + lines)
    return subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=60,
    )


def loaded_after(cwd, *lines):
    result = run_fresh(cwd, *lines, _LOADED)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1].split()[1:]


def write_startup_fixture(tmp_path):
    write_lines(tmp_path / "ref.txt", "It rained. We left.\nthe weather today was warm\n")
    write_lines(tmp_path / "hyp.txt", "it rained we\nleft the whether today was warm\n")
    transcript = TimedTranscript(["w1", "w2"], [0.0, 2.0], [0.5, 2.5], doc_id="t0")
    write_transcripts(tmp_path / "words.jsonl", [transcript])


@pytest.mark.parametrize(
    "lines",
    [
        ("import segmt",),
        ("import segmt.cli", "segmt.cli.build_parser()"),
    ],
    ids=["package", "parser"],
)
def test_import_loads_neither_numpy_nor_yaml(tmp_path, lines):
    assert loaded_after(tmp_path, *lines) == []


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["wer", "ref.txt", "hyp.txt"], []),
        (["project", "ref.txt", "hyp.txt", "-o", "out.txt"], []),
        (["variants", "ref.txt", "hyp.txt", "-d", "variants"], []),
        (["normalize", "ref.txt", "-o", "out.txt"], []),
        (["segment", "punct", "ref.txt", "-o", "out.txt"], []),
        (["segment", "fixed", "ref.txt", "-o", "out.txt", "--n", "2"], []),
        (["segment", "pause", "words.jsonl", "-o", "out.txt"], []),
        # A command that counts n-grams does load numpy: the probe can see it.
        (["score", "hyp.txt", "ref.txt", "--resegment"], ["numpy"]),
    ],
    ids=["wer", "project", "variants", "normalize", "punct", "fixed", "pause", "score"],
)
def test_subcommand_loads_only_what_it_uses(tmp_path, argv, loaded):
    write_startup_fixture(tmp_path)
    lines = ("from segmt.cli import main", f"assert main({argv!r}) == 0")
    assert loaded_after(tmp_path, *lines) == loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["augment", "bi.tsv", "--seed", "5", "--p-max", "0.6"],
        ["simulate", "ref.txt", "--seed", "9", "--substitution-rate", "0.2",
         "--insertion-rate", "0.1", "--merge-rate", "0.3", "--split-rate", "0.3"],
    ],
    ids=["augment", "simulate"],
)
def test_first_numpy_import_mid_call_gives_same_bytes(tmp_path, monkeypatch, argv):
    write_startup_fixture(tmp_path)
    write_lines(
        tmp_path / "bi.tsv",
        "".join(f"{' '.join(f's{i}.{j}' for j in range(12))}\t"
                f"{' '.join(f't{i}.{j}' for j in range(9))}\n" for i in range(20)),
    )
    lines = (
        "from segmt.cli import main",
        "assert 'numpy' not in sys.modules",
        f"assert main({argv + ['-o', 'fresh.out']!r}) == 0",
    )
    assert loaded_after(tmp_path, *lines) == ["numpy"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SEGMT_CONFIG", raising=False)
    assert main(argv + ["-o", "in_process.out"]) == 0
    assert (tmp_path / "fresh.out").read_bytes() == (tmp_path / "in_process.out").read_bytes()


def test_augment_loads_no_numpy_random(tmp_path):
    # augment computes its PCG64 draws with numpy arithmetic (rng.uniforms).
    write_lines(tmp_path / "bi.tsv", "a b\tx\nc\ty z\n")
    argv = ["augment", "bi.tsv", "-o", "out.tsv", "--seed", "1"]
    result = run_fresh(
        tmp_path, "from segmt.cli import main", f"assert main({argv!r}) == 0",
        "print('numpy.random' in sys.modules)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "argv, loads_random",
    [
        (["mix", "--corpus", "a=bi.tsv:bi.tsv", "--weight", "a=1", "--total", "40",
          "--augmented-fraction", "0.5", "--seed", "1", "-o", "out.tsv"], False),
        (["augment", "bi.tsv", "--seed", "1", "-o", "out.tsv"], False),
        # simulate draws from make_rng streams: the probe can see numpy.random.
        (["simulate", "ref.txt", "--seed", "9", "--substitution-rate", "0.2",
          "--merge-rate", "0.3", "-o", "out.txt"], True),
    ],
    ids=["mix", "augment", "simulate"],
)
def test_only_simulate_loads_numpy_random(tmp_path, argv, loads_random):
    # mix and augment compute their PCG64 outputs with numpy arithmetic
    # (rng.PCG64Outputs and rng.uniforms).
    write_startup_fixture(tmp_path)
    write_lines(tmp_path / "bi.tsv", "a b\tx\nc\ty z\nd\tw\n")
    result = run_fresh(
        tmp_path, "from segmt.cli import main", f"assert main({argv!r}) == 0",
        "print('numpy.random' in sys.modules)",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(loads_random)


def test_invalid_yaml_config_exit_code_in_fresh_process(tmp_path):
    write_startup_fixture(tmp_path)
    write_lines(tmp_path / "bad.yaml", "a: [unclosed\n")
    argv = ["normalize", "ref.txt", "-o", "out.txt", "--config", "bad.yaml"]
    result = run_fresh(tmp_path, "from segmt.cli import main", f"sys.exit(main({argv!r}))")
    assert result.returncode == 2
    assert "bad.yaml: invalid YAML" in result.stderr
