"""Output checks for the benchmark commands.

Each check reads a command's output files with the small parsers below (not
with ``segmt``'s readers, which are under test) and returns a list of
problems; an empty list means the output is correct.  The checks are
structural invariants that hold for every seed.  Byte-exact comparison
against recorded digests happens in ``run.py``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Callable, Dict, List

Docs = List[List[List[str]]]

PUNCTUATION = ",.?!"


def read_docs(path: Path) -> Docs:
    docs: Docs = []
    current: List[List[str]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        tokens = line.split()
        if tokens:
            current.append(tokens)
        elif current:
            docs.append(current)
            current = []
    if current:
        docs.append(current)
    return docs


def read_bitext(path: Path) -> List[List[tuple]]:
    blocks: List[List[tuple]] = []
    current: List[tuple] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            if current:
                blocks.append(current)
                current = []
            continue
        source, target = line.split("\t")
        current.append((source.split(), target.split()))
    if current:
        blocks.append(current)
    return blocks


def read_records(path: Path) -> List[Dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def flat(doc: List[List[str]]) -> List[str]:
    return [tok for seg in doc for tok in seg]


class Inputs:
    """Parsed workload inputs, read once per run."""

    def __init__(self, in_dir: Path):
        self.ref = read_docs(in_dir / "ref.txt")
        self.hyp = read_docs(in_dir / "hyp.txt")
        self.hyp_plain = read_docs(in_dir / "hyp_plain.txt")
        self.words = [
            [w["text"] for w in json.loads(line)["words"]]
            for line in (in_dir / "words.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        self.bitext = read_bitext(in_dir / "bitext.txt")

    def tokens(self, docs: Docs) -> int:
        return sum(len(seg) for doc in docs for seg in doc)


def _same_tokens(out: Docs, expected: Docs, what: str) -> List[str]:
    if [flat(d) for d in out] != [flat(d) for d in expected]:
        return [f"{what}: token streams differ from the input"]
    return []


def _bleu_lines(stdout: str, hyp_len: int, ref_len: int) -> List[str]:
    match = re.search(r"^BLEU (\S+)\n.*^lengths: hyp (\d+), ref (\d+)$", stdout, re.M | re.S)
    if not match:
        return ["score: unexpected stdout"]
    problems = []
    if not 0.0 < float(match.group(1)) <= 100.0:
        problems.append(f"score: BLEU {match.group(1)} out of range")
    if (int(match.group(2)), int(match.group(3))) != (hyp_len, ref_len):
        problems.append("score: lengths differ from the input token counts")
    return problems


def check_score(inp: Inputs, out: Path, stdout: str) -> List[str]:
    return _bleu_lines(stdout, inp.tokens(inp.hyp), inp.tokens(inp.ref))


def check_score_plain(inp: Inputs, out: Path, stdout: str) -> List[str]:
    return _bleu_lines(stdout, inp.tokens(inp.hyp_plain), inp.tokens(inp.ref))


def check_report(inp: Inputs, out: Path, stdout: str) -> List[str]:
    records = read_records(out / "report.jsonl")
    segments = sum(len(doc) for doc in inp.ref)
    if [r["type"] for r in records] != ["bucket"] * 3:
        return ["report: expected three bucket records"]
    problems = []
    if sum(r["count"] for r in records) != segments:
        problems.append("report: bucket counts do not cover every reference segment")
    if not all(0.0 <= r["mean_bleu"] <= 100.0 for r in records):
        problems.append("report: mean BLEU out of range")
    return problems


def check_wer(inp: Inputs, out: Path, stdout: str) -> List[str]:
    (record,) = read_records(out / "wer.jsonl")
    ref_len = inp.tokens(inp.ref)
    problems = []
    if record["ref_len"] != ref_len:
        problems.append("wer: reference length differs from the input")
    if not 0 < record["errors"] <= ref_len + inp.tokens(inp.hyp):
        problems.append("wer: error count out of range")
    if not math.isclose(record["wer"], record["errors"] / ref_len):
        problems.append("wer: rate is not errors / reference length")
    return problems


def check_variants(inp: Inputs, out: Path, stdout: str) -> List[str]:
    d = out / "variants"
    problems = []
    if read_docs(d / "gold.txt") != inp.ref or read_docs(d / "system.txt") != inp.hyp:
        problems.append("variants: gold or system copy differs from the input")
    recognition = read_docs(d / "recognition.txt")
    segmentation = read_docs(d / "segmentation.txt")
    problems += _same_tokens(recognition, inp.hyp, "variants recognition")
    problems += _same_tokens(segmentation, inp.ref, "variants segmentation")
    # Boundaries can only collapse, plus one final cut after trailing insertions.
    if any(len(r) > len(g) + 1 for r, g in zip(recognition, inp.ref)):
        problems.append("variants: recognition has more segments than the gold")
    return problems


def check_project(inp: Inputs, out: Path, stdout: str) -> List[str]:
    return _same_tokens(read_docs(out / "project.txt"), inp.hyp, "project")


def check_simulate(inp: Inputs, out: Path, stdout: str) -> List[str]:
    docs = read_docs(out / "simulate.txt")
    if not docs or len(docs) > len(inp.ref):
        return ["simulate: wrong number of documents"]
    if stdout != "effective seed: 11\n":
        return ["simulate: unexpected stdout"]
    return []


def check_normalize(inp: Inputs, out: Path, stdout: str) -> List[str]:
    expected = [[[tok.lower().strip(PUNCTUATION) for tok in seg] for seg in doc] for doc in inp.ref]
    if read_docs(out / "normalize.txt") != expected:
        return ["normalize: output is not the stripped, lowercased input"]
    return []


def check_punct(inp: Inputs, out: Path, stdout: str) -> List[str]:
    # Every reference segment ends in a terminal mark and has none inside.
    if read_docs(out / "punct.txt") != inp.ref:
        return ["segment punct: segments differ from the reference sentences"]
    return []


def check_fixed(inp: Inputs, out: Path, stdout: str) -> List[str]:
    docs = read_docs(out / "fixed.txt")
    problems = _same_tokens(docs, inp.ref, "segment fixed")
    if any(len(seg) != 20 for doc in docs for seg in doc[:-1]):
        problems.append("segment fixed: a segment other than the last is not 20 tokens")
    return problems


def check_pause(inp: Inputs, out: Path, stdout: str) -> List[str]:
    docs = read_docs(out / "pause.txt")
    problems = []
    if [flat(d) for d in docs] != inp.words:
        problems.append("segment pause: token streams differ from the transcript")
    if any(len(seg) > 40 for doc in docs for seg in doc):
        problems.append("segment pause: a segment exceeds max_tokens")
    return problems


def check_augment(inp: Inputs, out: Path, stdout: str) -> List[str]:
    blocks = read_bitext(out / "augment.txt")
    expected = [(len(b) + 1) // 2 for b in inp.bitext]
    if [len(b) for b in blocks] != expected:
        return ["augment: wrong number of pairs per document"]
    if stdout != f"effective seed: 11\naugmented {sum(expected)} pair(s), skipped 0\n":
        return ["augment: unexpected stdout"]
    return []


def check_mix(inp: Inputs, out: Path, stdout: str, total: int) -> List[str]:
    pairs = [pair for block in read_bitext(out / "mix.txt") for pair in block]
    if len(pairs) != total or not stdout.startswith(f"effective seed: 11\ndrew {total} pair(s)"):
        return ["mix: wrong number of pairs drawn"]
    return []


Check = Callable[[Inputs, Path, str], List[str]]
