"""The ``wer``, ``project`` and ``simulate`` subcommands rebuilt from the test oracles.

Each function takes a command's file operands and returns what ``segmt``
should give for them: the exit code, stdout, and the bytes of the file the
command writes (None when it writes none).  They are built from a reader
of the document format, the CLI's print and write formats, the
character-at-a-time keys of ``text_oracle`` and the full-table DP of
``dp_oracle``, which compares those keys under the identity policy.
``simulate`` draws from ``make_rng`` one call at a time: tokens through
``draw_oracle``, boundaries one ``random()`` per gap.  So a differential
test against them shares no reader, writer, key, aligner, cut or batched
draw with the package.
"""

from __future__ import annotations

import json
import re
from itertools import accumulate
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import draw_oracle
from dp_oracle import oracle_distance, oracle_positions
from segmt.noise import NoiseConfig
from segmt.rng import make_rng
from segmt.text import NormalizationPolicy, SegmentedDocument
from text_oracle import oracle_normalize_token

#: What a command gives: exit code, stdout, and the bytes it writes (None: no file).
Outcome = Tuple[int, str, Optional[bytes]]

#: Keys equal to the tokens: the DP compares keys made here.
IDENTITY = NormalizationPolicy()
#: ``wer`` compares fully stripped tokens and drops those left empty.
WER_KEYS = NormalizationPolicy(strip_punctuation=True, lowercase=True, strip_symbols=True)
#: ``project`` compares tokens without punctuation or case: the default ``alignment`` section.
ALIGNMENT_KEYS = NormalizationPolicy(strip_punctuation=True, lowercase=True)


def read_documents(path) -> List[List[List[str]]]:
    """A document file's documents, as segments of tokens.

    A line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``; its tokens are split at
    any whitespace; lines without a token separate documents.
    """
    docs: List[List[List[str]]] = [[]]
    for line in re.split(r"\r\n|\r|\n", Path(path).read_bytes().decode("utf-8")):
        tokens = line.split()
        if tokens:
            docs[-1].append(tokens)
        elif docs[-1]:
            docs.append([])
    return [doc for doc in docs if doc]


def document_bytes(docs: Sequence[List[List[str]]]) -> bytes:
    """A document file: a segment a line, tokens joined by a space, documents by a blank line."""
    return "\n".join("".join(" ".join(seg) + "\n" for seg in doc) for doc in docs).encode("utf-8")


def keys(tokens: Sequence[str], policy: NormalizationPolicy) -> List[str]:
    return [oracle_normalize_token(token, policy) for token in tokens]


def wer_keys(doc: List[List[str]]) -> List[str]:
    """A document's tokens fully stripped, without those left empty."""
    return [key for key in keys(sum(doc, []), WER_KEYS) if key]


def wer(reference, hypothesis) -> Outcome:
    """``segmt wer REFERENCE HYPOTHESIS --json PATH``: the WER line and the JSONL record."""
    refs, hyps = read_documents(reference), read_documents(hypothesis)
    if len(refs) != len(hyps):
        return 2, "", None
    errors = ref_len = 0
    for ref, hyp in zip(refs, hyps):
        ref_keys, hyp_keys = wer_keys(ref), wer_keys(hyp)
        errors += oracle_distance(ref_keys, hyp_keys, IDENTITY)
        ref_len += len(ref_keys)
    if not ref_len:
        return 2, "", None
    rate = errors / ref_len
    record = {"type": "wer", "wer": rate, "errors": errors, "ref_len": ref_len}
    stdout = f"WER {rate:.4f} ({errors} error(s) / {ref_len} reference token(s))\n"
    return 0, stdout, (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")


def project(source, target) -> Outcome:
    """``segmt project SOURCE TARGET -o PATH``: each target cut where its source's cuts land."""
    sources, targets = read_documents(source), read_documents(target)
    if len(sources) != len(targets):
        return 2, "", None
    out = []
    for src, tgt in zip(sources, targets):
        tokens = sum(tgt, [])
        keyed = SegmentedDocument([keys(seg, ALIGNMENT_KEYS) for seg in src])
        positions = oracle_positions(keyed, keys(tokens, ALIGNMENT_KEYS), IDENTITY)
        ends = sorted({k for k in positions if k >= 0} | {len(tokens) - 1})
        out.append([tokens[a + 1 : b + 1] for a, b in zip([-1, *ends], ends)])
    return 0, "", document_bytes(out)


def simulate(documents, vocab, seed: int, rates: Dict[str, float]) -> Outcome:
    """``segmt simulate DOCUMENTS -o PATH --seed SEED [--vocab VOCAB]`` with ``rates`` as flags.

    ``rates`` maps ``NoiseConfig``'s rate fields to their values (0 when
    absent); ``vocab`` is a document file or None, when the input's tokens
    are the vocabulary.  Document ``i`` of the input is ``doc{i}``.  Tokens
    go first, then each gap between two tokens draws one uniform: a
    boundary stays unless it is at least the merge rate, any other gap
    becomes one if it is below the split rate.  Documents left empty are
    not written.
    """
    docs = read_documents(documents)
    source = read_documents(vocab) if vocab is not None else docs
    vocabulary = tuple(sorted({tok for doc in source for seg in doc for tok in seg}))
    cfg = NoiseConfig(**rates, vocabulary=vocabulary, seed=seed)
    out = []
    for i, doc in enumerate(docs):
        try:
            corrupted = draw_oracle.corrupt_tokens(SegmentedDocument(doc, doc_id=f"doc{i}"), cfg)
        except ValueError:  # substitution or insertion without a vocabulary
            return 2, "", None
        tokens = sum(corrupted.segments, [])
        if not tokens:
            continue
        boundaries = set(accumulate(len(seg) for seg in corrupted.segments[:-1]))
        rng = make_rng(seed, "boundaries", f"doc{i}")
        ends = []
        for gap in range(1, len(tokens)):  # the gap before token ``gap``
            draw = rng.random()
            if draw >= cfg.boundary_merge_rate if gap in boundaries else draw < cfg.boundary_split_rate:
                ends.append(gap)
        out.append([tokens[a:b] for a, b in zip([0, *ends], [*ends, len(tokens)])])
    return 0, f"effective seed: {seed}\n", document_bytes(out)
