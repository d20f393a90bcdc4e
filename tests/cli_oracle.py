"""The ``wer`` and ``project`` subcommands rebuilt from the test oracles.

Each function takes a command's file operands and returns what ``segmt``
should give for them: the exit code, stdout, and the bytes of the file the
command writes (None when it writes none).  They are built from a reader
of the document format, the CLI's print and write formats, the
character-at-a-time keys of ``text_oracle`` and the full-table DP of
``dp_oracle``, which compares those keys under the identity policy.  So a
differential test against them shares no reader, writer, key, aligner or
cut with the package.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from dp_oracle import oracle_distance, oracle_positions
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
