"""Full-table Levenshtein DP, kept as the test oracle for ``segmt.align``.

This is the aligner the package used before the bit-parallel core: an
(n+1) x (m+1) int32 cost table filled row by row, and a backtrace that
reads neighbouring cells of the table and breaks cost ties in a given order
of the four op kinds, by default the package's fixed ``TIE_ORDER``.  It is
slow and memory-hungry (4 bytes per cell) but obviously correct, so the
differential tests compare the package against it on small inputs.  In
its other 23 orders it may pick other optimal scripts, which must cost the
same (``assert_tie_order_keeps_the_cost``).
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

import numpy as np

from segmt.align import (
    ALIGNMENT_NORMALIZATION,
    DELETE,
    INSERT,
    MATCH,
    SUBSTITUTE,
    Alignment,
    EditOp,
    edit_distance,
)
from segmt.text import NormalizationPolicy, SegmentedDocument, flatten, normalize_token, rebuild

#: The package's tie order: match, then substitute, then delete, then insert.
TIE_ORDER = (MATCH, SUBSTITUTE, DELETE, INSERT)

#: Every total order of the four op kinds; ``TIE_ORDERS[0]`` is ``TIE_ORDER``.
TIE_ORDERS = list(itertools.permutations(TIE_ORDER))


def _token_ids(a: Sequence[str], b: Sequence[str], policy: NormalizationPolicy):
    """Map both sequences to integer ids of their comparison keys."""
    interned: dict = {}

    def ids_of(tokens: Sequence[str]) -> np.ndarray:
        out = np.empty(len(tokens), dtype=np.int32)
        for i, tok in enumerate(tokens):
            key = normalize_token(tok, policy)
            out[i] = interned.setdefault(key, len(interned))
        return out

    return ids_of(a), ids_of(b)


def cost_table(a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
    """Full (n+1) x (m+1) Levenshtein cost table.

    Rows are computed vectorized: the substitute/delete candidates come
    straight from the previous row, and the left-to-right insert recurrence
    row[j] = min(cand[j], row[j-1] + 1) is evaluated in closed form as a
    running minimum of (cand[k] - k) plus j.
    """
    n, m = len(a_ids), len(b_ids)
    table = np.empty((n + 1, m + 1), dtype=np.int32)
    cols = np.arange(m + 1, dtype=np.int32)
    table[0] = cols
    scratch = np.empty(m + 1, dtype=np.int32)
    for i in range(1, n + 1):
        prev = table[i - 1]
        np.add(prev[:-1], b_ids != a_ids[i - 1], out=scratch[1:])
        np.minimum(scratch[1:], prev[1:] + 1, out=scratch[1:])
        scratch[0] = i
        table[i] = np.minimum.accumulate(scratch - cols) + cols
    return table


def oracle_align(
    a: Sequence[str],
    b: Sequence[str],
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
    tie_break: Sequence[str] = TIE_ORDER,
) -> Alignment:
    """Minimum-unit-cost edit script from ``a`` to ``b``, read off the full table.

    Cost ties go to the first feasible kind in ``tie_break``.
    """
    a_ids, b_ids = _token_ids(a, b, policy)
    table = cost_table(a_ids, b_ids)
    ops: List[EditOp] = []
    i, j = len(a_ids), len(b_ids)
    while i > 0 or j > 0:
        cost = table[i, j]
        for kind in tie_break:
            if kind == MATCH:
                if (
                    i > 0
                    and j > 0
                    and a_ids[i - 1] == b_ids[j - 1]
                    and cost == table[i - 1, j - 1]
                ):
                    ops.append(EditOp(MATCH, i - 1, j - 1))
                    i, j = i - 1, j - 1
                    break
            elif kind == SUBSTITUTE:
                if (
                    i > 0
                    and j > 0
                    and a_ids[i - 1] != b_ids[j - 1]
                    and cost == table[i - 1, j - 1] + 1
                ):
                    ops.append(EditOp(SUBSTITUTE, i - 1, j - 1))
                    i, j = i - 1, j - 1
                    break
            elif kind == DELETE:
                if i > 0 and cost == table[i - 1, j] + 1:
                    ops.append(EditOp(DELETE, a_index=i - 1))
                    i -= 1
                    break
            elif kind == INSERT:
                if j > 0 and cost == table[i, j - 1] + 1:
                    ops.append(EditOp(INSERT, b_index=j - 1))
                    j -= 1
                    break
        else:
            raise RuntimeError(f"backtrace stuck at cell ({i}, {j})")
    ops.reverse()
    return Alignment(ops, len(a_ids), len(b_ids))


def assert_tie_order_keeps_the_cost(
    a: Sequence[str],
    b: Sequence[str],
    tie_break: Sequence[str],
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> None:
    """The oracle's script in ``tie_break`` costs the package's ``edit_distance``.

    A tie order only chooses among optimal scripts, which is why the package
    can fix one without changing any distance or WER.
    """
    assert oracle_align(a, b, policy, tie_break).distance() == edit_distance(a, b, policy)


def oracle_distance(
    a: Sequence[str], b: Sequence[str], policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION
) -> int:
    """The corner cell of the full cost table."""
    a_ids, b_ids = _token_ids(a, b, policy)
    return int(cost_table(a_ids, b_ids)[-1, -1])


def oracle_positions(
    source_doc: SegmentedDocument,
    target_tokens: Sequence[str],
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> List[int]:
    """``project_positions`` from the oracle script's ``target_index_of()``.

    A boundary after source token ``k`` lands after the target token aligned
    to the nearest source token at or before ``k`` that has one, else at -1.
    """
    tokens, boundaries = flatten(source_doc)
    nearest, last = [], -1
    for target in oracle_align(tokens, target_tokens, policy).target_index_of():
        if target is not None:
            last = target
        nearest.append(last)
    return [nearest[k] for k in boundaries]


def oracle_resegmentation(
    hyp_doc: SegmentedDocument,
    ref_doc: SegmentedDocument,
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> List[List[str]]:
    """``resegment_hypothesis`` on ``oracle_positions``, cut by an explicit loop.

    The last position is moved to the end of the hypothesis, and every
    position is clamped to at least the one before it, so each piece starts
    where the previous one ended.
    """
    hyp_tokens = hyp_doc.tokens()
    positions = oracle_positions(ref_doc, hyp_tokens, policy)
    if positions:
        positions[-1] = len(hyp_tokens) - 1
    pieces: List[List[str]] = []
    prev = -1
    for pos in positions:
        pos = max(pos, prev)
        pieces.append(hyp_tokens[prev + 1 : pos + 1])
        prev = pos
    return pieces


def oracle_projection(
    source_doc: SegmentedDocument,
    target_tokens: Sequence[str],
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> SegmentedDocument:
    """``project_boundaries`` built on ``oracle_positions``."""
    positions = oracle_positions(source_doc, target_tokens, policy)
    return rebuild(target_tokens, (k for k in positions if k >= 0), doc_id=source_doc.doc_id)
