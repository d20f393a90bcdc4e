"""Token-level Levenshtein alignment, WER, and boundary projection.

Alignment uses unit costs (match 0; substitute/delete/insert 1) and is
exact.  The cost table is never materialized: a bit-parallel forward pass
(Myers 1999) keeps each row's cost differences as bit vectors, and the
backtrace reads its options from those bits (Hyyro 2004), resolving cost
ties with a fixed total order so identical inputs always produce identical
edit scripts.  Distance alone keeps only the current row.  Boundary
projection transfers segment boundaries from one transcript onto another
transcript's tokens by following the alignment of the token immediately
before each boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .text import (
    NormalizationPolicy,
    STRIPPED,
    SegmentedDocument,
    flatten,
    normalize,
    normalize_token,
    rebuild,
)

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"

#: Backtrace preference when DP costs tie.  Any order over the four op kinds
#: yields an optimal script; fixing one makes projection reproducible.
DEFAULT_TIE_BREAK = (MATCH, SUBSTITUTE, DELETE, INSERT)

#: Default comparison policy: case- and punctuation-insensitive matching, so
#: transcripts that differ only in casing or punctuation conventions align.
ALIGNMENT_NORMALIZATION = NormalizationPolicy(strip_punctuation=True, lowercase=True)

@dataclass(frozen=True)
class EditOp:
    """One step of an edit script.

    Match/substitute carry both indices; delete only ``a_index``; insert
    only ``b_index``.
    """

    kind: str
    a_index: Optional[int] = None
    b_index: Optional[int] = None


@dataclass
class Alignment:
    """A minimum-cost edit script between token sequences A and B."""

    ops: List[EditOp]
    a_len: int
    b_len: int

    def distance(self) -> int:
        """Edit distance: the number of non-match ops."""
        return sum(1 for op in self.ops if op.kind != MATCH)

    def target_index_of(self) -> List[Optional[int]]:
        """For each A index, the aligned B index (None for deleted tokens)."""
        mapping: List[Optional[int]] = [None] * self.a_len
        for op in self.ops:
            if op.kind in (MATCH, SUBSTITUTE):
                mapping[op.a_index] = op.b_index
        return mapping


@dataclass(frozen=True)
class AlignmentConfig:
    """Alignment behavior knobs.

    ``normalize_for_alignment`` affects only how tokens are compared; any
    projection built on the alignment still emits original target tokens.
    """

    normalize_for_alignment: NormalizationPolicy = ALIGNMENT_NORMALIZATION
    tie_break: tuple = DEFAULT_TIE_BREAK

    def __post_init__(self):
        if sorted(self.tie_break) != sorted(DEFAULT_TIE_BREAK):
            raise ValueError(f"tie_break must order all four op kinds, got {self.tie_break}")


DEFAULT_CONFIG = AlignmentConfig()

#: Compares tokens exactly as given (WER normalizes both sides beforehand).
_PLAIN = AlignmentConfig(normalize_for_alignment=NormalizationPolicy())


def _comparison_keys(a: Sequence[str], b: Sequence[str], policy: NormalizationPolicy):
    """Both sequences as the comparison keys of their tokens, one per token.

    Every token keeps its position: a token whose key normalizes to the
    empty string still occupies a slot (and matches other empty-key tokens),
    which is what keeps projection anchored to original positions.  Each
    distinct token is normalized once.
    """
    key_of = {tok: normalize_token(tok, policy) for tok in {*a, *b}}
    return [key_of[tok] for tok in a], [key_of[tok] for tok in b]


def _rows(a_keys: Sequence[str], b_keys: Sequence[str]):
    """Yield one row of the Levenshtein table D per token of ``a``, as bit vectors.

    Myers' bit-parallel recurrence (JACM 46(3), 1999) in its global form:
    Python ints serve as m-bit vectors over the columns of ``b``, and
    ``peq[k]`` has bit j-1 set where ``b[j-1]`` has comparison key k.  For
    row i the generator yields ``(d0, hp, hn, vp)``:

    * ``d0`` bit j-1: D[i][j] == D[i-1][j-1] (diagonal step costs nothing);
    * ``hp`` / ``hn`` bit j: D[i][j] - D[i-1][j] is +1 / -1; bit 0 is the
      left border, where the difference is always +1;
    * ``vp`` bit j-1: D[i][j] - D[i][j-1] is +1.

    Each row costs a fixed number of big-int operations on m-bit values.
    """
    m = len(b_keys)
    mask = (1 << m) - 1
    peq: dict = {}
    for j, t in enumerate(b_keys):
        peq[t] = peq.get(t, 0) | 1 << j
    vp, vn = mask, 0  # row 0: D[0][j] = j
    for t in a_keys:
        x = peq.get(t, 0) | vn
        d0 = ((((x & vp) + vp) ^ vp) | x) & mask
        hp = (vn | mask ^ (d0 | vp)) << 1 | 1
        hn = (vp & d0) << 1
        vp = (hn | (d0 | hp) ^ mask) & mask
        vn = hp & d0
        yield d0, hp, hn, vp


def levenshtein_align(
    a: Sequence[str], b: Sequence[str], cfg: AlignmentConfig = DEFAULT_CONFIG
) -> Alignment:
    """Minimum-unit-cost edit script from token sequence ``a`` to ``b``.

    Deterministic: DP cost ties are broken by ``cfg.tie_break``, so repeated
    calls yield identical scripts.  The forward pass keeps three m-bit
    vectors per row of ``a`` (see ``_rows``), from which the backtrace reads
    every step's options in O(1) without materializing the cost table.
    """
    a_keys, b_keys = _comparison_keys(a, b, cfg.normalize_for_alignment)
    # Row 0 (before any token of a): only inserts, every D[0][j] - D[0][j-1] = +1.
    diag, down, left = [0], [0], [(1 << len(b_keys)) - 1]
    for d0, hp, _, vp in _rows(a_keys, b_keys):
        diag.append(d0)
        down.append(hp)
        left.append(vp)
    ops: List[EditOp] = []
    i, j = len(a_keys), len(b_keys)
    while i > 0 or j > 0:
        for kind in cfg.tie_break:
            if kind == MATCH:
                # Equal tokens always give D[i][j] == D[i-1][j-1]: no cost check needed.
                if i > 0 and j > 0 and a_keys[i - 1] == b_keys[j - 1]:
                    ops.append(EditOp(MATCH, i - 1, j - 1))
                    i, j = i - 1, j - 1
                    break
            elif kind == SUBSTITUTE:
                if (
                    i > 0
                    and j > 0
                    and a_keys[i - 1] != b_keys[j - 1]
                    and not diag[i] >> (j - 1) & 1
                ):
                    ops.append(EditOp(SUBSTITUTE, i - 1, j - 1))
                    i, j = i - 1, j - 1
                    break
            elif kind == DELETE:
                if i > 0 and down[i] >> j & 1:
                    ops.append(EditOp(DELETE, a_index=i - 1))
                    i -= 1
                    break
            elif kind == INSERT:
                if j > 0 and left[i] >> (j - 1) & 1:
                    ops.append(EditOp(INSERT, b_index=j - 1))
                    j -= 1
                    break
        else:
            raise RuntimeError(f"backtrace stuck at cell ({i}, {j})")
    ops.reverse()
    return Alignment(ops, len(a_keys), len(b_keys))


def edit_distance(
    a: Sequence[str], b: Sequence[str], cfg: AlignmentConfig = DEFAULT_CONFIG
) -> int:
    """Levenshtein distance under the config's comparison normalization.

    Runs the bit-parallel forward pass keeping only the current row, so
    memory is O(len(b)).
    """
    a_keys, b_keys = _comparison_keys(a, b, cfg.normalize_for_alignment)
    m = len(b_keys)
    score = m  # D[0][m]
    for _, hp, hn, _ in _rows(a_keys, b_keys):
        score += (hp >> m & 1) - (hn >> m & 1)
    return score


def wer_counts(reference: Sequence[str], hypothesis: Sequence[str]) -> Tuple[int, int]:
    """Word errors and reference length, ignoring case, punctuation, and symbols.

    Both sides are fully stripped before comparison; returns the edit
    distance between them and the normalized reference length.  Sums of
    these pairs over documents give corpus-level WER.
    """
    ref = normalize(reference, STRIPPED)
    hyp = normalize(hypothesis, STRIPPED)
    return edit_distance(ref, hyp, _PLAIN), len(ref)


def wer(reference: Sequence[str], hypothesis: Sequence[str]) -> float:
    """Word error rate: ``wer_counts`` errors over the normalized reference length."""
    errors, ref_len = wer_counts(reference, hypothesis)
    if not ref_len:
        raise ValueError("WER is undefined: reference is empty after normalization")
    return errors / ref_len


def project_positions(
    source_doc: SegmentedDocument,
    target_tokens: Sequence[str],
    cfg: AlignmentConfig = DEFAULT_CONFIG,
) -> List[int]:
    """Map each source boundary to a target position, without collapsing.

    Returns one entry per source boundary: the target position the boundary
    lands after, or -1 when it falls before the first target token.  A
    boundary after source token ``k`` follows ``k``'s alignment; if ``k``
    was deleted, it attaches to the nearest preceding source token that has
    a target counterpart.  Entries are non-decreasing.
    """
    src_tokens, boundaries = flatten(source_doc)
    alignment = levenshtein_align(src_tokens, target_tokens, cfg)
    aligned = alignment.target_index_of()
    # nearest_target[k]: aligned target index of the closest source j <= k, or -1
    nearest_target = [-1] * len(src_tokens)
    last = -1
    for k, tgt in enumerate(aligned):
        if tgt is not None:
            last = tgt
        nearest_target[k] = last
    return [nearest_target[k] for k in boundaries.positions]


def project_boundaries(
    source_doc: SegmentedDocument,
    target_tokens: Sequence[str],
    cfg: AlignmentConfig = DEFAULT_CONFIG,
) -> SegmentedDocument:
    """Re-segment ``target_tokens`` with boundaries carried over from ``source_doc``.

    The output document contains exactly the target tokens, in order; only
    the segmentation changes.  Boundaries that collapse onto the same target
    position merge, and a final boundary after the last token is always
    present, so no empty segments are produced.
    """
    positions = project_positions(source_doc, target_tokens, cfg)
    return rebuild(
        target_tokens,
        (k for k in positions if k >= 0),
        doc_id=source_doc.doc_id,
    )
