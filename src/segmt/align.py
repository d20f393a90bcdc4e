"""Token-level Levenshtein alignment, WER, and boundary projection.

Alignment uses unit costs (match 0; substitute/delete/insert 1) and is
exact.  The cost table is never materialized: a bit-parallel forward pass
(Myers 1999) keeps each row's cost differences as bit vectors, and the
backtrace reads its options from those bits (Hyyro 2004).  The recurrence
runs in one loop, ``_myers``, over a window of columns per row, as in
Hyyro's banded bit-vector (2003).  On long rows the window is a diagonal
band of 2K+1+|m-n| columns that moves one column per row; otherwise it is
the full row, a window as wide as the row that never moves.  A prefix
sample sizes the first band.  Ukkonen's bound (1985) tells whether the
band's distance is exact; if not, that distance sizes a second band that
cannot fail, so no pair takes more than two passes.  Rows shorter than
``BAND_MIN_COLUMNS``, and bands wider than half the row, run the full row.
Tokens are compared by their keys under a ``NormalizationPolicy``, read
from that policy's memo in ``text.KEY_MEMOS``, so each distinct token is
normalized once per process, not once per call.  The tie order is fixed:
when costs tie, the backtrace takes match, then substitute, then delete,
then insert, so identical inputs always produce identical edit scripts,
banded or not.  All aligners share one forward pass and one backtrace;
projection reads positions off the backtrace, with no ``EditOp`` objects.
The table of (b, a) is the transpose of that of (a, b), so ``variants``
(``cross_project``) runs one forward pass and two backtraces.  The one from
b to a tries insert before delete: a's inserts are b's deletes, so it
follows the tie order as aligning b to a would.  Full rows limit one
alignment to ``MAX_ALIGN_CELLS`` cells; distance alone keeps only the
current row and reads the distance off the last one.
Boundary projection transfers segment boundaries from one transcript onto
another transcript's tokens by following the alignment of the token
immediately before each boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .text import (
    InputError,
    KEY_MEMOS,
    NormalizationPolicy,
    STRIPPED,
    SegmentedDocument,
    flatten,
    normalize,
    rebuild,
)

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"

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


#: Size budget of one alignment in DP cells (tokens of a times tokens of b).
#: Full rows take three bits a cell: 30k x 30k tokens peak at 311 MiB, so
#: this budget (about 45k x 45k) stays near 700 MiB.  A band keeps fewer
#: bits, but a pair whose band would be wider than half the row runs on full
#: rows, so the budget still sizes that fallback.  A larger pair raises
#: ``InputError`` before any row is kept; ``edit_distance`` needs no budget.
MAX_ALIGN_CELLS = 2_000_000_000

#: Rows (tokens of ``b``) shorter than this run the full row, with no band and
#: no sample.  Below it the band's per-row move costs more than its narrower
#: ints save: sample and band took 1.12-1.16 times the full row's time at
#: 1,536 columns, and 0.89-0.98 times at 2,048 (5-30% noise, 2 cores).
BAND_MIN_COLUMNS = 2048

#: Tokens of each side whose distance sizes the first band (``_first_band``).
BAND_SAMPLE = 256

#: Width of the first band over the distance that the sample estimates.
BAND_SLACK = 1.25


def check_budget(pairs: Iterable[Tuple[Sequence[str], Sequence[str]]]) -> None:
    """Raise ``InputError`` at the first ``(a, b)`` pair of token sequences over budget."""
    for a, b in pairs:
        if len(a) * len(b) > MAX_ALIGN_CELLS:
            raise InputError(
                f"alignment of {len(a)} x {len(b)} tokens exceeds the budget of "
                f"{MAX_ALIGN_CELLS} cells (MAX_ALIGN_CELLS)"
            )


def _comparison_keys(a: Sequence[str], b: Sequence[str], policy: NormalizationPolicy):
    """Both sequences as the comparison keys of their tokens, one per token.

    Every token keeps its position: a token whose key normalizes to the
    empty string still occupies a slot (and matches other empty-key tokens),
    which is what keeps projection anchored to original positions.  Keys are
    read from the policy's memo in ``text.KEY_MEMOS``, so each distinct token
    is normalized once per process, not once per call.
    """
    key = KEY_MEMOS[policy].__getitem__
    return list(map(key, a)), list(map(key, b))


def _myers(a_keys: Sequence[str], b_keys: Sequence[str], lo: int, width: int, rows=None) -> int:
    """D'[n][m] >= D[n][m] of the keys, by Myers' recurrence on ``width`` columns per row.

    Myers' recurrence (JACM 46(3), 1999) in its global form runs once per
    token of ``a``: Python ints serve as bit vectors over a window of
    ``width`` columns of ``b``, and ``peq[k]`` has bit j-1 set where
    ``b[j-1]`` has comparison key k.  Row i holds the columns c+1 ..
    c+width, with c = clamp(i + lo - 1, 0, m - width), reads ``peq`` c bits
    lower, and gives

    * ``d0`` bit j-1-c: D'[i][j] == D'[i-1][j-1] (diagonal step costs nothing);
    * ``hp`` / ``hn`` bit j-c: D'[i][j] - D'[i-1][j] is +1 / -1; bit 0 is the
      border column c, where the difference is always +1;
    * ``vp`` / ``vn`` bit j-1-c: D'[i][j] - D'[i][j-1] is +1 / -1.

    The full row is the window of ``width`` = m columns: c stays 0, the
    window never moves, and D' = D.  A narrower window is a band, as in
    Hyyro's banded bit-vector (2003): the diagonals j - i = ``lo`` .. ``lo +
    width - 1`` and, through the middle rows, one column further right than
    the row before.  On that move the row before loses its first delta,
    which the border value takes, and gains the next column at +1 (``top``),
    the cost through its left neighbour.  The border column c counts
    D'[i][c] = D'[i-1][c] + 1 as the full row counts column 0.  So every D'
    is the cost of some path, and every path inside the window counts: D' =
    D on every cell that an optimal path inside the band reaches.  Each row
    costs a fixed number of big-int operations on ``width``-bit values.
    With ``rows`` = ``(diag, down, left)``, three lists, row i's ``d0``,
    ``hp`` and ``vp`` are appended to them; otherwise only the current row
    is kept.  D'[n][c] = n plus what the border took, so the distance adds
    the last row's +1 steps and subtracts its -1 steps.
    """
    m = len(b_keys)
    mask = (1 << width) - 1
    top = mask ^ mask >> 1  # bit width-1, or 0 when the row is empty
    last = m - width
    peq: dict = {}
    for j, t in enumerate(b_keys):
        peq[t] = peq.get(t, 0) | 1 << j
    if rows is not None:
        keep_diag, keep_down, keep_left = (kept.append for kept in rows)
    vp, vn = mask, 0  # row 0: D[0][j] = j
    c = dropped = 0  # dropped: D'[i][c] - i, what the border value took
    for i, t in enumerate(a_keys, lo):  # i = row + lo - 1, c before the clamp
        if 0 < i <= last:
            dropped += (vp & 1) - (vn & 1)
            vp = vp >> 1 | top
            vn >>= 1
            c = i
        x = peq.get(t, 0) >> c | vn
        d0 = ((((x & vp) + vp) ^ vp) | x) & mask
        hp = (vn | mask ^ (d0 | vp)) << 1 | 1
        hn = (vp & d0) << 1
        vp = (hn | (d0 | hp) ^ mask) & mask
        vn = hp & d0
        if rows is not None:
            keep_diag(d0)
            keep_down(hp)
            keep_left(vp)
    return len(a_keys) + dropped + vp.bit_count() - vn.bit_count()


def _first_band(a_keys: Sequence[str], b_keys: Sequence[str]) -> int:
    """Half-width K of the first band, sized from the distance of a prefix sample.

    The first ``BAND_SAMPLE`` tokens of each side give an error count e.
    e + 2 sqrt(e) + 1 errors per sample, over the shorter side, estimate the
    errors besides the |m-n| that the band's width adds anyway, from above;
    the band is made ``BAND_SLACK`` times that wide, so errors that thicken
    after the prefix still pass Ukkonen's check.
    """
    n, m = len(a_keys), len(b_keys)
    sample = min(n, m, BAND_SAMPLE)
    if not sample:
        return 0
    errors = _myers(a_keys[:sample], b_keys[:sample], 0, sample)
    return int(BAND_SLACK * (errors + 2 * errors**0.5 + 1) * min(n, m) / sample) // 2


def _passes(a_keys: Sequence[str], b_keys: Sequence[str], keep: bool = False):
    """``(distance, rows)``: the exact distance, and with ``keep`` the rows of its pass.

    Any path through a cell off the diagonals min(0, m-n) - K .. max(0, m-n)
    + K costs at least 2K + 2 + |m-n| (Ukkonen, Information and Control 64,
    1985).  So a band of half-width K (``width`` = 2K + 1 + |m-n| columns)
    whose D'[n][m] is at most ``width`` has found the distance, and holds
    every optimal path: the backtrace on its rows makes the same choices as
    on the full rows.  Otherwise D'[n][m] bounds the distance and sizes a
    second band that cannot fail.  A band wider than half the row, or a row
    shorter than ``BAND_MIN_COLUMNS``, runs as the full row: the window of
    ``width`` = m columns, exact in one pass.  ``rows`` is ``(diag, down,
    left, lo, last)``: the column before row i's bit 0 is clamp(i + lo - 1,
    0, last), where ``last`` = m - ``width`` is 0 on the full row.
    """
    n, m = len(a_keys), len(b_keys)
    skew = abs(m - n)
    k = _first_band(a_keys, b_keys) if m >= BAND_MIN_COLUMNS else m  # K = m: the full row
    for attempt in range(3):  # at most two bands, then the full row
        lo, width = min(0, m - n) - k, 2 * k + 1 + skew
        if 2 * width > m or attempt == 2:
            width = m  # the full row: a window that never moves
        rows = ([0], [0], [(1 << width) - 1]) if keep else None
        distance = _myers(a_keys, b_keys, lo, width, rows)
        if width == m or distance <= width:
            return distance, (*rows, lo, m - width) if keep else None
        # The smallest K whose width holds D'[n][m] >= D[n][m]: it cannot fail.
        k = (distance - skew) // 2


def _forward(a: Sequence[str], b: Sequence[str], policy: NormalizationPolicy):
    """``(a_keys, b_keys, diag, down, left, lo, last)``: per row i of D, with
    c = clamp(i + lo - 1, 0, last) the column before the row's window (0 on
    the full row, where ``last`` is 0), ``diag`` bit j-1-c is D[i][j] ==
    D[i-1][j-1], ``down`` bit j-c is D[i][j] == D[i-1][j] + 1 and ``left``
    bit j-1-c is D[i][j] == D[i][j-1] + 1 (see ``_myers`` and ``_passes``).
    Row 0 is before any token of a: only inserts, every D[0][j] - D[0][j-1]
    = +1."""
    check_budget([(a, b)])
    a_keys, b_keys = _comparison_keys(a, b, policy)
    return (a_keys, b_keys, *_passes(a_keys, b_keys, keep=True)[1])


def _backtrace(forward, b_to_a: bool = False) -> List[str]:
    """Op kinds of the script from ``a`` to ``b``, last step first, in the tie order.

    D of (b, a) is the transpose of D of (a, b): its delete test is ``left``,
    its insert test ``down``.  So with ``b_to_a`` the same rows yield the
    script from ``b`` to ``a`` (in a's kinds).
    """
    a_keys, b_keys, diag, down, left, lo, last = forward
    kinds: List[str] = []
    i, j = len(a_keys), len(b_keys)
    while i > 0 or j > 0:
        # Equal tokens always give D[i][j] == D[i-1][j-1]: no cost check needed.
        if i > 0 and j > 0 and a_keys[i - 1] == b_keys[j - 1]:
            kind = MATCH
        else:
            k = j - min(max(i + lo - 1, 0), last)  # column j is bit k-1 of row i
            if i > 0 and j > 0 and not diag[i] >> (k - 1) & 1:
                kind = SUBSTITUTE
            elif not b_to_a and i > 0 and down[i] >> k & 1:
                kind = DELETE
            elif j > 0 and left[i] >> (k - 1) & 1:
                kind = INSERT
            elif i > 0 and down[i] >> k & 1:
                kind = DELETE
            else:
                raise RuntimeError(f"backtrace stuck at cell ({i}, {j})")
        i -= kind != INSERT
        j -= kind != DELETE
        kinds.append(kind)
    return kinds


def levenshtein_align(
    a: Sequence[str], b: Sequence[str], policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION
) -> Alignment:
    """Minimum-unit-cost edit script from token sequence ``a`` to ``b``.

    Deterministic: DP cost ties are broken in one fixed order (see the
    module docstring), so repeated calls yield identical scripts.  The forward
    pass keeps three vectors per row of ``a``, each as wide as the row's
    window: the full m columns, or a band of them on long rows (see
    ``_forward``).  The backtrace reads every step's options from them in
    O(1) without materializing the cost table.
    Raises ``InputError`` when ``len(a) * len(b)`` exceeds ``MAX_ALIGN_CELLS``.
    """
    forward = _forward(a, b, policy)
    ops: List[EditOp] = []
    i, j = len(a), len(b)
    for kind in _backtrace(forward):
        i -= kind != INSERT
        j -= kind != DELETE
        ops.append(EditOp(kind, None if kind == INSERT else i, None if kind == DELETE else j))
    ops.reverse()
    return Alignment(ops, len(a), len(b))


def edit_distance(
    a: Sequence[str], b: Sequence[str], policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION
) -> int:
    """Levenshtein distance under the ``policy`` comparison normalization.

    Runs the bit-parallel forward pass (on a band when the rows are long, see
    ``_passes``) keeping only the current row, so memory is O(len(b)); the
    distance is read off the last row.
    """
    return _passes(*_comparison_keys(a, b, policy))[0]


def wer_counts(reference: Sequence[str], hypothesis: Sequence[str]) -> Tuple[int, int]:
    """Word errors and reference length, ignoring case, punctuation, and symbols.

    Both sides are fully stripped before comparison; returns the edit
    distance between them and the normalized reference length.  Sums of
    these pairs over documents give corpus-level WER.
    """
    ref = normalize(reference, STRIPPED)
    hyp = normalize(hypothesis, STRIPPED)
    return _passes(ref, hyp)[0], len(ref)  # the stripped tokens are their own comparison keys


def wer(reference: Sequence[str], hypothesis: Sequence[str]) -> float:
    """Word error rate: ``wer_counts`` errors over the normalized reference length."""
    errors, ref_len = wer_counts(reference, hypothesis)
    if not ref_len:
        raise InputError("WER is undefined: reference is empty after normalization")
    return errors / ref_len


def _positions(kinds: List[str], source_only: str, boundaries: Sequence[int]) -> List[int]:
    """``project_positions`` read off backtrace kinds (see its docstring).

    ``source_only`` is the kind that consumes a source token alone: DELETE
    when the source is ``a``, INSERT when it is ``b``.
    """
    target_only = INSERT if source_only == DELETE else DELETE
    nearest: List[int] = []  # per source token
    last = target = -1
    for kind in reversed(kinds):
        if kind == target_only:
            target += 1
        elif kind == source_only:
            nearest.append(last)
        else:
            target += 1
            last = target
            nearest.append(target)
    return [nearest[k] for k in boundaries]


def project_positions(
    source_doc: SegmentedDocument,
    target_tokens: Sequence[str],
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> List[int]:
    """Map each source boundary to a target position, without collapsing.

    Returns one entry per source boundary: the target position the boundary
    lands after, or -1 when it falls before the first target token.  A
    boundary after source token ``k`` follows ``k``'s alignment; if ``k``
    was deleted, it attaches to the nearest preceding source token that has
    a target counterpart.  Entries are non-decreasing.
    """
    src_tokens, boundaries = flatten(source_doc)
    forward = _forward(src_tokens, target_tokens, policy)
    return _positions(_backtrace(forward), DELETE, boundaries)


def project_boundaries(
    source_doc: SegmentedDocument,
    target_tokens: Sequence[str],
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> SegmentedDocument:
    """Re-segment ``target_tokens`` with boundaries carried over from ``source_doc``.

    The output document contains exactly the target tokens, in order; only
    the segmentation changes.  Boundaries that collapse onto the same target
    position merge, and a final boundary after the last token is always
    present, so no empty segments are produced.
    """
    positions = project_positions(source_doc, target_tokens, policy)
    return rebuild(
        target_tokens,
        (k for k in positions if k >= 0),
        doc_id=source_doc.doc_id,
    )


def cross_project(
    a_doc: SegmentedDocument,
    b_doc: SegmentedDocument,
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> Tuple[SegmentedDocument, SegmentedDocument]:
    """``project_boundaries(a_doc, b_tokens)`` and ``(b_doc, a_tokens)``, from one forward pass.

    The (a, b) rows are backtraced twice: once from a to b, and once with
    ``b_to_a``, which follows the script from b to a.
    """
    a_tokens, a_bounds = flatten(a_doc)
    b_tokens, b_bounds = flatten(b_doc)
    forward = _forward(a_tokens, b_tokens, policy)
    on_b = _positions(_backtrace(forward), DELETE, a_bounds)
    on_a = _positions(_backtrace(forward, b_to_a=True), INSERT, b_bounds)
    return (
        rebuild(b_tokens, (k for k in on_b if k >= 0), doc_id=a_doc.doc_id),
        rebuild(a_tokens, (k for k in on_a if k >= 0), doc_id=b_doc.doc_id),
    )
