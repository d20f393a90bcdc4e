"""Token-level Levenshtein alignment, WER, and boundary projection.

Alignment uses unit costs (match 0; substitute/delete/insert 1) and is
exact.  The cost table is never materialized: a bit-parallel forward pass
(Myers 1999) keeps each row's cost differences as bit vectors, and the
backtrace reads its options from those bits (Hyyro 2004).  Every aligner
takes a corpus of pairs, and a single pair is a corpus of one.
Myers' recurrence runs in one loop, ``_recurrence``, over lanes of one
Python int (Hyyro, Fredriksson & Navarro 2005).  Full rows run many pairs
at once, in ``_lanes``: a row of m columns takes m // 8 + 1 bytes, so at
least one guard bit above each row stops carries and shifts from crossing
into the next lane.  A lane group is a run of consecutive pairs that closes
before its rows (tokens of its longest ``a``) times its bits would pass
``LANE_GROUP_BITS``, so results come out in input order, and a pair with a
very long ``a`` cannot keep that many rows at the width of a whole group.
Each packed match row is one ``int.from_bytes`` of the lanes' per-key
bytes.  The backtrace reads a lane at its bit offset in the group's shared
rows, and distance alone reads each lane at its own last row and keeps no
rows.  Rows of ``BAND_MIN_COLUMNS`` or more run instead on a diagonal band
of 2K+1+|m-n| columns, in ``_band``: a lane group of one whose window moves
one column per row, as in Hyyro's banded bit-vector (2003).  A prefix
sample sizes the first band.  Ukkonen's bound (1985) tells whether the
band's distance is exact; if not, that distance sizes a second band that
cannot fail, so no pair takes more than two passes.  A band wider than
half the row runs as full rows, in a lane group of its own.
Tokens are compared by their keys under a ``NormalizationPolicy``, read
from that policy's memo in ``text.KEY_MEMOS``, so each distinct token is
normalized once per process, not once per call.  The tie order is fixed:
when costs tie, the backtrace takes match, then substitute, then delete,
then insert, so identical inputs always produce identical edit scripts,
banded or not.  All aligners share one forward loop and one backtrace;
projection reads positions off the backtrace, with no ``EditOp`` objects.
The table of (b, a) is the transpose of that of (a, b), so ``variants``
(``cross_project``) runs one forward pass and two backtraces.  The one from
b to a tries insert before delete: a's inserts are b's deletes, so it
follows the tie order as aligning b to a would.  Full rows limit one
alignment to ``MAX_ALIGN_CELLS`` cells, checked for every pair of a corpus
before its first row; distance alone keeps no rows and has no budget.
Boundary projection transfers segment boundaries from one transcript onto
another transcript's tokens by following the alignment of the token
immediately before each boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import rshift
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

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

#: Cap of one lane group (``_aligned``): its rows, the tokens of its longest
#: ``a``, times its bits, 8 * (m // 8 + 1) per pair.  Kept rows take three
#: bits per unit, so a group at the cap keeps about 0.75 MiB of row bits.
LANE_GROUP_BITS = 1 << 21


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


def _peq(b_keys: Sequence[str]) -> dict:
    """Per comparison key of ``b``, the bits j-1 of the columns j whose token has that key."""
    peq: dict = {}
    for j, t in enumerate(b_keys):
        peq[t] = peq.get(t, 0) | 1 << j
    return peq


def _recurrence(
    matches: Iterator[int], lanes: Sequence[Tuple[int, int, int]], moves: range = range(0), rows=None
) -> list:
    """Each lane's D'[n][m], by Myers' recurrence over packed match rows; the window moves on ``moves``.

    Myers' recurrence (JACM 46(3), 1999) in its global form runs once per
    row for every lane at once.  Lane d, ``(off, width, n)``, ends after n
    rows, and its window is the bits off .. off + width - 1 of ``mask``,
    with at least one guard bit, clear in ``mask``, above it: a carry out of
    the lane, or a shift left, ends there, and every mask clears it.  Row
    i's window holds the columns c+1 .. c+width (c is 0 on full rows), and
    match row i has bit off+j-1-c set where ``b[j-1]`` has the key of
    ``a[i-1]``.  Row i gives

    * ``d0`` bit off+j-1-c: D'[i][j] == D'[i-1][j-1] (diagonal step costs nothing);
    * ``hp`` / ``hn`` bit off+j-c: D'[i][j] - D'[i-1][j] is +1 / -1; bit off
      (``starts``) is the border column c, where the difference is always +1;
    * ``vp`` / ``vn`` bit off+j-1-c: D'[i][j] - D'[i][j-1] is +1 / -1.

    A band is a lane group of one whose window moves one column right on
    each row of ``moves`` (0-based, before that row), as in Hyyro's banded
    bit-vector (2003): the row before loses its first delta, which the
    border value takes (``dropped``), and gains the next column at +1
    (``top``), the cost through its left neighbour.  So every D' is the cost
    of some path, and every path inside the window counts: D' = D on every
    cell that an optimal path inside the window reaches, and on full rows D'
    is D.  With ``rows`` = ``(diag, down, left)``, three lists, row 0 and
    then every row's ``d0``, ``hp`` and ``vp`` are appended to them;
    otherwise only the current row is kept.  D'[n][c] is n plus what the
    border took (nothing on a window that never moves), so each lane's
    distance adds its +1 steps on its own last row and subtracts its -1
    steps.
    """
    mask = starts = 0
    ending: dict = {}  # row count -> lanes that end there
    for d, (off, width, n) in enumerate(lanes):
        mask |= ((1 << width) - 1) << off
        starts |= 1 << off
        ending.setdefault(n, []).append(d)
    top = mask ^ mask >> 1  # a band's one lane: bit width - 1
    if rows is not None:
        keep_diag, keep_down, keep_left = (kept.append for kept in rows)
        keep_diag(0)  # row 0: D[0][j] = j, only inserts
        keep_down(0)
        keep_left(mask)
    distances = [0] * len(lanes)
    vp, vn = mask, 0
    dropped = done = 0  # dropped: D'[i][c] - i, what the border value took
    for end in sorted({*ending, moves.start, moves.stop}):
        moving = done in moves
        for x in islice(matches, end - done):
            if moving:
                dropped += (vp & 1) - (vn & 1)
                vp = vp >> 1 | top
                vn >>= 1
            x |= vn
            d0 = ((((x & vp) + vp) ^ vp) | x) & mask
            hp = (vn | mask ^ (d0 | vp)) << 1 | starts
            hn = (vp & d0) << 1
            vp = (hn | (d0 | hp) ^ mask) & mask
            vn = hp & d0
            if rows is not None:
                keep_diag(d0)
                keep_down(hp)
                keep_left(vp)
        done = end
        for d in ending.get(end, ()):
            off, width, _ = lanes[d]
            lane = (1 << width) - 1
            distances[d] = end + dropped + (vp >> off & lane).bit_count() - (vn >> off & lane).bit_count()
    return distances


def _lanes(pairs: Sequence[Tuple[Sequence[str], Sequence[str]]], keep: bool = False) -> list:
    """Each pair's distance, or with ``keep`` its forward tuple, from one pass over all full rows.

    Pair d has a lane of 8 * (m_d // 8 + 1) bits at bit offset ``off``: at
    least one guard bit above its m_d columns.  Packed match row i is one
    ``int.from_bytes`` of each lane's bytes for the key of ``a[i-1]``, from
    per-key bytes that each lane builds once; past its last token of ``a``
    a lane matches nothing.  With ``keep``, the group's rows are kept, and
    each pair's forward tuple reads them at its offset.
    """
    nbytes = [len(b) // 8 + 1 for _, b in pairs]
    offsets = [0, *accumulate(8 * size for size in nbytes)]
    rows = max((len(a) for a, _ in pairs), default=0)
    columns = []
    for (a, b), size in zip(pairs, nbytes):
        table = {t: bits.to_bytes(size, "little") for t, bits in _peq(b).items()}
        zero = bytes(size)
        column = list(map(table.get, a, repeat(zero)))
        column += repeat(zero, rows - len(a))
        columns.append(column)
    matches = map(int.from_bytes, map(b"".join, zip(*columns)), repeat("little"))
    lanes = [(off, len(b), len(a)) for (a, b), off in zip(pairs, offsets)]
    kept = ([], [], []) if keep else None
    distances = _recurrence(matches, lanes, rows=kept)
    return [(a, b, *kept, 0, 0, off) for (a, b), off in zip(pairs, offsets)] if keep else distances


def _band(a_keys: Sequence[str], b_keys: Sequence[str], lo: int, width: int, rows=None) -> int:
    """D'[n][m] >= D[n][m] of the keys, on a band of ``width`` columns: a lane of one whose window moves.

    Row i's window, after column c = clamp(i + lo - 1, 0, m - width), holds
    the diagonals j - i = ``lo`` .. ``lo + width - 1``, so its match row is
    ``peq`` shifted c bits lower, in C before the loop sees it.
    """
    n, m = len(a_keys), len(b_keys)
    last = m - width
    first, stop = (min(max(k - lo, 0), n) for k in (1, last + 1))  # rows i - 1 where 0 < i + lo - 1 <= last
    shifts = chain(repeat(0, first), range(first + lo, stop + lo), repeat(last, n - stop))
    matches = map(rshift, map(_peq(b_keys).get, a_keys, repeat(0)), shifts)
    (distance,) = _recurrence(matches, [(0, width, n)], range(first, stop), rows)
    return distance


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
    errors = _lanes([(a_keys[:sample], b_keys[:sample])])[0]
    return int(BAND_SLACK * (errors + 2 * errors**0.5 + 1) * min(n, m) / sample) // 2


def _passes(a_keys: Sequence[str], b_keys: Sequence[str], keep: bool = False):
    """The band's exact distance, or with ``keep`` its forward tuple; None for full rows.

    Any path through a cell off the diagonals min(0, m-n) - K .. max(0, m-n)
    + K costs at least 2K + 2 + |m-n| (Ukkonen, Information and Control 64,
    1985).  So a band of half-width K (``width`` = 2K + 1 + |m-n| columns)
    whose D'[n][m] is at most ``width`` has found the distance, and holds
    every optimal path: the backtrace on its rows makes the same choices as
    on the full rows.  Otherwise D'[n][m] bounds the distance and sizes a
    second band that cannot fail.  A row shorter than ``BAND_MIN_COLUMNS``,
    or a band wider than half the row, leaves the pair to a lane group of
    full rows.  Each band runs in ``_band``, a lane group of one whose
    window moves; the forward tuple's ``lo`` and ``last`` = m - ``width``
    place row i's window after column clamp(i + lo - 1, 0, last).
    """
    n, m = len(a_keys), len(b_keys)
    if m < BAND_MIN_COLUMNS:
        return None
    skew = abs(m - n)
    k = _first_band(a_keys, b_keys)
    for _ in range(2):  # at most two bands
        lo, width = min(0, m - n) - k, 2 * k + 1 + skew
        if 2 * width > m:
            return None
        rows = ([], [], []) if keep else None
        distance = _band(a_keys, b_keys, lo, width, rows)
        if distance <= width:
            return (a_keys, b_keys, *rows, lo, m - width, 0) if keep else distance
        # The smallest K whose width holds D'[n][m] >= D[n][m]: it cannot fail.
        k = (distance - skew) // 2
    return None


def _aligned(pairs: Iterable[Tuple[Sequence[str], Sequence[str]]], keep: bool = False) -> Iterator:
    """Per pair of keys, in input order: its distance, or with ``keep`` its forward tuple.

    A pair that ``_passes`` keeps on a band runs alone.  The others run on
    full rows, in lane groups of consecutive pairs (``_lanes``): a group
    closes before a pair that would take its rows times its bits past
    ``LANE_GROUP_BITS``, and before a banded pair, so the output keeps the
    input's order.
    """
    group: list = []
    rows = bits = 0
    for a_keys, b_keys in pairs:
        banded = _passes(a_keys, b_keys, keep)
        lane = 8 * (len(b_keys) // 8 + 1)
        if group and (banded is not None or max(rows, len(a_keys)) * (bits + lane) > LANE_GROUP_BITS):
            yield from _lanes(group, keep)
            group, rows, bits = [], 0, 0
        if banded is not None:
            yield banded
        else:
            group.append((a_keys, b_keys))
            rows, bits = max(rows, len(a_keys)), bits + lane
    yield from _lanes(group, keep)


def _forward(pairs: Iterable[Tuple[Sequence[str], Sequence[str]]], policy: NormalizationPolicy):
    """Forward tuples of ``(a, b)`` token pairs, one per pair in input order.

    Every pair's budget is checked before the first row.  A forward tuple is
    ``(a_keys, b_keys, diag, down, left, lo, last, off)``: per row i of D,
    with c = clamp(i + lo - 1, 0, last) the column before the row's window
    (0 on full rows, where ``last`` is 0) and ``off`` the pair's lane offset
    (0 on a band), ``diag`` bit off+j-1-c is D[i][j] == D[i-1][j-1],
    ``down`` bit off+j-c is D[i][j] == D[i-1][j] + 1 and ``left`` bit
    off+j-1-c is D[i][j] == D[i][j-1] + 1 (see ``_recurrence``).
    Row 0 is before any token of a: only inserts, every D[0][j] - D[0][j-1]
    = +1.  The rows of a lane group are shared by its pairs.
    """
    pairs = list(pairs)
    check_budget(pairs)
    return _aligned((_comparison_keys(a, b, policy) for a, b in pairs), keep=True)


def _backtrace(forward, b_to_a: bool = False) -> List[str]:
    """Op kinds of the script from ``a`` to ``b``, last step first, in the tie order.

    D of (b, a) is the transpose of D of (a, b): its delete test is ``left``,
    its insert test ``down``.  So with ``b_to_a`` the same rows yield the
    script from ``b`` to ``a`` (in a's kinds).
    """
    a_keys, b_keys, diag, down, left, lo, last, off = forward
    kinds: List[str] = []
    i, j = len(a_keys), len(b_keys)
    while i > 0 or j > 0:
        # Equal tokens always give D[i][j] == D[i-1][j-1]: no cost check needed.
        if i > 0 and j > 0 and a_keys[i - 1] == b_keys[j - 1]:
            kind = MATCH
        else:
            k = j - min(max(i + lo - 1, 0), last) + off  # column j is bit k-1 of row i
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
    (forward,) = _forward([(a, b)], policy)
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

    Runs the one bit-parallel forward loop, on a band or on full rows (see
    ``_passes``), keeping only the current row, so memory is O(len(b)).
    """
    (distance,) = _aligned([_comparison_keys(a, b, policy)])
    return distance


def corpus_wer_counts(
    pairs: Iterable[Tuple[Sequence[str], Sequence[str]]]
) -> List[Tuple[int, int]]:
    """``wer_counts`` of every ``(reference, hypothesis)`` pair, in one lane pass over the corpus."""
    stripped = [(normalize(ref, STRIPPED), normalize(hyp, STRIPPED)) for ref, hyp in pairs]
    # The stripped tokens are their own comparison keys.
    return [(errors, len(ref)) for (ref, _), errors in zip(stripped, _aligned(stripped))]


def wer_counts(reference: Sequence[str], hypothesis: Sequence[str]) -> Tuple[int, int]:
    """Word errors and reference length, ignoring case, punctuation, and symbols.

    Both sides are fully stripped before comparison; returns the edit
    distance between them and the normalized reference length.  Sums of
    these pairs over documents give corpus-level WER.
    """
    return corpus_wer_counts([(reference, hypothesis)])[0]


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


def corpus_positions(
    pairs: Iterable[Tuple[SegmentedDocument, Sequence[str]]],
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> List[List[int]]:
    """``project_positions`` of every ``(source_doc, target_tokens)`` pair, in one lane pass."""
    flat = [(flatten(source_doc), target) for source_doc, target in pairs]
    forwards = _forward(((tokens, target) for (tokens, _), target in flat), policy)
    return [
        _positions(_backtrace(forward), DELETE, boundaries)
        for ((_, boundaries), _), forward in zip(flat, forwards)
    ]


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
    return corpus_positions([(source_doc, target_tokens)], policy)[0]


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


def corpus_cross_project(
    pairs: Iterable[Tuple[SegmentedDocument, SegmentedDocument]],
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> List[Tuple[SegmentedDocument, SegmentedDocument]]:
    """``cross_project`` of every ``(a_doc, b_doc)`` pair, in one lane pass over the corpus."""
    flat = [(a_doc, flatten(a_doc), b_doc, flatten(b_doc)) for a_doc, b_doc in pairs]
    forwards = _forward(((a_tokens, b_tokens) for _, (a_tokens, _), _, (b_tokens, _) in flat), policy)
    out = []
    for (a_doc, (a_tokens, a_bounds), b_doc, (b_tokens, b_bounds)), forward in zip(flat, forwards):
        on_b = _positions(_backtrace(forward), DELETE, a_bounds)
        on_a = _positions(_backtrace(forward, b_to_a=True), INSERT, b_bounds)
        out.append((
            rebuild(b_tokens, (k for k in on_b if k >= 0), doc_id=a_doc.doc_id),
            rebuild(a_tokens, (k for k in on_a if k >= 0), doc_id=b_doc.doc_id),
        ))
    return out


def cross_project(
    a_doc: SegmentedDocument,
    b_doc: SegmentedDocument,
    policy: NormalizationPolicy = ALIGNMENT_NORMALIZATION,
) -> Tuple[SegmentedDocument, SegmentedDocument]:
    """``project_boundaries(a_doc, b_tokens)`` and ``(b_doc, a_tokens)``, from one forward pass.

    The (a, b) rows are backtraced twice: once from a to b, and once with
    ``b_to_a``, which follows the script from b to a.
    """
    return corpus_cross_project([(a_doc, b_doc)], policy)[0]
