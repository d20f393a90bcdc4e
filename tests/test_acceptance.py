"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a documented behavior of the package at its stated
tolerance: the worked error-isolation example, oracle equivalence for the
aligner, projection and segmentation invariants, resegmentation identity,
translator invariance, augmentation structure, mixture proportions, BLEU
and WER reference values, runtime bounds, and the boundary-corruption
degradation demo.  Every test prints its measured values; run pytest with
``-s`` (or ``-rA``) to see them alongside the pass/fail lines.
"""

import io
import json
import math
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from segmt import (
    AugmentationConfig,
    MATCH,
    MixtureSpec,
    NoiseConfig,
    NormalizationPolicy,
    PauseSplitConfig,
    SegmentedDocument,
    TimedTranscript,
    augment_blocks,
    augment_line,
    build_training_mixture,
    corpus_bleu,
    corrupt_boundaries,
    corrupt_tokens,
    edit_distance,
    flatten,
    levenshtein_align,
    make_error_variants,
    project_boundaries,
    rebuild,
    score_documents,
    split_fixed_length,
    split_on_pauses,
    wer,
    write_documents,
)
from segmt.cli import main as cli_main

# Identity comparison policy: tokens are compared literally.
PLAIN = NormalizationPolicy()


def random_tokens(rng, n):
    """Tokens with occasional casing, trailing commas, and pure punctuation."""
    base = ("alpha", "beta", "gamma", "delta")
    out = []
    for _ in range(n):
        if rng.random() < 0.1:
            out.append("...")  # normalizes to an empty comparison key
            continue
        tok = base[int(rng.integers(len(base)))]
        if rng.random() < 0.2:
            tok = tok.capitalize()
        if rng.random() < 0.2:
            tok += ","
        out.append(tok)
    return out


def random_cut_doc(rng, tokens, doc_id=""):
    """Document over ``tokens`` with a few random boundaries."""
    n_cuts = int(rng.integers(0, 4))
    cuts = [int(c) for c in rng.integers(0, max(len(tokens), 1), size=n_cuts)]
    return rebuild(tokens, cuts, doc_id=doc_id)


def cut_stream(rng, tokens, lo=4, hi=16):
    """Document over ``tokens`` cut every lo..hi tokens."""
    cuts = []
    pos = -1
    while True:
        pos += int(rng.integers(lo, hi))
        if pos >= len(tokens) - 1:
            break
        cuts.append(pos)
    return rebuild(tokens, cuts)


def test_c01_error_variant_worked_example(tmp_path):
    """The worked error-isolation example reproduces byte-exactly in < 1 s.

    Gold is one segment; the system transcript misrecognizes one token and
    inserts a segment break.  The recognition variant must carry the system
    tokens under the gold segmentation, and the segmentation variant the
    gold tokens under the system segmentation.
    """
    gold = tmp_path / "gold.txt"
    gold.write_text("the weather today was warm\n", encoding="utf-8")
    system = tmp_path / "system.txt"
    system.write_text("the whether\ntoday was warm\n", encoding="utf-8")
    out_dir = tmp_path / "variants"

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "segmt", "variants", str(gold), str(system), "-d", str(out_dir)],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start

    assert proc.returncode == 0, proc.stderr
    assert (out_dir / "recognition.txt").read_bytes() == b"the whether today was warm\n"
    assert (out_dir / "segmentation.txt").read_bytes() == b"the weather\ntoday was warm\n"
    assert (out_dir / "gold.txt").read_bytes() == b"the weather today was warm\n"
    assert (out_dir / "system.txt").read_bytes() == b"the whether\ntoday was warm\n"
    assert elapsed < 1.0
    print(f"variant files byte-exact; full CLI round trip took {elapsed:.3f}s")


def recursive_distance(a, b):
    """Textbook recursive edit distance (unit costs), memoized per pair."""
    memo = {}

    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        key = (i, j)
        if key not in memo:
            memo[key] = min(
                rec(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
                rec(i - 1, j) + 1,
                rec(i, j - 1) + 1,
            )
        return memo[key]

    return rec(len(a), len(b))


def test_c02_edit_distance_matches_recursive_oracle():
    """edit_distance equals a recursive oracle on sequences of length <= 6.

    All pairs over a 3-token alphabet up to length 3 are checked
    exhaustively; the full length-6 space (~1.2M pairs) is sampled down to
    60k seeded pairs.  Runtime must stay under 60 s.
    """
    alphabet = ("aa", "bb", "cc")
    seqs = [()]
    frontier = [()]
    for _ in range(6):
        frontier = [s + (t,) for s in frontier for t in alphabet]
        seqs.extend(frontier)
    assert len(seqs) == 1093  # 3^0 + 3^1 + ... + 3^6

    start = time.perf_counter()
    checked = 0
    short = [s for s in seqs if len(s) <= 3]
    for a in short:
        for b in short:
            assert edit_distance(list(a), list(b), PLAIN) == recursive_distance(a, b)
            checked += 1

    rng = np.random.default_rng(202)
    picks = rng.integers(0, len(seqs), size=(60_000, 2))
    for i, j in picks:
        a, b = seqs[int(i)], seqs[int(j)]
        assert edit_distance(list(a), list(b), PLAIN) == recursive_distance(a, b)
        checked += 1
    elapsed = time.perf_counter() - start

    assert checked >= 50_000
    assert elapsed < 60.0
    print(f"{checked} pairs agree with the recursive oracle in {elapsed:.1f}s")


def test_c03_boundary_projection_invariants():
    """Projection keeps target tokens, never emits empty segments, always
    closes the final segment, and maps a document onto itself unchanged.
    10k seeded randomized trials, zero violations allowed.
    """
    rng = np.random.default_rng(303)
    trials = 10_000
    violations = 0
    for _ in range(trials):
        src_tokens = random_tokens(rng, int(rng.integers(1, 11)))
        src = random_cut_doc(rng, src_tokens, doc_id="src")
        tgt_tokens = random_tokens(rng, int(rng.integers(0, 11)))

        projected = project_boundaries(src, tgt_tokens)
        tokens, bounds = flatten(projected)
        if tokens != tgt_tokens:
            violations += 1
        if any(not seg for seg in projected.segments):
            violations += 1
        if tgt_tokens and (
            not bounds or bounds[-1] != len(tgt_tokens) - 1
        ):
            violations += 1

        identity = project_boundaries(src, src_tokens)
        if identity.segments != src.segments:
            violations += 1
    assert violations == 0
    print(f"{trials} projection trials, {violations} violations")


def test_c04_resegmentation_identity_via_cli(tmp_path):
    """Re-cutting a document into fixed-length segments and scoring it
    against the original with ``score --resegment`` gives exactly 100.0 for
    1000 seeded random documents covering segment lengths 1..30.
    """
    rng = np.random.default_rng(404)
    vocab = [f"w{i}" for i in range(6)]
    hyp_path = tmp_path / "hyp.txt"
    ref_path = tmp_path / "ref.txt"
    json_path = tmp_path / "score.jsonl"
    trials = 1000
    exact = 0
    for trial in range(trials):
        n = trial % 30 + 1
        size = int(rng.integers(1, 61))
        tokens = [vocab[int(k)] for k in rng.integers(0, len(vocab), size=size)]
        write_documents(ref_path, [random_cut_doc(rng, tokens)])
        write_documents(hyp_path, [split_fixed_length(tokens, n)])
        with redirect_stdout(io.StringIO()):
            rc = cli_main(
                ["score", str(hyp_path), str(ref_path), "--resegment", "--json", str(json_path)]
            )
        assert rc == 0
        record = json.loads(json_path.read_text(encoding="utf-8"))
        if record["score"] == 100.0:
            exact += 1
    assert exact == trials
    print(f"{exact}/{trials} fixed-length re-cuts scored exactly 100.0 via the CLI")


def translate_tokenwise(doc):
    """Mock translator: an injective per-token mapping, blind to context."""
    return SegmentedDocument([["x" + tok for tok in seg] for seg in doc.segments])


def test_c05_context_free_translator_segmentation_invariance():
    """With a token-wise injective mock translator, resegmented BLEU does
    not depend on how the input was segmented: scores are bitwise identical
    for fixed-length inputs n = 10, 20, ..., 100 over a 5000-token
    document, both for a perfect reference and for one with mismatches.
    """
    rng = np.random.default_rng(505)
    tokens = [f"w{int(k)}" for k in rng.integers(0, 50, size=5000)]
    reference = translate_tokenwise(cut_stream(rng, tokens))

    scores = []
    for n in range(10, 101, 10):
        hyp = translate_tokenwise(split_fixed_length(tokens, n))
        scores.append(score_documents([hyp], [reference]).score)
    assert len(set(scores)) == 1
    assert scores[0] == 100.0

    # Same sweep against a reference with scattered token mismatches: the
    # absolute score drops below 100 but still must not depend on n.
    ref_tokens = ["x" + tok for tok in tokens]
    for i in range(0, len(ref_tokens), 97):
        ref_tokens[i] = f"z{i}"
    _, bounds = flatten(reference)
    noisy_reference = rebuild(ref_tokens, bounds)
    noisy_scores = []
    for n in range(10, 101, 10):
        hyp = translate_tokenwise(split_fixed_length(tokens, n))
        noisy_scores.append(score_documents([hyp], [noisy_reference]).score)
    assert len(set(noisy_scores)) == 1
    assert 0.0 < noisy_scores[0] < 100.0
    print(
        "resegmented BLEU constant across n=10..100: perfect reference "
        f"{scores[0]:.6f}, mismatched reference {noisy_scores[0]:.6f}"
    )


def test_c06_augmentation_output_structure():
    """Every augmented pair is a contiguous suffix of the first sentence
    followed by a contiguous prefix of the second, on both sides; dropped
    and kept counts stay within ceil(0.3 * len); all four truncations are
    consistent with a single shared draw; p = 0 reproduces the first pair
    unchanged.  10k seeded outputs, zero violations allowed.
    """
    rng = np.random.default_rng(606)
    inputs = []
    for i in range(20_000):
        src = [f"s{i}_{j}" for j in range(int(rng.integers(1, 16)))]
        tgt = [f"t{i}_{j}" for j in range(int(rng.integers(1, 16)))]
        inputs.append(" ".join(src) + "\t" + " ".join(tgt))

    (outputs,) = augment_blocks([inputs], AugmentationConfig(p_max=0.3, seed=66))
    assert len(outputs) == 10_000

    def cap(length):
        # Exact-rational ceiling, immune to float rounding of 0.3 * length.
        return math.ceil(Fraction(3, 10) * length)

    def sides(line):
        return [side.split(" ") for side in line.split("\t")]

    violations = 0
    for k, out in enumerate(outputs):
        counts = []
        for merged, a, b in zip(sides(out), sides(inputs[2 * k]), sides(inputs[2 * k + 1])):
            taken = sum(tok.split("_")[0][1:] == str(2 * k) for tok in merged)
            dropped = len(a) - taken
            kept = len(merged) - taken
            ok = (
                merged[:taken] == a[len(a) - taken :]
                and merged[taken:] == b[: len(merged) - taken]
                and 0 <= dropped <= cap(len(a))
                and kept <= cap(len(b))
            )
            if not ok:
                violations += 1
            counts.append((dropped, len(a)))
            counts.append((kept, len(b)))
        # One draw drives all four truncations: ceil(p*len) = c pins p into
        # ((c-1)/len, c/len], and the four intervals must intersect.
        if any(c == 0 for c, _ in counts):
            if not all(c == 0 for c, _ in counts):
                violations += 1
        else:
            lower = max(Fraction(c - 1, n) for c, n in counts)
            upper = min(Fraction(c, n) for c, n in counts)
            if not lower < upper:
                violations += 1
    assert violations == 0

    for k in range(0, 200, 2):
        assert augment_line(inputs[k], inputs[k + 1], 0.0) == inputs[k]
    print("10000 augmented pairs structurally valid, 0 violations; p=0 is the identity")


def test_c07_mixture_sampling_proportions():
    """100k seeded mixture draws with corpus weights 0.9/0.1 and an
    augmented fraction of 0.2 land within +/- 0.01 of every target.
    """

    def pool(label, kind, size):
        # ``(label, line)`` items, as ``segmt mix`` draws them.
        return [(label, f"{kind} {label}{i}\t{kind}") for i in range(size)]

    corpora = {
        "big": (pool("big", "orig", 53), pool("big", "aug", 37)),
        "small": (pool("small", "orig", 41), pool("small", "aug", 29)),
    }
    spec = MixtureSpec(corpus_weights={"big": 0.9, "small": 0.1}, augmented_fraction=0.2, seed=77)
    draws = build_training_mixture(corpora, spec, 100_000)
    assert len(draws) == 100_000

    big = sum(label == "big" for label, _ in draws) / len(draws)
    small = sum(label == "small" for label, _ in draws) / len(draws)
    augmented = sum(line.startswith("aug ") for _, line in draws) / len(draws)
    assert abs(big - 0.9) <= 0.01
    assert abs(small - 0.1) <= 0.01
    assert abs(augmented - 0.2) <= 0.01
    print(
        f"empirical proportions: big {big:.4f} (target 0.9), small {small:.4f} "
        f"(target 0.1), augmented {augmented:.4f} (target 0.2)"
    )


def test_c08_corpus_bleu_reference_values():
    """Identical corpora score exactly 100.0; the clipped-count toy case
    gives unigram precision 2/7 to 1e-9 relative; a corpus whose hypothesis
    is empty scores 0.
    """
    rng = np.random.default_rng(808)
    for _ in range(5):
        segments = [
            [f"v{int(k)}" for k in rng.integers(0, 9, size=int(rng.integers(1, 12)))]
            for _ in range(int(rng.integers(1, 8)))
        ]
        assert corpus_bleu(segments, segments).score == 100.0

    hyp = [["the"] * 7]
    ref = [["the", "cat", "is", "on", "the", "mat"]]
    clipped = corpus_bleu(hyp, ref)
    assert math.isclose(clipped.ngram_precisions[0], 2 / 7, rel_tol=1e-9)

    empty = corpus_bleu([[]], [["a", "b"]])
    assert empty.score == 0.0
    print(
        "identity score 100.0; clipped unigram precision "
        f"{clipped.ngram_precisions[0]:.9f} (= 2/7); empty hypothesis {empty.score}"
    )


def test_c09_word_error_rate_reference_values():
    """WER is 0 for identical transcripts and exactly 0.20 for the worked
    one-substitution example over five words; the underlying distance is
    symmetric on 1000 random pairs.
    """
    ref = "the weather today was warm".split()
    assert wer(ref, ref) == 0.0
    hyp = "the whether today was warm".split()
    value = wer(ref, hyp)
    assert value == 0.2

    rng = np.random.default_rng(909)
    for _ in range(1000):
        a = random_tokens(rng, int(rng.integers(0, 9)))
        b = random_tokens(rng, int(rng.integers(0, 9)))
        assert edit_distance(a, b) == edit_distance(b, a)
    print(f"identity 0.0; worked example {value:.2f}; distance symmetric on 1000 pairs")


def test_c10_segmentation_strategy_invariants():
    """Fixed-length and pause-based splitting preserve the token stream,
    respect their length caps, and cut at every qualifying pause.  10k
    seeded randomized inputs, zero violations allowed.
    """
    rng = np.random.default_rng(1010)
    violations = 0

    for _ in range(5000):
        tokens = [f"w{int(k)}" for k in rng.integers(0, 30, size=int(rng.integers(1, 81)))]
        n = int(rng.integers(1, 16))
        doc = split_fixed_length(tokens, n)
        segs = doc.segments
        if doc.tokens() != tokens:
            violations += 1
        if any(len(s) != n for s in segs[:-1]) or not 1 <= len(segs[-1]) <= n:
            violations += 1

    # Dyadic gap and duration values keep accumulated word times float-exact.
    gap_choices = (0.0, 0.25, 0.5, 1.0, 1.5)
    for _ in range(5000):
        count = int(rng.integers(1, 41))
        max_tokens = int(rng.integers(1, 9))
        texts = [f"u{i}" for i in range(count)]
        starts = []
        gaps = []
        t = 0.0
        for i in range(count):
            if i:
                gap = gap_choices[int(rng.integers(len(gap_choices)))]
                gaps.append(gap)
                t += gap
            starts.append(t)
            t += 0.25
        cfg = PauseSplitConfig(pause_threshold_sec=1.0, max_tokens=max_tokens)
        transcript = TimedTranscript(texts, starts, [start + 0.25 for start in starts])
        doc = split_on_pauses(transcript, cfg)
        if doc.tokens() != texts:
            violations += 1
        if any(not s or len(s) > max_tokens for s in doc.segments):
            violations += 1
        ends = set(np.cumsum([len(s) for s in doc.segments]) - 1)
        for i, gap in enumerate(gaps):
            if gap >= cfg.pause_threshold_sec and i not in ends:
                violations += 1

    assert violations == 0
    print("10000 segmentation trials (5000 fixed-length, 5000 pause-based), 0 violations")


def test_c11_alignment_time_and_memory_bounds():
    """Aligning two 10k-token documents with the full DP table finishes in
    under 10 s and under 1 GB peak traced memory.
    """
    rng = np.random.default_rng(1111)
    vocab = [f"w{i}" for i in range(300)]
    a = [vocab[int(k)] for k in rng.integers(0, len(vocab), size=10_000)]
    b = []
    for tok in a:
        roll = rng.random()
        if roll < 0.03:
            continue  # deletion
        if roll < 0.08:
            b.append(vocab[int(rng.integers(len(vocab)))])  # substitution
        else:
            b.append(tok)
        if rng.random() < 0.03:
            b.append(vocab[int(rng.integers(len(vocab)))])  # insertion

    tracemalloc.start()
    start = time.perf_counter()
    alignment = levenshtein_align(a, b)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert elapsed < 10.0
    assert peak < 2**30
    assert alignment.a_len == len(a) and alignment.b_len == len(b)
    a_indices = [op.a_index for op in alignment.ops if op.a_index is not None]
    b_indices = [op.b_index for op in alignment.ops if op.b_index is not None]
    assert a_indices == list(range(len(a)))
    assert b_indices == list(range(len(b)))
    print(
        f"aligned {len(a)} x {len(b)} tokens in {elapsed:.2f}s, "
        f"peak {peak / 2**20:.0f} MiB, distance {alignment.distance()}"
    )


def test_c12_boundary_corruption_degrades_score():
    """Demo: with a translator that tags each segment's first token, moving
    segment boundaries hurts resegmented BLEU even when every token is
    correct.  The segmentation-error variant must score strictly below the
    gold transcript; all measured scores are printed for the record.
    """
    rng = np.random.default_rng(1212)
    vocab = [f"tok{i}" for i in range(40)]
    gold_docs = []
    for d in range(20):
        segments = [
            [vocab[int(k)] for k in rng.integers(0, len(vocab), size=int(rng.integers(4, 13)))]
            for _ in range(10)
        ]
        gold_docs.append(SegmentedDocument(segments, doc_id=f"d{d}"))

    noise = NoiseConfig(
        substitution_rate=0.05,
        boundary_merge_rate=0.5,
        boundary_split_rate=0.25,
        vocabulary=tuple(vocab),
        seed=13,
    )
    system_docs = [corrupt_boundaries(corrupt_tokens(doc, noise), noise) for doc in gold_docs]
    variants = [make_error_variants(g, s) for g, s in zip(gold_docs, system_docs)]

    def translate(doc):
        # Context-sensitive mock translator: the first token of each segment
        # is tagged differently from the rest.
        segments = [["F" + seg[0]] + ["x" + tok for tok in seg[1:]] for seg in doc.segments]
        return SegmentedDocument(segments, doc_id=doc.doc_id)

    references = [translate(doc) for doc in gold_docs]

    def scored(docs):
        return score_documents([translate(d) for d in docs], references).score

    gold_score = scored(gold_docs)
    recognition_score = scored([v.recognition_errors for v in variants])
    segmentation_score = scored([v.segmentation_errors for v in variants])
    system_score = scored(system_docs)

    assert gold_score == 100.0
    assert segmentation_score < gold_score
    print(
        f"resegmented BLEU: gold {gold_score:.2f}, "
        f"recognition errors {recognition_score:.2f}, "
        f"segmentation errors {segmentation_score:.2f}, "
        f"full system {system_score:.2f}"
    )
