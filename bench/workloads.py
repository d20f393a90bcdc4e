"""Seeded input generators for the benchmark workloads.

Every input is drawn here with numpy from the workload seed.  Nothing comes
from ``segmt`` itself (in particular not from ``segmt.noise``), so a change
to the package under test cannot change the inputs it is measured on.

A workload is one corpus shape.  Each workload writes the same set of input
files, so every subcommand runs on every workload:

``ref.txt``        reference documents, punctuated and cased
``hyp.txt``        hypothesis: token noise plus boundary noise (resegmented scoring)
``hyp_plain.txt``  hypothesis: token noise only, reference boundaries kept
``words.jsonl``    timed transcript of the reference tokens, with pauses
``bitext.txt``     source<TAB>target pairs in blocks
``bitext_b.txt``   a second, smaller bitext for the mixture
``vocab.txt``      replacement words for ``simulate --vocab`` (when ``simulate_vocab`` is set)
``config.yaml``    the config every command is given with ``--config``
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


@dataclass(frozen=True)
class Shape:
    """Generator parameters of one workload."""

    docs: int  # number of documents
    doc_tokens: tuple  # (lo, hi) reference tokens per document, evenly spaced
    seg_tokens: tuple  # (lo, hi) reference tokens per segment, drawn uniformly
    vocab: int  # word types the generator draws from
    zipf: float  # 0 draws words uniformly, otherwise p(rank k) ~ 1 / (k + 2.7)^zipf
    substitution: float  # token noise of the hypothesis
    deletion: float
    insertion: float
    merge: float  # probability that a reference boundary is dropped
    split: float  # probability that a gap inside a segment becomes a boundary
    bitext_pairs: int  # pairs in bitext.txt; bitext_b.txt has a fifth of them
    bitext_block: int  # pairs per bitext document
    pair_tokens: tuple  # (lo, hi) tokens per bitext side
    mix_total: int  # pairs drawn by `mix`
    simulate_vocab: int  # `simulate --vocab` size (most frequent words); 0 uses the documents' words


# Why each workload exists is stated in BENCHMARK.json; in short:
WORKLOADS: Dict[str, Shape] = {
    # One long document.  The O(n*m) DP table sets the time of every aligning
    # command and the peak memory; the 300-type vocabulary and 15% noise fill
    # the backtrace with ties, and an aligner whose cost grows with the edit
    # distance has its slow case here.  One document: no per-document
    # parallelism can help.
    "longform": Shape(
        docs=1, doc_tokens=(8000, 8000), seg_tokens=(5, 40), vocab=300, zipf=0.0,
        substitution=0.09, deletion=0.03, insertion=0.03, merge=0.3, split=0.05,
        bitext_pairs=4000, bitext_block=50, pair_tokens=(5, 30), mix_total=20000,
        simulate_vocab=0,
    ),
    # Many short documents with a Zipfian vocabulary (about 6k types seen) and
    # 5% noise: about 7x fewer DP cells than longform, so per-call and per-row
    # DP overhead, interning and BLEU n-gram counting dominate.  Low noise
    # favours edit-distance-bounded aligners, and many documents would show
    # per-document parallelism.  `simulate` gets a 2k-word vocabulary because
    # its cost grows with substitutions times vocabulary size.
    "talks": Shape(
        docs=100, doc_tokens=(150, 450), seg_tokens=(5, 40), vocab=20000, zipf=1.05,
        substitution=0.03, deletion=0.01, insertion=0.01, merge=0.3, split=0.05,
        bitext_pairs=4000, bitext_block=50, pair_tokens=(5, 30), mix_total=20000,
        simulate_vocab=2000,
    ),
    # The data-preparation path: a 20k-pair bitext makes augment (one
    # generator per sentence pair), mix and the bitext reader and writer the
    # largest costs, and `simulate` draws substitutions from the documents'
    # own vocabulary of several thousand words.  Alignment and BLEU inputs are
    # small.
    "prep": Shape(
        docs=30, doc_tokens=(300, 500), seg_tokens=(5, 20), vocab=20000, zipf=1.05,
        substitution=0.03, deletion=0.01, insertion=0.01, merge=0.3, split=0.05,
        bitext_pairs=20000, bitext_block=50, pair_tokens=(5, 30), mix_total=20000,
        simulate_vocab=0,
    ),
}

#: Rates `simulate` reads from the config; its own noise, unlike the generator's.
SIMULATE = {
    "substitution_rate": 0.05,
    "deletion_rate": 0.02,
    "insertion_rate": 0.02,
    "boundary_merge_rate": 0.2,
    "boundary_split_rate": 0.05,
}


def _words(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` distinct lowercase pseudo-words of 2 to 9 letters."""
    seen = set()
    out: List[str] = []
    while len(out) < count:
        lengths = rng.integers(2, 10, size=count)
        letters = rng.choice(LETTERS, size=(count, 9))
        for row, n in zip(letters, lengths):
            word = "".join(row[:n])
            if word not in seen:
                seen.add(word)
                out.append(word)
                if len(out) == count:
                    break
    return np.array(out, dtype=object)


class _Sampler:
    """Draws word ids from the workload's rank distribution."""

    def __init__(self, rng: np.random.Generator, shape: Shape):
        self.rng = rng
        self.size = shape.vocab
        if shape.zipf:
            weights = 1.0 / (np.arange(shape.vocab) + 2.7) ** shape.zipf
            self.cdf = np.cumsum(weights / weights.sum())
        else:
            self.cdf = None

    def draw(self, n: int) -> np.ndarray:
        if self.cdf is None:
            return self.rng.integers(self.size, size=n)
        return np.minimum(np.searchsorted(self.cdf, self.rng.random(n)), self.size - 1)


def _lengths(rng: np.random.Generator, total: int, lo: int, hi: int) -> List[int]:
    """Split ``total`` into parts of lo..hi (the last part may be shorter)."""
    parts: List[int] = []
    while total > 0:
        n = min(int(rng.integers(lo, hi + 1)), total)
        parts.append(n)
        total -= n
    return parts


def _punctuate(rng: np.random.Generator, words: List[str]) -> List[str]:
    """Case the first word, end with a terminal mark, sprinkle commas."""
    out = list(words)
    out[0] = out[0].capitalize()
    for i in np.flatnonzero(rng.random(len(out) - 1) < 0.05):
        out[i] += ","
    out[-1] += str(rng.choice(np.array([".", ".", ".", "?", "!"])))
    return out


def _corrupt(rng, segments: List[List[str]], sampler: _Sampler, vocab, shape: Shape):
    """Token noise per segment; returns one (possibly empty) list per segment."""
    out: List[List[str]] = []
    sub_cut = shape.substitution
    del_cut = shape.substitution + shape.deletion
    for seg in segments:
        n = len(seg)
        draw = rng.random(n)
        inserts = rng.random(n) < shape.insertion
        subs = sampler.draw(n)
        extra = vocab[sampler.draw(n)]
        new: List[str] = []
        for i, tok in enumerate(seg):
            if draw[i] < sub_cut:
                word = vocab[subs[i]]
                new.append(word if word != tok.lower().strip(",.?!") else word + "s")
            elif draw[i] >= del_cut:
                new.append(tok)
            if inserts[i]:
                new.append(extra[i])
        out.append(new)
    return out


def _reboundary(rng, pieces: List[List[str]], shape: Shape) -> List[List[str]]:
    """Merge and split boundaries; tokens are left untouched."""
    tokens = [tok for piece in pieces for tok in piece]
    ends = set(np.cumsum([len(p) for p in pieces if p]) - 1)
    gaps = rng.random(len(tokens))
    segments: List[List[str]] = []
    current: List[str] = []
    for k, tok in enumerate(tokens):
        current.append(tok)
        cut = gaps[k] >= shape.merge if k in ends else gaps[k] < shape.split
        if cut or k == len(tokens) - 1:
            segments.append(current)
            current = []
    return segments


def _transcript(rng, doc_id: str, segments: List[List[str]]) -> Dict:
    """Word timings with a pause of 1.2-2.5 s after most reference segments."""
    words = []
    t = 0.0
    for seg in segments:
        durations = rng.uniform(0.15, 0.5, size=len(seg))
        gaps = rng.uniform(0.0, 0.3, size=len(seg))
        if rng.random() < 0.8:
            gaps[-1] = rng.uniform(1.2, 2.5)
        for tok, dur, gap in zip(seg, durations, gaps):
            words.append({"text": tok, "start": round(t, 3), "end": round(t + dur, 3)})
            t += dur + gap
    return {"doc_id": doc_id, "words": words}


def _bitext(rng, sampler: _Sampler, vocab, pairs: int, block: int, lo: int, hi: int) -> str:
    lengths = rng.integers(lo, hi + 1, size=2 * pairs)
    words = vocab[sampler.draw(int(lengths.sum()))]
    sides = np.split(words, np.cumsum(lengths)[:-1])
    lines = []
    for i in range(pairs):
        if i and i % block == 0:
            lines.append("")
        lines.append(" ".join(sides[2 * i]) + "\t" + " ".join(sides[2 * i + 1]))
    return "\n".join(lines) + "\n"


def _write_docs(path: Path, docs: List[List[List[str]]]) -> None:
    path.write_text(
        "\n".join("".join(" ".join(seg) + "\n" for seg in doc) for doc in docs),
        encoding="utf-8",
    )


def generate(name: str, seed: int, out_dir: Path) -> Dict[str, int]:
    """Write the workload's input files; return the token count of each file."""
    shape = WORKLOADS[name]
    rng = np.random.default_rng([seed, len(name)] + [ord(c) for c in name])
    vocab = _words(rng, shape.vocab)
    sampler = _Sampler(rng, shape)

    refs, hyps, plains, transcripts = [], [], [], []
    # Document lengths are evenly spaced over the range and only their order is
    # drawn, so the total work (which grows with the squared lengths) is the same
    # for every seed.
    lengths = rng.permutation(np.linspace(*shape.doc_tokens, shape.docs).round().astype(int))
    for d, length in enumerate(lengths):
        ref = [
            _punctuate(rng, list(vocab[sampler.draw(n)]))
            for n in _lengths(rng, int(length), *shape.seg_tokens)
        ]
        noisy = _corrupt(rng, ref, sampler, vocab, shape)
        # `score` without --resegment pairs segments 1:1, so no segment may vanish.
        plain = [seg if seg else [ref_seg[0]] for seg, ref_seg in zip(noisy, ref)]
        refs.append(ref)
        plains.append(plain)
        hyps.append(_reboundary(rng, noisy, shape))
        transcripts.append(_transcript(rng, f"talk{d}", ref))

    _write_docs(out_dir / "ref.txt", refs)
    _write_docs(out_dir / "hyp.txt", hyps)
    _write_docs(out_dir / "hyp_plain.txt", plains)
    (out_dir / "words.jsonl").write_text(
        "".join(json.dumps(t) + "\n" for t in transcripts), encoding="utf-8"
    )
    lo, hi = shape.pair_tokens
    (out_dir / "bitext.txt").write_text(
        _bitext(rng, sampler, vocab, shape.bitext_pairs, shape.bitext_block, lo, hi),
        encoding="utf-8",
    )
    (out_dir / "bitext_b.txt").write_text(
        _bitext(rng, sampler, vocab, shape.bitext_pairs // 5, shape.bitext_block, lo, hi),
        encoding="utf-8",
    )
    if shape.simulate_vocab:
        (out_dir / "vocab.txt").write_text(
            "\n".join(vocab[: shape.simulate_vocab]) + "\n", encoding="utf-8"
        )
    config = {
        "seed": 11,
        "fixed_length": 20,
        "noise": dict(SIMULATE),
        "augmentation": {"p_max": 0.3},
        "mixture_augmented_fraction": 0.3,
        "pause_split": {"pause_threshold_sec": 1.0, "max_tokens": 40},
    }
    # JSON is a subset of YAML, so the config needs no YAML writer.
    (out_dir / "config.yaml").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {
        path.name: count_tokens(path)
        for path in sorted(out_dir.iterdir())
        if path.suffix in (".txt", ".jsonl")
    }


def count_tokens(path: Path) -> int:
    """Whitespace tokens of a document or bitext file; words of a transcript file."""
    if path.suffix == ".jsonl":
        with open(path, encoding="utf-8") as handle:
            return sum(len(json.loads(line)["words"]) for line in handle if line.strip())
    return len(path.read_text(encoding="utf-8").split())
