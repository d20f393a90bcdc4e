"""Per-layer metrics from the spans that traced children record.

A span is ``[name index, start, end, parent span index, work]``; ``work`` is
the DP cells (n*m) of an alignment call, the hypothesis n-grams of a
``corpus_bleu`` call, or the bytes of a file read or written, and 0
otherwise.  Self time is a span's duration minus that of its direct
children.  Every metric is summed over the commands of one traced round and
reported as the median over the traced rounds.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

ALIGN_DP = ("segmt.align.levenshtein_align", "segmt.align.edit_distance")
READS = ("segmt.formats.read_documents", "segmt.formats.read_bitext",
         "segmt.formats.read_transcripts")
WRITES = ("segmt.formats.write_documents", "segmt.formats.write_bitext",
          "segmt.formats.write_records", "segmt.formats.write_transcripts")


class Spans:
    """Totals of one traced command, by qualified function name."""

    def __init__(self, result: Dict):
        names = result["names"]
        spans = result["spans"]
        self.replay_s = result["replay_s"]
        self.wall_s = result["wall_s"]
        self.names = [names[s[0]] for s in spans]
        self.parents = [s[3] for s in spans]
        self.durations = [s[2] - s[1] for s in spans]
        self.work = [s[4] for s in spans]
        child = [0.0] * len(spans)
        for parent, duration in zip(self.parents, self.durations):
            if parent >= 0:
                child[parent] += duration
        self.self_times = [d - c for d, c in zip(self.durations, child)]

    def _sum(self, values, names) -> float:
        wanted = set(names)
        return sum(v for v, n in zip(values, self.names) if n in wanted)

    def s(self, *names: str) -> float:
        return self._sum(self.durations, names)

    def self_s(self, *names: str) -> float:
        return self._sum(self.self_times, names)

    def calls(self, *names: str) -> int:
        return self._sum([1] * len(self.names), names)

    def count(self, *names: str) -> int:
        return self._sum(self.work, names)

    def handler_self_s(self) -> float:
        return sum(t for t, n in zip(self.self_times, self.names) if n.startswith("segmt.cli.cmd_"))

    def module_self_s(self, module: str) -> float:
        """Self time of ``module``'s functions: time in the module, not in what it calls."""
        prefix = module + "."
        return sum(t for t, n in zip(self.self_times, self.names) if n.startswith(prefix))


#: name -> (unit, value of one traced command)
PER_LAYER: Dict[str, tuple] = {
    "align.levenshtein_align.s": ("s", lambda t: t.s("segmt.align.levenshtein_align")),
    "align.edit_distance.s": ("s", lambda t: t.s("segmt.align.edit_distance")),
    "align.project_positions.self_s": ("s", lambda t: t.self_s("segmt.align.project_positions")),
    "align.backtrace_s": ("s", lambda t: t.s("segmt.align.levenshtein_align") - t.replay_s),
    "align.calls": ("count", lambda t: t.calls(*ALIGN_DP)),
    "align.cells": ("count", lambda t: t.count(*ALIGN_DP)),
    "bleu.corpus_bleu.s": ("s", lambda t: t.s("segmt.bleu.corpus_bleu")),
    "bleu.corpus_bleu.calls": ("count", lambda t: t.calls("segmt.bleu.corpus_bleu")),
    "bleu.ngrams": ("count", lambda t: t.count("segmt.bleu.corpus_bleu")),
    "evaluate.resegment_hypothesis.self_s": (
        "s", lambda t: t.self_s("segmt.evaluate.resegment_hypothesis")),
    "evaluate.make_error_variants.self_s": (
        "s", lambda t: t.self_s("segmt.evaluate.make_error_variants")),
    "evaluate.bucket_report.self_s": ("s", lambda t: t.self_s("segmt.evaluate.bucket_report")),
    "text.flatten.s": ("s", lambda t: t.s("segmt.text.flatten")),
    "text.rebuild.s": ("s", lambda t: t.s("segmt.text.rebuild")),
    "text.normalize.s": ("s", lambda t: t.s("segmt.text.normalize")),
    "formats.read.s": ("s", lambda t: t.s(*READS)),
    "formats.write.s": ("s", lambda t: t.s(*WRITES)),
    "formats.bytes": ("count", lambda t: t.count(*READS, *WRITES)),
    "noise.corrupt_tokens.s": ("s", lambda t: t.s("segmt.noise.corrupt_tokens")),
    "noise.corrupt_boundaries.s": ("s", lambda t: t.s("segmt.noise.corrupt_boundaries")),
    "rng.make_rng.s": ("s", lambda t: t.s("segmt.rng.make_rng")),
    "rng.make_rng.calls": ("count", lambda t: t.calls("segmt.rng.make_rng")),
    "augment.augment_corpus.self_s": ("s", lambda t: t.self_s("segmt.augment.augment_corpus")),
    "augment.build_training_mixture.s": (
        "s", lambda t: t.s("segmt.augment.build_training_mixture")),
    "segment.break_on_punctuation.s": ("s", lambda t: t.s("segmt.segment.break_on_punctuation")),
    "segment.split_fixed_length.s": ("s", lambda t: t.s("segmt.segment.split_fixed_length")),
    "segment.split_on_pauses.s": ("s", lambda t: t.s("segmt.segment.split_on_pauses")),
    "config.load_config.s": ("s", lambda t: t.s("segmt.config.load_config")),
    "config.load_config.calls": ("count", lambda t: t.calls("segmt.config.load_config")),
    "cli.self_s": ("s", Spans.handler_self_s),
}

SHARE_MODULES = ("align", "bleu", "evaluate", "text", "formats", "noise", "rng", "augment",
                 "segment", "config", "cli")


def _rounds(traced: Dict[str, List[Dict]]) -> List[List[Spans]]:
    """Traced commands grouped by round (only rounds where every command traced)."""
    count = min(len(results) for results in traced.values())
    return [[Spans(results[r]) for results in traced.values()] for r in range(count)]


def per_layer(spans: Dict[str, List[Dict]], traced: Dict[str, List[float]],
              untraced: Dict[str, List[float]]) -> Dict:
    """Per-layer metrics, plus ``trace.overhead_s``: traced minus untraced command time.

    ``spans`` holds the traced results of each command; ``traced`` and
    ``untraced`` hold the wall seconds of each end-to-end metric's commands.
    """
    rounds = _rounds(spans)
    metrics = {}
    for name, (unit, measure) in PER_LAYER.items():
        values = [sum(measure(t) for t in commands) for commands in rounds]
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit, "n": len(values)}
    pairs = [(traced[m], untraced[m]) for m in traced if traced[m] and untraced[m]]
    if pairs:
        overhead = sum(statistics.median(t) - statistics.median(u) for t, u in pairs)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s", "n": len(pairs)}
    return metrics


def shares(traced: Dict[str, List[Dict]]) -> List[str]:
    """One line per command: each module's share (by self time) of its traced wall time."""
    lines = []
    for label, results in traced.items():
        if not results:
            continue
        spans = [Spans(r) for r in results]
        wall = statistics.median(t.wall_s for t in spans)
        parts = []
        for module in SHARE_MODULES:
            share = statistics.median(t.module_self_s("segmt." + module) / t.wall_s for t in spans)
            if share >= 0.005:
                parts.append(f"{module} {share:.0%}")
        lines.append(f"{label + ':':<15} {wall:7.3f} s traced; " + ", ".join(parts))
    return lines

