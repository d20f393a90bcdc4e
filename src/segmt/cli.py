"""Command-line front end.

Subcommands cover the whole pipeline: normalize, segment, project,
variants, augment, mix, score, wer, simulate, report.  Exit codes are 0
(success), 1 (usage error), 2 (malformed or missing input), 3 (internal
error).  Randomized subcommands take ``--seed`` and print the effective
seed; identical invocations produce byte-identical outputs.

A YAML config file supplies defaults for most flags.  It is found through
``--config`` or the ``SEGMT_CONFIG`` environment variable; explicit flags
always win.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .align import project_boundaries, wer_counts
from .augment import MixtureSpec, augment_blocks, build_training_mixture
from .bleu import corpus_bleu
from .config import ENV_CONFIG_PATH, PipelineConfig, load_config
from .evaluate import (
    DEFAULT_BUCKET_BOUNDS,
    _validate_bounds,
    bucket_report,
    make_error_variants,
    score_documents,
)
from .formats import (
    bleu_record,
    bucket_records,
    read_bitext_lines,
    read_documents,
    read_transcripts,
    wer_record,
    write_bitext_lines,
    write_documents,
    write_records,
)
from .noise import corrupt_boundaries, corrupt_tokens
from .segment import break_on_punctuation, split_fixed_length, split_on_pauses
from .text import (
    PUNCTUATED,
    STRIPPED,
    InputError,
    SegmentedDocument,
    normalize_document,
    paired_documents,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_POLICIES = {"stripped": STRIPPED, "punctuated": PUNCTUATED}


class UsageError(Exception):
    """Bad flag combination or value detected after parsing."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 instead of argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _pipeline_config(args) -> PipelineConfig:
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG_PATH)
    if path:
        return load_config(path)
    return PipelineConfig()


def _first_set(*values):
    """The first value that is set (not None): a seed's or a path's fallback chain."""
    return next((value for value in values if value is not None), None)


def _path(args, cfg: PipelineConfig, kind: str) -> str:
    """The ``kind`` ("input" or "output") file: its argument, else the config's ``<kind>_path``."""
    path = _first_set(getattr(args, kind), getattr(cfg, f"{kind}_path") or None)
    if path is None:
        hint = "a path" if kind == "input" else "--output"
        raise UsageError(f"no {kind} file given (pass {hint} or set {kind}_path in the config)")
    return path


def _overlay(settings, **flags):
    """``settings`` (the config's, else the defaults) with the flags given (not None) on top."""
    try:
        return dataclasses.replace(settings, **{k: v for k, v in flags.items() if v is not None})
    except ValueError as err:  # the settings were checked when built, so a flag is at fault
        raise UsageError(str(err)) from err


def _drop_empty(docs: Sequence[SegmentedDocument], action: str) -> List[SegmentedDocument]:
    kept = [doc for doc in docs if doc.segments]
    dropped = len(docs) - len(kept)
    if dropped:
        print(f"note: {action} left {dropped} document(s) empty; dropped", file=sys.stderr)
    return kept


def _parse_bounds(text: str) -> Tuple[Tuple[int, int], ...]:
    bounds = []
    try:
        for part in text.split(","):
            lo, _, hi = part.partition(":")
            bounds.append((int(lo), int(hi)))
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI[,LO:HI...], got {text!r}"
        ) from err
    try:
        _validate_bounds(bounds)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{err} in {text!r}") from err
    return tuple(bounds)


def _parse_corpus(text: str) -> Tuple[str, str, Optional[str]]:
    label, sep, paths = text.partition("=")
    if not sep or not label or not paths:
        raise argparse.ArgumentTypeError(f"expected LABEL=ORIGINALS[:AUGMENTED], got {text!r}")
    original, _, augmented = paths.partition(":")
    return label, original, augmented or None


def _parse_weight(text: str) -> Tuple[str, float]:
    label, sep, value = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=WEIGHT, got {text!r}")
    try:
        return label, float(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad weight in {text!r}") from err


# ---------------------------------------------------------------- handlers


def cmd_normalize(args, cfg: PipelineConfig) -> int:
    policy = _POLICIES[args.policy] if args.policy else cfg.normalization
    docs = read_documents(_path(args, cfg, "input"))
    normalized = [normalize_document(doc, policy) for doc in docs]
    write_documents(_path(args, cfg, "output"), _drop_empty(normalized, "normalization"))
    return EXIT_OK


def cmd_segment_punct(args, cfg: PipelineConfig) -> int:
    docs = read_documents(_path(args, cfg, "input"))
    out = [
        break_on_punctuation(doc.tokens(), doc_id=doc.doc_id)
        for doc in docs
    ]
    write_documents(_path(args, cfg, "output"), out)
    return EXIT_OK


def cmd_segment_fixed(args, cfg: PipelineConfig) -> int:
    length = _overlay(cfg, fixed_length=args.n).fixed_length
    docs = read_documents(_path(args, cfg, "input"))
    out = [split_fixed_length(doc.tokens(), length, doc_id=doc.doc_id) for doc in docs]
    write_documents(_path(args, cfg, "output"), out)
    return EXIT_OK


def cmd_segment_pause(args, cfg: PipelineConfig) -> int:
    split_cfg = _overlay(
        cfg.pause_split, pause_threshold_sec=args.threshold, max_tokens=args.max_tokens
    )
    transcripts = read_transcripts(_path(args, cfg, "input"))
    out = [split_on_pauses(t, split_cfg) for t in transcripts]
    write_documents(_path(args, cfg, "output"), _drop_empty(out, "pause splitting"))
    return EXIT_OK


def cmd_project(args, cfg: PipelineConfig) -> int:
    out = []
    for src, tgt in paired_documents(read_documents(args.source), read_documents(args.target)):
        projected = project_boundaries(src, tgt.tokens(), cfg.alignment)
        out.append(SegmentedDocument(projected.segments, doc_id=tgt.doc_id))
    write_documents(_path(args, cfg, "output"), out)
    return EXIT_OK


def cmd_variants(args, cfg: PipelineConfig) -> int:
    pairs = paired_documents(read_documents(args.gold), read_documents(args.system))
    variants = [make_error_variants(gold, system, cfg.alignment) for gold, system in pairs]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_documents(out_dir / "gold.txt", [v.gold for v in variants])
    write_documents(out_dir / "system.txt", [v.system for v in variants])
    write_documents(out_dir / "recognition.txt", [v.recognition_errors for v in variants])
    write_documents(out_dir / "segmentation.txt", [v.segmentation_errors for v in variants])
    print(f"wrote gold/system/recognition/segmentation documents to {out_dir}")
    return EXIT_OK


def cmd_augment(args, cfg: PipelineConfig) -> int:
    seed = _first_set(args.seed, cfg.augmentation.seed, cfg.seed)
    aug_cfg = _overlay(cfg.augmentation, p_max=args.p_max, seed=seed)
    blocks = read_bitext_lines(_path(args, cfg, "input"))
    augmented = augment_blocks(blocks, aug_cfg)
    write_bitext_lines(_path(args, cfg, "output"), augmented)
    print(f"effective seed: {seed}")
    # Every merge keeps both sides non-empty, so none is skipped; the field keeps the format.
    print(f"augmented {sum(map(len, augmented))} pair(s), skipped 0")
    return EXIT_OK


class _LabelledLines:
    """A ``mix`` pool: item ``i`` is ``(label, lines[i])``, made only when drawn.

    A plain class: every subcommand imports this module, and building a
    frozen dataclass at import takes about 0.8 ms (2 cores, Python 3.11).
    """

    __slots__ = ("label", "lines")

    def __init__(self, label: str, lines: Sequence[str]):
        self.label = label
        self.lines = lines

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, i: int) -> Tuple[str, str]:
        return self.label, self.lines[i]


def cmd_mix(args, cfg: PipelineConfig) -> int:
    seed = _first_set(args.seed, cfg.seed)
    cfg = _overlay(cfg, mixture_augmented_fraction=args.augmented_fraction)
    if args.total < 0:
        raise UsageError("--total must be >= 0")
    labels = set()
    for label, _, _ in args.corpus:
        if label in labels:
            raise UsageError(f"corpus {label!r} given twice")
        labels.add(label)
    weights = {}
    for label, weight in args.weight:
        if label in weights:
            raise UsageError(f"weight for {label!r} given twice")
        if label not in labels:
            raise UsageError(f"mixture references unknown corpus {label!r}")
        weights[label] = weight
    try:  # the weights come only from flags, so there are no settings to overlay
        spec = MixtureSpec(weights, cfg.mixture_augmented_fraction, seed)
    except ValueError as err:
        raise UsageError(str(err)) from err
    augmented_paths = {label: augmented_path for label, _, augmented_path in args.corpus}
    for label in sorted(weights):  # the order build_training_mixture checks in
        if augmented_paths[label] is None and spec.augmented_fraction > 0:
            raise UsageError(
                f"corpus {label!r} has no augmented pairs but augmented_fraction > 0"
            )
    # One file may feed several corpora: its lines are read once and shared.
    lines_of: Dict[str, List[str]] = {}

    def pool(label: str, path: Optional[str]) -> Sequence[Tuple[str, str]]:
        if path is None:
            return []
        if path not in lines_of:
            lines_of[path] = [line for block in read_bitext_lines(path) for line in block]
        return _LabelledLines(label, lines_of[path])

    corpora = {  # only weighted corpora are drawn from, so only they are read
        label: (pool(label, original_path), pool(label, augmented_path))
        for label, original_path, augmented_path in args.corpus
        if label in weights
    }
    mixture = build_training_mixture(corpora, spec, args.total)
    lines: List[str] = []
    counts: Dict[str, int] = {}
    for label, line in mixture:  # one walk: the lines to write and the draws per label
        lines.append(line)
        counts[label] = counts.get(label, 0) + 1
    write_bitext_lines(_path(args, cfg, "output"), [lines])
    print(f"effective seed: {seed}")
    summary = ", ".join(f"{label}: {counts[label]}" for label in sorted(counts))
    print(f"drew {len(mixture)} pair(s) ({summary})" if mixture else "drew 0 pair(s)")
    return EXIT_OK


def cmd_score(args, cfg: PipelineConfig) -> int:
    bleu_cfg = _overlay(
        cfg.bleu,
        max_ngram_order=args.max_order,
        case_sensitive=False if args.case_insensitive else None,
        smoothing=args.smoothing,
    )
    hyp_docs = read_documents(args.hypothesis)
    ref_docs = read_documents(args.reference)
    if args.resegment:
        report = score_documents(hyp_docs, ref_docs, bleu_cfg, cfg.alignment)
    else:
        # Plain scoring pairs segments 1:1, so both sides must be cut alike.
        for hyp, ref in paired_documents(hyp_docs, ref_docs):
            if len(hyp.segments) != len(ref.segments):
                raise InputError(
                    f"segment count mismatch in document {ref.doc_id}: {len(hyp.segments)} "
                    f"hypothesis vs {len(ref.segments)} reference (--resegment scores across "
                    "segmentations)"
                )
        hyp_segments = [seg for doc in hyp_docs for seg in doc.segments]
        ref_segments = [seg for doc in ref_docs for seg in doc.segments]
        report = corpus_bleu(hyp_segments, ref_segments, bleu_cfg)
    print(f"BLEU {report.score:.2f}")
    precisions = "/".join(f"{100.0 * p:.1f}" for p in report.ngram_precisions)
    print(f"precisions: {precisions}")
    print(f"brevity penalty: {report.brevity_penalty:.3f}")
    print(f"lengths: hyp {report.hyp_len}, ref {report.ref_len}")
    if args.json:
        write_records(args.json, [bleu_record(report)])
    return EXIT_OK


def cmd_wer(args, cfg: PipelineConfig) -> int:
    pairs = paired_documents(read_documents(args.reference), read_documents(args.hypothesis))
    counts = [wer_counts(ref.tokens(), hyp.tokens()) for ref, hyp in pairs]
    errors = sum(e for e, _ in counts)
    ref_len = sum(n for _, n in counts)
    if ref_len == 0:
        raise InputError("WER is undefined: reference corpus is empty after normalization")
    rate = errors / ref_len
    print(f"WER {rate:.4f} ({errors} error(s) / {ref_len} reference token(s))")
    if args.json:
        write_records(args.json, [wer_record(rate, errors, ref_len)])
    return EXIT_OK


def cmd_simulate(args, cfg: PipelineConfig) -> int:
    seed = _first_set(args.seed, cfg.noise.seed, cfg.seed)
    noise_cfg = _overlay(
        cfg.noise,
        substitution_rate=args.substitution_rate,
        deletion_rate=args.deletion_rate,
        insertion_rate=args.insertion_rate,
        boundary_merge_rate=args.merge_rate,
        boundary_split_rate=args.split_rate,
        seed=seed,
    )
    docs = read_documents(_path(args, cfg, "input"))
    vocabulary = cfg.noise.vocabulary
    if args.vocab or not vocabulary:  # the tokens of --vocab, else of the input
        source = read_documents(args.vocab) if args.vocab else docs
        vocabulary = tuple(sorted({tok for doc in source for tok in doc.tokens()}))
    noise_cfg = dataclasses.replace(noise_cfg, vocabulary=vocabulary)
    corrupted = [corrupt_boundaries(corrupt_tokens(doc, noise_cfg), noise_cfg) for doc in docs]
    write_documents(_path(args, cfg, "output"), _drop_empty(corrupted, "corruption"))
    print(f"effective seed: {seed}")
    return EXIT_OK


def cmd_report(args, cfg: PipelineConfig) -> int:
    hyp_docs = read_documents(args.hypothesis)
    ref_docs = read_documents(args.reference)
    result = bucket_report(hyp_docs, ref_docs, args.bounds, policy=cfg.alignment)
    print(f"{'bucket':<12}{'count':>8}{'mean BLEU':>12}")
    for bucket in result.buckets:
        label = f"[{bucket.lower},{bucket.upper})"
        print(f"{label:<12}{bucket.count:>8}{bucket.mean_score:>12.2f}")
    if args.json:
        write_records(args.json, bucket_records(result))
    return EXIT_OK


# ------------------------------------------------------------ parser setup


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="YAML config file")

    parser = _Parser(prog="segmt", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("normalize", parents=[common], help="normalize document tokens")
    p.add_argument("input", nargs="?", help="document file (default: config input_path)")
    p.add_argument("-o", "--output", help="output document file")
    p.add_argument("--policy", choices=sorted(_POLICIES), help="named policy override")
    p.set_defaults(func=cmd_normalize)

    seg = sub.add_parser("segment", help="cut token streams into segments")
    seg_sub = seg.add_subparsers(dest="strategy", required=True, parser_class=_Parser)

    p = seg_sub.add_parser("punct", parents=[common], help="cut after sentence-final punctuation")
    p.add_argument("input", nargs="?", help="document file")
    p.add_argument("-o", "--output", help="output document file")
    p.set_defaults(func=cmd_segment_punct)

    p = seg_sub.add_parser("fixed", parents=[common], help="cut into fixed-length chunks")
    p.add_argument("input", nargs="?", help="document file")
    p.add_argument("-o", "--output", help="output document file")
    p.add_argument("--n", type=int, help="tokens per segment")
    p.set_defaults(func=cmd_segment_fixed)

    p = seg_sub.add_parser("pause", parents=[common], help="cut timed transcripts at pauses")
    p.add_argument("input", nargs="?", help="timed transcript JSONL file")
    p.add_argument("-o", "--output", help="output document file")
    p.add_argument("--threshold", type=float, help="minimum pause in seconds")
    p.add_argument("--max-tokens", type=int, help="cap on segment length")
    p.set_defaults(func=cmd_segment_pause)

    p = sub.add_parser(
        "project", parents=[common], help="carry boundaries from one transcript to another"
    )
    p.add_argument("source", help="document file providing boundaries")
    p.add_argument("target", help="document file providing tokens")
    p.add_argument("-o", "--output", help="output document file")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser(
        "variants", parents=[common], help="isolate recognition errors from segmentation errors"
    )
    p.add_argument("gold", help="gold transcript document file")
    p.add_argument("system", help="system transcript document file")
    p.add_argument("-d", "--out-dir", required=True, help="directory for the four variants")
    p.set_defaults(func=cmd_variants)

    p = sub.add_parser("augment", parents=[common], help="cross-boundary bitext augmentation")
    p.add_argument("input", nargs="?", help="bitext file")
    p.add_argument("-o", "--output", help="output bitext file")
    p.add_argument("--p-max", type=float, help="truncation fraction cap")
    p.add_argument("--seed", type=int, help="random seed (default from config, else 0)")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("mix", parents=[common], help="sample a weighted training mixture")
    p.add_argument(
        "--corpus",
        action="append",
        required=True,
        type=_parse_corpus,
        metavar="LABEL=ORIGINALS[:AUGMENTED]",
        help="bitext pools for one corpus (repeatable)",
    )
    p.add_argument(
        "--weight",
        action="append",
        required=True,
        type=_parse_weight,
        metavar="LABEL=WEIGHT",
        help="sampling weight for one corpus (repeatable; weights sum to 1)",
    )
    p.add_argument("--total", type=int, required=True, help="number of pairs to draw")
    p.add_argument("--augmented-fraction", type=float, help="share drawn from augmented pools")
    p.add_argument("-o", "--output", help="output bitext file")
    p.add_argument("--seed", type=int, help="random seed (default from config, else 0)")
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("score", parents=[common], help="corpus BLEU, optionally resegmented")
    p.add_argument("hypothesis", help="hypothesis document file")
    p.add_argument("reference", help="reference document file")
    p.add_argument(
        "--resegment",
        action="store_true",
        help="project reference boundaries onto the hypothesis before scoring",
    )
    p.add_argument("--max-order", type=int, help="largest n-gram order")
    p.add_argument("--case-insensitive", action="store_true", help="lowercase before scoring")
    p.add_argument("--smoothing", choices=["none", "add-one"], help="precision smoothing")
    p.add_argument("--json", metavar="PATH", help="also write a JSONL report")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("wer", parents=[common], help="word error rate over documents")
    p.add_argument("reference", help="reference document file")
    p.add_argument("hypothesis", help="hypothesis document file")
    p.add_argument("--json", metavar="PATH", help="also write a JSONL report")
    p.set_defaults(func=cmd_wer)

    p = sub.add_parser("simulate", parents=[common], help="corrupt tokens and boundaries")
    p.add_argument("input", nargs="?", help="document file")
    p.add_argument("-o", "--output", help="output document file")
    p.add_argument("--substitution-rate", type=float, help="per-token substitution probability")
    p.add_argument("--deletion-rate", type=float, help="per-token deletion probability")
    p.add_argument("--insertion-rate", type=float, help="per-gap insertion probability")
    p.add_argument("--merge-rate", type=float, help="per-boundary merge probability")
    p.add_argument("--split-rate", type=float, help="per-gap split probability")
    p.add_argument("--vocab", metavar="PATH", help="replacement vocabulary file (tokens)")
    p.add_argument("--seed", type=int, help="random seed (default from config, else 0)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", parents=[common], help="mean BLEU by reference length bucket")
    p.add_argument("hypothesis", help="hypothesis document file")
    p.add_argument("reference", help="reference document file")
    p.add_argument(
        "--bounds",
        type=_parse_bounds,
        default=DEFAULT_BUCKET_BOUNDS,
        metavar="LO:HI[,LO:HI...]",
        help="bucket bounds (default 0:20,20:40,40:60)",
    )
    p.add_argument("--json", metavar="PATH", help="also write a JSONL report")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args, _pipeline_config(args))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # any other failure is a bug, never bad input
        tb = err.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{tb.tb_frame.f_code.co_filename}:{tb.tb_lineno} in {tb.tb_frame.f_code.co_name}"
        print(f"internal error: {type(err).__name__}: {err} (at {where})", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
