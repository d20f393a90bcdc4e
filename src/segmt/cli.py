"""Command-line front end.

Subcommands cover the whole pipeline: normalize, segment, project,
variants, augment, mix, score, wer, simulate, report.  Exit codes are 0
(success), 1 (usage error), 2 (malformed or missing input), 3 (internal
error).  Randomized subcommands take ``--seed`` and print the effective
seed; identical invocations produce byte-identical outputs.

Each command's settings are resolved once, in ``_settings``, into one
effective ``PipelineConfig``: the flag given, else the value in the YAML
config file (``--config``, else the ``SEGMT_CONFIG`` environment variable),
else the default.  A settings flag's ``dest`` is the config key that it
sets.  Handlers read settings only from that config, and only file operands
and command-only options from the parsed arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections import Counter
from itertools import chain
from operator import getitem
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import __version__
from .align import corpus_positions, corpus_wer_counts
from .augment import MixtureSpec, augment_blocks, mixture_draws
from .bleu import corpus_bleu
from .config import ENV_CONFIG_PATH, PipelineConfig, load_config
from .evaluate import (
    DEFAULT_BUCKET_BOUNDS,
    _validate_bounds,
    bucket_report,
    corpus_error_variants,
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
from .noise import corpus_corruption
from .segment import break_on_punctuation, split_fixed_length, split_on_pauses
from .text import (
    PUNCTUATED,
    STRIPPED,
    InputError,
    SegmentedDocument,
    normalize_document,
    paired_documents,
    rebuild,
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


def _settings(args) -> PipelineConfig:
    """The command's effective settings: each flag given, else the config's value, else the default.

    A settings flag's ``dest`` is the config key that it sets, dotted for a
    key of a section.  ``--seed`` sets the top-level seed and both section
    seeds; a section seed left unset takes the top-level seed.
    """
    path = args.config or os.environ.get(ENV_CONFIG_PATH)
    cfg = load_config(path) if path else PipelineConfig()
    keys = {field.name for field in dataclasses.fields(cfg)}
    given: Dict[str, dict] = {"": {}}  # the flags given, by section ("" for the top level)
    for key, value in vars(args).items():
        section, _, name = key.rpartition(".")
        if value is not None and (section or key in keys):
            given.setdefault(section, {})[name] = value
    top = given.pop("")
    if "normalization" in top:
        top["normalization"] = _POLICIES[top["normalization"]]
    for section in ("augmentation", "noise"):
        if "seed" in top or getattr(cfg, section).seed is None:
            given.setdefault(section, {})["seed"] = top.get("seed", cfg.seed)
    try:
        for section, values in given.items():
            top[section] = dataclasses.replace(getattr(cfg, section), **values)
        return dataclasses.replace(cfg, **top)
    except ValueError as err:  # the config was checked when loaded, so a flag is at fault
        raise UsageError(str(err)) from err


def _path(cfg: PipelineConfig, kind: str) -> str:
    """The effective ``<kind>_path`` ("input" or "output"), which must be set."""
    path = getattr(cfg, f"{kind}_path")
    if not path:
        hint = "a path" if kind == "input" else "--output"
        raise UsageError(f"no {kind} file given (pass {hint} or set {kind}_path in the config)")
    return path


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


def _file(text: str) -> str:
    """A path operand, refused while parsing if it is empty or holds a NUL byte, as no file name can."""
    if not text:
        raise argparse.ArgumentTypeError("a path cannot be empty")
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"a path cannot hold a NUL byte: {text!r}")
    return text


def _parse_corpus(text: str) -> Tuple[str, str, Optional[str]]:
    label, sep, paths = text.partition("=")
    if not sep or not label or not paths:
        raise argparse.ArgumentTypeError(f"expected LABEL=ORIGINALS[:AUGMENTED], got {text!r}")
    original, _, augmented = paths.partition(":")
    return label, _file(original), _file(augmented) if augmented else None


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
    docs = read_documents(_path(cfg, "input"))
    normalized = [normalize_document(doc, cfg.normalization) for doc in docs]
    write_documents(_path(cfg, "output"), _drop_empty(normalized, "normalization"))
    return EXIT_OK


def cmd_segment_punct(args, cfg: PipelineConfig) -> int:
    docs = read_documents(_path(cfg, "input"))
    out = [
        break_on_punctuation(doc.tokens(), doc_id=doc.doc_id)
        for doc in docs
    ]
    write_documents(_path(cfg, "output"), out)
    return EXIT_OK


def cmd_segment_fixed(args, cfg: PipelineConfig) -> int:
    docs = read_documents(_path(cfg, "input"))
    out = [split_fixed_length(doc.tokens(), cfg.fixed_length, doc_id=doc.doc_id) for doc in docs]
    write_documents(_path(cfg, "output"), out)
    return EXIT_OK


def cmd_segment_pause(args, cfg: PipelineConfig) -> int:
    transcripts = read_transcripts(_path(cfg, "input"))
    out = [split_on_pauses(t, cfg.pause_split) for t in transcripts]
    write_documents(_path(cfg, "output"), _drop_empty(out, "pause splitting"))
    return EXIT_OK


def cmd_project(args, cfg: PipelineConfig) -> int:
    pairs = paired_documents(read_documents(args.source), read_documents(args.target))
    jobs = [(src, tgt.tokens()) for src, tgt in pairs]
    positions = corpus_positions(jobs, cfg.alignment)
    out = [
        rebuild(tokens, (k for k in ends if k >= 0), doc_id=tgt.doc_id)
        for (_, tokens), (_, tgt), ends in zip(jobs, pairs, positions)
    ]
    write_documents(_path(cfg, "output"), out)
    return EXIT_OK


def cmd_variants(args, cfg: PipelineConfig) -> int:
    pairs = paired_documents(read_documents(args.gold), read_documents(args.system))
    variants = corpus_error_variants(pairs, cfg.alignment)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_documents(out_dir / "gold.txt", [v.gold for v in variants])
    write_documents(out_dir / "system.txt", [v.system for v in variants])
    write_documents(out_dir / "recognition.txt", [v.recognition_errors for v in variants])
    write_documents(out_dir / "segmentation.txt", [v.segmentation_errors for v in variants])
    print(f"wrote gold/system/recognition/segmentation documents to {out_dir}")
    return EXIT_OK


def cmd_augment(args, cfg: PipelineConfig) -> int:
    blocks = read_bitext_lines(_path(cfg, "input"))
    augmented = augment_blocks(blocks, cfg.augmentation)
    write_bitext_lines(_path(cfg, "output"), augmented)
    print(f"effective seed: {cfg.augmentation.seed}")
    # Every merge keeps both sides non-empty, so none is skipped; the field keeps the format.
    print(f"augmented {sum(map(len, augmented))} pair(s), skipped 0")
    return EXIT_OK


def cmd_mix(args, cfg: PipelineConfig) -> int:
    if args.total < 0:
        raise UsageError("--total must be >= 0")
    paths = {}
    for label, original, augmented in args.corpus:
        if label in paths:
            raise UsageError(f"corpus {label!r} given twice")
        paths[label] = (original, augmented)
    weights = {}
    for label, weight in args.weight:
        if label in weights:
            raise UsageError(f"weight for {label!r} given twice")
        if label not in paths:
            raise UsageError(f"mixture references unknown corpus {label!r}")
        weights[label] = weight
    try:  # the weights come only from flags, so a bad one is a usage error
        spec = MixtureSpec(weights, cfg.mixture_augmented_fraction, cfg.seed)
    except ValueError as err:
        raise UsageError(str(err)) from err
    weighted = sorted(weights)  # the order mixture_draws checks in, and of its pool ids
    for label in weighted:
        if paths[label][1] is None and spec.augmented_fraction > 0:
            raise UsageError(f"corpus {label!r} has no augmented pairs but augmented_fraction > 0")
    # One file may feed several corpora: its lines are read once and shared.
    # Only weighted corpora are drawn from, so only they are read.
    lines_of: Dict[Optional[str], List[str]] = {None: []}  # a corpus without augmented pairs
    for label, original, augmented in args.corpus:
        if label in weights:
            for path in (original, augmented):
                if path not in lines_of:
                    lines_of[path] = [line for block in read_bitext_lines(path) for line in block]
    pools = [lines_of[path] for label in weighted for path in paths[label]]
    sizes = {label: (len(pools[2 * k]), len(pools[2 * k + 1])) for k, label in enumerate(weighted)}
    draws = mixture_draws(sizes, spec, args.total)  # checks every pool before the output opens
    counts: Counter = Counter()  # draws per pool id

    def drawn_lines() -> Iterator[Iterator[str]]:
        for pool_ids, indices in draws:
            counts.update(pool_ids)
            yield map(getitem, map(pools.__getitem__, pool_ids), indices)

    write_bitext_lines(_path(cfg, "output"), [chain.from_iterable(drawn_lines())])
    print(f"effective seed: {cfg.seed}")
    drew = [(label, counts[2 * k] + counts[2 * k + 1]) for k, label in enumerate(weighted)]
    summary = ", ".join(f"{label}: {n}" for label, n in drew if n)
    print(f"drew {args.total} pair(s) ({summary})" if args.total else "drew 0 pair(s)")
    return EXIT_OK


def cmd_score(args, cfg: PipelineConfig) -> int:
    hyp_docs = read_documents(args.hypothesis)
    ref_docs = read_documents(args.reference)
    if args.resegment:
        report = score_documents(hyp_docs, ref_docs, cfg.bleu, cfg.alignment)
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
        report = corpus_bleu(hyp_segments, ref_segments, cfg.bleu)
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
    counts = corpus_wer_counts((ref.tokens(), hyp.tokens()) for ref, hyp in pairs)
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
    docs = read_documents(_path(cfg, "input"))
    noise = cfg.noise
    if args.vocab or not noise.vocabulary:  # the tokens of --vocab, else of the input
        source = read_documents(args.vocab) if args.vocab else docs
        vocabulary = tuple(sorted({tok for doc in source for tok in doc.tokens()}))
        noise = dataclasses.replace(noise, vocabulary=vocabulary)
    corrupted = corpus_corruption(docs, noise)
    write_documents(_path(cfg, "output"), _drop_empty(corrupted, "corruption"))
    print(f"effective seed: {noise.seed}")
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


def _paths(p: argparse.ArgumentParser, input_help: Optional[str], output_help: str) -> None:
    """Add the ``input`` operand (if ``input_help`` is given) and ``-o``: the config's two paths."""
    if input_help:
        p.add_argument("input_path", nargs="?", type=_file, metavar="input", help=input_help)
    p.add_argument("-o", "--output", dest="output_path", type=_file, metavar="OUTPUT",
                   help=output_help)


def _setting(p: argparse.ArgumentParser, flag: str, key: str, what: str, kind=float) -> None:
    """Add ``flag``, which sets config ``key``, with the metavar argparse derives from ``flag``."""
    p.add_argument(flag, dest=key, type=kind, metavar=flag[2:].upper().replace("-", "_"), help=what)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", type=_file, metavar="PATH", help="YAML config file")

    parser = _Parser(prog="segmt", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(subparsers, name: str, handler, what: str) -> argparse.ArgumentParser:
        """The parser of subcommand ``name``, which takes ``--config`` and runs ``handler``."""
        p = subparsers.add_parser(name, parents=[common], help=what)
        p.set_defaults(func=handler)
        return p

    p = command(sub, "normalize", cmd_normalize, "normalize document tokens")
    _paths(p, "document file (default: config input_path)", "output document file")
    p.add_argument("--policy", dest="normalization", choices=sorted(_POLICIES),
                   help="named policy override")

    seg = sub.add_parser("segment", help="cut token streams into segments")
    seg_sub = seg.add_subparsers(dest="strategy", required=True, parser_class=_Parser)

    p = command(seg_sub, "punct", cmd_segment_punct, "cut after sentence-final punctuation")
    _paths(p, "document file", "output document file")

    p = command(seg_sub, "fixed", cmd_segment_fixed, "cut into fixed-length chunks")
    _paths(p, "document file", "output document file")
    _setting(p, "--n", "fixed_length", "tokens per segment", int)

    p = command(seg_sub, "pause", cmd_segment_pause, "cut timed transcripts at pauses")
    _paths(p, "timed transcript JSONL file", "output document file")
    _setting(p, "--threshold", "pause_split.pause_threshold_sec", "minimum pause in seconds")
    _setting(p, "--max-tokens", "pause_split.max_tokens", "cap on segment length", int)

    p = command(sub, "project", cmd_project, "carry boundaries from one transcript to another")
    p.add_argument("source", type=_file, help="document file providing boundaries")
    p.add_argument("target", type=_file, help="document file providing tokens")
    _paths(p, None, "output document file")

    p = command(sub, "variants", cmd_variants,
                "isolate recognition errors from segmentation errors")
    p.add_argument("gold", type=_file, help="gold transcript document file")
    p.add_argument("system", type=_file, help="system transcript document file")
    p.add_argument("-d", "--out-dir", type=_file, required=True,
                   help="directory for the four variants")

    p = command(sub, "augment", cmd_augment, "cross-boundary bitext augmentation")
    _paths(p, "bitext file", "output bitext file")
    _setting(p, "--p-max", "augmentation.p_max", "truncation fraction cap")
    p.add_argument("--seed", type=int, help="random seed (default from config, else 0)")

    p = command(sub, "mix", cmd_mix, "sample a weighted training mixture")
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
    _setting(p, "--augmented-fraction", "mixture_augmented_fraction",
             "share drawn from augmented pools")
    _paths(p, None, "output bitext file")
    p.add_argument("--seed", type=int, help="random seed (default from config, else 0)")

    p = command(sub, "score", cmd_score, "corpus BLEU, optionally resegmented")
    p.add_argument("hypothesis", type=_file, help="hypothesis document file")
    p.add_argument("reference", type=_file, help="reference document file")
    p.add_argument(
        "--resegment",
        action="store_true",
        help="project reference boundaries onto the hypothesis before scoring",
    )
    _setting(p, "--max-order", "bleu.max_ngram_order", "largest n-gram order", int)
    p.add_argument("--case-insensitive", dest="bleu.case_sensitive", action="store_const",
                   const=False, help="lowercase before scoring")
    p.add_argument("--smoothing", dest="bleu.smoothing", choices=["none", "add-one"],
                   help="precision smoothing")
    p.add_argument("--json", type=_file, metavar="PATH", help="also write a JSONL report")

    p = command(sub, "wer", cmd_wer, "word error rate over documents")
    p.add_argument("reference", type=_file, help="reference document file")
    p.add_argument("hypothesis", type=_file, help="hypothesis document file")
    p.add_argument("--json", type=_file, metavar="PATH", help="also write a JSONL report")

    p = command(sub, "simulate", cmd_simulate, "corrupt tokens and boundaries")
    _paths(p, "document file", "output document file")
    _setting(p, "--substitution-rate", "noise.substitution_rate",
             "per-token substitution probability")
    _setting(p, "--deletion-rate", "noise.deletion_rate", "per-token deletion probability")
    _setting(p, "--insertion-rate", "noise.insertion_rate", "per-gap insertion probability")
    _setting(p, "--merge-rate", "noise.boundary_merge_rate", "per-boundary merge probability")
    _setting(p, "--split-rate", "noise.boundary_split_rate", "per-gap split probability")
    p.add_argument("--vocab", type=_file, metavar="PATH",
                   help="replacement vocabulary file (tokens)")
    p.add_argument("--seed", type=int, help="random seed (default from config, else 0)")

    p = command(sub, "report", cmd_report, "mean BLEU by reference length bucket")
    p.add_argument("hypothesis", type=_file, help="hypothesis document file")
    p.add_argument("reference", type=_file, help="reference document file")
    p.add_argument(
        "--bounds",
        type=_parse_bounds,
        default=DEFAULT_BUCKET_BOUNDS,
        metavar="LO:HI[,LO:HI...]",
        help="bucket bounds (default 0:20,20:40,40:60)",
    )
    p.add_argument("--json", type=_file, metavar="PATH", help="also write a JSONL report")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args, _settings(args))
    except (UsageError, InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE if isinstance(err, UsageError) else EXIT_INPUT
    except Exception as err:  # any other failure is a bug, never bad input
        tb = err.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{tb.tb_frame.f_code.co_filename}:{tb.tb_lineno} in {tb.tb_frame.f_code.co_name}"
        print(f"internal error: {type(err).__name__}: {err} (at {where})", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
