"""Segmentation-robust evaluation toolkit for sequence transduction.

The package groups together text normalization, token-level alignment and
boundary projection, segmentation strategies, prefix-sampling data
augmentation, BLEU scoring with automatic resegmentation, and seeded noise
simulation, plus file formats and a command-line front end.
"""

from .align import (
    ALIGNMENT_NORMALIZATION,
    Alignment,
    DELETE,
    EditOp,
    INSERT,
    MATCH,
    SUBSTITUTE,
    cross_project,
    edit_distance,
    levenshtein_align,
    project_boundaries,
    project_positions,
    wer,
    wer_counts,
)
from .augment import (
    AugmentationConfig,
    MixtureSpec,
    augment_blocks,
    augment_line,
    build_training_mixture,
    mixture_draws,
)
from .bleu import (
    BleuConfig,
    BleuReport,
    PairStatistics,
    corpus_bleu,
    pair_statistics,
    pairwise_bleu,
    sentence_bleu,
)
from .config import ConfigError, PipelineConfig, load_config
from .evaluate import (
    ErrorVariantSet,
    LengthBucket,
    LengthBucketReport,
    bucket_report,
    make_error_variants,
    resegment_hypothesis,
    score_documents,
)
from .formats import ParseError, read_documents, read_transcripts, write_documents, write_transcripts
from .noise import NoiseConfig, corrupt_boundaries, corrupt_tokens
from .rng import make_rng, uniforms
from .segment import (
    PauseSplitConfig,
    TimedTranscript,
    break_on_punctuation,
    ends_sentence,
    split_fixed_length,
    split_on_pauses,
)
from .text import (
    InputError,
    NormalizationPolicy,
    PUNCTUATED,
    STRIPPED,
    SegmentedDocument,
    flatten,
    normalize,
    normalize_document,
    normalize_token,
    paired_documents,
    rebuild,
)

__version__ = "0.1.0"

__all__ = [
    "ALIGNMENT_NORMALIZATION",
    "Alignment",
    "AugmentationConfig",
    "BleuConfig",
    "BleuReport",
    "ConfigError",
    "DELETE",
    "EditOp",
    "ErrorVariantSet",
    "INSERT",
    "InputError",
    "LengthBucket",
    "LengthBucketReport",
    "MATCH",
    "MixtureSpec",
    "NoiseConfig",
    "NormalizationPolicy",
    "PairStatistics",
    "PUNCTUATED",
    "ParseError",
    "PauseSplitConfig",
    "PipelineConfig",
    "STRIPPED",
    "SUBSTITUTE",
    "SegmentedDocument",
    "TimedTranscript",
    "augment_blocks",
    "augment_line",
    "break_on_punctuation",
    "bucket_report",
    "build_training_mixture",
    "corpus_bleu",
    "corrupt_boundaries",
    "corrupt_tokens",
    "cross_project",
    "edit_distance",
    "ends_sentence",
    "flatten",
    "levenshtein_align",
    "load_config",
    "make_error_variants",
    "make_rng",
    "mixture_draws",
    "normalize",
    "normalize_document",
    "normalize_token",
    "pair_statistics",
    "paired_documents",
    "pairwise_bleu",
    "project_boundaries",
    "project_positions",
    "read_documents",
    "read_transcripts",
    "rebuild",
    "resegment_hypothesis",
    "score_documents",
    "sentence_bleu",
    "split_fixed_length",
    "split_on_pauses",
    "uniforms",
    "wer",
    "wer_counts",
    "write_documents",
    "write_transcripts",
]
