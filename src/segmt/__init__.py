"""Segmentation-robust evaluation toolkit for sequence transduction.

The package groups together text normalization, token-level alignment and
boundary projection, segmentation strategies, prefix-sampling data
augmentation, BLEU scoring with automatic resegmentation, and seeded noise
simulation, plus file formats and a command-line front end.
"""

from .align import (
    ALIGNMENT_NORMALIZATION,
    Alignment,
    AlignmentConfig,
    DELETE,
    EditOp,
    INSERT,
    MATCH,
    SUBSTITUTE,
    edit_distance,
    levenshtein_align,
    project_boundaries,
    project_positions,
    wer,
    wer_counts,
)
from .augment import (
    AugmentationConfig,
    AugmentationResult,
    BitextPair,
    MixtureSpec,
    augment_corpus,
    augment_pair,
    build_training_mixture,
)
from .bleu import BleuConfig, BleuReport, corpus_bleu, sentence_bleu
from .config import ConfigError, PipelineConfig, load_config
from .evaluate import (
    ErrorVariantSet,
    LengthBucket,
    LengthBucketReport,
    bucket_report,
    make_error_variants,
    resegment_and_score,
    resegment_hypothesis,
    score_documents,
)
from .formats import ParseError, read_bitext, read_documents, read_transcripts, write_bitext, write_documents, write_transcripts
from .noise import NoiseConfig, corrupt_boundaries, corrupt_tokens
from .rng import make_rng
from .segment import (
    PauseSplitConfig,
    TimedTranscript,
    TimedWord,
    break_on_punctuation,
    ends_sentence,
    split_fixed_length,
    split_on_pauses,
)
from .text import (
    BoundarySet,
    NormalizationPolicy,
    PUNCTUATED,
    STRIPPED,
    SegmentedDocument,
    detokenize,
    flatten,
    normalize,
    normalize_document,
    normalize_token,
    rebuild,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "ALIGNMENT_NORMALIZATION",
    "Alignment",
    "AlignmentConfig",
    "AugmentationConfig",
    "AugmentationResult",
    "BitextPair",
    "BleuConfig",
    "BleuReport",
    "BoundarySet",
    "ConfigError",
    "DELETE",
    "EditOp",
    "ErrorVariantSet",
    "INSERT",
    "LengthBucket",
    "LengthBucketReport",
    "MATCH",
    "MixtureSpec",
    "NoiseConfig",
    "NormalizationPolicy",
    "PUNCTUATED",
    "ParseError",
    "PauseSplitConfig",
    "PipelineConfig",
    "STRIPPED",
    "SUBSTITUTE",
    "SegmentedDocument",
    "TimedTranscript",
    "TimedWord",
    "augment_corpus",
    "augment_pair",
    "break_on_punctuation",
    "bucket_report",
    "build_training_mixture",
    "corpus_bleu",
    "corrupt_boundaries",
    "corrupt_tokens",
    "detokenize",
    "edit_distance",
    "ends_sentence",
    "flatten",
    "levenshtein_align",
    "load_config",
    "make_error_variants",
    "make_rng",
    "normalize",
    "normalize_document",
    "normalize_token",
    "project_boundaries",
    "project_positions",
    "read_bitext",
    "read_documents",
    "read_transcripts",
    "rebuild",
    "resegment_and_score",
    "resegment_hypothesis",
    "score_documents",
    "sentence_bleu",
    "split_fixed_length",
    "split_on_pauses",
    "tokenize",
    "wer",
    "wer_counts",
    "write_bitext",
    "write_documents",
    "write_transcripts",
]
