"""Pipeline configuration: one YAML file that sets defaults for every knob.

Command-line flags override config values, which override the built-in
defaults.  Unknown keys are rejected so typos fail loudly.  The default
config path can be set through the ``SEGMT_CONFIG`` environment variable
and overridden with ``--config``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .align import ALIGNMENT_NORMALIZATION, AlignmentConfig
from .augment import AugmentationConfig
from .bleu import BleuConfig
from .noise import NoiseConfig
from .segment import PauseSplitConfig
from .text import NormalizationPolicy

ENV_CONFIG_PATH = "SEGMT_CONFIG"


class ConfigError(Exception):
    """Invalid configuration file."""


@dataclass
class PipelineConfig:
    seed: int = 0
    normalization: NormalizationPolicy = NormalizationPolicy(
        strip_punctuation=True, lowercase=True, strip_symbols=True
    )
    alignment: AlignmentConfig = AlignmentConfig()
    pause_split: PauseSplitConfig = PauseSplitConfig()
    fixed_length: int = 10
    augmentation: AugmentationConfig = AugmentationConfig()
    mixture_augmented_fraction: float = 0.2
    bleu: BleuConfig = BleuConfig()
    noise: NoiseConfig = NoiseConfig()
    input_path: Optional[str] = None
    output_path: Optional[str] = None


def _alignment_config(**policy) -> AlignmentConfig:
    """The ``alignment`` section sets NormalizationPolicy fields over the alignment default."""
    return AlignmentConfig(normalize_for_alignment=replace(ALIGNMENT_NORMALIZATION, **policy))


_SECTION_BUILDERS = {
    "alignment": (_alignment_config, {"lowercase", "strip_punctuation", "strip_symbols"}),
    "normalization": (
        NormalizationPolicy,
        {"strip_punctuation", "lowercase", "strip_symbols"},
    ),
    "pause_split": (PauseSplitConfig, {"pause_threshold_sec", "max_tokens"}),
    "augmentation": (AugmentationConfig, {"p_max", "seed"}),
    "bleu": (BleuConfig, {"max_ngram_order", "case_sensitive", "smoothing"}),
    "noise": (
        NoiseConfig,
        {
            "substitution_rate",
            "deletion_rate",
            "insertion_rate",
            "boundary_merge_rate",
            "boundary_split_rate",
            "vocabulary",
            "seed",
        },
    ),
}

_SCALAR_KEYS = {"seed", "fixed_length", "mixture_augmented_fraction", "input_path", "output_path"}


def _build_section(name: str, data: dict):
    cls, allowed = _SECTION_BUILDERS[name]
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    if name == "noise" and "vocabulary" in data:
        data = dict(data, vocabulary=tuple(data["vocabulary"]))
    try:
        return cls(**data)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid section {name!r}: {err}") from err


def load_config(path) -> PipelineConfig:
    """Load a PipelineConfig from a YAML file."""
    import yaml

    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: invalid YAML: {err}") from err
    if raw is None:
        return PipelineConfig()
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    known = _SCALAR_KEYS | set(_SECTION_BUILDERS)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys: {sorted(unknown)}")

    kwargs = {}
    for key in _SCALAR_KEYS & set(raw):
        kwargs[key] = raw[key]
    for name in set(_SECTION_BUILDERS) & set(raw):
        section = raw[name] or {}
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: section {name!r} must be a mapping")
        kwargs[name] = _build_section(name, section)
    try:
        return PipelineConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{path}: {err}") from err
