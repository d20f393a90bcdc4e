"""Pipeline configuration: one YAML file that sets defaults for every knob.

Command-line flags override config values, which override the built-in
defaults.  Unknown keys and values of the wrong type are rejected, so
typos fail loudly.  The default config path can be set through the
``SEGMT_CONFIG`` environment variable and overridden with ``--config``.
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
from .text import InputError, NormalizationPolicy

ENV_CONFIG_PATH = "SEGMT_CONFIG"


class ConfigError(InputError):
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


_REAL = (int, float)
_SEED = (int, type(None))  # an unset section seed falls back to the top-level one
_PATH = (str, type(None))
_POLICY = {"strip_punctuation": bool, "lowercase": bool, "strip_symbols": bool}

#: Each section's builder and the types of its keys' values.
_SECTION_BUILDERS = {
    "alignment": (_alignment_config, _POLICY),
    "normalization": (NormalizationPolicy, _POLICY),
    "pause_split": (PauseSplitConfig, {"pause_threshold_sec": _REAL, "max_tokens": int}),
    "augmentation": (AugmentationConfig, {"p_max": _REAL, "seed": _SEED}),
    "bleu": (BleuConfig, {"max_ngram_order": int, "case_sensitive": bool, "smoothing": str}),
    "noise": (
        NoiseConfig,
        {
            "substitution_rate": _REAL,
            "deletion_rate": _REAL,
            "insertion_rate": _REAL,
            "boundary_merge_rate": _REAL,
            "boundary_split_rate": _REAL,
            "vocabulary": list,
            "seed": _SEED,
        },
    ),
}

#: The top-level scalar keys and the types of their values.
_SCALAR_TYPES = {
    "seed": int,
    "fixed_length": int,
    "mixture_augmented_fraction": _REAL,
    "input_path": _PATH,
    "output_path": _PATH,
}


def _check_types(path, data: dict, types: dict, where: str = "") -> None:
    """Refuse keys not in ``types`` and values not of their key's types.

    A bool is accepted only where a bool is expected, never as a number.
    """
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"{path}: unknown keys{where}: {sorted(unknown, key=str)}")
    for key, value in data.items():
        if isinstance(value, bool) != (types[key] is bool) or not isinstance(value, types[key]):
            raise ConfigError(f"{path}: invalid value for {key!r}{where}: {value!r}")


def _build_section(path, name: str, data: dict):
    cls, types = _SECTION_BUILDERS[name]
    _check_types(path, data, types, f" in section {name!r}")
    if "vocabulary" in data:
        if not all(isinstance(token, str) for token in data["vocabulary"]):
            raise ConfigError(f"{path}: vocabulary entries in section {name!r} must be strings")
        data = dict(data, vocabulary=tuple(data["vocabulary"]))
    try:
        return cls(**data)
    except ValueError as err:
        raise ConfigError(f"{path}: invalid section {name!r}: {err}") from err


def load_config(path) -> PipelineConfig:
    """Load a PipelineConfig from a YAML file."""
    import yaml

    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        line = err.object.count(b"\n", 0, err.start) + 1
        raise ConfigError(f"{path}:{line}: invalid UTF-8") from err
    except (yaml.YAMLError, ValueError) as err:  # ValueError: an integer of too many digits
        raise ConfigError(f"{path}: invalid YAML: {err}") from err
    if raw is None:
        return PipelineConfig()
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    sections = {name: raw.pop(name) or {} for name in _SECTION_BUILDERS if name in raw}
    _check_types(path, raw, _SCALAR_TYPES)
    for key in ("input_path", "output_path"):
        if "\0" in (raw.get(key) or ""):  # no file name holds one
            raise ConfigError(f"{path}: invalid value for {key!r}: {raw[key]!r}")
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: section {name!r} must be a mapping")
        raw[name] = _build_section(path, name, section)
    return PipelineConfig(**raw)
