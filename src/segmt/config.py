"""Pipeline configuration: one YAML file that sets defaults for every knob.

Command-line flags override config values, which override the built-in
defaults.  The settings dataclasses are the schema: a section's keys are
its dataclass's init fields, and a value must be of its field's type, so
typos fail loudly.  The default config path can be set through the
``SEGMT_CONFIG`` environment variable and overridden with ``--config``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .align import ALIGNMENT_NORMALIZATION
from .augment import AugmentationConfig
from .bleu import BleuConfig
from .noise import NoiseConfig
from .segment import PauseSplitConfig
from .text import InputError, NormalizationPolicy, STRIPPED

ENV_CONFIG_PATH = "SEGMT_CONFIG"


class ConfigError(InputError):
    """Invalid configuration file."""


@dataclass
class PipelineConfig:
    seed: int = 0
    normalization: NormalizationPolicy = STRIPPED
    alignment: NormalizationPolicy = ALIGNMENT_NORMALIZATION  # how alignment compares tokens
    pause_split: PauseSplitConfig = PauseSplitConfig()
    fixed_length: int = 10
    augmentation: AugmentationConfig = AugmentationConfig()
    mixture_augmented_fraction: float = 0.2
    bleu: BleuConfig = BleuConfig()
    noise: NoiseConfig = NoiseConfig()
    input_path: Optional[str] = None
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.fixed_length < 1:
            raise ValueError("fixed_length must be >= 1")
        if not 0 <= self.mixture_augmented_fraction <= 1:  # NaN fails too
            raise ValueError("mixture_augmented_fraction must be in [0, 1]")
        for key in ("input_path", "output_path"):
            if "\0" in (getattr(self, key) or ""):  # no file name holds one
                raise ValueError(f"invalid value for {key!r}: {getattr(self, key)!r}")


def _init_fields(cls) -> dict:
    """The init fields of dataclass ``cls`` and their types: the keys that set it."""
    types = get_type_hints(cls)
    return {field.name: types[field.name] for field in fields(cls) if field.init}


def _sections(cfg: PipelineConfig) -> dict:
    """Each section's name and the settings in ``cfg`` that its keys replace fields of."""
    return {
        name: getattr(cfg, name)
        for name, kind in _init_fields(PipelineConfig).items()
        if is_dataclass(kind)
    }


def _admits(kind, value) -> bool:
    """Whether a field of type ``kind`` takes the YAML ``value``.

    A bool is taken only where a bool is expected, never as a number; an int
    is taken where a float is, and a list of ``X`` where a ``Tuple[X, ...]`` is.
    """
    if get_origin(kind) is Union:  # Optional[X]
        return any(_admits(arg, value) for arg in get_args(kind))
    if get_origin(kind) is tuple:
        return isinstance(value, list) and all(_admits(get_args(kind)[0], item) for item in value)
    if isinstance(value, bool) != (kind is bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _replace(path, settings, data: dict, section: str = ""):
    """``settings`` with ``data``'s values in place of its fields, checked by its dataclass."""
    where = f" in section {section!r}" if section else ""
    kinds = _init_fields(type(settings))
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigError(f"{path}: unknown keys{where}: {sorted(unknown, key=str)}")
    for key, value in data.items():
        if not _admits(kinds[key], value):
            raise ConfigError(f"{path}: invalid value for {key!r}{where}: {value!r}")
    values = {key: tuple(value) if isinstance(value, list) else value for key, value in data.items()}
    try:
        return replace(settings, **values)
    except ValueError as err:
        prefix = f"invalid section {section!r}: " if section else ""
        raise ConfigError(f"{path}: {prefix}{err}") from err


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

    default = PipelineConfig()
    for name, settings in _sections(default).items():
        if name in raw:
            section = raw[name] or {}
            if not isinstance(section, dict):
                raise ConfigError(f"{path}: section {name!r} must be a mapping")
            raw[name] = _replace(path, settings, section, name)
    return _replace(path, default, raw)
