from pathlib import Path

import pytest

from segmt.config import ConfigError, PipelineConfig, _init_fields, _sections, load_config
from segmt.text import STRIPPED

FULL_CONFIG = """
seed: 7
fixed_length: 25
mixture_augmented_fraction: 0.1
input_path: in.txt
output_path: out.txt
normalization:
  strip_punctuation: false
  lowercase: true
  strip_symbols: false
alignment:
  lowercase: false
pause_split:
  pause_threshold_sec: 0.8
  max_tokens: 70
augmentation:
  p_max: 0.25
  seed: 3
bleu:
  max_ngram_order: 3
  case_sensitive: false
  smoothing: add-one
noise:
  substitution_rate: 0.1
  deletion_rate: 0.05
  boundary_merge_rate: 0.2
  vocabulary: [x, y, z]
  seed: 9
"""


def write_config(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_full_config(tmp_path):
    cfg = load_config(write_config(tmp_path, FULL_CONFIG))
    assert cfg.seed == 7
    assert cfg.fixed_length == 25
    assert cfg.mixture_augmented_fraction == 0.1
    assert cfg.input_path == "in.txt"
    assert cfg.normalization.strip_punctuation is False
    assert cfg.normalization.lowercase is True
    assert cfg.alignment.lowercase is False
    # Unset alignment keys keep their defaults.
    assert cfg.alignment.strip_punctuation is True
    assert cfg.pause_split.pause_threshold_sec == 0.8
    assert cfg.pause_split.max_tokens == 70
    assert cfg.augmentation.p_max == 0.25
    assert cfg.augmentation.seed == 3
    assert cfg.bleu.max_ngram_order == 3
    assert cfg.bleu.smoothing == "add-one"
    assert cfg.noise.vocabulary == ("x", "y", "z")
    assert cfg.noise.seed == 9


def test_empty_config_gives_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, ""))
    assert cfg == PipelineConfig()


def test_defaults():
    cfg = PipelineConfig()
    assert cfg.seed == 0
    assert cfg.fixed_length == 10
    assert cfg.mixture_augmented_fraction == 0.2
    assert cfg.normalization.strip_punctuation is True
    assert cfg.pause_split.pause_threshold_sec == 1.0
    assert cfg.augmentation.p_max == 0.3
    assert cfg.bleu.max_ngram_order == 4
    assert cfg.bleu.case_sensitive is True


def test_default_normalization_is_the_stripped_policy():
    # `normalize --policy stripped` and the config default are one constant.
    assert PipelineConfig().normalization == STRIPPED
    assert PipelineConfig().normalization is STRIPPED


def test_top_level_must_be_mapping(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "- a\n- b\n"))


def test_unknown_top_level_key(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "sedd: 3\n"))


def test_unknown_section_key(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "bleu:\n  order: 4\n"))


def test_alignment_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys in section 'alignment'"):
        load_config(write_config(tmp_path, "alignment:\n  band_width: 50\n"))


def test_bad_section_value(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "bleu:\n  max_ngram_order: 0\n"))


def test_section_must_be_mapping(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "bleu: [1, 2]\n"))


def test_invalid_yaml(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, "a: [unclosed\n"))


def test_null_section_gives_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, "bleu:\n"))
    assert cfg.bleu.max_ngram_order == 4


@pytest.mark.parametrize(
    "text",
    [
        "seed: [1]\n",
        "seed: true\n",
        "seed: 1.5\n",
        "fixed_length: x\n",
        "fixed_length: false\n",
        "mixture_augmented_fraction: x\n",
        "input_path: 5\n",
        "output_path: [a]\n",
        "pause_split:\n  max_tokens: 2.5\n",
        "bleu:\n  max_ngram_order: true\n",
        "bleu:\n  case_sensitive: 1\n",
        "augmentation:\n  seed: abc\n",
        "noise:\n  seed: [1]\n",
        "noise:\n  vocabulary: abc\n",
        "noise:\n  vocabulary: [a, 1]\n",
    ],
)
def test_values_of_the_wrong_type_are_rejected(tmp_path, text):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match=f"^{path}: "):
        load_config(path)


def test_well_typed_values_are_accepted(tmp_path):
    cfg = load_config(write_config(
        tmp_path,
        "seed: -3\nmixture_augmented_fraction: 1\ninput_path: null\n"
        "pause_split:\n  pause_threshold_sec: 2\naugmentation:\n  seed: null\n",
    ))
    assert (cfg.seed, cfg.mixture_augmented_fraction, cfg.input_path) == (-3, 1, None)
    assert cfg.pause_split.pause_threshold_sec == 2
    assert cfg.augmentation.seed is None


def test_unknown_keys_of_mixed_types_are_listed(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown keys: \[1, 'a'\]"):
        load_config(write_config(tmp_path, "1: 2\na: 3\n"))


def test_invalid_utf8_names_the_line(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"seed: 1\nbleu:\n  smoothing: \xe9\n")
    with pytest.raises(ConfigError, match=f"^{path}:3: invalid UTF-8"):
        load_config(path)


def test_readme_config_reference_is_the_schema(tmp_path):
    """README's "Configuration" YAML block loads to the defaults and names every key."""
    import yaml

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert load_config(write_config(tmp_path, block)) == PipelineConfig()
    documented = yaml.safe_load(block)
    keys = {(name,) for name in _init_fields(PipelineConfig)}
    for name, settings in _sections(PipelineConfig()).items():
        keys |= {(name, key) for key in _init_fields(type(settings))}
    named = {(key,) for key in documented}
    named |= {(name, key) for name, section in documented.items() if isinstance(section, dict) for key in section}
    assert named == keys
