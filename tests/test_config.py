"""Config loading: YAML, env interpolation, coercion, engine choice."""

import re
from pathlib import Path

import pytest

from latexmt.config import (
    RunConfig,
    base_language,
    language_name,
    load_config,
)
from latexmt.errors import ConfigError


def test_defaults_pass_validation():
    config = load_config()
    assert config.source_language == "en"
    assert config.target_language == "zh"
    assert config.max_validation_rounds == 3
    assert config.compile_enabled is True


def test_base_language_strips_region():
    assert base_language("zh-CN") == "zh"
    assert base_language("pt_BR") == "pt"
    assert base_language("ja") == "ja"


def test_language_name_lookup():
    assert language_name("zh") == "Chinese"
    assert language_name("zh-CN") == "Chinese"
    assert language_name("xx") == "xx"  # unknown tags pass through


def test_engine_choice_follows_target_language():
    assert RunConfig(target_language="zh").chosen_engine == "xelatex"
    assert RunConfig(target_language="ja").chosen_engine == "xelatex"
    assert RunConfig(target_language="fr").chosen_engine == "pdflatex"
    assert RunConfig(target_language="zh", engine="lualatex").chosen_engine == "lualatex"


def test_yaml_file_round_trip(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "target_language: ja\nmax_validation_rounds: 5\ncompile_enabled: false\n"
    )
    config = load_config(path)
    assert config.target_language == "ja"
    assert config.max_validation_rounds == 5
    assert config.compile_enabled is False


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("target_language: ja\nmax_rounds: 5\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "max_rounds" in str(err.value)


def test_removed_filter_parse_retries_key_is_unknown(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("filter_parse_retries: 3\n")
    with pytest.raises(ConfigError, match="unknown config keys: filter_parse_retries"):
        load_config(path)


def test_env_interpolation(tmp_path, monkeypatch):
    monkeypatch.setenv("MY_ENDPOINT", "http://inference:9000/v1")
    path = tmp_path / "run.yaml"
    path.write_text("endpoint: ${MY_ENDPOINT}\n")
    assert load_config(path).endpoint == "http://inference:9000/v1"


def test_missing_env_var_is_an_error(tmp_path, monkeypatch):
    monkeypatch.delenv("DOES_NOT_EXIST_XYZ", raising=False)
    path = tmp_path / "run.yaml"
    path.write_text("endpoint: ${DOES_NOT_EXIST_XYZ}\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "DOES_NOT_EXIST_XYZ" in str(err.value)


def test_type_coercion_rejects_mismatches(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("max_validation_rounds: lots\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bool_is_not_an_integer(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("workers: true\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize(
    "line, wanted",
    [
        ("compile_enabled: 1", "compile_enabled must be a boolean, got 1"),
        ("request_timeout: fast", "request_timeout must be a number, got 'fast'"),
        ("request_timeout: true", "request_timeout must be a number, got True"),
        ("model: 3", "model must be a string, got 3"),
        ("language_preambles: [a]", "language_preambles must be a mapping, got ['a']"),
    ],
)
def test_a_value_of_the_wrong_type_is_named(tmp_path, line, wanted):
    path = tmp_path / "run.yaml"
    path.write_text(line + "\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(wanted)}$"):
        load_config(path)


def test_int_accepted_for_float_field(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("request_timeout: 30\n")
    config = load_config(path)
    assert config.request_timeout == 30.0
    assert isinstance(config.request_timeout, float)


def test_overrides_beat_file_and_none_is_skipped(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("target_language: ja\nmodel: from-file\n")
    config = load_config(
        path, {"target_language": "ko", "model": None, "workers": 4}
    )
    assert config.target_language == "ko"
    assert config.model == "from-file"
    assert config.workers == 4


def test_validation_catches_bad_values():
    with pytest.raises(ConfigError) as err:
        load_config(None, {"max_validation_rounds": 0, "workers": 0})
    message = str(err.value)
    assert "max_validation_rounds" in message
    assert "workers" in message


@pytest.mark.parametrize(
    "field, bad, good",
    [
        ("request_timeout", 0, 0.5),
        ("request_timeout", -1, 0.5),
        ("compile_timeout", 0, 0.5),
        ("backoff_base", -0.5, 0),
    ],
)
def test_validation_rejects_out_of_range_value(field, bad, good):
    with pytest.raises(ConfigError) as err:
        load_config(None, {field: bad})
    assert str(err.value).startswith(f"{field} must be")
    assert getattr(load_config(None, {field: good}), field) == good


def test_replay_mock_requires_a_recording_apart_from_out_dir(tmp_path):
    with pytest.raises(ConfigError, match="mock=replay requires replay_from"):
        load_config(None, {"mock": "replay"})
    out = str(tmp_path / "out")
    same = {"mock": "replay", "replay_from": out + "/.", "out_dir": out}
    with pytest.raises(ConfigError, match="replay_from must differ from out_dir"):
        load_config(None, same)
    config = load_config(None, {"mock": "replay", "replay_from": "recorded"})
    assert config.replay_from == "recorded"


def test_validation_rejects_an_empty_target_language_and_an_unknown_mock():
    with pytest.raises(ConfigError, match="^target_language must be set$"):
        load_config(None, {"target_language": ""})
    with pytest.raises(ConfigError, match="^mock must be empty, 'echo' or 'replay', not 'live'$"):
        load_config(None, {"mock": "live"})


def test_a_live_endpoint_needs_an_http_scheme():
    for bad in ("localhost:8000/v1", "api.example.com/v1", "ftp://h/v1", ""):
        with pytest.raises(ConfigError, match="^endpoint must start with http:// or https://"):
            load_config(None, {"endpoint": bad})
    for good in ("http://localhost:8000/v1", "https://api.example.com/v1", "HTTPS://H/v1"):
        assert load_config(None, {"endpoint": good}).endpoint == good
    # A mock never sends a request, so its endpoint is not checked.
    assert load_config(None, {"endpoint": "localhost:8000/v1", "mock": "echo"}).mock == "echo"


def test_a_live_endpoint_needs_a_host():
    for bad in ("http://", "https:///v1", "http://:8000/v1", "HTTP://@/v1", "http://[/v1"):
        with pytest.raises(ConfigError, match="^endpoint must name a host, not "):
            load_config(None, {"endpoint": bad})
    for good in ("http://localhost:8000/v1", "https://user@h/v1", "http://[::1]:8000/v1"):
        assert load_config(None, {"endpoint": good}).endpoint == good
    assert load_config(None, {"endpoint": "http://", "mock": "echo"}).mock == "echo"


def test_validation_rejects_a_source_language_the_prompts_do_not_support():
    for tag in ("de", "zh-CN", "", "english"):
        with pytest.raises(ConfigError, match="source_language must be English"):
            load_config(None, {"source_language": tag})
    assert load_config(None, {"source_language": "en-GB"}).source_language == "en-GB"


def test_language_preambles_must_be_lists_of_strings(tmp_path):
    path = tmp_path / "run.yaml"
    wanted = r"language_preambles\['zh'\] must be a list of strings"
    for bad in ('zh: "\\\\usepackage{xeCJK}"', "zh: [1, 2]", "zh: {a: b}"):
        path.write_text(f"language_preambles:\n  {bad}\n")
        with pytest.raises(ConfigError, match=wanted):
            load_config(path)
    path.write_text('language_preambles:\n  zh: ["\\\\usepackage{xeCJK}"]\n  fr: []\n')
    assert load_config(path).language_preambles == {"zh": ["\\usepackage{xeCJK}"], "fr": []}


def test_prompt_dir_must_be_a_directory(tmp_path):
    (tmp_path / "a_file.txt").write_text("")
    for bad in (tmp_path / "nonexistent", tmp_path / "a_file.txt"):
        with pytest.raises(ConfigError, match="prompt_dir is not a directory"):
            load_config(None, {"prompt_dir": str(bad)})
    assert load_config(None, {"prompt_dir": str(tmp_path)}).prompt_dir == str(tmp_path)
    assert load_config(None, {"prompt_dir": ""}).prompt_dir == ""  # unset


def test_invalid_yaml_is_a_config_error(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("target_language: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_an_unreadable_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="^cannot read config file: "):
        load_config(tmp_path / "missing.yaml")


def test_non_mapping_root_rejected(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_empty_file_means_defaults(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("")
    assert load_config(path).target_language == "zh"


def test_readme_config_example_loads(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    for var in re.findall(r"\$\{(\w+)\}", blocks[0]):
        monkeypatch.setenv(var, f"value-of-{var}")
    path = tmp_path / "run.yaml"
    path.write_text(blocks[0])
    load_config(path)
