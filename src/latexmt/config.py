"""Run configuration: defaults, YAML loading, environment interpolation."""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit

from .errors import ConfigError

LANGUAGE_NAMES = {
    "en": "English",
    "zh": "Chinese",
    "ja": "Japanese",
    "ko": "Korean",
    "fr": "French",
    "de": "German",
    "es": "Spanish",
    "it": "Italian",
    "pt": "Portuguese",
    "ru": "Russian",
    "ar": "Arabic",
    "hi": "Hindi",
}

CJK_LANGUAGES = frozenset({"zh", "ja", "ko"})

_ENV_VAR_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _hostname(url: str) -> str | None:
    """The host *url* names, or None: also for one that does not parse, like ``http://[``."""
    try:
        return urlsplit(url).hostname
    except ValueError:
        return None


def base_language(tag: str) -> str:
    """``zh-CN`` -> ``zh``; already-bare tags pass through."""
    return tag.lower().split("-")[0].split("_")[0]


def language_name(tag: str) -> str:
    """Human-readable name used inside prompts; unknown tags pass through."""
    return LANGUAGE_NAMES.get(base_language(tag), tag)


@dataclass
class RunConfig:
    """Everything one invocation needs, flag- and file-configurable."""

    # languages
    source_language: str = "en"
    target_language: str = "zh"

    # model access
    endpoint: str = "http://localhost:8000/v1"
    model: str = ""
    api_key_env: str = "OPENAI_API_KEY"
    request_timeout: float = 60.0
    retry_budget: int = 3
    backoff_base: float = 0.5
    prompt_token_price: float = 0.0
    completion_token_price: float = 0.0

    # agents
    translator_temperature: float = 0.7
    judge_temperature: float = 0.0
    agent_max_new_tokens: int = 8192
    max_validation_rounds: int = 3
    term_dict_cap: int = 200
    completeness_check: bool = True
    prompt_dir: str = ""
    protected_envs_path: str = ""

    # output and compilation
    out_dir: str = "out"
    engine: str = ""  # empty = pick by target language
    compile_enabled: bool = True
    compile_timeout: float = 300.0
    compile_passes: int = 2
    count_box_warnings: bool = False
    inject_preamble: bool = True
    language_preambles: dict = field(default_factory=dict)

    # execution
    workers: int = 1
    mock: str = ""  # "" (the endpoint), "echo", or "replay" (a recorded run)
    replay_from: str = ""  # the recorded run's out_dir, for mock=replay

    def validate(self) -> None:
        problems = []
        if base_language(self.source_language) != "en":
            # Every prompt template is written for an English source.
            problems.append(
                f"source_language must be English ('en'), not {self.source_language!r}: "
                "the prompts support no other source language"
            )
        if not self.target_language:
            problems.append("target_language must be set")
        minimums = (
            ("max_validation_rounds", 1), ("retry_budget", 1), ("workers", 1),
            ("compile_passes", 1), ("translator_temperature", 0), ("judge_temperature", 0),
            ("agent_max_new_tokens", 1), ("term_dict_cap", 1), ("backoff_base", 0),
        )
        for name, least in minimums:
            if getattr(self, name) < least:
                problems.append(f"{name} must be >= {least}")
        for name in ("request_timeout", "compile_timeout"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be > 0")
        for lang, lines in self.language_preambles.items():
            if not isinstance(lines, list) or not all(isinstance(x, str) for x in lines):
                problems.append(f"language_preambles[{lang!r}] must be a list of strings")
        if self.prompt_dir and not Path(self.prompt_dir).is_dir():
            problems.append(f"prompt_dir is not a directory: {self.prompt_dir!r}")
        if self.mock not in ("", "echo", "replay"):
            problems.append(f"mock must be empty, 'echo' or 'replay', not {self.mock!r}")
        # Without a scheme or a host every request fails; refuse before any tree is touched.
        if not self.mock and not self.endpoint.lower().startswith(("http://", "https://")):
            problems.append(f"endpoint must start with http:// or https://, not {self.endpoint!r}")
        elif not self.mock and not _hostname(self.endpoint):
            problems.append(f"endpoint must name a host, not {self.endpoint!r}")
        replaying = self.mock == "replay"
        if replaying and not self.replay_from:
            problems.append("mock=replay requires replay_from")
        elif replaying and Path(self.replay_from).resolve() == Path(self.out_dir).resolve():
            # Each project's output tree is deleted before it is written.
            problems.append("replay_from must differ from out_dir: the run would delete it")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def chosen_engine(self) -> str:
        if self.engine:
            return self.engine
        if base_language(self.target_language) in CJK_LANGUAGES:
            return "xelatex"
        return "pdflatex"


def _interpolate(value):
    """Recursively substitute ``${VAR}`` from the environment in strings."""
    if isinstance(value, str):

        def sub(m: re.Match) -> str:
            var = m.group(1)
            if var not in os.environ:
                raise ConfigError(f"environment variable not set: {var}")
            return os.environ[var]

        return _ENV_VAR_RE.sub(sub, value)
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    return value


def _coerce(name: str, default, value):
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be a boolean, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        return float(value)
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return value
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    if not isinstance(value, dict):  # the one field type left: a mapping
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    return value


def load_config(
    path: Path | str | None = None, overrides: dict | None = None
) -> RunConfig:
    """Build a RunConfig from an optional YAML file plus CLI overrides.

    Unknown keys are rejected outright; ``${VAR}`` references resolve from
    the environment and must exist.  Override values of None mean "flag not
    given" and are skipped.
    """
    config = RunConfig()
    defaults = RunConfig()
    fields = {f.name for f in dataclasses.fields(RunConfig)}

    def apply(mapping: dict, origin: str) -> None:
        unknown = sorted(set(mapping) - fields)
        if unknown:
            raise ConfigError(f"unknown {origin} keys: {', '.join(unknown)}")
        for key, value in mapping.items():
            setattr(config, key, _coerce(key, getattr(defaults, key), value))

    if path is not None:
        import yaml  # only here: a run without a config file never loads PyYAML

        try:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        apply(_interpolate(raw), "config")

    if overrides:
        apply({k: v for k, v in overrides.items() if v is not None}, "override")

    config.validate()
    return config
