"""Loading and rendering of the agent prompt templates.

Templates live as plain text under ``latexmt/data/prompts`` and use a
single literal slot, ``{tgt_language}``, replaced by the human-readable
target language name.  Plain ``str.replace`` is used instead of
``str.format`` because the templates are full of LaTeX braces.
:func:`render_for` and :func:`request` are the one place a run's config
becomes a prompt, and :func:`request` the one place an agent's temperature
and token cap are chosen.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path
from stat import S_ISREG

from .config import RunConfig, language_name
from .errors import ConfigError
from .llm import ChatRequest

TEMPLATE_NAMES = (
    "translator",
    "corrector",
    "filter",
    "terminology",
    "summarizer",
    "completeness",
)


@lru_cache(maxsize=None)
def _packaged(name: str) -> str:
    ref = resources.files("latexmt").joinpath("data", "prompts", f"{name}.txt")
    return ref.read_text(encoding="utf-8")


def load_template(name: str, prompt_dir: Path | str | None = None) -> str:
    """Return the raw template text; *prompt_dir* overrides packaged assets.

    An empty *prompt_dir* means unset, as in the config file.
    """
    if name not in TEMPLATE_NAMES:
        raise KeyError(f"unknown prompt template: {name!r}")
    if prompt_dir:
        override = Path(prompt_dir) / f"{name}.txt"
        try:
            st = override.stat()
        except OSError:
            return _packaged(name)
        if S_ISREG(st.st_mode):
            return _override(override, st.st_mtime_ns, st.st_size)
    return _packaged(name)


@lru_cache(maxsize=64)
def _override(path: Path, mtime_ns: int, size: int) -> str:
    """A *prompt_dir* template, read again only once its stat changes; unreadable, a ConfigError."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read prompt template {path}: {exc}") from None


def render(name: str, tgt_language: str = "", prompt_dir: Path | str | None = None) -> str:
    """Template text with the ``{tgt_language}`` slot filled in."""
    text = load_template(name, prompt_dir)
    if tgt_language:
        text = text.replace("{tgt_language}", tgt_language)
    return text


def render_for(name: str, config: RunConfig) -> str:
    """Template *name* for a run: *config*'s target language and prompt_dir."""
    return render(name, language_name(config.target_language), config.prompt_dir)


def request(
    name: str, user_message: str, config: RunConfig, system_prompt: str = ""
) -> ChatRequest:
    """What agent *name* sends: *system_prompt*, or else its template, and its sampling.

    The filter answers one word, the same every time.  The other agents use
    *config*'s token cap and its temperature for judges (terminology,
    summarizer, completeness) or for writers (translator, corrector).
    """
    if name == "filter":
        temperature, max_new_tokens = 0.0, 50
    else:
        judge = name in ("terminology", "summarizer", "completeness")
        temperature = config.judge_temperature if judge else config.translator_temperature
        max_new_tokens = config.agent_max_new_tokens
    return ChatRequest(
        system_prompt or render_for(name, config), user_message, temperature, max_new_tokens
    )
