"""Translate-or-preserve decisions for environment units.

Well-known math/code/table environments are decided from a static list
without spending a single model call.  Anything unrecognized is judged by
the model from its content alone, asked once at temperature 0: a reply that
is not ``True`` or ``False``, read leniently, falls back to "preserve" and
is recorded as a warning (:meth:`LlmClient.warn`).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import prompts
from .config import RunConfig
from .errors import ConfigError, LlmError
from .llm import LlmClient, Pending
from .parser import GRAN_ENVIRONMENT, TranslationUnit

SOURCE_PREDEFINED = "PREDEFINED"
SOURCE_LLM = "LLM"
SOURCE_DEFAULT = "DEFAULT"


@dataclass(frozen=True)
class FilterDecision:
    unit_id: int
    translate: bool
    source: str  # PREDEFINED | LLM | DEFAULT

    def __post_init__(self):
        if self.source == SOURCE_PREDEFINED and self.translate:
            raise ValueError("predefined decisions are always translate=False")


def protected_environments(path: Path | str = "") -> frozenset[str]:
    """The environment names never translated, read from *path* or the packaged list.

    One name a line; ``#`` starts a comment.  An unreadable *path* is a
    :class:`ConfigError`.
    """
    if path:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read protected_envs_path: {exc}") from exc
    else:
        ref = resources.files("latexmt").joinpath("data", "protected_environments.txt")
        text = ref.read_text(encoding="utf-8")
    names = (line.split("#", 1)[0].strip() for line in text.splitlines())
    return frozenset(name for name in names if name)


def _protected(unit: TranslationUnit, protected: frozenset[str]) -> bool:
    return unit.env_name is None or unit.env_name in protected


def classify_unit(
    unit: TranslationUnit, protected: frozenset[str], client: LlmClient, config: RunConfig
) -> FilterDecision:
    """Decide whether one environment unit's content should be translated.

    Protected names (and nameless blocks) never reach the model.  For the
    rest, the model sees only the environment body and must answer ``True``
    or ``False``.  It is asked once: at temperature 0 a resend gets the same
    reply.  Anything else defaults to ``False`` with a warning.
    """
    if _protected(unit, protected):
        return FilterDecision(unit.id, False, SOURCE_PREDEFINED)
    try:
        reply = client.chat(prompts.request("filter", unit.source_text, config))
    except LlmError as exc:
        problem = f"filter call failed for unit {unit.id} ({unit.env_name}): {exc}"
    else:
        # Edge whitespace, then quotes, backticks or '*' around the word, then
        # one trailing '.' go: 'True', **False**, TRUE and True. all count.
        word = reply.strip().strip("'\"`*").removesuffix(".").casefold()
        if word in ("true", "false"):
            return FilterDecision(unit.id, word == "true", SOURCE_LLM)
        problem = f"filter reply unparseable for unit {unit.id} ({unit.env_name}): {reply[:60]!r}"
    client.warn(f"{problem}; defaulting to preserve")
    return FilterDecision(unit.id, False, SOURCE_DEFAULT)


def classify_units(
    units: list[TranslationUnit], protected: frozenset[str], client: LlmClient, config: RunConfig
) -> list[FilterDecision | Pending[FilterDecision]]:
    """The filter decision of every environment unit, in unit order.

    Protected and nameless environments are decided here, with no call.
    For the rest the item is a job, submitted here: it classifies its unit,
    applies the decision in place and returns it;
    :func:`~latexmt.agents.run_pipeline` takes each as the groups reach its
    unit.  An invalid *config* raises :class:`ConfigError` before any job.
    """
    config.validate()

    def classify(unit: TranslationUnit) -> FilterDecision:
        decision = classify_unit(unit, protected, client, config)
        unit.needs_translation = decision.translate
        return decision

    envs = [u for u in units if u.granularity == GRAN_ENVIRONMENT]
    return [classify(u) if _protected(u, protected) else client.submit(classify, u) for u in envs]
