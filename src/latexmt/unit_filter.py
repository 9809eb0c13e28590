"""Translate-or-preserve decisions for environment units.

Well-known math/code/table environments are decided from a static list
without spending a single model call.  Anything unrecognized is judged by
the model from its content alone, with a strict True/False reply contract:
after the parse-retry budget the decision falls back to "preserve" and the
incident is recorded as a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import prompts
from .config import RunConfig
from .errors import LlmError
from .llm import ChatRequest, LlmClient
from .parser import GRAN_ENVIRONMENT, TranslationUnit

SOURCE_PREDEFINED = "PREDEFINED"
SOURCE_LLM = "LLM"
SOURCE_DEFAULT = "DEFAULT"

FILTER_TEMPERATURE = 0.0
FILTER_MAX_NEW_TOKENS = 50


@dataclass(frozen=True)
class FilterDecision:
    unit_id: int
    translate: bool
    source: str  # PREDEFINED | LLM | DEFAULT

    def __post_init__(self):
        if self.source == SOURCE_PREDEFINED and self.translate:
            raise ValueError("predefined decisions are always translate=False")


class ProtectedEnvList:
    """Set of environment names that are never translated."""

    def __init__(self, names):
        self.names = frozenset(names)

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def from_file(cls, path: Path | str) -> "ProtectedEnvList":
        return cls(_parse_lines(Path(path).read_text(encoding="utf-8")))

    @classmethod
    def default(cls) -> "ProtectedEnvList":
        ref = resources.files("latexmt").joinpath("data", "protected_environments.txt")
        return cls(_parse_lines(ref.read_text(encoding="utf-8")))


def _parse_lines(text: str) -> set[str]:
    names = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(line)
    return names


def classify_unit(
    unit: TranslationUnit,
    protected: ProtectedEnvList,
    client: LlmClient | None,
    config: RunConfig,
    warnings: list[str] | None = None,
) -> FilterDecision:
    """Decide whether one environment unit's content should be translated.

    Protected names (and nameless blocks) never reach the model.  For the
    rest, the model sees only the environment body and must answer exactly
    ``True`` or ``False``; anything else is retried, then defaulted to
    ``False`` with a warning.
    """
    if unit.env_name is None or unit.env_name in protected:
        return FilterDecision(unit.id, False, SOURCE_PREDEFINED)
    if client is None:
        return FilterDecision(unit.id, False, SOURCE_DEFAULT)
    request = ChatRequest(
        system_prompt=prompts.render_for("filter", config),
        user_message=unit.source_text,
        temperature=FILTER_TEMPERATURE,
        max_new_tokens=FILTER_MAX_NEW_TOKENS,
        model=config.model,
    )
    for _ in range(max(1, config.filter_parse_retries)):
        try:
            reply = client.chat(request).strip()
        except LlmError as exc:
            if warnings is not None:
                warnings.append(
                    f"filter call failed for unit {unit.id} ({unit.env_name}): "
                    f"{exc}; defaulting to preserve"
                )
            return FilterDecision(unit.id, False, SOURCE_DEFAULT)
        if reply == "True":
            return FilterDecision(unit.id, True, SOURCE_LLM)
        if reply == "False":
            return FilterDecision(unit.id, False, SOURCE_LLM)
    if warnings is not None:
        warnings.append(
            f"filter reply unparseable for unit {unit.id} ({unit.env_name}) "
            f"after {config.filter_parse_retries} attempts; defaulting to preserve"
        )
    return FilterDecision(unit.id, False, SOURCE_DEFAULT)


def classify_units(
    units: list[TranslationUnit],
    protected: ProtectedEnvList,
    client: LlmClient | None,
    config: RunConfig,
    warnings: list[str] | None = None,
) -> list[FilterDecision]:
    """Classify every environment unit and apply the decisions in place.

    The units are independent, so with a client they are classified through
    :meth:`LlmClient.map`; decisions and warnings keep unit order.
    """
    envs = [u for u in units if u.granularity == GRAN_ENVIRONMENT]

    def classify(unit: TranslationUnit) -> tuple[FilterDecision, list[str]]:
        notes: list[str] = []
        return classify_unit(unit, protected, client, config, notes), notes

    outcomes = client.map(classify, envs) if client is not None else map(classify, envs)
    decisions = []
    for unit, (decision, notes) in zip(envs, outcomes):
        unit.needs_translation = decision.translate
        decisions.append(decision)
        if warnings is not None:
            warnings.extend(notes)
    return decisions
