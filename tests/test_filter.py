"""Environment-content filtering: predefined list, model contract, defaults."""

from latexmt.agents import run_pipeline
from latexmt.config import RunConfig
from latexmt.errors import ConfigError
from latexmt.llm import EchoBackend, LlmClient, Pending, UsageLedger
from latexmt.parser import GRAN_CAPTION, GRAN_ENVIRONMENT, GRAN_SECTION, TranslationUnit
from latexmt.unit_filter import (
    SOURCE_DEFAULT,
    SOURCE_LLM,
    SOURCE_PREDEFINED,
    FilterDecision,
    classify_unit,
    classify_units,
    protected_environments,
)

import pytest

from conftest import Counted, RuleBackend


def env_unit(uid=0, name="tcolorbox", text="Some prose inside."):
    return TranslationUnit(
        id=uid,
        granularity=GRAN_ENVIRONMENT,
        source_text=f"\\begin{{{name}}}{text}\\end{{{name}}}",
        needs_translation=False,
        token=f"<PLACEHOLDER_ENV_{uid}>",
        env_name=name,
        role="env",
    )


CFG = RunConfig()


def client_of(backend, max_in_flight=1):
    return LlmClient(backend, UsageLedger(), sleep=lambda _s: None, max_in_flight=max_in_flight)


def test_default_list_protects_math_and_verbatim():
    protected = protected_environments()
    for name in ("equation", "align", "tabular", "verbatim", "tikzpicture"):
        assert name in protected
    assert "figure" not in protected  # captions aside, figures may hold prose


def test_protected_env_never_queries_the_model():
    backend = Counted(EchoBackend())
    decision = classify_unit(
        env_unit(name="equation"), protected_environments(), client_of(backend), CFG
    )
    assert decision == FilterDecision(0, False, SOURCE_PREDEFINED)
    assert backend.calls == 0


def test_nameless_block_is_predefined_preserve():
    unit = env_unit()
    unit.env_name = None
    backend = Counted(EchoBackend())
    decision = classify_unit(unit, protected_environments(), client_of(backend), CFG)
    assert decision.source == SOURCE_PREDEFINED
    assert backend.calls == 0


def test_model_true_means_translate():
    backend = RuleBackend([(r".", "True")])
    decision = classify_unit(env_unit(), protected_environments(), client_of(backend), CFG)
    assert decision.translate is True
    assert decision.source == SOURCE_LLM


def test_model_false_means_preserve():
    backend = RuleBackend([(r".", "False")])
    decision = classify_unit(env_unit(), protected_environments(), client_of(backend), CFG)
    assert decision.translate is False
    assert decision.source == SOURCE_LLM


def test_whitespace_around_verdict_tolerated():
    backend = RuleBackend([], default="  True \n")
    decision = classify_unit(env_unit(), protected_environments(), client_of(backend), CFG)
    assert decision.translate is True


@pytest.mark.parametrize(
    "reply, translate",
    [
        ("'True'", True),  # as the template quotes it
        ('"False"', False),
        ("**False**", False),
        ("`true`", True),
        ("TRUE", True),
        ("True.", True),
        (" false.\n", False),
    ],
)
def test_verdict_read_leniently(reply, translate):
    backend = RuleBackend([], default=reply)
    decision = classify_unit(env_unit(), protected_environments(), client_of(backend), CFG)
    assert decision == FilterDecision(0, translate, SOURCE_LLM)


@pytest.mark.parametrize(
    "reply",
    [
        "maybe",
        "True because it is prose",
        "Yes",
        "It depends on the content.",
        "True..",
        "Tru",
        "**",
        pytest.param("x" * 59 + "\n" + "y" * 40, id="long"),  # the warning quotes 60 characters
    ],
)
def test_garbage_reply_sent_once_then_defaulted(reply):
    backend = RuleBackend([], default=reply)
    client = client_of(backend)
    decision = classify_unit(env_unit(), protected_environments(), client, CFG)
    assert decision == FilterDecision(0, False, SOURCE_DEFAULT)
    assert backend.calls == 1  # temperature 0: a resend would get the same reply
    assert client.warnings == [
        f"filter reply unparseable for unit 0 (tcolorbox): {reply[:60]!r}; defaulting to preserve"
    ]


def test_transport_failure_defaults_to_preserve():
    backend = RuleBackend([])  # no rule, no default: every call errors
    client = client_of(backend)
    decision = classify_unit(env_unit(), protected_environments(), client, CFG)
    assert decision.source == SOURCE_DEFAULT
    assert decision.translate is False
    assert any("defaulting to preserve" in w for w in client.warnings)


def test_classify_units_applies_decisions_and_skips_other_kinds():
    units = [
        env_unit(0, "equation", "x=y"),
        env_unit(1, "notebox", "Read this carefully."),
        TranslationUnit(
            id=2,
            granularity=GRAN_CAPTION,
            source_text="A caption",
            needs_translation=True,
            token="<PLACEHOLDER_CAP_0>",
            role="caption",
        ),
    ]
    backend = RuleBackend([(r"Read this", "True")])
    items = classify_units(units, protected_environments(), client_of(backend), CFG)
    assert backend.calls == 0 and units[1].needs_translation is False  # job not run yet
    assert items[0] == FilterDecision(0, False, SOURCE_PREDEFINED)  # decided with no job
    assert isinstance(items[1], Pending)
    decisions = [item.result() if isinstance(item, Pending) else item for item in items]
    assert [d.unit_id for d in decisions] == [0, 1]
    assert units[0].needs_translation is False
    assert units[1].needs_translation is True
    assert units[2].needs_translation is True  # captions are not the filter's business
    assert backend.calls == 1


@pytest.mark.parametrize("bad", [{"max_validation_rounds": 0}, {"term_dict_cap": 0}])
def test_an_invalid_config_starts_no_filter_job(bad):
    units = [
        TranslationUnit(0, GRAN_SECTION, "Some text."),
        *(env_unit(uid, "notebox", f"Box {uid}.") for uid in range(1, 9)),
    ]
    backend = Counted(EchoBackend())
    config = RunConfig(**bad)
    with client_of(backend, max_in_flight=8) as client:
        with pytest.raises(ConfigError):
            classify = classify_units(units, protected_environments(), client, config)
            run_pipeline(units, client, config, classify)
    assert backend.calls == 0


def test_custom_protected_list_from_file(tmp_path):
    path = tmp_path / "protected.txt"
    path.write_text("# comment line\nmybox\n\nequation  # inline note\n")
    protected = protected_environments(path)
    assert "mybox" in protected
    assert "equation" in protected
    assert "figure" not in protected
    assert len(protected) == 2


def test_decision_invariant_rejects_predefined_translate():
    with pytest.raises(ValueError):
        FilterDecision(0, True, SOURCE_PREDEFINED)
