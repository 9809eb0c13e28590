"""Prompt templates: packaged defaults and prompt_dir overrides."""

from pathlib import Path

import pytest

from latexmt import prompts
from latexmt.config import RunConfig
from latexmt.llm import ChatRequest


def _count_reads(monkeypatch) -> list[Path]:
    reads: list[Path] = []
    real = Path.read_text

    def read_text(self, *args, **kwargs):
        reads.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", read_text)
    return reads


def test_override_is_read_once_for_many_calls(tmp_path, monkeypatch):
    (tmp_path / "translator.txt").write_text("Translate into {tgt_language}.")
    reads = _count_reads(monkeypatch)
    for _ in range(5):
        assert prompts.render("translator", "French", tmp_path) == "Translate into French."
    assert reads == [tmp_path / "translator.txt"]


def test_edited_override_is_picked_up(tmp_path):
    path = tmp_path / "completeness.txt"
    path.write_text("first")
    assert prompts.load_template("completeness", tmp_path) == "first"
    # A different length changes the stat even where mtime is coarse.
    path.write_text("second, longer")
    assert prompts.load_template("completeness", tmp_path) == "second, longer"


def test_an_unknown_template_name_is_refused(tmp_path):
    with pytest.raises(KeyError, match="unknown prompt template: 'judge'"):
        prompts.load_template("judge", tmp_path)


def test_missing_override_falls_back_to_packaged_template(tmp_path):
    (tmp_path / "filter.txt").mkdir()  # not a file: ignored, as a missing one is
    assert prompts.load_template("filter", tmp_path) == prompts.load_template("filter")
    assert prompts.load_template("summarizer", tmp_path) == prompts.load_template("summarizer")


# The (system prompt, temperature, max_new_tokens) each agent sends under
# CONFIG: writers at translator_temperature, judges at judge_temperature,
# the filter at 0.0 with room for one word.
CONFIG = RunConfig(
    target_language="fr", translator_temperature=0.9, judge_temperature=0.3,
    agent_max_new_tokens=123,
)
SAMPLING = {
    "translator": (0.9, 123),
    "corrector": (0.9, 123),
    "terminology": (0.3, 123),
    "summarizer": (0.3, 123),
    "completeness": (0.3, 123),
    "filter": (0.0, 50),
}


@pytest.mark.parametrize("name", sorted(SAMPLING))
def test_request_picks_each_agents_template_and_sampling(name):
    built = prompts.request(name, "the user message", CONFIG)
    assert built == ChatRequest(
        prompts.render(name, "French"), "the user message", *SAMPLING[name]
    )
    given = prompts.request(name, "the user message", CONFIG, "a system prompt")
    assert given == ChatRequest("a system prompt", "the user message", *SAMPLING[name])
