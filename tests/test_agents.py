"""The translate/validate/revise loop, rolling summary, term dictionary."""

import re
import threading
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latexmt import agents, prompts
from latexmt.agents import (
    DIM_COMMAND,
    DIM_COMPLETENESS,
    DIM_PLACEHOLDER,
    GROUP_FORMAT,
    JUDGE_FORMAT,
    ErrorReport,
    Finding,
    PipelineFailed,
    Summary,
    TermDictionary,
    check_rules,
    check_round,
    extract_terms,
    fit_edges,
    group_request,
    group_source,
    grouped,
    header,
    join_parts,
    retranslate_unit,
    run_pipeline,
    split_parts,
    summary_request,
    translate_unit,
    update_summary,
    validate_group,
    validate_translations,
)
from latexmt.config import RunConfig
from latexmt.errors import ConfigError, LlmError, TransientLlmError
from latexmt.llm import (
    TRANSCRIPT_NAME,
    EchoBackend,
    LlmClient,
    Pending,
    RuleBackend,
    UsageLedger,
    read_transcript,
)
from latexmt.parser import (
    GRAN_CAPTION,
    GRAN_ENVIRONMENT,
    GRAN_SECTION,
    STATUS_FAILED,
    STATUS_TRANSLATED,
    STATUS_VALIDATED,
    TranslationUnit,
    split_sections,
)
from latexmt.placeholders import TOKEN_RE
from latexmt.unit_filter import (
    SOURCE_PREDEFINED,
    classify_unit,
    classify_units,
    protected_environments,
)


JOIN_TIMEOUT_S = 30.0


def transcript_in(directory):
    """Where a client transcribes for :func:`read_transcript` of *directory*, which it makes."""
    directory.mkdir(parents=True, exist_ok=True)
    return directory / TRANSCRIPT_NAME


def make_client(backend, transcript_path=None, max_in_flight=1):
    return LlmClient(
        backend,
        UsageLedger(),
        sleep=lambda _s: None,
        transcript_path=transcript_path,
        max_in_flight=max_in_flight,
    )


def section_unit(uid, text):
    return TranslationUnit(id=uid, granularity=GRAN_SECTION, source_text=text)


def caption_unit(uid, text):
    return TranslationUnit(
        id=uid,
        granularity=GRAN_CAPTION,
        source_text=text,
        token=f"<PLACEHOLDER_CAP_{uid}>",
        role="caption",
    )


CFG = RunConfig()


# --------------------------------------------------------------------------
# term dictionary and summary


def test_dictionary_first_occurrence_wins():
    d = TermDictionary()
    assert d.add("graph", "\u56fe") is True
    assert d.add("graph", "\u5716") is False
    assert dict(d)["graph"] == "\u56fe"
    assert len(d) == 1


def test_dictionary_rejects_blank_keys_and_strips():
    d = TermDictionary()
    assert d.add("  ", "x") is False
    assert d.add(" spanning tree ", "y") is True
    assert "spanning tree" in dict(d)


def test_dictionary_render_caps_to_most_recent():
    d = TermDictionary()
    for i in range(4):
        d.add(f"term{i}", f"t{i}")
    text = "term0 term1 term2 term3"
    assert d.render(text, 2) == '"term2" - "t2"\n"term3" - "t3"'
    assert len(d.render(text, 4).splitlines()) == 4


def test_dictionary_render_keeps_only_terms_the_text_holds():
    d = TermDictionary()
    for src in ("Graph", "edge", "vertex", "Stra\u00dfe"):
        d.add(src, src.upper())
    # Casefolded substrings, kept in dictionary order rather than the text's.
    text = "Vertex sets of GRAPHS."
    assert d.render(text, 10) == '"Graph" - "GRAPH"\n"vertex" - "VERTEX"'
    assert d.render("die STRASSE", 10) == '"Stra\u00dfe" - "STRASSE"'
    # The cap takes the most recent pairs first; the text filters what is left.
    assert d.render("a graph and an edge", 3) == '"edge" - "EDGE"'
    assert d.render("a graph and an edge", 2) == ""
    assert d.render("nothing relevant", 10) == ""


def test_summary_defaults():
    s = Summary()
    assert s.version == 0
    assert s.word_count == 0


# --------------------------------------------------------------------------
# terminology extraction


def test_extract_terms_parses_quoted_pairs():
    d = TermDictionary()
    backend = RuleBackend([], default='"graph" - "\u56fe"\n"node" - "\u8282\u70b9"')
    added = extract_terms("src", "dst", d, make_client(backend), CFG)
    assert added == [("graph", "\u56fe"), ("node", "\u8282\u70b9")]
    assert len(d) == 2


def test_extract_terms_na_is_a_noop():
    d = TermDictionary()
    for reply in ("N/A", "'N/A'", '  "N/A" '):
        added = extract_terms("s", "t", d, make_client(RuleBackend([], default=reply)), CFG)
        assert added == []
    assert len(d) == 0


def test_extract_terms_skips_malformed_lines_with_one_warning():
    d = TermDictionary()
    reply = '"good" - "\u597d"\nthis line is junk\nanother junk line'
    client = make_client(RuleBackend([], default=reply))
    extract_terms("s", "t", d, client, CFG)
    assert list(d) == [("good", "\u597d")]
    assert len(client.warnings) == 1
    assert "2 unparseable line(s)" in client.warnings[0]


def test_extract_terms_duplicate_source_not_overwritten():
    d = TermDictionary()
    client = make_client(
        RuleBackend([("first", '"graph" - "A"'), ("second", '"graph" - "B"\n"edge" - "C"')])
    )
    extract_terms("first", "t", d, client, CFG)
    added = extract_terms("second", "t", d, client, CFG)
    assert added == [("edge", "C")]
    assert dict(d)["graph"] == "A"


def test_extract_terms_survives_llm_failure():
    client = make_client(RuleBackend([]))
    added = extract_terms("s", "t", TermDictionary(), client, CFG)
    assert added == []
    assert any("terminology extraction failed" in w for w in client.warnings)


# --------------------------------------------------------------------------
# rolling summary


def test_update_summary_advances_version():
    backend = RuleBackend([], default="first digest")
    updated = update_summary(Summary(), "section text", make_client(backend), CFG)
    assert updated.text == "first digest"
    assert updated.version == 1


def test_update_summary_prompt_carries_previous_text():
    seen = {}

    def capture(m, request):
        seen["user"] = request.user_message
        return "next digest"

    backend = RuleBackend([(r".", capture)])
    update_summary(Summary("old digest", 3), "fresh section", make_client(backend), CFG)
    assert "prev_summary:\nold digest" in seen["user"]
    assert "new_section:\nfresh section" in seen["user"]


def test_update_summary_overflow_is_a_warning_not_truncation():
    long_reply = " ".join(["word"] * 400)
    client = make_client(RuleBackend([], default=long_reply))
    updated = update_summary(Summary(), "sec", client, CFG)
    assert updated.word_count == 400
    assert any("400 words" in w for w in client.warnings)


def test_update_summary_takes_the_reply_to_its_request_sent_early():
    backend = RuleBackend([], default="early digest")
    client = make_client(backend)
    client.send_early(summary_request(Summary("old", 1), "sec", CFG))
    assert backend.calls == 0  # at a bound of 1, an early request waits to be taken
    assert update_summary(Summary("old", 1), "sec", client, CFG) == Summary("early digest", 2)
    assert backend.calls == 1 and client.speculation["hits"] == 1


def test_update_summary_failure_keeps_previous():
    prev = Summary("kept", 2)
    client = make_client(RuleBackend([]))
    updated = update_summary(prev, "sec", client, CFG)
    assert updated is prev
    assert any("keeping version 2" in w for w in client.warnings)


# --------------------------------------------------------------------------
# mechanical checks


def unit_with(source, translated):
    u = section_unit(0, source)
    u.translated_text = translated
    u.status = STATUS_TRANSLATED
    return u


def test_placeholder_drop_detected():
    [finding] = check_rules(unit_with("a <PLACEHOLDER_ENV_0> b", "a b"))
    assert finding.dimension == DIM_PLACEHOLDER
    assert finding.description == (
        "placeholder <PLACEHOLDER_ENV_0> lost (source has 1, translation has 0)"
    )


def test_placeholder_duplicate_detected():
    u = unit_with("a <PLACEHOLDER_CAP_1> b", "<PLACEHOLDER_CAP_1> <PLACEHOLDER_CAP_1>")
    [finding] = check_rules(u)
    assert finding.description == (
        "placeholder <PLACEHOLDER_CAP_1> duplicated (source has 1, translation has 2)"
    )


def test_an_invented_placeholder_is_introduced_not_duplicated():
    [finding] = check_rules(unit_with("a", "a <PLACEHOLDER_ENV_2>"))
    assert finding.dimension == DIM_PLACEHOLDER
    assert finding.description == (
        "placeholder <PLACEHOLDER_ENV_2> introduced by translation (1 occurrence, none in source)"
    )


def test_placeholder_reorder_is_fine():
    u = unit_with(
        "<PLACEHOLDER_ENV_0> m <PLACEHOLDER_ENV_1>",
        "<PLACEHOLDER_ENV_1> m <PLACEHOLDER_ENV_0>",
    )
    assert check_rules(u) == []


def test_command_drop_detected():
    [finding] = check_rules(unit_with("use \\textbf{x} here", "use x here"))
    assert finding.dimension == DIM_COMMAND
    assert finding.description == (
        "control sequence \\textbf dropped (source has 1, translation has 0)"
    )


def test_invented_unicode_command_detected():
    u = unit_with("pair \\left( x \\right)", "pair \\\u5de6( x \\\u53f3)")
    assert [f.description for f in check_rules(u)] == [
        "control sequence \\left dropped (source has 1, translation has 0)",
        "control sequence \\right dropped (source has 1, translation has 0)",
        "control sequence \\\u53f3 introduced by translation (1 occurrence, none in source)",
        "control sequence \\\u5de6 introduced by translation (1 occurrence, none in source)",
    ]


def test_command_allowlist_tolerates_quote_macros():
    quoted = "\\textquotedblleft a\\textquotedblright \\textquoteleft b\\textquoteright"
    quoted += "\\textellipsis"
    assert check_rules(unit_with("plain text", quoted)) == []
    assert check_rules(unit_with(quoted, "plain text")) == []
    [finding] = check_rules(unit_with("plain text", "\\textbf{plain} \\textbf{text} " + quoted))
    assert finding.description == (
        "control sequence \\textbf introduced by translation (2 occurrences, none in source)"
    )


def test_command_counts_must_match_exactly():
    [finding] = check_rules(unit_with("\\emph{a} \\emph{b}", "\\emph{a}"))
    assert finding.description == (
        "control sequence \\emph dropped (source has 2, translation has 1)"
    )


def test_a_command_used_more_often_is_a_count_change():
    [finding] = check_rules(unit_with("\\emph{a}", "\\emph{a} \\emph{b}"))
    assert finding.description == (
        "control sequence \\emph count changed (source has 1, translation has 2)"
    )


def test_a_word_after_a_line_break_is_not_a_control_word():
    assert check_rules(unit_with("Alice\\\\University", "爱丽丝\\\\某大学")) == []
    # Line breaks themselves may come and go.
    assert check_rules(unit_with("a\\\\b\\\\", "a b")) == []
    # The backslash after a \\ starts a control word; \\\\ is two line breaks.
    [finding] = check_rules(unit_with("a\\\\\\textbf{b} c\\\\\\\\d", "a\\\\b c\\\\\\\\e"))
    assert finding.description == (
        "control sequence \\textbf dropped (source has 1, translation has 0)"
    )


def test_findings_come_row_by_row_in_match_order():
    u = unit_with(
        "\\emph{x} <PLACEHOLDER_ENV_1> <PLACEHOLDER_ENV_0>",
        "\\textit{x} <PLACEHOLDER_ENV_1>",
    )
    assert [f.description.split()[:3] for f in check_rules(u)] == [
        ["placeholder", "<PLACEHOLDER_ENV_0>", "lost"],
        ["control", "sequence", "\\emph"],
        ["control", "sequence", "\\textit"],
    ]


def validated(unit, client, config):
    """*unit*'s reports, its check started and read back as :func:`run_pipeline` does."""
    job = client.submit(validate_group, (unit,), client, config)
    return validate_translations([((unit,), job)], client)


# --------------------------------------------------------------------------
# completeness judge


def test_completeness_ok_reply():
    u = unit_with("src", "dst")
    client = make_client(RuleBackend([], default="OK"))
    assert check_round((u,), client, CFG) == [([], False)]
    assert client.warnings == []


def test_completeness_findings_parsed_line_by_line():
    u = unit_with("src", "dst")
    reply = "- the second paragraph is missing\n- the footnote vanished"
    [(findings, _)] = check_round((u,), make_client(RuleBackend([], default=reply)), CFG)
    assert [f.dimension for f in findings] == [DIM_COMPLETENESS, DIM_COMPLETENESS]
    assert findings[0].description == "the second paragraph is missing"


def test_completeness_garbage_reply_skips_dimension():
    u = unit_with("src", "dst")
    client = make_client(RuleBackend([], default="I think it looks fine!"))
    assert check_round((u,), client, CFG) == [([], True)]
    assert any("unparseable" in w for w in client.warnings)
    # validate_translations records the skip in the round's report.
    [report] = validated(u, client, CFG)
    assert report.ok
    assert report.skipped == [f"unit 0: {DIM_COMPLETENESS}"]


def test_completeness_transport_failure_skips_dimension():
    u = unit_with("src", "dst")
    client = make_client(RuleBackend([]))
    assert check_round((u,), client, CFG) == [([], True)]
    assert any("completeness check skipped for unit 0" in w for w in client.warnings)


def test_mechanical_failures_suppress_completeness_call():
    u = unit_with("a <PLACEHOLDER_ENV_0>", "a")  # placeholder lost
    backend = RuleBackend([], default="OK")
    one_round = RunConfig(max_validation_rounds=1)  # no revision either
    [report] = validated(u, make_client(backend), one_round)
    assert backend.calls == 0  # judge never consulted
    assert {f.unit_id for f in report.findings} == {0}


def test_completeness_disabled_by_config():
    u = unit_with("plain", "plain translated")
    backend = RuleBackend([], default="OK")
    cfg = RunConfig(completeness_check=False)
    [report] = validated(u, make_client(backend), cfg)
    assert backend.calls == 0
    assert report.ok


def test_validate_skips_units_without_candidates():
    # The translator answers only the lone message "translated": the group of
    # both units fails, then unit 0 alone does, so it has no candidate.
    judged = []

    def judge(match, _request):
        judged.append(match[1])
        return "OK"

    backend = RuleBackend(
        [
            (r"^prev_summary:", "digest"),
            (r"^\[Source\]", "N/A"),
            (r"^\[Original\]\n(.*)\n\n\[Translation\]", judge),
            (r"^translated$", "traduit"),
        ]
    )
    units = [section_unit(0, "never translated"), section_unit(1, "translated")]
    client = make_client(backend)
    result = run_pipeline(units, client, CFG)
    assert [u.status for u in units] == [STATUS_FAILED, STATUS_VALIDATED]
    assert units[0].translated_text is None
    assert [r.to_dict() for r in result.reports] == [{"round": 1, "findings": [], "skipped": []}]
    assert judged == ["translated"]  # unit 1 alone is judged
    assert not any("validation rounds" in w for w in client.warnings)


# --------------------------------------------------------------------------
# the group judge: one call for a group's round 1


def judged_captions(judge):
    """Run three captions through the pipeline; *judge* answers the group's judge call.

    The translator drops "lost words", a lone judge call answers ``OK``, and
    the corrector gives back the source.  Returns the units, the reports,
    the warnings and each ``(role, message)`` sent.
    """
    sent = []

    def answer(_match, request):
        message = request.user_message
        role = "judge" if message.startswith("[Original]\n") else "other"
        role = "corrector" if "\n\n[Error Reports]\n" in message else role
        role = "group judge" if request.system_prompt.endswith(JUDGE_FORMAT) else role
        sent.append((role, message))
        if role == "group judge":
            return judge(message)
        if role == "corrector":
            return message.removeprefix("[Original]\n").partition("\n\n[Translation]\n")[0]
        if role == "judge":
            return "OK"
        return "N/A" if message.startswith("[Source]\n") else message.replace("lost words", "")

    units = [caption_unit(i, text) for i, text in enumerate(["One.", "Two, lost words.", "Three."], 1)]
    client = make_client(RuleBackend([(r"", answer)]))
    result = run_pipeline(units, client, CFG)
    return units, result.reports, client.warnings, sent


def parted(*verdicts, order=(1, 2, 3)):
    """A reply to the three captions' group: each header in *order*, then its verdict."""
    return "\n".join(f"<PLACEHOLDER_CAP_{i}>\n{v}" for i, v in zip(order, verdicts))


def test_a_group_is_judged_in_one_call_and_ok_clears_every_unit():
    units, reports, warnings, sent = judged_captions(lambda _message: "OK")
    source = join_parts([(u.token, u.source_text) for u in units])
    translated = join_parts([(u.token, u.translated_text) for u in units])
    assert "Two, ." in translated
    assert [m for role, m in sent if "judge" in role] == [
        f"[Original]\n{source}\n\n[Translation]\n{translated}"
    ]
    assert warnings == [] and [r.to_dict() for r in reports] == [ErrorReport(1).to_dict()]
    assert all(u.status == STATUS_VALIDATED for u in units)


def test_a_headered_group_judge_reply_sends_only_the_flagged_unit_to_the_corrector():
    units, reports, warnings, sent = judged_captions(
        lambda _message: parted("OK", "- words are lost", "OK")
    )
    assert warnings == []
    assert [f.unit_id for f in reports[0].findings] == [2]
    assert reports[0].findings[0].description == "words are lost"
    assert reports[1].ok and len(reports) == 2
    assert all(u.status == STATUS_VALIDATED for u in units)
    assert units[1].translated_text == "Two, lost words."  # the corrector's
    # Only unit 2 is revised and judged again; 1 and 3 have no judge call of their own.
    roles = [(role, m.split("\n")[1]) for role, m in sent if role in ("judge", "corrector")]
    assert roles == [("corrector", "Two, lost words."), ("judge", "Two, lost words.")]


def _refused(_message):
    raise TransientLlmError("judge down")


@pytest.mark.parametrize(
    "judge, problem",
    [
        (_refused, "gave up after 3 attempts: judge down"),
        (lambda _message: "- a clause is missing", "reply unparseable"),
        (lambda _message: parted("OK", "fine", "OK"), "reply unparseable"),
        (lambda _message: parted("OK", "OK", "OK", order=(2, 1, 3)), "reply unparseable"),
    ],
    ids=["exhausted", "no-headers", "unparseable-part", "out-of-order"],
)
def test_a_group_judge_reply_without_verdicts_judges_each_unit_alone(judge, problem):
    units, reports, warnings, sent = judged_captions(judge)
    assert warnings == [
        f"group completeness check failed for units 1, 2, 3, judged one by one: {problem}"
    ]
    # Then each unit's own call, with the per-unit message, which answers OK.
    alone = [m for role, m in sent if role == "judge"]
    assert alone == [
        f"[Original]\n{u.source_text}\n\n[Translation]\n{u.translated_text}" for u in units
    ]
    assert [r.to_dict() for r in reports] == [ErrorReport(1).to_dict()]
    assert all(u.status == STATUS_VALIDATED for u in units)


# --------------------------------------------------------------------------
# prompt assembly


def test_translator_system_prompt_carries_context():
    d = TermDictionary()
    d.add("graph", "\u56fe")
    unit = section_unit(0, "A graph.")
    system = group_request((unit,), Summary("the story so far", 1), d, CFG).system_prompt
    assert "[Summary]\nthe story so far" in system
    assert '[Term Dictionary]\n"graph" - "\u56fe"' in system


def test_translator_system_prompt_placeholders_for_empty_context():
    request = group_request((section_unit(0, "text"),), Summary(), TermDictionary(), CFG)
    system = request.system_prompt
    assert "[Summary]\n(none yet)" in system
    assert "[Term Dictionary]\n(empty)" in system


def test_pipeline_translator_sees_only_the_terms_its_unit_holds(monkeypatch):
    monkeypatch.setattr(agents, "GROUP_CHARS", 0)  # each caption on its own
    systems = {}

    def translate(_match, request):
        systems[request.user_message] = request.system_prompt
        return request.user_message

    backend = RuleBackend(
        [
            (r"^\[Original\]", "OK"),
            (r"^\[Source\]\nFirst", '"graph" - "G"\n"tree" - "T"'),
            (r"^\[Source\]", "N/A"),
            (r"", translate),
        ]
    )
    units = [
        caption_unit(0, "First: a graph, a tree."),
        caption_unit(1, "A Graph alone."),
        caption_unit(2, "Neither."),
    ]
    result = run_pipeline(units, make_client(backend), CFG)
    assert systems["A Graph alone."].endswith('[Term Dictionary]\n"graph" - "G"')
    assert systems["Neither."].endswith("[Term Dictionary]\n(empty)")
    assert list(result.dictionary) == [("graph", "G"), ("tree", "T")]


def test_translate_unit_user_message_is_exactly_the_source():
    seen = {}

    def capture(m, request):
        seen["user"] = request.user_message
        seen["temperature"] = request.temperature
        return "done"

    u = section_unit(0, "\\section{A}\nVerbatim source.\n")
    translate_unit(
        (u,), Summary(), TermDictionary(), make_client(RuleBackend([(r".", capture)])), CFG
    )
    assert seen["user"] == u.source_text
    assert seen["temperature"] == CFG.translator_temperature


def test_retranslate_unit_shows_findings():
    seen = {}

    def capture(m, request):
        seen["user"] = request.user_message
        return "fixed"

    u = unit_with("src text", "broken text")
    findings = [Finding(0, DIM_PLACEHOLDER, "placeholder <X> lost")]
    retranslate_unit(u, findings, make_client(RuleBackend([(r".", capture)])), CFG)
    assert "[Original]\nsrc text" in seen["user"]
    assert "[Translation]\nbroken text" in seen["user"]
    assert f"- [{DIM_PLACEHOLDER}] placeholder <X> lost" in seen["user"]


def test_retranslate_unit_requires_findings():
    u = unit_with("s", "t")
    with pytest.raises(ValueError):
        retranslate_unit(u, [], make_client(EchoBackend()), CFG)


# --------------------------------------------------------------------------
# the loop


def test_pipeline_echo_identity_validates_first_round():
    units = [section_unit(0, "Some prose to translate.\n"), caption_unit(1, "A caption")]
    result = run_pipeline(units, make_client(EchoBackend()), CFG)
    assert len(result.reports) == 1
    assert all(u.status == STATUS_VALIDATED for u in units)
    assert units[0].translated_text == units[0].source_text
    assert result.reports[-1].ok


def test_pipeline_skips_non_translatable_units_without_calls():
    units = [
        TranslationUnit(
            id=0,
            granularity=GRAN_SECTION,
            source_text="preamble",
            needs_translation=False,
            role="preamble",
        )
    ]
    backend = EchoBackend()
    result = run_pipeline(units, make_client(backend), CFG)
    assert backend.calls == 0
    assert units[0].status == STATUS_VALIDATED
    assert result.reports == []


BROKEN = "ALPHA beta."
FIXED = "ALPHA <PLACEHOLDER_ENV_0> beta."


def repair_rules(corrector_reply):
    return RuleBackend(
        [
            (r"\[Error Reports\]", corrector_reply),
            (r"^\[Original\]", "OK"),
            (r"^\[Source\]", "N/A"),
            (r"^prev_summary:", "rolling digest"),
        ],
        default=BROKEN,
    )


def test_pipeline_repairs_flagged_unit_in_round_two():
    unit = section_unit(0, "Alpha <PLACEHOLDER_ENV_0> beta.")
    result = run_pipeline([unit], make_client(repair_rules(FIXED)), CFG)
    assert unit.status == STATUS_VALIDATED
    assert unit.translated_text == FIXED
    assert len(result.reports) == 2
    assert result.reports[0].findings[0].dimension == DIM_PLACEHOLDER
    assert result.reports[1].ok


def test_a_reply_gets_back_only_the_edge_whitespace_it_lacks():
    assert fit_edges("\nAlpha.\n\n", " Alpha. ") == "\nAlpha.\n\n"
    assert fit_edges("Alpha.\n\n", "Alpha.\n") == "Alpha.\n\n"
    assert fit_edges("Alpha.\n", "Alpha.\n\n") == "Alpha.\n\n"  # kept, edges and all
    assert fit_edges("  \n", "x") == "  \nx"


def _fit_edges_by_regex(source: str, reply: str) -> str:
    """The reference: :func:`fit_edges` with its edges found by one regex fullmatch."""
    lead, _, trail = re.fullmatch(r"(\s*)(.*?)(\s*)", source, re.DOTALL).groups()
    reply = reply if reply.startswith(lead) else lead + reply.lstrip()
    return reply if reply.endswith(trail) else reply.rstrip() + trail


EDGE_TEXT = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000ab."), max_size=12)


@settings(max_examples=500, deadline=None)
@given(EDGE_TEXT, EDGE_TEXT)
def test_fit_edges_finds_the_edges_the_regex_found(source, reply):
    assert fit_edges(source, reply) == _fit_edges_by_regex(source, reply)


def test_fit_edges_is_linear_in_an_interior_whitespace_run():
    source = "a" + " " * 200_000 + "b\n"
    started = time.perf_counter()
    assert fit_edges(source, "x") == "x\n"
    assert time.perf_counter() - started < 1.0  # the regex took minutes


def test_a_revision_trimmed_at_its_edges_keeps_the_units_edge_whitespace():
    unit = section_unit(0, "\nAlpha <PLACEHOLDER_ENV_0> beta.\n\n")
    run_pipeline([unit], make_client(repair_rules(FIXED)), CFG)
    assert unit.status == STATUS_VALIDATED
    assert unit.translated_text == f"\n{FIXED}\n\n"


@pytest.mark.parametrize("group_chars", [0, agents.GROUP_CHARS], ids=["alone", "grouped"])
def test_a_reply_trimmed_at_its_edges_keeps_the_next_heading_out_of_a_comment(
    monkeypatch, group_chars
):
    monkeypatch.setattr(agents, "GROUP_CHARS", group_chars)
    text = (
        "\\begin{document}\n\\section{A}\nAlpha text here.\n% a note\n"
        "\\section{B}\nBeta text.\n\\end{document}\n"
    )
    units = split_sections(text)
    backend = RuleBackend(
        [
            (r"^\[Original\]", "OK"),
            (r"^\[Source\]", "N/A"),
            (r"^prev_summary:", "digest"),
            (r"", lambda _match, request: request.user_message.rstrip("\n")),
        ]
    )
    run_pipeline(units, make_client(backend), CFG)
    assert all(u.status == STATUS_VALIDATED for u in units)
    assert "".join(u.output_text() for u in units) == text


def test_pipeline_gives_up_after_max_rounds_and_falls_back():
    unit = section_unit(0, "Alpha <PLACEHOLDER_ENV_0> beta.")
    cfg = RunConfig(max_validation_rounds=3)
    client = make_client(repair_rules(BROKEN))
    result = run_pipeline([unit], client, cfg)
    assert len(result.reports) == 3
    assert unit.status == STATUS_FAILED
    assert unit.output_text() == unit.source_text
    assert any("falling back to source text" in w for w in client.warnings)


def test_failed_revision_carries_findings_instead_of_rejudging():
    judged = Counter()

    def judge(_match, request):
        judged[request.user_message] += 1
        return "OK" if "Fixed." in request.user_message else "- a sentence is missing"

    def correct(_match, request):
        if "Repairable" in request.user_message:
            return "Fixed."
        raise LlmError("corrector down")

    backend = RuleBackend(
        [
            (r"\[Error Reports\]", correct),
            (r"^\[Original\]", judge),
            (r"^\[Source\]", "N/A"),
            (r"^prev_summary:", "digest"),
        ],
        default="Short.",
    )
    stuck = section_unit(0, "Long text. More text.")
    repaired = section_unit(1, "Repairable text. More.")
    cfg = RunConfig(max_validation_rounds=3)
    result = run_pipeline([stuck, repaired], make_client(backend), cfg)
    # Each distinct (original, translation) pair reaches the judge once: the
    # two sections', which gives no verdicts per part, then each one's.
    assert len(judged) == 4
    assert set(judged.values()) == {1}
    assert stuck.status == STATUS_FAILED
    assert repaired.status == STATUS_VALIDATED
    assert len(result.reports) == 3
    first = [f for f in result.reports[0].findings if f.unit_id == stuck.id]
    assert first and all(r.findings == first for r in result.reports[1:])


@pytest.mark.parametrize("bad", [{"max_validation_rounds": 0}, {"term_dict_cap": 0}])
def test_pipeline_rejects_an_invalid_config_before_any_call(bad):
    backend = EchoBackend()
    with pytest.raises(ConfigError):
        run_pipeline([section_unit(0, "text")], make_client(backend), RunConfig(**bad))
    assert backend.calls == 0


def test_pipeline_raises_only_when_every_unit_fails():
    unit = section_unit(0, "text")
    backend = RuleBackend([])  # no rules, no default: every call errors
    with pytest.raises(PipelineFailed):
        run_pipeline([unit], make_client(backend), CFG)
    assert unit.status == STATUS_FAILED


def test_pipeline_partial_translation_failure_is_tolerated():
    good = section_unit(0, "first section text")
    bad = section_unit(1, "XFAILX trigger")
    # only the bad unit's translator call fails (empty reply)
    rules_backend = RuleBackend(
        [
            (r"^\[Original\]", "OK"),
            (r"^\[Source\]", "N/A"),
            (r"^prev_summary:", "digest"),
            (r"XFAILX", ""),  # empty reply -> EmptyCompletion
        ],
        default="translated!",
    )
    client = make_client(rules_backend)
    result = run_pipeline([good, bad], client, CFG)
    assert good.status == STATUS_VALIDATED
    assert bad.status == STATUS_FAILED
    assert any("translation failed for unit 1" in w for w in client.warnings)
    assert len(result.reports) == 1


def test_pipeline_summary_updated_once_per_section_in_order(tmp_path):
    transcript = transcript_in(tmp_path)
    s1 = section_unit(0, "S1 source text")
    s2 = section_unit(1, "S2 source text")
    c1 = caption_unit(2, "C1 caption text")
    backend = RuleBackend(
        [
            (r"^\[Source\]", "N/A"),
            (r"new_section:\nS1", "sum1"),
            (r"new_section:\nS2", "sum2"),
            (r"^S1", "t1"),
            (r"^S2", "t2"),
            (r"^C1", "t3"),
        ]
    )
    cfg = RunConfig(completeness_check=False)
    with make_client(backend, transcript_path=transcript) as client:
        result = run_pipeline([s1, s2, c1], client, cfg)
    # The group of S1 and S2 matches no rule, so its sections go one by one:
    # that call, then a translation and a terminology call each, two summaries.
    assert backend.calls == 9
    assert [w.split(":")[0] for w in client.warnings] == [
        "group translation failed for units 0, 1, sent one by one"
    ]
    assert result.summary.text == "sum2"
    assert result.summary.version == 2
    entries = list(read_transcript(tmp_path))
    summary_calls = [e for e in entries if e["user"].startswith("prev_summary:")]
    assert len(summary_calls) == 2
    assert "new_section:\nS1 source text" in summary_calls[0]["user"]
    assert "prev_summary:\nsum1" in summary_calls[1]["user"]
    assert "new_section:\nS2 source text" in summary_calls[1]["user"]
    # captions enrich the dictionary but never the summary
    assert all("C1 caption text" not in e["user"] for e in summary_calls)


def test_pipeline_dictionary_grows_monotonically():
    s1 = section_unit(0, "S1")
    s2 = section_unit(1, "S2")
    backend = RuleBackend(
        [
            (r"^\[Source\]\nS1", '"graph" - "\u56fe"'),
            (r"^\[Source\]\nS2", '"graph" - "\u5716"\n"edge" - "\u8fb9"'),
            (r"^prev_summary:", "digest"),
        ],
        default="translated",
    )
    cfg = RunConfig(completeness_check=False)
    result = run_pipeline([s1, s2], make_client(backend), cfg)
    assert list(result.dictionary) == [
        ("graph", "\u56fe"),
        ("edge", "\u8fb9"),
    ]


def test_error_report_helpers():
    report = ErrorReport(2)
    report.findings.append(Finding(3, DIM_PLACEHOLDER, "x"))
    report.findings.append(Finding(1, DIM_COMMAND, "y"))
    report.findings.append(Finding(3, DIM_COMMAND, "z"))
    assert not report.ok
    payload = report.to_dict()
    assert payload["round"] == 2
    assert len(payload["findings"]) == 3


# --------------------------------------------------------------------------
# speculation: the next unit's translation sent before the terms are in


def pinning_backend(sent, early_sent=None):
    """Echo translations, except of the unlucky section, which fail every attempt.

    Terminology pins "calibration" whenever the source holds it, so the unit
    after the first one that does is translated early without the pair, and
    that early reply must be discarded.  Given *early_sent*, the first
    terminology reply waits until that early request has arrived, so that
    it reaches the backend before the request sent again with the pair.
    """

    def reply(match, request):
        sent.append(request)
        message = request.user_message
        if message == "A second calibration run." and early_sent is not None:
            early_sent.set()
        if message.startswith("[Source]\n"):
            if early_sent is not None:
                assert early_sent.wait(JOIN_TIMEOUT_S)
            return '"calibration" - "KALIB"' if "calibration" in message else "N/A"
        if message.startswith("prev_summary:\n"):
            return "digest of " + message.rsplit("new_section:\n", 1)[1][:12]
        if "unlucky" in message:
            raise TransientLlmError("translator down")
        return message

    return RuleBackend([(r"", reply)])


@pytest.fixture
def alone(monkeypatch):
    """Every unit goes to the translator alone, as a section too long to group does."""
    monkeypatch.setattr(agents, "GROUP_CHARS", 0)


def speculation_units():
    return [
        section_unit(0, "The calibration of the sensor."),
        caption_unit(1, "A second calibration run."),
        section_unit(2, "An unlucky section."),
        section_unit(3, "Closing words."),
        caption_unit(4, "Plain caption."),
    ]


def run_speculating(tmp_path, bound):
    sent, transcript = [], transcript_in(tmp_path / f"bound{bound}")
    backend = pinning_backend(sent, threading.Event() if bound > 1 else None)
    with make_client(backend, transcript, bound) as client:
        result = run_pipeline(speculation_units(), client, RunConfig(completeness_check=False))
    return result, sent, transcript.read_bytes(), client


def test_speculation_discards_a_miss_and_keeps_a_serial_runs_outputs(tmp_path, alone):
    serial, serial_sent, serial_lines, serial_client = run_speculating(tmp_path, 1)
    result, sent, lines, client = run_speculating(tmp_path, 4)
    assert lines == serial_lines
    assert client.ledger.summary() == serial_client.ledger.summary()
    assert [u.translated_text for u in result.units] == [u.translated_text for u in serial.units]
    assert client.warnings == serial_client.warnings
    # One program at every bound: only the calls discarded differ.
    counted, serially = ("hits", "misses"), serial_client.speculation
    assert [client.speculation[k] for k in counted] == [serially[k] for k in counted]
    assert {v for k, v in serially.items() if k.startswith("discarded_")} == {0}
    # Unit 1 was sent without the pair, then again with it; only the resend counts.
    unit1 = [r for r in sent if r.user_message == "A second calibration run."]
    assert [r.system_prompt.endswith('"calibration" - "KALIB"') for r in unit1] == [False, True]
    transcribed = list(read_transcript(tmp_path / "bound4"))
    assert sum(e["user"] == "A second calibration run." for e in transcribed) == 1
    # Unit 1's first request, and the update of the section that failed.
    assert client.speculation["misses"] == 2
    assert client.speculation["hits"] >= 1
    # The miss, the terms request chained behind it, and the summary of the
    # section that failed were dropped.
    assert client.speculation["discarded_calls"] == 3
    assert len(sent) == len(serial_sent) + 3
    assert client.ledger.calls == len(transcribed)


def test_speculation_keeps_the_summary_of_a_failed_section_unchanged(tmp_path, alone):
    serial, *_ = run_speculating(tmp_path, 1)
    result, sent, _, _ = run_speculating(tmp_path, 4)
    assert [u.status for u in result.units] == [u.status for u in serial.units]
    assert result.units[2].status == STATUS_FAILED
    assert result.summary == serial.summary == Summary("digest of Closing word", 2)
    # Its summary update ran alongside the failed translation, then was dropped.
    assert any("new_section:\nAn unlucky" in r.user_message for r in sent)


def test_speculation_takes_each_translated_sections_update_early(tmp_path, monkeypatch, alone):
    taken, reply = [], LlmClient.reply

    def recording(client, request):
        hits = client.speculation["hits"]
        try:
            return reply(client, request)
        finally:
            taken.append((request.user_message, client.speculation["hits"] > hits))

    monkeypatch.setattr(LlmClient, "reply", recording)
    for bound in (1, 4):
        taken.clear()
        _, sent, lines, client = run_speculating(tmp_path, bound)
        updates = [
            (message.rsplit("new_section:\n", 1)[1], hit)
            for message, hit in taken
            if message.startswith("prev_summary:\n")
        ]
        assert updates == [("The calibration of the sensor.", True), ("Closing words.", True)]
        # The failed section's update is sent early and never taken: a miss.
        # It runs only above a bound of 1, once, and is discarded unseen.
        failed = [r for r in sent if r.user_message.endswith("new_section:\nAn unlucky section.")]
        assert len(failed) == (0 if bound == 1 else 1)
        assert b"An unlucky" not in lines
        assert client.speculation["misses"] == 2
        # And unit 1's first translation, with the terms request chained behind it.
        assert client.speculation["discarded_calls"] == (0 if bound == 1 else 3)


def tail_units():
    return [
        section_unit(0, "An opening section."),
        caption_unit(1, "A graph of the tree."),
        caption_unit(2, "Another tree, pruned."),
        caption_unit(3, "Plain caption three."),
        caption_unit(4, "Plain caption four."),
        section_unit(5, "A second section."),
        caption_unit(6, "A caption after the second section."),
    ]


def test_speculation_sends_the_tail_units_ahead_with_their_terms(tmp_path, monkeypatch, alone):
    # Each step sends the next unit early; caption 1's terms then pin "tree",
    # so caption 2, sent at caption 1's step, is sent again.
    events, send_early, reply = [], LlmClient.send_early, LlmClient.reply

    def sending(client, request, then=None):
        events.append(("sent", request.user_message))
        send_early(client, request, then)

    def taking(client, request):
        hits = client.speculation["hits"]
        try:
            return reply(client, request)
        finally:
            kind = "hit" if client.speculation["hits"] > hits else "chat"
            events.append((kind, request.user_message))

    def answer(_match, request):
        sent.append(request)
        message = request.user_message
        if message.startswith("[Source]\n"):
            return '"tree" - "BAUM"' if message.startswith("[Source]\nA graph") else "N/A"
        return "digest" if message.startswith("prev_summary:\n") else message

    monkeypatch.setattr(LlmClient, "send_early", sending)
    monkeypatch.setattr(LlmClient, "reply", taking)
    runs = {}
    for bound in (1, 4):
        events.clear()
        sent, path = [], transcript_in(tmp_path / f"bound{bound}")
        with make_client(RuleBackend([(r"", answer)]), path, bound) as client:
            result = run_pipeline(tail_units(), client, RunConfig(completeness_check=False))
        runs[bound] = path.read_bytes(), dict(client.speculation), sent
        # Each caption's translation and terms request is taken early.
        taken = dict((message, kind) for kind, message in events if kind != "sent")
        for unit in result.units[1:5] + result.units[6:]:
            terms = f"[Source]\n{unit.source_text}\n\n[Translation]\n{unit.source_text}"
            assert taken[unit.source_text] == taken[terms] == "hit"
        # Nothing after the second section is sent before its summary update is taken.
        update = ("hit", "prev_summary:\ndigest\n\nnew_section:\nA second section.")
        assert events.index(update) < events.index(("sent", result.units[6].source_text))
    (serial, serially, _), (lines, counted, sent) = runs[1], runs[4]
    assert lines == serial
    assert [counted[k] for k in ("hits", "misses")] == [serially[k] for k in ("hits", "misses")]
    assert {v for k, v in serially.items() if k.startswith("discarded_")} == {0}
    # Caption 2 was sent without the pair, then with it; only the second is transcribed.
    second = [r.system_prompt for r in sent if r.user_message == "Another tree, pruned."]
    assert [system.endswith('"tree" - "BAUM"') for system in second] == [False, True]
    transcribed = list(read_transcript(tmp_path / "bound4"))
    assert [e["user"] for e in transcribed].count("Another tree, pruned.") == 1
    # Every unit goes alone, the captions before the last section and the one after it.
    translator = [e["user"] for e in transcribed if not e["user"].startswith(("[", "prev_summary:"))]
    assert translator == [u.source_text for u in result.units]
    assert not any(GROUP_FORMAT in r.system_prompt for r in sent)
    assert counted["misses"] == 1  # its translation and the terms call chained behind it
    assert counted["discarded_calls"] == 2 and len(sent) == len(transcribed) + 2


# --------------------------------------------------------------------------
# groups: the tail units sent to the translator together

HEADERS = [f"<PLACEHOLDER_CAP_{i}>" for i in range(8)]
OTHER_TOKENS = ["<PLACEHOLDER_ENV_3>", "<PLACEHOLDER_CAP_12>", "<PLACEHOLDER_FILE_0_begin>"]

part_text = st.lists(
    st.sampled_from(
        [
            "",
            "Plain prose.",
            "  indented, 50\\% of $x$",
            "```",
            *OTHER_TOKENS,  # other tokens alone on their line
            *(f"{token} starts this line" for token in OTHER_TOKENS + HEADERS[:2]),
            f"this line ends with {HEADERS[0]}",
        ]
    ),
    max_size=5,
).map("\n".join)
group_parts = st.tuples(st.permutations(HEADERS), st.lists(part_text, min_size=1, max_size=8)).map(
    lambda drawn: list(zip(*drawn))
)


@settings(max_examples=200, deadline=None)
@given(group_parts)
def test_group_parts_split_back_as_they_were_joined(parts):
    assert split_parts(join_parts(parts), [h for h, _ in parts]) == [text for _, text in parts]


@settings(max_examples=200, deadline=None)
@given(group_parts, st.data())
def test_a_group_reply_with_a_header_dropped_duplicated_or_moved_does_not_split(parts, data):
    headers = [h for h, _ in parts]
    lines = join_parts(parts).split("\n")
    at = [i for i, line in enumerate(lines) if line in headers]
    k = data.draw(st.integers(0, len(at) - 1))
    damage = data.draw(st.sampled_from(["drop", "duplicate", "reorder"][: 2 + (len(at) > 1)]))
    if damage == "drop":
        del lines[at[k]]
    elif damage == "duplicate":
        lines.insert(data.draw(st.integers(0, len(lines))), headers[k])
    else:
        j = data.draw(st.integers(0, len(at) - 1).filter(lambda j: j != k))
        lines[at[k]], lines[at[j]] = lines[at[j]], lines[at[k]]
    assert split_parts("\n".join(lines), headers) is None


@settings(max_examples=100, deadline=None)
@given(group_parts, st.sampled_from(["```\n", "```latex\n"]))
def test_a_group_reply_wrapped_in_a_fence_does_not_split(parts, fence):
    fenced = f"{fence}{join_parts(parts)}\n```"
    assert split_parts(fenced, [h for h, _ in parts]) is None


def test_a_group_reply_splits_without_blank_lines_or_with_leading_ones():
    headers = HEADERS[:2]
    assert split_parts(f"\n{headers[0]}\nOne.\n{headers[1]}\nTwo.\n", headers) == ["One.", "Two.\n"]


def test_tail_units_are_grouped_up_to_the_character_cap(monkeypatch):
    monkeypatch.setattr(agents, "GROUP_CHARS", 100)
    units = [
        caption_unit(3, "x" * 30),
        caption_unit(4, "x" * 30),
        caption_unit(5, "x" * 50),  # 110 characters with 3 and 4
        caption_unit(6, "x" * 150),  # more than GROUP_CHARS by itself
        *(caption_unit(uid, "y") for uid in range(7, 19)),  # 12 units, no cap on their number
        caption_unit(19, "<PLACEHOLDER_CAP_18>\nholds unit 18's header alone on a line"),
    ]
    assert [[u.id for u in group] for group in grouped(units)] == [
        [3, 4], [5], [6], list(range(7, 19)), [19]
    ]


def test_a_group_request_holds_its_parts_under_the_translator_prompt():
    dictionary = TermDictionary()
    for pair in [("graph", "G"), ("tree", "T"), ("absent", "A")]:
        dictionary.add(*pair)
    group = (caption_unit(1, "A graph."), caption_unit(2, "A tree."))
    request = group_request(group, Summary("so far", 1), dictionary, CFG)
    assert request.user_message == "<PLACEHOLDER_CAP_1>\nA graph.\n\n<PLACEHOLDER_CAP_2>\nA tree."
    assert request.system_prompt == (
        prompts.render_for("translator", CFG)
        + '\n\n[Summary]\nso far\n\n[Term Dictionary]\n"graph" - "G"\n"tree" - "T"'
        + GROUP_FORMAT
    )
    # A group of one is a unit: its source unchanged, and no [Parts] block.
    alone = group_request(group[:1], Summary("so far", 1), dictionary, CFG)
    assert alone.user_message == "A graph."
    assert GROUP_FORMAT not in alone.system_prompt
    assert alone.system_prompt == (
        prompts.render_for("translator", CFG)
        + '\n\n[Summary]\nso far\n\n[Term Dictionary]\n"graph" - "G"'
    )


def grouped_units():
    """A section, then ten captions: groups of eight and of two (:func:`eight_captions`)."""
    return [section_unit(0, "An opening section.")] + [
        caption_unit(uid, f"Caption number {uid}.") for uid in range(1, 11)
    ]


@pytest.fixture
def eight_captions(monkeypatch):
    """A character cap that the first eight of :func:`grouped_units`' captions fill."""
    monkeypatch.setattr(agents, "GROUP_CHARS", 8 * len("Caption number 1."))


def run_grouped(tmp_path, bound, fault, name):
    """Run :func:`grouped_units`; the first group's reply drops a header, or its call fails."""

    def answer(_match, request):
        message = request.user_message
        if message.startswith("[Source]\n"):
            return "N/A"
        if message.startswith("prev_summary:\n"):
            return "digest"
        if message.startswith("[Original]\n"):
            return "OK"
        if fault and message.startswith("<PLACEHOLDER_CAP_1>\n"):  # the first group's request
            if fault == "error":
                raise LlmError("group refused")
            return message.replace("<PLACEHOLDER_CAP_3>\n", "", 1)
        return message

    path = transcript_in(tmp_path / name)
    with make_client(RuleBackend([(r"", answer)]), path, bound) as client:
        result = run_pipeline(grouped_units(), client, CFG)
    transcribed = [call["user"] for call in read_transcript(path.parent)]
    return result, client.warnings, path.read_bytes(), transcribed


@pytest.mark.parametrize("fault", ["split", "error"])
def test_a_group_that_fails_goes_unit_by_unit_as_an_ungrouped_run(
    tmp_path, monkeypatch, eight_captions, fault
):
    runs = {bound: run_grouped(tmp_path, bound, fault, f"b{bound}") for bound in (1, 4)}
    monkeypatch.setattr(agents, "GROUP_CHARS", 0)
    ungrouped, ungrouped_warnings, _, _ = run_grouped(tmp_path, 1, fault, "ungrouped")
    result, warnings, lines, transcribed = runs[1]
    assert runs[4][2] == lines
    assert runs[4][1] == warnings
    [warning] = warnings
    assert warning.startswith("group translation failed for units 1, 2, 3, 4, 5, 6, 7, 8,")
    assert ungrouped_warnings == []
    outcome = [(u.id, u.translated_text, u.status) for u in result.units]
    assert outcome == [(u.id, u.translated_text, u.status) for u in ungrouped.units]
    assert all(u.status == STATUS_VALIDATED for u in result.units)
    # Only the first group's captions went one by one; the second group is one call.
    units = result.units
    first = [join_parts([(u.token, u.source_text) for u in units[1:9]])] if fault == "split" else []
    translator = [m for m in transcribed if not m.startswith(("[", "prev_summary:"))]
    assert translator == (
        [units[0].source_text]
        + first
        + [u.source_text for u in units[1:9]]
        + [join_parts([(u.token, u.source_text) for u in units[9:]])]
    )
    # The judge is asked once per group, the first one's captions together too.
    judged = [m for m in transcribed if m.startswith("[Original]\n")]
    groups = (units[1:9], units[9:])
    parts = [join_parts([(u.token, u.source_text) for u in group]) for group in groups]
    echoed = [f"[Original]\n{m}\n\n[Translation]\n{m}" for m in [units[0].source_text] + parts]
    assert judged == echoed


def test_a_group_makes_one_terms_call_on_its_whole_reply(tmp_path, eight_captions):
    for bound in (1, 4):
        result, warnings, _, transcribed = run_grouped(tmp_path, bound, None, f"b{bound}")
        assert warnings == []
        groups = [result.units[1:9], result.units[9:]]
        joined = [join_parts([(u.token, u.source_text) for u in group]) for group in groups]
        terms = [m for m in transcribed if m.startswith("[Source]\n")]
        source = result.units[0].source_text
        assert terms == [f"[Source]\n{m}\n\n[Translation]\n{m}" for m in [source] + joined]


def test_protected_environments_leave_the_steps_and_groups_of_an_unfiltered_run(tmp_path):
    # Every environment is protected: decided with no call, so no filter work
    # runs, and taking the decisions at the last section's step changes nothing.
    def units():
        return [
            section_unit(0, "An opening section."),
            caption_unit(1, "A caption before the last section."),
            section_unit(2, "The last section."),
            TranslationUnit(
                id=3, granularity=GRAN_ENVIRONMENT, source_text="\\begin{equation}x\\end{equation}",
                needs_translation=False, token="<PLACEHOLDER_ENV_0>", env_name="equation",
            ),
            *(caption_unit(uid, f"Caption number {uid}.") for uid in range(4, 14)),
        ]

    def run(bound, filtered):
        path = transcript_in(tmp_path / f"b{bound}-{filtered}")
        with make_client(EchoBackend(), path, bound) as client:
            todo = units()
            classify = classify_units(todo, protected_environments(), client, CFG) if filtered else ()
            result = run_pipeline(todo, client, CFG, classify)
        sent = read_transcript(path.parent)
        return classify, result, [(e["system"], e["user"]) for e in sent]

    for bound in (1, 4):
        classify, result, sent = run(bound, True)
        assert classify and not any(isinstance(item, Pending) for item in classify)
        assert [d.source for d in result.decisions] == [SOURCE_PREDEFINED]
        assert run(bound, False)[2] == sent
        # The units up to the last section in one group, then the ten captions in one.
        translator = [m for _, m in sent if not m.startswith(("[", "prev_summary:"))]
        assert translator == [
            join_parts([(header(u), u.source_text) for u in group])
            for group in (result.units[:3], result.units[4:])
        ]


# --------------------------------------------------------------------------
# section groups: consecutive sections sent to the translator together


def section_group_units():
    return [
        section_unit(0, "\\section{A}\nAlpha text.\n"),
        section_unit(1, "\\section{B}\nBeta text.\n\n"),
        section_unit(2, "\\section{C}\nGamma text.\n"),
        caption_unit(3, "A closing caption."),
    ]


def run_section_group(tmp_path, bound, translate):
    """Run :func:`section_group_units` with *translate* as the translator.

    Returns the result, the messages transcribed, the transcript and the client.
    """

    def answer(_match, request):
        message = request.user_message
        if message.startswith("[Source]\n"):
            return "N/A"
        if message.startswith("prev_summary:\n"):
            return "digest of " + message.rsplit("new_section:\n", 1)[1][:12]
        if message.startswith("[Original]\n"):
            return "OK"
        return translate(message)

    path = transcript_in(tmp_path / f"b{bound}")
    with make_client(RuleBackend([(r"", answer)]), path, bound) as client:
        result = run_pipeline(section_group_units(), client, CFG)
    transcribed = [call["user"] for call in read_transcript(path.parent)]
    return result, transcribed, path.read_bytes(), client


def test_three_short_sections_are_one_group_with_one_summary_and_one_terms_call(tmp_path):
    runs = {}
    for bound in (1, 4):
        result, transcribed, lines, client = run_section_group(
            tmp_path, bound, lambda message: message.replace(" text.", " TEXT.")
        )
        runs[bound] = lines, client.warnings, client.speculation["misses"]
        sections, caption = result.units[:3], result.units[3]
        headers = [header(u) for u in sections]
        assert headers == ["<PLACEHOLDER_PART_0>", "<PLACEHOLDER_PART_1>", "<PLACEHOLDER_PART_2>"]
        assert not any(TOKEN_RE.search(h) for h in headers)
        joined = join_parts([(header(u), u.source_text) for u in sections])
        translator = [m for m in transcribed if not m.startswith(("[", "prev_summary:"))]
        assert translator == [joined, caption.source_text]
        summaries = [m for m in transcribed if m.startswith("prev_summary:\n")]
        new_section = "".join(u.source_text for u in sections)
        assert summaries == [f"prev_summary:\n(empty)\n\nnew_section:\n{new_section}"]
        assert result.summary.version == 1
        terms = [m for m in transcribed if m.startswith("[Source]\n")]
        translated = joined.replace(" text.", " TEXT.")
        assert terms[0] == f"[Source]\n{joined}\n\n[Translation]\n{translated}"
        assert len(terms) == 2  # the group's, then the caption's
        # Each part splits back to its unit, edge whitespace and all.
        assert [u.translated_text for u in sections] == [
            u.source_text.replace(" text.", " TEXT.") for u in sections
        ]
        assert all(u.status == STATUS_VALIDATED for u in result.units)
    assert runs[4] == runs[1] == (runs[1][0], [], 0)


def test_a_section_group_reply_that_does_not_split_sends_each_section_alone(tmp_path):
    def garble(message):
        return message.replace("<PLACEHOLDER_PART_1>\n", "", 1)

    runs = {}
    for bound in (1, 4):
        result, transcribed, lines, client = run_section_group(tmp_path, bound, garble)
        runs[bound] = lines, client.warnings
        sections = result.units[:3]
        assert client.warnings == [
            "group translation failed for units 0, 1, 2, sent one by one: reply did not split"
        ]
        joined = join_parts([(header(u), u.source_text) for u in sections])
        translator = [m for m in transcribed if not m.startswith(("[", "prev_summary:"))]
        assert translator == [joined] + [u.source_text for u in result.units]
        # One summary update per section, in document order, each on the one before.
        summaries = [m for m in transcribed if m.startswith("prev_summary:\n")]
        assert [m.rsplit("new_section:\n", 1)[1] for m in summaries] == [
            u.source_text for u in sections
        ]
        assert [m.split("\n", 2)[1] for m in summaries] == [
            "(empty)", "digest of \\section{A}", "digest of \\section{B}"
        ]
        assert result.summary.version == 3
        assert [u.translated_text for u in result.units] == [u.source_text for u in result.units]
        assert all(u.status == STATUS_VALIDATED for u in result.units)
        # Only the last section alone sends the caption ahead, so the one miss
        # is the group's own summary update, sent as its translation started.
        assert client.speculation["misses"] == 1
        assert client.speculation["discarded_calls"] == (bound > 1)
    assert runs[4] == runs[1]


def test_a_section_holding_the_next_sections_header_on_a_line_is_not_grouped_with_it():
    units = [
        section_unit(0, "\\section{A}\n<PLACEHOLDER_PART_1>\nquotes the next header.\n"),
        section_unit(1, "\\section{B}\nBeta text.\n"),
        section_unit(2, "\\section{C}\nGamma text.\n"),
    ]
    assert [[u.id for u in group] for group in grouped(units)] == [[0], [1, 2]]


def grouped_by_split(units):
    """The groups of the whole-group check: a unit joins if the joined group splits back."""
    groups = []
    for unit in units:
        group = groups[-1] + (unit,) if groups else (unit,)
        if (
            len(group) > 1
            and sum(len(u.source_text) for u in group) <= agents.GROUP_CHARS
            and split_parts(group_source(group), list(map(header, group)))
            == [u.source_text for u in group]
        ):
            groups[-1] = group
        else:
            groups.append((unit,))
    return groups


# Source lines: plain text, blank lines, and the headers of the first units.
SOURCE_LINE = st.sampled_from(
    ["", "x", " words ", "\\section{Z}", "y\r"]
    + [f"<PLACEHOLDER_PART_{uid}>" for uid in range(4)]
    + [f"<PLACEHOLDER_CAP_{uid}>" for uid in range(4)]
)


@st.composite
def unit_lists(draw):
    """Up to eight sections and captions, ids from 0, whose sources may hold headers."""
    units = []
    for uid in range(draw(st.integers(0, 8))):
        text = "\n".join(draw(st.lists(SOURCE_LINE, min_size=1, max_size=4)))
        units.append((section_unit if draw(st.booleans()) else caption_unit)(uid, text))
    return units


@settings(max_examples=400, deadline=None)
@given(unit_lists(), st.sampled_from([0, 12, 40, agents.GROUP_CHARS]))
def test_grouped_checks_each_new_unit_as_the_whole_group_split_does(units, cap):
    with mock.patch.object(agents, "GROUP_CHARS", cap):
        assert [[u.id for u in group] for group in grouped(units)] == [
            [u.id for u in group] for group in grouped_by_split(units)
        ]


def test_grouped_reads_one_unit_past_each_group_it_gives():
    read = []

    def units():
        for uid in range(5):
            read.append(uid)
            yield caption_unit(uid, "x" * (60 if uid == 2 else 10))

    with mock.patch.object(agents, "GROUP_CHARS", 50):
        groups = grouped(units())
        assert [u.id for u in next(groups)] == [0, 1] and read == [0, 1, 2]
        assert [u.id for u in next(groups)] == [2] and read == [0, 1, 2, 3]
        assert [u.id for u in next(groups)] == [3, 4] and read == list(range(5))


# --------------------------------------------------------------------------
# what each agent sends


def test_each_agent_sends_its_template_and_sampling():
    cfg = RunConfig(
        target_language="fr", translator_temperature=0.9, judge_temperature=0.3,
        agent_max_new_tokens=123,
    )
    sent = []

    def capture(_match, request):
        sent.append((request.system_prompt, request.temperature, request.max_new_tokens))
        return "True"

    client = make_client(RuleBackend([(r"", capture)]))
    unit = unit_with("src", "dst")
    summary, terms = Summary("so far", 1), TermDictionary()
    translate_unit((unit,), summary, terms, client, cfg)
    retranslate_unit(unit, [Finding(0, DIM_COMPLETENESS, "gone")], client, cfg)
    extract_terms("src", "dst", terms, client, cfg)
    update_summary(summary, "section", client, cfg)
    check_round((unit,), client, cfg)
    box = TranslationUnit(id=1, granularity=GRAN_ENVIRONMENT, source_text="x", env_name="box")
    classify_unit(box, frozenset(), client, cfg)

    def template(name):
        return prompts.render(name, "French")

    assert sent == [
        (template("translator") + "\n\n[Summary]\nso far\n\n[Term Dictionary]\n(empty)", 0.9, 123),
        (template("corrector"), 0.9, 123),
        (template("terminology"), 0.3, 123),
        (template("summarizer"), 0.3, 123),
        (template("completeness"), 0.3, 123),
        (template("filter"), 0.0, 50),
    ]
