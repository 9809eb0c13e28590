"""Stage overlap: filter calls and validation jobs run inside the translation loop.

A content-keyed rule backend records the order in which requests arrive.
No assertion reads a clock: above a bound of 1 a run may hold one kind of
request until another has arrived (the filter calls until a translation,
the last translation until a judge or corrector call), which only a loop
that sent the second without waiting for the first can satisfy; any other
stalls for a generous timeout, and the order it records then fails.
"""

from __future__ import annotations

import json
import threading

import pytest

from latexmt import agents, cli, prompts
from latexmt.config import load_config
from latexmt.errors import TransientLlmError

from conftest import RuleBackend, write_files

JOIN_TIMEOUT_S = 30.0
FILTER_PROMPT = prompts.render("filter")
BUILD_CLIENT = cli._build_client
LAST_TRANSLATION = "A figure caption."

SECTIONS_AND_ENVIRONMENTS = {
    "main.tex": (
        "\\documentclass{article}\n\\begin{document}\n"
        "\\section{One}\nThe first section has prose.\n"
        "\\begin{notebox}\nA note with plain prose.\n\\end{notebox}\n"
        "\\section{Two}\nThe second section has prose.\n"
        "\\begin{equation}\nx = y\n\\end{equation}\n"
        "\\begin{figure}\n\\caption{" + LAST_TRANSLATION + "}\n\\end{figure}\n"
        "\\section{Three}\nThe third section has prose.\n"
        "\\begin{remark}\nx_1 = x_2\n\\end{remark}\n"
        "\\end{document}\n"
    )
}


class Recorder:
    """Replies from the request alone; records ``(role, user message)`` on arrival.

    Filter: ``True`` for prose, and a reply that does not parse for
    "garbled" text.  Translator: echo, except a message with
    "unlucky", which fails every attempt, and one with "damaged", whose
    ``\\emph`` is dropped.  Judge: a finding for "flagged" text, else OK.
    Corrector: the original, except that it keeps a "stuck" translation
    and fails every attempt on "flagged" text.  Given *holds*,
    ``{(role, text): until}``, a request of that role whose message holds
    the text is recorded only once a request of role *until* has been.
    """

    def __init__(self, holds: dict[tuple[str, str], str] | None = None):
        self.arrivals: list[tuple[str, str]] = []
        self._lock = threading.Lock()
        self._holds = holds or {}
        self._arrived = {until: threading.Event() for until in self._holds.values()}

    def __call__(self, match, request) -> str:
        message = request.user_message
        role = _role(request)
        for (held, text), until in self._holds.items():
            if role == held and text in message:
                self._arrived[until].wait(JOIN_TIMEOUT_S)
        with self._lock:
            self.arrivals.append((role, message))
        if role in self._arrived:
            self._arrived[role].set()
        if role == "filter":
            return "Maybe" if "garbled" in message else "True" if "prose" in message else "False"
        if role == "terminology":
            return "N/A"
        if role == "summarizer":
            return "digest"
        if role == "completeness":
            return "- a clause is missing" if "flagged" in message else "OK"
        if role == "corrector":
            if "flagged" in message:
                raise TransientLlmError("corrector down")
            original, _, rest = message.partition("\n\n[Translation]\n")
            if "stuck" in message:
                return rest.partition("\n\n[Error Reports]\n")[0]
            return original.removeprefix("[Original]\n")
        if "unlucky" in message:
            raise TransientLlmError("translator down")
        return message.replace("\\emph", "") if "damaged" in message else message


def _role(request) -> str:
    message = request.user_message
    if request.system_prompt == FILTER_PROMPT:
        return "filter"
    if message.startswith("[Source]\n"):
        return "terminology"
    if message.startswith("prev_summary:\n"):
        return "summarizer"
    if message.startswith("[Original]\n"):
        return "corrector" if "\n\n[Error Reports]\n" in message else "completeness"
    return "translator"


def _translate(project, out, bound, monkeypatch, recorder):
    def build(config, logs_dir):
        client = BUILD_CLIENT(config, logs_dir)
        client.backend = RuleBackend([(r"", recorder)])
        client.max_in_flight = bound
        return client

    monkeypatch.setattr(cli, "_build_client", build)
    config = load_config(
        None,
        {"out_dir": str(out), "compile_enabled": False, "mock": "echo", "backoff_base": 0.0},
    )
    outcomes = []
    worker = threading.Thread(
        target=lambda: outcomes.append(cli.translate_project(project, config))
    )
    worker.start()
    worker.join(2 * JOIN_TIMEOUT_S)
    assert not worker.is_alive(), "translate_project did not finish in time"
    root = outcomes[0].out_dir
    logs = root / "logs"
    return outcomes[0], [
        (root / "report.json").read_bytes(),
        (logs / "llm_transcript.jsonl").read_bytes(),
    ]


def _bound_1_and_8(tmp_path, monkeypatch, files, holds=None):
    """Both runs' arrivals, *holds* only above a bound of 1; asserts their outputs are equal."""
    project = write_files(tmp_path / "paper", files)
    runs = {}
    for bound in (1, 8):
        recorder = Recorder(holds if bound > 1 else None)
        out = tmp_path / f"b{bound}"
        outcome, outputs = _translate(project, out, bound, monkeypatch, recorder)
        runs[bound] = recorder.arrivals, outputs, outcome
    assert runs[8][1] == runs[1][1]
    return runs[1][0], runs[8][0], runs[8][2]


def _first(arrivals, role):
    return next(i for i, (r, _) in enumerate(arrivals) if r == role)


def _last(arrivals, role):
    return max(i for i, (r, _) in enumerate(arrivals) if r == role)


def test_filter_and_judge_calls_overlap_the_translations(tmp_path, monkeypatch):
    # Sections One, Two and Three form one group; the notebox and the caption another.
    holds = {("filter", ""): "translator", ("translator", LAST_TRANSLATION): "completeness"}
    serial, overlapped, outcome = _bound_1_and_8(
        tmp_path, monkeypatch, SECTIONS_AND_ENVIRONMENTS, holds
    )
    assert outcome.ok, outcome.error
    assert _last(overlapped, "filter") > _first(overlapped, "translator")
    assert _first(overlapped, "completeness") < _last(overlapped, "translator")
    assert sorted(overlapped) == sorted(serial)


def test_a_bound_of_1_runs_the_serial_program(tmp_path, monkeypatch):
    serial, _, outcome = _bound_1_and_8(tmp_path, monkeypatch, SECTIONS_AND_ENVIRONMENTS)
    # Sections One, Two and Three form one group: its translation and summary
    # update, the filter calls its step waits on once translated (notebox,
    # figure and remark; equation is protected), and its terms call; then the
    # notebox and the caption in one group, then each group's judge.
    assert [role for role, _ in serial] == (
        ["translator", "summarizer"]
        + ["filter"] * 3
        + ["terminology", "translator", "terminology"]
        + ["completeness"] * 2
    )
    filtered = [message for role, message in serial if role == "filter"]
    assert [m.split("}", 1)[0] for m in filtered] == [
        "\\begin{notebox", "\\begin{figure", "\\begin{remark"
    ]
    report = json.loads((outcome.out_dir / "report.json").read_text())
    assert [d["translate"] for d in report["filter"]] == [True, False, False, False]


def test_without_sections_the_body_translates_before_the_decisions(tmp_path, monkeypatch):
    # The body that holds the environments is a lone section group: it is
    # translated, then the decisions are taken, then the tail is grouped.
    files = {
        "main.tex": (
            "\\documentclass{article}\n\\begin{document}\n"
            "\\begin{notebox}\nA note with plain prose.\n\\end{notebox}\n"
            "\\begin{figure}\n\\caption{A caption.}\n\\end{figure}\n"
            "\\end{document}\n"
        )
    }
    serial, overlapped, outcome = _bound_1_and_8(tmp_path, monkeypatch, files)
    assert outcome.ok, outcome.error
    assert _first(serial, "translator") < _first(serial, "filter")
    for arrivals in (serial, overlapped):
        assert _last(arrivals, "filter") < _last(arrivals, "translator")


def test_filter_calls_overlap_a_lone_last_sections_translation(tmp_path, monkeypatch):
    files = {
        "main.tex": (
            "\\documentclass{article}\n\\begin{document}\n"
            "\\section{One}\nThe only section has prose.\n"
            "\\begin{notebox}\nA note with plain prose.\n\\end{notebox}\n"
            "\\begin{figure}\n\\caption{" + LAST_TRANSLATION + "}\n\\end{figure}\n"
            "\\end{document}\n"
        )
    }
    holds = {("filter", ""): "translator"}
    serial, overlapped, outcome = _bound_1_and_8(tmp_path, monkeypatch, files, holds)
    assert outcome.ok, outcome.error
    assert _first(overlapped, "filter") > _first(overlapped, "translator")
    assert _last(overlapped, "filter") < _last(overlapped, "translator")
    assert sorted(overlapped) == sorted(serial)


def _environment(name, text):
    return f"\\begin{{{name}}}\n{text}\n\\end{{{name}}}\n"


# After its one section, three environments of about 50 characters.
LAZY_TAIL = {
    "main.tex": (
        "\\documentclass{article}\n\\begin{document}\n"
        "\\section{One}\nThe only section has prose.\n"
        + _environment("notebox", "An unlucky note with prose.")
        + _environment("notebox", "A second note with prose.")
        + _environment("remark", "A garbled remark, prose.")
        + "\\end{document}\n"
    )
}


def test_a_later_environment_is_filtered_after_the_first_tail_group_is_translated(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(agents, "GROUP_CHARS", 60)  # each environment in a group of its own
    serial, overlapped, outcome = _bound_1_and_8(tmp_path, monkeypatch, LAZY_TAIL)
    assert outcome.ok, outcome.error
    # Once the section is translated, the filter decides the first note and
    # the second, which ends the first note's group.  The remark is decided
    # only when the group after that one is asked for.
    words = ("unlucky", "second", "garbled", "only")  # what tells each unit's text apart
    assert [(role, next(w for w in words if w in m)) for role, m in serial] == [
        ("translator", "only"),
        ("summarizer", "only"),
        ("filter", "unlucky"),
        ("filter", "second"),
        ("terminology", "only"),
        *[("translator", "unlucky")] * 3,  # every attempt fails
        ("filter", "garbled"),  # unparseable, and not sent again
        ("translator", "second"),
        ("terminology", "second"),
        ("completeness", "only"),
        ("completeness", "second"),
    ]
    assert sorted(overlapped) == sorted(serial)
    # The remark's warning follows the first note's: program order, not arrival.
    ids = [u["id"] for u in outcome.report["units"] if u["granularity"] == "ENVIRONMENT"]
    warnings = outcome.report["warnings"]
    assert [w.split(":")[0] for w in warnings] == [
        f"translation failed for unit {ids[0]}",
        f"filter reply unparseable for unit {ids[2]} (remark)",
    ]
    assert warnings[1].endswith(": 'Maybe'; defaulting to preserve")
    assert [d["translate"] for d in outcome.report["filter"]] == [True, True, False]


def test_without_environments_no_filter_call_is_made(tmp_path, monkeypatch):
    files = {
        "main.tex": (
            "\\documentclass{article}\n\\begin{document}\n"
            "\\section{One}\nThe first section has prose.\n"
            "\\section{Two}\nThe second section has prose.\n"
            "\\end{document}\n"
        )
    }
    serial, overlapped, outcome = _bound_1_and_8(tmp_path, monkeypatch, files)
    assert outcome.ok, outcome.error
    assert outcome.report["filter"] == []
    assert all(role != "filter" for role, _ in serial + overlapped)


@pytest.mark.parametrize("unlucky", ["One", "Three"])
def test_a_unit_whose_translation_fails_is_not_judged(tmp_path, monkeypatch, unlucky):
    heading = f"\\section{{{unlucky}}}\n"
    text = SECTIONS_AND_ENVIRONMENTS["main.tex"].replace(heading, heading + "An unlucky line.\n")
    files = {"main.tex": text}
    serial, overlapped, outcome = _bound_1_and_8(tmp_path, monkeypatch, files)
    assert outcome.ok, outcome.error
    for arrivals in (serial, overlapped):
        judged = [m for role, m in arrivals if role == "completeness"]  # one call per group
        assert len(judged) == 2 and not any("unlucky" in m for m in judged)
    statuses = [u["status"] for u in outcome.report["units"] if u["needs_translation"]]
    assert statuses.count("FAILED") == 1


# --------------------------------------------------------------------------
# validation: each unit's revisions start when its own judge returns

REVISED = {
    "main.tex": (
        "\\documentclass{article}\n\\begin{document}\n"
        "\\section{One}\nThe \\emph{damaged} first section.\n"
        "\\section{Two}\nThe \\emph{damaged} and stuck second section.\n"
        "\\section{Three}\nThe flagged third section.\n"
        "\\section{Four}\nThe plain fourth section.\n"
        "\\begin{figure}\n\\caption{" + LAST_TRANSLATION + "}\n\\end{figure}\n"
        "\\end{document}\n"
    )
}


def _unit_id(report, word):
    """The id of the section headed *word*: sections are the first units translated."""
    sections = [u for u in report["units"] if u["needs_translation"]]
    return sections[["One", "Two", "Three", "Four"].index(word)]["id"]


def test_an_early_revision_starts_before_the_last_translation(tmp_path, monkeypatch):
    serial, overlapped, outcome = _bound_1_and_8(
        tmp_path, monkeypatch, REVISED, {("translator", LAST_TRANSLATION): "corrector"}
    )
    assert outcome.ok, outcome.error
    corrected = [m for role, m in overlapped if role == "corrector"]
    assert "damaged} first" in corrected[0].split("[Translation]")[0]
    assert _first(overlapped, "corrector") < _last(overlapped, "translator")
    assert _first(serial, "corrector") > _last(serial, "translator")
    assert sorted(overlapped) == sorted(serial)


def test_a_unit_at_the_round_cap_reports_as_in_a_serial_run(tmp_path, monkeypatch):
    serial, overlapped, outcome = _bound_1_and_8(tmp_path, monkeypatch, REVISED)
    assert outcome.ok, outcome.error
    report = outcome.report
    one, two, three, four = (_unit_id(report, word) for word in ("One", "Two", "Three", "Four"))
    assert report["rounds_used"] == 3
    flagged = [sorted({f["unit_id"] for f in r["findings"]}) for r in report["validation"]]
    assert flagged == [[one, two, three], [two, three], [two, three]]
    statuses = {u["id"]: u["status"] for u in report["units"]}
    assert (statuses[one], statuses[two], statuses[three]) == ("VALIDATED", "FAILED", "FAILED")
    # The judge's reply on Three and Four has no parts, so each is judged
    # alone; then unit by unit: each unit's revision warnings, then its cap's.
    assert [w.split(":")[0] for w in report["warnings"]] == [
        f"group completeness check failed for units {three}, {four}, judged one by one",
        f"unit {two} still failing after 3 validation rounds; falling back to source text",
        f"revision failed for unit {three}",
        f"revision failed for unit {three}",
        f"unit {three} still failing after 3 validation rounds; falling back to source text",
    ]
    # The serial program: the group's judge call, then each unit's validation
    # in turn.  One is revised, then judged; Two is revised twice, never
    # judged; Three is judged, then two revisions fail three attempts each;
    # Four and the caption are judged.
    roles = [role for role, _ in serial if role in ("completeness", "corrector")]
    assert roles == (
        ["completeness", "corrector", "completeness"] + ["corrector"] * 2
        + ["completeness"] + ["corrector"] * 6 + ["completeness"] * 2
    )


def test_a_failed_revision_carries_its_findings_and_is_not_judged(tmp_path, monkeypatch):
    serial, overlapped, outcome = _bound_1_and_8(tmp_path, monkeypatch, REVISED)
    assert outcome.ok, outcome.error
    three = _unit_id(outcome.report, "Three")
    for arrivals in (serial, overlapped):
        judged = [m for role, m in arrivals if role == "completeness" and "flagged" in m]
        assert len(judged) == 2  # round 1 only: the group's call, then its own
        revised = [m for role, m in arrivals if role == "corrector" and "flagged" in m]
        assert len(revised) == 2 * 3  # two revisions, every attempt refused
    findings = [
        [f["description"] for f in r["findings"] if f["unit_id"] == three]
        for r in outcome.report["validation"]
    ]
    assert findings == [["a clause is missing"]] * 3


def test_two_flagged_units_of_a_group_revise_at_once(tmp_path, monkeypatch):
    # One, Two and Three form one group; the mechanical checks flag One and
    # Two, and the group's judge call clears Three.  Above a bound of 1, One's
    # revision is held until another has arrived, which only Two's can be.
    files = {
        "main.tex": (
            "\\documentclass{article}\n\\begin{document}\n"
            "\\section{One}\nThe \\emph{damaged} first section.\n"
            "\\section{Two}\nThe \\emph{damaged} second section.\n"
            "\\section{Three}\nThe plain third section.\n"
            "\\end{document}\n"
        )
    }
    holds = {("corrector", "first"): "corrector"}
    serial, overlapped, outcome = _bound_1_and_8(tmp_path, monkeypatch, files, holds)
    assert outcome.ok, outcome.error
    assert {u["status"] for u in outcome.report["units"] if u["needs_translation"]} == {"VALIDATED"}
    for arrivals, order in ((serial, ["first", "second"]), (overlapped, ["second", "first"])):
        corrected = [m.split("[Translation]")[0] for role, m in arrivals if role == "corrector"]
        assert [next(w for w in order if w in m) for m in corrected] == order
    assert sorted(overlapped) == sorted(serial)
