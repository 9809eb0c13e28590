"""Stress: a document's concurrent model calls leave a serial run's outputs.

A content-keyed rule backend sleeps a per-request jitter, so calls finish
out of order; the interpreter switches threads far more often than usual,
and the client keeps more calls in flight than the machine has cores.
report.json and the transcript must still match a bound-1 run byte for
byte, with the same ledger totals.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
import time

from latexmt import agents, cli, prompts
from latexmt.config import load_config
from latexmt.errors import TransientLlmError
from latexmt.llm import ChatRequest, LlmClient, read_transcript
from latexmt.placeholders import TOKEN_RE

from conftest import RuleBackend, write_files

JOIN_TIMEOUT_S = 60.0
FILTER_PROMPT = prompts.render("filter")
BUILD_CLIENT = cli._build_client


def _project(sections: int = 14) -> dict[str, str]:
    parts = ["\\documentclass{article}\n\\begin{document}\n"]
    for i in range(sections):
        parts.append(
            f"\\section{{Part {i}}}\n"
            f"The measurement number {i} depends on \\emph{{calibration}} and "
            f"temperature drift, see \\cite{{ref{i}}}.\n"
            f"\\begin{{remark}}\nRemark {i} explains why the baseline "
            f"procedure {'works' if i % 2 else 'fails'} in practice.\n\\end{{remark}}\n"
            f"\\begin{{equation}}\nx_{i} = y^{i}\n\\end{{equation}}\n"
            f"\\begin{{figure}}\n\\caption{{Spectrum {i} with \\textbf{{peaks}}}}\n"
            f"\\end{{figure}}\n"
            f"Closing sentence of part {i} about reproducibility.\n"
        )
    parts.append("\\end{document}\n")
    return {"main.tex": "".join(parts)}


def _hash(text: str) -> int:
    digest = hashlib.blake2b(text.encode("utf-8", "surrogateescape"), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


class Replies:
    """Replies computed from the request alone, after a per-request jitter.

    A share of requests fails its first attempt; a share of corrector
    requests fails every attempt.  Tracks the most calls seen in flight.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._seen: set[str] = set()
        self._in_flight = 0
        self.max_in_flight = 0

    def __call__(self, match, request) -> str:
        key = request.system_prompt[:60] + "\0" + request.user_message
        h = _hash(key)
        with self._lock:
            first = key not in self._seen
            self._seen.add(key)
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
        try:
            time.sleep((h >> 16) % 7 * 0.0005)
            if first and h % 9 == 0:
                raise TransientLlmError("first attempt refused")
            return self._reply(h, request)
        finally:
            with self._lock:
                self._in_flight -= 1

    @staticmethod
    def _reply(h: int, request) -> str:
        message = request.user_message
        if request.system_prompt == FILTER_PROMPT:
            return "Perhaps" if h % 3 == 0 else ("True" if h % 2 else "False")
        if message.startswith("[Source]\n"):
            words = sorted(set(re.findall(r"[a-z]{6,}", message.split("\n\n[Translation]")[0])))
            if h % 4 == 0 or not words:
                return "N/A"
            pairs = [f'"{w}" - "{w.upper()}"' for w in words[h % len(words):][:2]]
            return "\n".join(pairs + (["not a pair"] if h % 4 == 1 else []))
        if message.startswith("prev_summary:\n"):
            prev, _, new = message.partition("\n\nnew_section:\n")
            words = prev.removeprefix("prev_summary:\n").split() + new.split()[:6]
            return " ".join(words[-40:])
        if message.startswith("[Original]\n"):
            original, _, rest = message.removeprefix("[Original]\n").partition("\n\n[Translation]\n")
            if "\n\n[Error Reports]\n" in rest:
                if h % 8 == 0:
                    raise TransientLlmError("corrector down")
                return original
            if h % 5 == 0:
                return "- a clause is missing"
            return "unclear" if h % 3 == 0 else "OK"
        m = TOKEN_RE.search(message)
        if m is not None and h % 6 == 0:
            return message[: m.start()] + message[m.end() :]
        return message


def _translate(project, out, bound: int, monkeypatch):
    built = []
    replies = Replies()

    def build(config, logs_dir):
        client = BUILD_CLIENT(config, logs_dir)
        client.backend = RuleBackend([(r"", replies)])
        client.max_in_flight = bound
        built.append(client)
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
    worker.join(JOIN_TIMEOUT_S)
    assert not worker.is_alive(), "translate_project did not finish in time"
    assert outcomes and outcomes[0].ok, outcomes
    root = outcomes[0].out_dir
    return (
        (root / "report.json").read_bytes(),
        (root / "logs" / "llm_transcript.jsonl").read_bytes(),
        built[0].ledger.summary(),
        replies.max_in_flight,
    )


def test_concurrent_document_matches_serial_run(tmp_path, monkeypatch):
    project = write_files(tmp_path / "paper", _project())
    bound = (os.cpu_count() or 1) + 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serial = _translate(project, tmp_path / "serial", 1, monkeypatch)
        runs = [
            _translate(project, tmp_path / f"concurrent{i}", bound, monkeypatch)
            for i in range(3)
        ]
    finally:
        sys.setswitchinterval(interval)
    report, transcript, ledger, in_flight = serial
    assert in_flight == 1
    assert b"revision failed" in report and b"unparseable" in report
    for run in runs:
        assert run[0] == report
        assert run[1] == transcript
        assert run[2] == ledger
        assert 1 < run[3] <= bound


# --------------------------------------------------------------------------
# speculation: discarded calls leave no trace outside logs/speculation.json

SPECULATION_PROJECT = {
    "main.tex": (
        "\\documentclass{article}\n\\begin{document}\n"
        "\\section{One}\nThe calibration of the sensor.\n"
        "\\section{Two}\nA second calibration run.\n"
        "\\section{Three}\nAn unlucky section.\n"
        "\\section{Four}\nClosing words.\n"
        "\\begin{figure}\n\\caption{A plain caption.}\n\\end{figure}\n"
        "\\end{document}\n"
    )
}


def _pinning(match, request) -> str:
    """Terms pin "calibration", which sections One and Two hold, so Two's
    early translation misses; section Three never translates."""
    message = request.user_message
    if request.system_prompt == FILTER_PROMPT:
        return "True"
    if message.startswith("[Source]\n"):
        return '"calibration" - "KALIB"' if "calibration" in message else "N/A"
    if message.startswith("prev_summary:\n"):
        return "digest of " + message.rsplit("new_section:\n", 1)[1][:12]
    if message.startswith("[Original]\n"):
        return "OK"
    if "unlucky" in message:
        raise TransientLlmError("translator down")
    return message


def _translate_with(project, out, bound, monkeypatch, reply):
    sent = []

    def recording(match, request):
        sent.append(request)
        return reply(match, request)

    def build(config, logs_dir):
        client = BUILD_CLIENT(config, logs_dir)
        client.backend = RuleBackend([(r"", recording)])
        client.max_in_flight = bound
        return client

    monkeypatch.setattr(cli, "_build_client", build)
    config = load_config(
        None,
        {"out_dir": str(out), "compile_enabled": False, "mock": "echo", "backoff_base": 0.0},
    )
    return cli.translate_project(project, config), sent


def test_discarded_calls_reach_only_the_speculation_sidecar(tmp_path, monkeypatch):
    monkeypatch.setattr(agents, "GROUP_CHARS", 0)  # sections alone, as long ones go
    project = write_files(tmp_path / "paper", SPECULATION_PROJECT)
    runs = {}
    for bound in (1, 4):
        out = tmp_path / f"b{bound}"
        outcome, sent = _translate_with(project, out, bound, monkeypatch, _pinning)
        assert outcome.ok, outcome.error
        logs = outcome.out_dir / "logs"
        runs[bound] = (
            (outcome.out_dir / "report.json").read_bytes(),
            (logs / "llm_transcript.jsonl").read_bytes(),
            json.loads((logs / "speculation.json").read_text()),
            sent,
        )
    serial, speculated = runs[1], runs[4]
    assert speculated[:2] == serial[:2]
    # One program at every bound: only the calls discarded differ.
    counted = ("hits", "misses")
    assert [speculated[2][k] for k in counted] == [serial[2][k] for k in counted]
    assert {v for k, v in serial[2].items() if k.startswith("discarded_")} == {0}
    # Two's first translation request, and the update of Three, which failed.
    assert speculated[2]["misses"] == 2
    report = json.loads(serial[0])
    assert report["summary"]["version"] == 3  # the failed section's update is not kept
    assert report["usage"]["calls"] == sum(line[:1] == b"{" for line in serial[1].splitlines())
    # Section Two's request transcribed is the one sent again with the pair.
    two = "\\section{Two}\nA second calibration run.\n"
    calls = [c for c in read_transcript(tmp_path / "b4" / "paper" / "logs") if c["user"] == two]
    assert len(calls) == 1 and calls[0]["system"].endswith('"calibration" - "KALIB"')
    resent = [r.system_prompt for r in speculated[3] if r.user_message == two][-1]
    assert calls[0]["system"] == resent
    # Every call sent beyond the serial run's was discarded (a discarded job
    # still runs, so its calls are counted whenever it was discarded).
    assert len(speculated[3]) - len(serial[3]) == speculated[2]["discarded_calls"]


def _garbling(match, request) -> str:
    """:func:`_pinning`, except that a group reply holding "garbled" loses its second header."""
    message = request.user_message
    if "garbled" in message and message.startswith("<PLACEHOLDER_PART_"):
        return re.sub(r"\n\n<PLACEHOLDER_PART_\d+>\n", "\n\n", message, count=1)
    return _pinning(match, request)


def test_section_groups_give_the_same_report_and_transcript_at_bounds_1_and_4(
    tmp_path, monkeypatch
):
    # Ten sections: a group of eight, whose terms pin "calibration", then a
    # group of two, sent early without the pair, whose reply does not split.
    monkeypatch.setattr(agents, "GROUP_CHARS", 8 * 60)  # eight sections of 60 characters
    words = {1: "The calibration of it.", 8: "A second calibration run.", 9: "A garbled one."}
    body = "".join(
        f"\\section{{Part {i}}}\n{words.get(i, f'Plain words of part {i}.')}\n"
        "\\begin{remark}\nA remark on it.\n\\end{remark}\n"
        for i in range(10)
    )
    project = write_files(
        tmp_path / "paper",
        {
            "main.tex": "\\documentclass{article}\n\\begin{document}\n" + body
            + "\\begin{figure}\n\\caption{A plain caption.}\n\\end{figure}\n\\end{document}\n"
        },
    )
    runs = {}
    for bound in (1, 4):
        outcome, _ = _translate_with(project, tmp_path / f"b{bound}", bound, monkeypatch, _garbling)
        assert outcome.ok, outcome.error
        logs = outcome.out_dir / "logs"
        runs[bound] = [
            (outcome.out_dir / "report.json").read_bytes(),
            (logs / "llm_transcript.jsonl").read_bytes(),
            json.loads((logs / "speculation.json").read_text())["misses"],
        ]
    assert runs[4] == runs[1]
    report = json.loads(runs[1][0])
    sections = [u["id"] for u in report["units"] if u["role"] == "body" and u["needs_translation"]]
    assert report["warnings"] == [
        f"group translation failed for units {sections[8]}, {sections[9]}, "
        "sent one by one: reply did not split"
    ]
    assert {u["status"] for u in report["units"]} == {"VALIDATED"}
    assert report["summary"]["version"] == 3  # the first group, then parts 8 and 9 alone
    assert runs[1][2] >= 1  # the second group, sent before the pair was added


def _revising(match, request) -> str:
    """Replies for :data:`REVISED_PROJECT`, after a per-request jitter.

    The translator drops ``\\emph``.  The corrector adds a sentence that
    keeps the damage, then restores the original, except that it always
    keeps a "stuck" unit's damage and fails on a "flagged" one, which the
    judge flags.
    """
    message = request.user_message
    time.sleep(_hash(message) % 5 * 0.002)
    if request.system_prompt == FILTER_PROMPT:
        return "True"
    if message.startswith("[Source]\n"):
        return "N/A"
    if message.startswith("prev_summary:\n"):
        return "digest"
    if not message.startswith("[Original]\n"):
        return message.replace("\\emph{damaged}", "damaged")
    original, _, rest = message.removeprefix("[Original]\n").partition("\n\n[Translation]\n")
    translation, _, errors = rest.partition("\n\n[Error Reports]\n")
    if not errors:
        return "- a clause is missing" if "flagged" in original else "OK"
    if "flagged" in original:
        raise TransientLlmError("corrector down")
    if "Again." in translation and "stuck" not in original:
        return original
    return translation + " Again."


REVISED_PROJECT = {
    "main.tex": (
        "\\documentclass{article}\n\\begin{document}\n"
        "\\section{One}\nThe \\emph{damaged} first part.\n"
        "\\section{Two}\nThe \\emph{damaged} and stuck second part.\n"
        "\\section{Three}\nThe flagged third part.\n"
        "\\end{document}\n"
    )
}


def test_units_revised_in_several_rounds_give_the_same_outputs_at_bounds_1_and_4(
    tmp_path, monkeypatch
):
    project = write_files(tmp_path / "paper", REVISED_PROJECT)
    runs = {}
    for bound in (1, 4):
        outcome, _ = _translate_with(project, tmp_path / f"b{bound}", bound, monkeypatch, _revising)
        assert outcome.ok, outcome.error
        logs = outcome.out_dir / "logs"
        runs[bound] = [
            (outcome.out_dir / "report.json").read_bytes(),
            (logs / "llm_transcript.jsonl").read_bytes(),
        ]
    assert runs[4] == runs[1]
    report = json.loads(runs[1][0])
    one, two, three = [u["id"] for u in report["units"] if u["needs_translation"]]
    assert report["rounds_used"] == 3
    flagged = [sorted({f["unit_id"] for f in r["findings"]}) for r in report["validation"]]
    assert flagged == [[one, two, three], [one, two, three], [two, three]]
    statuses = [u["status"] for u in report["units"] if u["needs_translation"]]
    assert statuses == ["VALIDATED", "FAILED", "FAILED"]
    assert [w.split(":")[0] for w in report["warnings"]] == [
        f"unit {two} still failing after 3 validation rounds; falling back to source text",
        f"revision failed for unit {three}",
        f"revision failed for unit {three}",
        f"unit {three} still failing after 3 validation rounds; falling back to source text",
    ]
    # The transcript takes the group's round 1 (its judge call, on Three
    # alone, the one unit the mechanical checks pass), then the units'
    # validations one after another; Three's failed revisions made no call.
    revised = [
        word
        for call in read_transcript(tmp_path / "b4" / "paper" / "logs")
        if call["user"].startswith("[Original]\n")
        for word in ("first", "second", "third")
        if f"{word} part" in call["user"].partition("\n\n")[0]
    ]
    assert revised == ["third"] + ["first"] * 3 + ["second"] * 2


def _delaying(judge_delay):
    """:func:`_pinning` after 2 ms, or after *judge_delay* seconds for a judge call."""

    def reply(match, request):
        judge = request.user_message.startswith("[Original]\n")
        time.sleep(judge_delay if judge else 0.002)
        return _pinning(match, request)

    return reply


def test_backend_calls_do_not_depend_on_timing(tmp_path, monkeypatch):
    # With slow judges, the two pool threads still judge sections Zero and One
    # when section Three's early translation is sent, so it waits in the
    # queue until after it is found to miss; with fast ones it starts at once.
    # It must run either way, and so must the terms call chained behind it.
    monkeypatch.setattr(agents, "GROUP_CHARS", 0)  # sections alone, as long ones go
    project = write_files(
        tmp_path / "paper",
        {
            "main.tex": "\\documentclass{article}\n\\begin{document}\n"
            "\\section{Zero}\nA plain opening.\n\\section{One}\nA plain middle.\n"
            "\\section{Two}\nThe calibration of the sensor.\n"
            "\\section{Three}\nA second calibration run.\n\\end{document}\n"
        },
    )
    runs = []
    for bound, delay in ((1, 0.002), (2, 0.002), (2, 0.1), (2, 0.2)):
        out = tmp_path / f"run{len(runs)}"
        outcome, sent = _translate_with(project, out, bound, monkeypatch, _delaying(delay))
        assert outcome.ok, outcome.error
        runs.append((len(sent), (outcome.out_dir / "logs" / "speculation.json").read_bytes()))
    serial, *speculated = runs
    assert speculated == [speculated[0]] * 3
    counted = json.loads(speculated[0][1])
    # The miss made its call, and the terms call chained behind it.
    assert counted["misses"] == 1 and counted["discarded_calls"] == 2
    assert speculated[0][0] == serial[0] + counted["discarded_calls"]


# --------------------------------------------------------------------------
# the group judge: one call for a group's round 1

_PART_HEADER_RE = re.compile(r"^<PLACEHOLDER_PART_\d+>\n", re.M)


def _judging(salt: str):
    """Replies after a per-request jitter that *salt* varies.

    The translator drops "lossy "; the corrector gives back the original.
    The judge flags a translation that differs from its original; on a
    group it answers per part, or only ``OK``, except that a group holding
    "garbled" gets findings with no headers.
    """

    def reply(match, request) -> str:
        message = request.user_message
        time.sleep(_hash(salt + message) % 4 * 0.001)
        if message.startswith("[Source]\n"):
            return "N/A"
        if message.startswith("prev_summary:\n"):
            return "digest"
        if not message.startswith("[Original]\n"):
            return message.replace("lossy ", "")
        original, _, rest = message.removeprefix("[Original]\n").partition("\n\n[Translation]\n")
        translation, _, errors = rest.partition("\n\n[Error Reports]\n")
        if errors:
            return original
        if agents.JUDGE_FORMAT not in request.system_prompt:
            return "OK" if original == translation else "- a clause is missing"
        if "garbled" in original:
            return "- a clause is missing"
        pairs = zip(_PART_HEADER_RE.split(original)[1:], _PART_HEADER_RE.split(translation)[1:])
        verdicts = ["OK" if o.strip() == t.strip() else "- a clause is missing" for o, t in pairs]
        if set(verdicts) == {"OK"}:
            return "OK"
        headers = _PART_HEADER_RE.findall(original)
        return "\n".join(f"{head}{verdict}" for head, verdict in zip(headers, verdicts))

    return reply


# Two of _judged_project's sections, the last of which also holds "\\end{document}\n".
JUDGED_CAP = 2 * 44 + 15


def _judged_project() -> dict[str, str]:
    """Six sections of 44 characters, two to a group under :data:`JUDGED_CAP`:
    a group the judge clears, one whose verdicts flag one part, and one whose
    reply has no headers."""
    bodies = {
        "A1": "Plain words", "A2": "More plain words",
        "B1": "A lossy part", "B2": "A plain part",
        "C1": "A garbled verdict", "C2": "Another lossy part",
    }
    sections = "".join(f"\\section{{{t}}}\n{b:.<30}\n" for t, b in bodies.items())
    return {
        "main.tex": "\\documentclass{article}\n\\begin{document}\n" + sections + "\\end{document}\n"
    }


def test_group_judging_gives_the_same_outputs_at_bounds_1_and_8(tmp_path, monkeypatch):
    monkeypatch.setattr(agents, "GROUP_CHARS", JUDGED_CAP)
    project = write_files(tmp_path / "paper", _judged_project())
    runs = {}
    for bound in (1, 8):
        out = tmp_path / f"b{bound}"
        outcome, _ = _translate_with(project, out, bound, monkeypatch, _judging(""))
        assert outcome.ok, outcome.error
        logs = outcome.out_dir / "logs"
        runs[bound] = [
            (outcome.out_dir / "report.json").read_bytes(),
            (logs / "llm_transcript.jsonl").read_bytes(),
        ]
    assert runs[8] == runs[1]
    report = json.loads(runs[1][0])
    _, _, b1, _, c1, c2 = [u["id"] for u in report["units"] if u["needs_translation"]]
    assert report["warnings"] == [
        f"group completeness check failed for units {c1}, {c2}, judged one by one: "
        "reply unparseable"
    ]
    flagged = [sorted({f["unit_id"] for f in r["findings"]}) for r in report["validation"]]
    assert flagged == [[b1, c2], []]
    assert {u["status"] for u in report["units"]} == {"VALIDATED"}
    # In unit order: each group's judge call, then its units' own: B1 once
    # revised; C1 and C2 alone, then C2 once revised.
    judged = [
        "group" if c["system"].endswith(agents.JUDGE_FORMAT) else "unit"
        for c in read_transcript(tmp_path / "b1" / "paper" / "logs")
        if c["user"].startswith("[Original]\n") and "[Error Reports]" not in c["user"]
    ]
    assert judged == ["group", "group", "unit", "group", "unit", "unit", "unit"]


def test_backend_calls_with_group_judging_do_not_depend_on_timing(tmp_path, monkeypatch):
    monkeypatch.setattr(agents, "GROUP_CHARS", JUDGED_CAP)
    project = write_files(tmp_path / "paper", _judged_project())
    counts = set()
    for salt in "abcdef":  # six documents, each with its own order of replies
        outcome, sent = _translate_with(project, tmp_path / salt, 2, monkeypatch, _judging(salt))
        assert outcome.ok, outcome.error
        counts.add(len(sent))
    assert len(counts) == 1


# --------------------------------------------------------------------------
# tail decisions taken as the tail's groups are read


def _filtering(salt: str):
    """Replies after a per-request jitter that *salt* varies; an echoing translator.

    The filter cannot parse its reply on a "garbled" environment, which is
    then kept as source, and says ``True`` to any other.
    """

    def reply(match, request) -> str:
        message = request.user_message
        time.sleep(_hash(salt + message) % 4 * 0.001)
        if request.system_prompt == FILTER_PROMPT:
            return "Maybe" if "garbled" in message else "True"
        if message.startswith("[Source]\n"):
            return "N/A"
        if message.startswith("prev_summary:\n"):
            return "digest"
        if message.startswith("[Original]\n"):
            return "OK"
        return message

    return reply


# Two of _remarks_project's remarks, 48 or 49 characters each, fit in a group.
REMARKS_CAP = 100


def _remarks_project() -> dict[str, str]:
    """Two sections, then eight remarks after the last one, the third and sixth garbled."""
    remarks = "".join(
        f"\\begin{{remark}}\nRemark {i} is {'garbled' if i in (3, 6) else 'readable'}.\n"
        "\\end{remark}\n"
        for i in range(1, 9)
    )
    return {
        "main.tex": "\\documentclass{article}\n\\begin{document}\n"
        "\\section{One}\nThe first section.\n\\section{Two}\nThe second section.\n"
        + remarks
        + "\\end{document}\n"
    }


def test_tail_decisions_taken_group_by_group_give_the_same_outputs_at_bounds_1_and_8(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(agents, "GROUP_CHARS", REMARKS_CAP)
    project = write_files(tmp_path / "paper", _remarks_project())
    runs = {}
    for bound in (1, 8):
        out = tmp_path / f"b{bound}"
        outcome, sent = _translate_with(project, out, bound, monkeypatch, _filtering(""))
        assert outcome.ok, outcome.error
        logs = outcome.out_dir / "logs"
        runs[bound] = [
            (outcome.out_dir / "report.json").read_bytes(),
            (logs / "llm_transcript.jsonl").read_bytes(),
        ]
    assert runs[8] == runs[1]
    report = json.loads(runs[1][0])
    assert [d["translate"] for d in report["filter"]] == [i not in (3, 6) for i in range(1, 9)]
    assert len(report["warnings"]) == 2
    # After the sections' group, the six remarks kept go in three groups of two.
    translated = [
        c["user"] for c in read_transcript(tmp_path / "b1" / "paper" / "logs")
        if c["system"] != FILTER_PROMPT and c["user"].startswith(("\\begin", "<PLACEHOLDER_ENV_"))
    ]
    assert [re.findall(r"Remark (\d)", m) for m in translated] == [["1", "2"], ["4", "5"], ["7", "8"]]


def test_backend_calls_with_tail_decisions_taken_group_by_group_do_not_depend_on_timing(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(agents, "GROUP_CHARS", REMARKS_CAP)
    project = write_files(tmp_path / "paper", _remarks_project())
    counts = set()
    for salt in "abcdef":  # six documents, each with its own order of replies
        outcome, sent = _translate_with(project, tmp_path / salt, 2, monkeypatch, _filtering(salt))
        assert outcome.ok, outcome.error
        counts.add(len(sent))
    assert len(counts) == 1


def test_a_miss_still_running_at_close_makes_its_chained_call():
    # The stale request outlasts the rest of the run; its chained request
    # is submitted only once it returns, after close() has begun.
    stale, chained = ChatRequest("sys", "stale"), ChatRequest("sys", "terms of stale")
    for delay in (0.0, 0.1, 0.2):
        backend = RuleBackend([(r"^stale$", lambda _m, _r: time.sleep(delay) or "old")], "ok")
        with LlmClient(backend, max_in_flight=2) as client:
            client.send_early(stale, lambda _text: chained)
            assert client.reply(ChatRequest("sys", "fresh")) == "ok"
        assert backend.calls == 3, delay
        assert client.ledger.calls == 1 and client.speculation["misses"] == 1
        assert client.speculation["discarded_calls"] == 2
        spent = sum(len(r.system_prompt + r.user_message) // 4 for r in (stale, chained))
        assert client.speculation["discarded_prompt_tokens"] == spent


def _slow_stale(delay):
    """:func:`_pinning`, sleeping *delay* seconds on section Two's translation without the pair."""

    def reply(match, request):
        stale = "KALIB" not in request.system_prompt
        if stale and request.user_message.startswith("\\section{Two}"):
            time.sleep(delay)
        return _pinning(match, request)

    return reply


def test_a_translation_miss_running_at_close_is_counted_whatever_its_delay(tmp_path, monkeypatch):
    monkeypatch.setattr(agents, "GROUP_CHARS", 0)  # sections alone, as long ones go
    project = write_files(tmp_path / "paper", SPECULATION_PROJECT)
    runs = []
    for bound, delay in ((1, 0.0), (2, 0.0), (2, 0.1), (2, 0.2)):
        out = tmp_path / f"run{len(runs)}"
        outcome, sent = _translate_with(project, out, bound, monkeypatch, _slow_stale(delay))
        assert outcome.ok, outcome.error
        counted = json.loads((outcome.out_dir / "logs" / "speculation.json").read_text())
        runs.append((len(sent), counted))
    (serial, _), *speculated = runs
    assert speculated == [speculated[0]] * 3
    calls, counted = speculated[0]
    # Two's first translation and the terms call chained behind it, and the
    # update of Three, which failed.
    assert counted["misses"] == 2 and counted["discarded_calls"] == 3
    assert calls == serial + counted["discarded_calls"]


def test_no_thread_outlives_translate_project(tmp_path, monkeypatch):
    project = write_files(tmp_path / "paper", _project(4))

    def failing(match, request):
        reply = _pinning(match, request)
        if reply == request.user_message:  # a translation
            raise TransientLlmError("translator down")
        return reply

    for reply, ok in ((_pinning, True), (failing, False)):
        threads = threading.active_count()
        outcome, _ = _translate_with(project, tmp_path / f"out{ok}", 4, monkeypatch, reply)
        assert outcome.ok is ok, outcome.error
        assert threading.active_count() == threads
