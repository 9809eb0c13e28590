"""End-to-end acceptance checks.

Each test prints one ``[acceptance] <n> <label>: PASS|FAIL|SKIP`` line so a
plain ``pytest -s`` run doubles as a checklist.  The checks are offline by
design: deterministic mock backends stand in for a live model, and the
compile smoke test skips (loudly) when no TeX engine is installed.
"""

import json
import random
import shutil
import time

import pytest

from latexmt import cli
from latexmt.agents import (
    DIM_COMMAND,
    DIM_PLACEHOLDER,
    TermDictionary,
    extract_terms,
    run_pipeline,
)
from latexmt.config import RunConfig
from latexmt.evaluator import FCScoreParams, LogStats, fc_score, parse_log
from latexmt.generator import compile_document, reassemble, unmerge
from latexmt.llm import (
    TRANSCRIPT_NAME,
    EchoBackend,
    LlmClient,
    UsageLedger,
    read_transcript,
)
from latexmt.parser import (
    GRAN_CAPTION,
    GRAN_ENVIRONMENT,
    GRAN_SECTION,
    STATUS_FAILED,
    STATUS_VALIDATED,
    MergedDocument,
    ProjectSource,
    TranslationUnit,
    enumerate_units,
    parse_project,
)
from latexmt.placeholders import (
    CAP_TOKEN_RE,
    ENV_TOKEN_RE,
    FILE_TOKEN_RE,
    PlaceholderMap,
    TOKEN_RE,
    env_token,
)
from latexmt.unit_filter import (
    SOURCE_DEFAULT,
    SOURCE_LLM,
    SOURCE_PREDEFINED,
    classify_unit,
    protected_environments,
)

from conftest import CORPUS, Counted, RuleBackend, tree_snapshot, write_files
from test_evaluator import read_log


@pytest.fixture
def announce(capsys):
    def _print(label, status):
        with capsys.disabled():
            print(f"\n[acceptance] {label}: {status}")

    return _print


def quiet_client(backend, transcript_path=None):
    return LlmClient(
        backend, UsageLedger(), sleep=lambda _s: None, transcript_path=transcript_path
    )


# --------------------------------------------------------------------------
# 1. round-trip identity


def test_01_round_trip_identity(corpus_root, tmp_path, announce):
    status = "FAIL"
    try:
        out = tmp_path / "out"
        argv = ["translate", "--mock", "echo", "--from", "en", "--to", "en",
                "--no-compile", "--out", str(out)]
        for name in sorted(CORPUS):
            argv += ["--project", str(corpus_root / name)]
        started = time.monotonic()
        code = cli.main(argv)
        elapsed = time.monotonic() - started
        assert code == 0
        assert elapsed < 10.0, f"echo corpus run took {elapsed:.1f}s"
        assert len(CORPUS) >= 10
        for name in sorted(CORPUS):
            for rel in CORPUS[name]:
                source = (corpus_root / name / rel).read_bytes()
                result = (out / name / "tex" / rel).read_bytes()
                assert result == source, f"{name}/{rel} changed"
        status = "PASS"
    finally:
        announce("1 round-trip identity", status)


# --------------------------------------------------------------------------
# 2. placeholder conservation


def test_02_placeholder_conservation(corpus_root, tmp_path, announce):
    status = "FAIL"
    try:
        for name in sorted(CORPUS):
            parsed = parse_project(ProjectSource.from_dir(corpus_root / name))
            env_tokens = ENV_TOKEN_RE.findall(parsed.text)
            assert len(env_tokens) == len(parsed.env_map), name
            assert len(set(env_tokens)) == len(env_tokens), name
            cap_carrier = parsed.text + "".join(
                e.original_text for e in parsed.env_map
            )
            cap_tokens = CAP_TOKEN_RE.findall(cap_carrier)
            assert len(cap_tokens) == len(parsed.cap_map), name
            assert len(set(cap_tokens)) == len(cap_tokens), name
            file_tokens = FILE_TOKEN_RE.findall(parsed.text)
            assert len(file_tokens) == 2 * len(parsed.merged.boundaries), name

            units = enumerate_units(parsed)
            text = reassemble(units, parsed.cap_map, parsed.env_map, parsed.merged)
            assert not ENV_TOKEN_RE.search(text), name
            assert not CAP_TOKEN_RE.search(text), name
            written = unmerge(text, parsed.merged, tmp_path / name)
            for path in written:
                assert not TOKEN_RE.search(path.read_text(encoding="utf-8")), path
        status = "PASS"
    finally:
        announce("2 placeholder conservation", status)


# --------------------------------------------------------------------------
# 3. score formula


def test_03_score_formula(announce):
    status = "FAIL"
    try:
        assert fc_score(0, 0, True) == 100.0
        assert fc_score(2, 3, False) == 74.0
        assert fc_score(15, 0, False) == 0.0
        rng = random.Random(20240817)
        for _ in range(1000):
            lo = rng.uniform(-100.0, 100.0)
            hi = lo + rng.uniform(0.0, 200.0)
            params = FCScoreParams(
                s0=rng.uniform(-50.0, 150.0),
                alpha=rng.uniform(0.0, 30.0),
                beta=rng.uniform(0.0, 30.0),
                gamma=rng.uniform(0.0, 30.0),
                s_min=lo,
                s_max=hi,
            )
            e = rng.randrange(0, 25)
            w = rng.randrange(0, 25)
            c = rng.random() < 0.5
            score = fc_score(e, w, c, params)
            assert params.s_min <= score <= params.s_max
            assert fc_score(e + 1, w, c, params) <= score
            assert fc_score(e, w + 1, c, params) <= score
            assert fc_score(e, w, True, params) >= fc_score(e, w, False, params)
        status = "PASS"
    finally:
        announce("3 score formula", status)


# --------------------------------------------------------------------------
# 4. log parsing


def test_04_log_parsing(announce):
    status = "FAIL"
    try:
        assert parse_log(read_log("clean.log")) == LogStats(0, 0, True)
        assert parse_log(read_log("one_error_two_warnings.log")) == LogStats(1, 2, True)
        assert parse_log(read_log("truncated_garbage.log")) == LogStats(1, 0, False)
        status = "PASS"
    finally:
        announce("4 log parsing", status)


# --------------------------------------------------------------------------
# 5. validator mechanics


FAULT_SOURCE = "Keep \\textbf{this} near " + env_token(0) + " always."
FAULT_BROKEN = "Keep this near \\\u5de6 always."  # all three faults at once
FAULT_FIXED = "Garde \\textbf{ceci} pr\u00e8s de " + env_token(0) + " toujours."


def repairing_backend(corrector_reply):
    return RuleBackend(
        [
            (r"\[Error Reports\]", corrector_reply),
            (r"^\[Original\]", "OK"),
            (r"^\[Source\]", "N/A"),
            (r"^prev_summary:", "digest"),
        ],
        default=FAULT_BROKEN,
    )


def test_05_validator_mechanics(announce):
    status = "FAIL"
    try:
        # (a) every injected fault is caught in round 1
        unit = TranslationUnit(id=0, granularity=GRAN_SECTION, source_text=FAULT_SOURCE)
        judged = []
        backend = RuleBackend(
            [
                (r"^\[Original\]", lambda _m, request: judged.append(request) or "OK"),
                (r"^\[Source\]", "N/A"),
                (r"^prev_summary:", "digest"),
            ],
            default=FAULT_BROKEN,
        )
        cfg = RunConfig(completeness_check=False, max_validation_rounds=1)
        [report] = run_pipeline([unit], quiet_client(backend), cfg).reports
        assert unit.translated_text == FAULT_BROKEN
        assert judged == []  # neither judge nor corrector consulted
        dims = [f.dimension for f in report.findings]
        texts = " | ".join(f.description for f in report.findings)
        assert DIM_PLACEHOLDER in dims
        assert env_token(0) in texts  # dropped placeholder
        assert "\\textbf" in texts  # dropped command
        assert "\\\u5de6" in texts  # invented command
        assert dims.count(DIM_COMMAND) == 2

        # (b) a repairing mock converges with empty findings by round 2
        unit = TranslationUnit(id=0, granularity=GRAN_SECTION, source_text=FAULT_SOURCE)
        result = run_pipeline(
            [unit], quiet_client(repairing_backend(FAULT_FIXED)), RunConfig()
        )
        assert len(result.reports) == 2
        assert unit.status == STATUS_VALIDATED
        assert unit.translated_text == FAULT_FIXED
        assert result.reports[-1].ok

        # (c) a never-repairing mock stops at exactly the round cap
        unit = TranslationUnit(id=0, granularity=GRAN_SECTION, source_text=FAULT_SOURCE)
        cfg = RunConfig(max_validation_rounds=3)
        result = run_pipeline(
            [unit], quiet_client(repairing_backend(FAULT_BROKEN)), cfg
        )
        assert len(result.reports) == cfg.max_validation_rounds
        assert unit.status == STATUS_FAILED
        env_map = PlaceholderMap()
        env_map.add(env_token(0), "\\begin{equation}x\\end{equation}")
        one_file = MergedDocument(FAULT_SOURCE, "main.tex")
        text = reassemble([unit], PlaceholderMap(), env_map, one_file)
        assert "Keep \\textbf{this}" in text  # source fallback, not the broken text
        assert "\\\u5de6" not in text
        status = "PASS"
    finally:
        announce("5 validator mechanics", status)


# --------------------------------------------------------------------------
# 6. filter contract


def test_06_filter_contract(announce):
    status = "FAIL"
    try:
        protected = protected_environments()

        def env_unit(name):
            return TranslationUnit(
                id=0,
                granularity=GRAN_ENVIRONMENT,
                source_text=f"\\begin{{{name}}}body\\end{{{name}}}",
                needs_translation=False,
                token=env_token(0),
                env_name=name,
                role="env",
            )

        for name in sorted(protected):
            backend = Counted(EchoBackend())
            decision = classify_unit(
                env_unit(name), protected, quiet_client(backend), RunConfig()
            )
            assert decision.source == SOURCE_PREDEFINED
            assert decision.translate is False
            assert backend.calls == 0, name

        decision = classify_unit(
            env_unit("notebox"),
            protected,
            quiet_client(RuleBackend([(r".", "True")])),
            RunConfig(),
        )
        assert (decision.translate, decision.source) == (True, SOURCE_LLM)

        decision = classify_unit(
            env_unit("notebox"),
            protected,
            quiet_client(RuleBackend([(r".", "False")])),
            RunConfig(),
        )
        assert (decision.translate, decision.source) == (False, SOURCE_LLM)

        client = quiet_client(RuleBackend([(r".", "perhaps")]))
        decision = classify_unit(env_unit("notebox"), protected, client, RunConfig())
        assert (decision.translate, decision.source) == (False, SOURCE_DEFAULT)
        assert client.warnings, "garbage replies must leave a warning behind"
        status = "PASS"
    finally:
        announce("6 filter contract", status)


# --------------------------------------------------------------------------
# 7. terminology and summary bookkeeping


def test_07_bookkeeping(tmp_path, announce):
    status = "FAIL"
    try:
        # first occurrence wins; N/A adds nothing; size is monotone
        d = TermDictionary()
        cfg = RunConfig()
        sizes = []
        replies = [
            '"graph" - "\u56fe"',
            "N/A",
            '"graph" - "\u5716"\n"edge" - "\u8fb9"',
            "not a term line at all",
        ]
        for reply in replies:
            extract_terms("s", "t", d, quiet_client(RuleBackend([], default=reply)), cfg)
            sizes.append(len(d))
        assert sizes == sorted(sizes)
        assert list(d) == [("graph", "\u56fe"), ("edge", "\u8fb9")]
        assert dict(d)["graph"] == "\u56fe"

        # summary updated once per section group, over its sections in document
        # order; a group reply that does not split updates it once per section
        def bookkeeping(group_rules, name):
            (tmp_path / name).mkdir()
            transcript = tmp_path / name / TRANSCRIPT_NAME
            units = [
                TranslationUnit(id=0, granularity=GRAN_SECTION, source_text="S1 text\n"),
                TranslationUnit(id=1, granularity=GRAN_SECTION, source_text="S2 text\n"),
                TranslationUnit(
                    id=2,
                    granularity=GRAN_CAPTION,
                    source_text="C1 text",
                    token="<PLACEHOLDER_CAP_0>",
                    role="caption",
                ),
            ]
            backend = RuleBackend(
                group_rules
                + [
                    (r"^\[Source\]", "N/A"),
                    (r"new_section:\nS1", "sum1"),
                    (r"new_section:\nS2", "sum2"),
                    (r"^S1", "t1"),
                    (r"^S2", "t2"),
                    (r"^C1", "t3"),
                ]
            )
            with quiet_client(backend, transcript_path=transcript) as client:
                result = run_pipeline(units, client, RunConfig(completeness_check=False))
            entries = list(read_transcript(tmp_path / name))
            summaries = [e["user"] for e in entries if e["user"].startswith("prev_summary:")]
            return backend.calls, result, summaries, client.warnings

        group_reply = "<PLACEHOLDER_PART_0>\nt1\n\n<PLACEHOLDER_PART_1>\nt2\n"
        calls, result, summaries, warnings = bookkeeping(
            [(r"^<PLACEHOLDER_PART_0>", group_reply)], "grouped"
        )
        assert calls == 5  # the group's translation, summary and terms; the caption's two
        assert (result.summary.version, result.summary.text) == (1, "sum1")
        assert summaries == ["prev_summary:\n(empty)\n\nnew_section:\nS1 text\nS2 text\n"]
        assert [u.translated_text for u in result.units] == ["t1\n", "t2\n", "t3"]
        assert warnings == []

        # The group request matches no rule, so its sections go one by one.
        calls, result, summaries, warnings = bookkeeping([], "alone")
        assert calls == 9
        assert [w.split(":")[0] for w in warnings] == [
            "group translation failed for units 0, 1, sent one by one"
        ]
        assert (result.summary.version, result.summary.text) == (2, "sum2")
        assert len(summaries) == 2
        assert "new_section:\nS1 text" in summaries[0]
        assert "prev_summary:\nsum1" in summaries[1]
        assert "new_section:\nS2 text" in summaries[1]
        status = "PASS"
    finally:
        announce("7 terminology and summary bookkeeping", status)


# --------------------------------------------------------------------------
# 8. compile smoke


GOOD_DOC = "\\documentclass{article}\n\\begin{document}\nHello.\n\\end{document}\n"
BROKEN_DOC = (
    "\\documentclass{article}\n\\begin{document}\n\\badmacro{x}\n\\end{document}\n"
)


def _compile_smoke(root, text, engine):
    """compile_document over *root*'s tex/, pdf/ and logs/, *text* as main.tex.

    Returns the record, the score and the seconds the passes took.
    """
    dirs = [root / name for name in ("tex", "pdf", "logs")]
    for d in dirs:
        d.mkdir(parents=True)
    (dirs[0] / "main.tex").write_text(text)
    config = RunConfig(engine=engine, compile_timeout=60)
    record, score = compile_document(*dirs, "main.tex", config, [])
    meta = json.loads((dirs[2] / "compile_meta.json").read_text())
    return record, score, meta["elapsed_seconds"]


def test_08_compile_smoke(tmp_path, announce):
    engine = next(
        (e for e in ("pdflatex", "xelatex") if shutil.which(e)), None
    )
    if engine is None:
        announce("8 compile smoke", "SKIP (no TeX engine on PATH)")
        pytest.skip("no TeX engine on PATH; compile smoke not run")
    status = "FAIL"
    try:
        record, score, elapsed = _compile_smoke(tmp_path / "good", GOOD_DOC, engine)
        assert record["success"] is True
        assert score == fc_score(record["error_count"], record["warning_count"], True) == 100.0
        assert elapsed < 120.0
        assert (tmp_path / "good" / "pdf" / "main.pdf").exists()

        record, score, _ = _compile_smoke(tmp_path / "broken", BROKEN_DOC, engine)
        assert record["success"] is False
        assert record["error_count"] >= 1
        assert score == fc_score(record["error_count"], record["warning_count"], False)
        assert score < 100.0
        status = "PASS"
    finally:
        announce("8 compile smoke", status)


# --------------------------------------------------------------------------
# 9. end-to-end determinism


DET_PROJECT = {
    "main.tex": (
        "\\documentclass{article}\n"
        "\\begin{document}\n"
        "\\section{Intro}\n"
        "Body text to translate.\n"
        "\\end{document}\n"
    )
}

DET_RULES = [
    (r"^\[Source\]", '"body" - "\u6b63\u6587"'),
    (r"^prev_summary:", "rolling digest"),
    (r"^\[Original\]", "OK"),
    (r"^\\section\{Intro\}", "\\section{\u5165\u95e8}\n\u8bd1\u6587\u3002\n\\end{document}\n"),
]


def test_09_determinism(tmp_path, announce, monkeypatch):
    status = "FAIL"
    try:
        proj = write_files(tmp_path / "doc", DET_PROJECT)
        recording = tmp_path / "recorded"
        build = cli._build_client

        def rule_client(config, logs_dir):
            client = build(config, logs_dir)
            client.backend = RuleBackend(DET_RULES)
            return client

        def run_into(out_dir, *mock):
            code = cli.main(
                [
                    "translate",
                    "--project",
                    str(proj),
                    *mock,
                    "--from",
                    "en",
                    "--to",
                    "zh",
                    "--no-compile",
                    "--out",
                    str(out_dir),
                ]
            )
            assert code == 0
            return tree_snapshot(out_dir)

        with monkeypatch.context() as patched:
            patched.setattr(cli, "_build_client", rule_client)
            recorded = run_into(recording, "--mock", "echo")
        replay = ("--mock", "replay", "--replay-from", str(recording))
        first = run_into(tmp_path / "out1", *replay)
        second = run_into(tmp_path / "out2", *replay)
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between runs"
        # Replies are looked up by request, so a replay is the recorded run
        # again; only what discarded early calls cost may differ.
        speculation = "doc/logs/speculation.json"
        for replayed in (first, second):
            assert replayed.keys() == recorded.keys()
            assert {**replayed, speculation: b""} == {**recorded, speculation: b""}
        assert "doc/report.json" in first
        report = json.loads(first["doc/report.json"].decode("utf-8"))
        assert report["error"] is None
        assert report["units"][2]["status"] == "VALIDATED"
        # the recorded translation actually landed, with the preamble line added
        main_out = first["doc/tex/main.tex"].decode("utf-8")
        assert "\\usepackage{xeCJK}" in main_out
        assert "\u8bd1\u6587\u3002" in main_out
        status = "PASS"
    finally:
        announce("9 end-to-end determinism", status)
