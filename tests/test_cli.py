"""Command-line behaviour: exit codes, output layout, subcommands."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latexmt import agents, cli, prompts
from latexmt.config import RunConfig, load_config
from latexmt.errors import AuthError
from latexmt.llm import TRANSCRIPT_NAME, read_transcript

from conftest import RuleBackend, tree_snapshot, write_files
from test_generator import fake_engine


PARSE_FIXTURE = {
    "main.tex": (
        "\\documentclass{article}\n"
        "\\begin{document}\n"
        "\\section{A}\n"
        "alpha text\n"
        "\\begin{figure}\n"
        "\\caption{The caption}\n"
        "\\end{figure}\n"
        "\\section{B}\n"
        "beta text\n"
        "\\end{document}\n"
    )
}


def run(argv):
    return cli.main(argv)


# --------------------------------------------------------------------------
# parse


def test_parse_reports_unit_counts(tmp_path, capsys):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    assert run(["parse", "--project", str(proj), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "(4 section, 1 environment, 1 caption)" in stdout
    maps = out / "doc" / "maps"
    for name in (
        "cap_map.json",
        "env_map.json",
        "file_boundaries.json",
        "units.json",
        "merged_document.tex",
        "substituted_document.tex",
    ):
        assert (maps / name).is_file(), name
    cap_map = json.loads((maps / "cap_map.json").read_text())
    assert cap_map["entries"][0]["original_text"] == "The caption"


def test_parse_missing_project_is_usage_error(tmp_path):
    assert run(["parse", "--project", str(tmp_path / "nope")]) == 2


def test_parse_prints_a_brace_less_input_warning(tmp_path, capsys):
    main = PARSE_FIXTURE["main.tex"].replace("alpha text\n", "\\input chap\n")
    proj = write_files(tmp_path / "doc", {"main.tex": main, "chap.tex": "x\n"})
    assert run(["parse", "--project", str(proj), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == (
        "warning: brace-less \\input at offset 53 in main.tex; not merged, left in place\n"
    )


def test_parse_of_an_include_cycle_is_a_failure(tmp_path, capsys):
    proj = write_files(tmp_path / "doc", {
        "main.tex": "\\documentclass{a}\\begin{document}\\input{a}\\end{document}",
        "a.tex": "\\input{a}",
    })
    assert run(["parse", "--project", str(proj), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "error: InclusionCycle: inclusion cycle: main.tex -> a.tex -> a.tex\n"
    )


# --------------------------------------------------------------------------
# translate


def test_translate_echo_identity_layout(tmp_path, capsys):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    code = run(
        [
            "translate",
            "--project",
            str(proj),
            "--mock",
            "echo",
            "--from",
            "en",
            "--to",
            "fr",
            "--no-compile",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "doc: ok" in capsys.readouterr().out
    root = out / "doc"
    for sub in ("tex", "pdf", "logs", "maps"):
        assert (root / sub).is_dir()
    # identity: echo translation plus a target language without preamble lines
    original = (proj / "main.tex").read_bytes()
    assert (root / "tex" / "main.tex").read_bytes() == original
    report = json.loads((root / "report.json").read_text())
    assert report["error"] is None
    assert report["rounds_used"] >= 1
    assert report["fc_score"] is None
    assert report["compile"]["skipped"] is True
    assert report["usage"]["calls"] > 0
    assert (root / "logs" / TRANSCRIPT_NAME).is_file()
    # The unit manifest lives in report.json only.
    assert sorted(p.name for p in (root / "maps").iterdir()) == [
        "cap_map.json", "env_map.json", "file_boundaries.json",
    ]
    statuses = {u["status"] for u in report["units"]}
    assert statuses == {"VALIDATED"}


def test_translate_transcript_rebuilds_every_request(tmp_path, monkeypatch):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    sent = []
    build = cli._build_client

    class Recorder:
        def __init__(self, backend):
            self.backend = backend

        def complete(self, request):
            sent.append(request)
            return self.backend.complete(request)

    def recording(config, logs_dir):
        client = build(config, logs_dir)
        client.backend, client.max_in_flight = Recorder(client.backend), 1
        return client

    monkeypatch.setattr(cli, "_build_client", recording)
    out = tmp_path / "out"
    code = run(
        ["translate", "--project", str(proj), "--mock", "echo", "--no-compile", "--out", str(out)]
    )
    assert code == 0
    calls = list(read_transcript(out / "doc" / "logs"))
    assert [c["system"] for c in calls] == [r.system_prompt for r in sent]
    assert [c["user"] for c in calls] == [r.user_message for r in sent]
    # Each block is stored once: prompts that share a template share its bytes.
    lines = (out / "doc" / "logs" / TRANSCRIPT_NAME).read_text().splitlines()
    stored = [block for block in map(json.loads, lines) if isinstance(block, str)]
    assert len(set(stored)) == len(stored)
    assert sum(map(len, stored)) < sum(map(len, {r.system_prompt for r in sent}))


def _planted(token: str) -> tuple[dict, str]:
    """The parse fixture with *token* in its source, and the error that names it once."""
    main = PARSE_FIXTURE["main.tex"].replace("beta text", f"beta {token}")
    where = f"already in the source, at offset {main.index(token)} in main.tex"
    return {"main.tex": main}, f"PlaceholderError: {token} ({where})"


@pytest.mark.parametrize(
    "files, error",
    [
        pytest.param(*_planted("<PLACEHOLDER_ENV_0>"), id="<PLACEHOLDER_ENV_0>"),
        pytest.param(*_planted("<PLACEHOLDER_FILE_0_end>"), id="<PLACEHOLDER_FILE_0_end>"),
        pytest.param(
            {
                "main.tex": PARSE_FIXTURE["main.tex"].replace("beta text", "\\input{a}"),
                "a.tex": "\\input{b}\n",
                "b.tex": "\\input{a}\n",
            },
            "InclusionCycle: inclusion cycle: main.tex -> a.tex -> b.tex -> a.tex",
            id="include-cycle",
        ),
    ],
)
def test_a_placeholder_shaped_source_fails_before_any_model_call(
    tmp_path, monkeypatch, capsys, files, error
):
    # A planted token used to cost every call of the run and then fail
    # reassembly, and a source that failed to parse deleted the last output.
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    assert _translate(proj, out, monkeypatch, "--mock", "echo")[0] == 0
    before = tree_snapshot(out)
    write_files(proj, files)
    sent = []
    backend = RuleBackend([(r"", lambda match, request: sent.append(request) or "x")])
    code, after = _translate(proj, out, monkeypatch, "--mock", "echo", backend=backend)
    assert code == 3
    assert capsys.readouterr().err == f"doc: FAILED: {error}\n"
    assert sent == []
    assert after == before


def write_cfg(tmp_path, prompt_dir):
    """A config file, in *tmp_path*, that sets *prompt_dir*."""
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"prompt_dir: {json.dumps(str(prompt_dir))}\n")
    return cfg


def test_translate_uses_every_template_from_prompt_dir(tmp_path):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    prompt_dir = tmp_path / "prompts"
    prompt_dir.mkdir()
    for name in prompts.TEMPLATE_NAMES:
        marker = f"MARKER {name}\n"
        (prompt_dir / f"{name}.txt").write_text(marker + prompts.load_template(name))
    cfg = write_cfg(tmp_path, prompt_dir)
    out = tmp_path / "out"
    code = run(
        [
            "translate", "--project", str(proj), "--config", str(cfg),
            "--mock", "echo", "--no-compile", "--out", str(out),
        ]
    )
    assert code == 0
    seen = set()
    for call in read_transcript(out / "doc" / "logs"):
        first = call["system"].split("\n", 1)[0]
        assert first.startswith("MARKER "), first
        seen.add(first.removeprefix("MARKER "))
    # The echo replies never need a revision, so the corrector stays idle.
    assert seen == set(prompts.TEMPLATE_NAMES) - {"corrector"}


def test_a_prompt_template_not_in_utf8_is_refused_before_the_last_output_is_touched(
    tmp_path, capsys
):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    argv = ["translate", "--project", str(proj), "--mock", "echo", "--no-compile", "--out", str(out)]
    assert run(argv) == 0
    before = tree_snapshot(out)
    prompt_dir = tmp_path / "prompts"
    prompt_dir.mkdir()
    template = prompt_dir / "translator.txt"
    template.write_bytes(b"Translate \xff.\n")
    capsys.readouterr()
    assert run([*argv, "--config", str(write_cfg(tmp_path, prompt_dir))]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"doc: FAILED: cannot read prompt template {template}: ")
    assert tree_snapshot(out) == before


def test_translate_missing_engine_skips_compilation(tmp_path, capsys):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    engine = "latexmt-no-such-engine"
    code = run(
        [
            "translate",
            "--project",
            str(proj),
            "--mock",
            "echo",
            "--engine",
            engine,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "doc: ok" in capsys.readouterr().out
    report = json.loads((out / "doc" / "report.json").read_text())
    assert report["compile"] == {"skipped": True, "reason": f"engine not found: {engine}"}
    assert report["fc_score"] is None
    assert (
        f"TeX engine not found on PATH: {engine}; compilation skipped"
        in report["warnings"]
    )


def test_translate_again_replaces_the_previous_tree(tmp_path):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    argv = ["translate", "--project", str(proj), "--mock", "echo", "--no-compile"]
    assert run([*argv, "--out", str(out)]) == 0
    first = (out / "doc" / "report.json").read_bytes()
    stale = out / "doc" / "tex" / "stale.tex"
    stale.write_text("left over\n")
    assert run([*argv, "--out", str(out)]) == 0
    assert not stale.exists()
    assert (out / "doc" / "report.json").read_bytes() == first


def test_translate_missing_project_is_usage_error(tmp_path, capsys):
    code = run(
        [
            "translate",
            "--project",
            str(tmp_path / "ghost"),
            "--mock",
            "echo",
            "--no-compile",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "FAILED" in capsys.readouterr().err


def test_translate_cycle_is_a_failure(tmp_path, capsys):
    proj = write_files(
        tmp_path / "doc",
        {
            "main.tex": "\\documentclass{a}\\begin{document}\\input{a}\\end{document}",
            "a.tex": "\\input{a}",
        },
    )
    code = run(
        [
            "translate",
            "--project",
            str(proj),
            "--mock",
            "echo",
            "--no-compile",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert "InclusionCycle" in capsys.readouterr().err


def test_translate_batch_mixes_outcomes(tmp_path, capsys):
    good = write_files(tmp_path / "good", PARSE_FIXTURE)
    code = run(
        [
            "translate",
            "--project",
            str(good),
            "--project",
            str(tmp_path / "absent"),
            "--mock",
            "echo",
            "--no-compile",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2  # the missing project is a usage problem
    captured = capsys.readouterr()
    assert "good: ok" in captured.out
    assert "absent: FAILED" in captured.err


def test_translate_parallel_workers(tmp_path, capsys):
    p1 = write_files(tmp_path / "one", PARSE_FIXTURE)
    p2 = write_files(tmp_path / "two", PARSE_FIXTURE)
    code = run(
        [
            "translate",
            "--project",
            str(p1),
            "--project",
            str(p2),
            "--mock",
            "echo",
            "--no-compile",
            "--workers",
            "2",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "one: ok" in stdout
    assert "two: ok" in stdout


def test_translate_max_rounds_override(tmp_path):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    code = run(
        [
            "translate",
            "--project",
            str(proj),
            "--mock",
            "echo",
            "--no-compile",
            "--max-rounds",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "doc" / "report.json").read_text())
    assert report["rounds_used"] == 1


# Each flag with the RunConfig fields it sets.
TRANSLATE_FLAGS = [
    (["--from", "en-GB"], {"source_language": "en-GB"}),
    (["--to", "fr"], {"target_language": "fr"}),
    (["--engine", "lualatex"], {"engine": "lualatex"}),
    (["--endpoint", "http://localhost:9/v1"], {"endpoint": "http://localhost:9/v1"}),
    (["--model", "m1"], {"model": "m1"}),
    (["--max-rounds", "2"], {"max_validation_rounds": 2}),
    (["--mock", "echo"], {"mock": "echo"}),
    (["--mock", "replay", "--replay-from", "rec"], {"mock": "replay", "replay_from": "rec"}),
    (["--out", "elsewhere"], {"out_dir": "elsewhere"}),
    (["--workers", "3"], {"workers": 3}),
    (["--no-compile"], {"compile_enabled": False}),
    (["--no-preamble"], {"inject_preamble": False}),
]


@pytest.fixture
def configs(monkeypatch):
    """The RunConfig each command builds; ``translate`` then stops short of a run."""
    built = []

    def loading(path, overrides):
        built.append(load_config(path, overrides))
        return built[-1]

    def translating(project_dir, config, main_file=None):
        return cli.RunOutcome("doc", Path(config.out_dir) / "doc", True)

    monkeypatch.setattr(cli, "load_config", loading)
    monkeypatch.setattr(cli, "translate_project", translating)
    return built


def _assert_fields(config: RunConfig, expected: dict) -> None:
    """Assert *config* holds *expected*, and every other field its default."""
    defaults = RunConfig()
    for field in dataclasses.fields(RunConfig):
        want = expected.get(field.name, getattr(defaults, field.name))
        assert getattr(config, field.name) == want, field.name


@pytest.mark.parametrize("flags, expected", TRANSLATE_FLAGS + [([], {})])
def test_each_translate_flag_sets_its_config_field(tmp_path, configs, flags, expected):
    assert run(["translate", "--project", str(tmp_path / "doc"), *flags]) == 0
    [config] = configs
    _assert_fields(config, expected)


PARSE_FLAGS = [(["--out", "elsewhere"], {"out_dir": "elsewhere"})]


@pytest.mark.parametrize("flags, expected", PARSE_FLAGS + [([], {})])
def test_each_parse_flag_sets_its_config_field(tmp_path, monkeypatch, configs, flags, expected):
    write_files(tmp_path / "doc", PARSE_FIXTURE)
    monkeypatch.chdir(tmp_path)
    assert run(["parse", "--project", "doc", *flags]) == 0
    [config] = configs
    _assert_fields(config, expected)
    assert (tmp_path / config.out_dir / "doc" / "maps" / "units.json").is_file()


def test_omitted_flags_keep_the_config_file_values(tmp_path, configs):
    values = {
        "target_language": "ja",
        "compile_enabled": False,
        "inject_preamble": False,
        "max_validation_rounds": 5,
        "workers": 2,
        "out_dir": str(tmp_path / "o"),
    }
    cfg = tmp_path / "run.yaml"
    cfg.write_text(json.dumps(values))  # JSON is YAML
    assert run(["translate", "--project", str(tmp_path / "doc"), "--config", str(cfg)]) == 0
    [config] = configs
    _assert_fields(config, values)


@pytest.mark.parametrize("prices", [(0.0, 0.0), (0.001, 0.002)])
def test_report_usage_is_the_transcript_totals_times_the_prices(tmp_path, prices):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"prompt_token_price: {prices[0]}\ncompletion_token_price: {prices[1]}\n")
    out = tmp_path / "out"
    argv = ["translate", "--project", str(proj), "--config", str(cfg), "--mock", "echo"]
    assert run([*argv, "--no-compile", "--out", str(out)]) == 0
    calls = list(read_transcript(out / "doc" / "logs"))
    # The echo mock estimates tokens as characters / 4, at least 1.
    prompt = sum(max(1, len(c["system"] + c["user"]) // 4) for c in calls)
    completion = sum(max(1, len(c["reply"]) // 4) for c in calls)
    report = json.loads((out / "doc" / "report.json").read_text())
    assert report["usage"] == {
        "calls": len(calls),
        "prompt_tokens": prompt,
        "completion_tokens": completion,
        "cost": round(prompt * prices[0] + completion * prices[1], 6),
    }
    assert len(calls) > 0 and (report["usage"]["cost"] > 0) == (prices[1] > 0)


# --------------------------------------------------------------------------
# output directory names


def test_project_dot_is_named_after_its_directory_and_keeps_its_siblings(
    tmp_path, monkeypatch, capsys
):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    write_files(out, {"keep.txt": "a sibling of the output trees\n"})
    monkeypatch.chdir(proj)
    argv = ["translate", "--project", ".", "--mock", "echo", "--to", "fr", "--no-compile"]
    assert run([*argv, "--out", str(out)]) == 0
    assert f"doc: ok ({out / 'doc'})" in capsys.readouterr().out
    assert (out / "keep.txt").read_text() == "a sibling of the output trees\n"
    assert (out / "doc" / "tex" / "main.tex").read_bytes() == (proj / "main.tex").read_bytes()
    assert json.loads((out / "doc" / "report.json").read_text())["doc_id"] == "doc"

    assert run(["parse", "--project", ".", "--out", str(out)]) == 0
    assert (out / "doc" / "maps" / "units.json").is_file()
    assert sorted(p.name for p in out.iterdir()) == ["doc", "keep.txt"]


@pytest.mark.parametrize("command", ["translate", "parse"])
def test_a_project_without_a_name_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setattr(cli, "ProjectSource", None)  # the root is never read
    out = tmp_path / "out"
    assert run([command, "--project", "/", "--out", str(out)]) == 2
    assert "project directory '/' has no name to give its output" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["translate", "parse"])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_an_output_root_where_a_file_stands_is_a_usage_error(tmp_path, capsys, command, out):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    afile = write_files(tmp_path, {"afile": "not a directory\n"}) / "afile"
    mock = ["--mock", "echo", "--no-compile"] if command == "translate" else []
    assert run([command, "--project", str(proj), *mock, "--out", str(tmp_path / out)]) == 2
    assert f"{afile} is not a directory" in capsys.readouterr().err
    assert afile.read_text() == "not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "doc"]


OVERLAPS = [  # (cwd, --project, --out)
    ("papers", "paper", "."),  # the output tree is the project
    ("papers/paper", ".", "out"),  # the output tree lies inside the project
    ("papers", "paper/paper", "."),  # the output tree holds the project
]


def _refused_overlap(tmp_path, monkeypatch, capsys, cwd, argv):
    """Run *argv* in *cwd*, beside nested projects; it must exit 2 and touch none."""
    papers = tmp_path / "papers"
    write_files(papers / "paper", PARSE_FIXTURE)
    write_files(papers / "paper" / "paper", PARSE_FIXTURE)
    before = tree_snapshot(papers)
    monkeypatch.chdir(tmp_path / cwd)
    assert run(argv) == 2
    assert "overlaps the project directory" in capsys.readouterr().err
    assert tree_snapshot(papers) == before


@pytest.mark.parametrize("cwd, project, out", OVERLAPS)
def test_an_output_tree_overlapping_its_project_is_a_usage_error_before_it_is_touched(
    tmp_path, monkeypatch, capsys, cwd, project, out
):
    argv = ["translate", "--project", project, "--mock", "echo", "--no-compile", "--out", out]
    _refused_overlap(tmp_path, monkeypatch, capsys, cwd, argv)


@pytest.mark.parametrize("cwd, project, out", OVERLAPS)
def test_parse_refuses_an_output_tree_overlapping_its_project(
    tmp_path, monkeypatch, capsys, cwd, project, out
):
    # Its maps hold merged_document.tex, which a later translate would read as a source.
    argv = ["parse", "--project", project, "--out", out]
    _refused_overlap(tmp_path, monkeypatch, capsys, cwd, argv)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_two_projects_with_one_name_are_a_usage_error_before_any_tree_is_touched(
    tmp_path, capsys, workers
):
    one = write_files(tmp_path / "a" / "doc", PARSE_FIXTURE)
    two = write_files(tmp_path / "b" / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    write_files(out, {"doc/report.json": "an earlier run's\n"})
    before = tree_snapshot(out)
    code = run(
        [
            "translate", "--project", str(one), "--project", str(two), "--workers", workers,
            "--mock", "echo", "--no-compile", "--out", str(out),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"would share the output tree {out / 'doc'}" in captured.err
    assert tree_snapshot(out) == before


# --------------------------------------------------------------------------
# language preamble, injected into the merged document before unmerge

BODY = "\\begin{document}\n\\section{A}\nalpha text\n\\end{document}\n"
XECJK = "\\usepackage{xeCJK}\n"
INPUTS_PREAMBLE = "\\documentclass{article}\n\\input{preamble}\n"


def test_a_config_preamble_entry_replaces_that_languages_lines(tmp_path):
    proj = write_files(tmp_path / "doc", {"main.tex": "\\documentclass{article}\n" + BODY})
    cfg = tmp_path / "run.yaml"
    cfg.write_text('language_preambles:\n  zh: ["\\\\usepackage{ctex}"]\n')
    out = tmp_path / "out"
    argv = ["translate", "--project", str(proj), "--config", str(cfg), "--mock", "echo"]
    assert run([*argv, "--to", "zh", "--no-compile", "--out", str(out)]) == 0
    assert (out / "doc" / "tex" / "main.tex").read_text() == (
        "\\documentclass{article}\n\\usepackage{ctex}\n" + BODY
    )


@pytest.mark.parametrize(
    "files, changed",
    [
        pytest.param(
            {"main.tex": "\\documentclass{article}\n\\input{body}\n", "body.tex": BODY},
            {"body.tex": XECJK + BODY},
            id="begin-document-in-an-included-file",
        ),
        pytest.param(
            {"main.tex": INPUTS_PREAMBLE + BODY, "preamble.tex": XECJK},
            {},
            id="package-loaded-by-an-input-preamble-file",
        ),
        pytest.param(
            {"main.tex": INPUTS_PREAMBLE + BODY, "preamble.tex": "\\usepackage{amsmath}\n"},
            {"main.tex": INPUTS_PREAMBLE + XECJK + BODY},
            id="input-preamble-file-then-begin-document",
        ),
    ],
)
def test_the_preamble_line_goes_before_the_merged_documents_begin(tmp_path, files, changed):
    proj = write_files(tmp_path / "doc", files)
    out = tmp_path / "out"
    argv = ["translate", "--project", str(proj), "--mock", "echo", "--to", "zh"]
    assert run([*argv, "--no-compile", "--out", str(out)]) == 0
    tex = {name: (out / "doc" / "tex" / name).read_text() for name in files}
    assert tex == {**files, **changed}
    report = json.loads((out / "doc" / "report.json").read_text())
    assert not any("begin{document}" in w for w in report["warnings"])


# --------------------------------------------------------------------------
# compile stage


COMPILE_LOG = (
    "! Undefined control sequence.\n"
    "! Missing $ inserted.\n"
    "LaTeX Warning: Reference `a' on page 1 undefined.\n"
    "LaTeX Warning: Citation `b' on page 1 undefined.\n"
    "Package hyperref Warning: Token not allowed.\n"
    "Output written on main.pdf (1 page, 1234 bytes).\n"
)


def test_translate_compiles_with_the_engine_and_scores_its_log(tmp_path, capsys):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    log = write_files(tmp_path / "fixture", {"main.log": COMPILE_LOG}) / "main.log"
    engine = fake_engine(tmp_path, f"cp '{log}' main.log\nprintf 'PDF' > main.pdf\nexit 0\n")
    out = tmp_path / "out"
    argv = ["translate", "--project", str(proj), "--mock", "echo", "--engine", engine]
    assert run([*argv, "--out", str(out)]) == 0
    assert f"doc: ok ({out / 'doc'}) fc=94.0" in capsys.readouterr().out
    root = out / "doc"
    assert (root / "pdf" / "main.pdf").read_text() == "PDF"
    assert not (root / "tex" / "main.pdf").exists()  # moved, not copied
    assert (root / "logs" / "compile.log").read_text() == COMPILE_LOG
    assert not (root / "tex" / "main.log").exists()  # moved, not copied
    meta = json.loads((root / "logs" / "compile_meta.json").read_text())
    assert list(meta) == ["elapsed_seconds"] and meta["elapsed_seconds"] >= 0
    report = json.loads((root / "report.json").read_text())
    assert report["compile"] == {
        "skipped": False,
        "engine": engine,
        "success": True,
        "error_count": 2,
        "warning_count": 3,
        "returncode": 0,
        "passes": 2,
    }
    assert report["fc_score"] == 94.0  # 100 - 10 * 2 - 2 * 3 + 20
    assert not any(engine in w for w in report["warnings"])


def test_a_compile_timeout_is_recorded_with_a_warning(tmp_path, capsys):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    engine = fake_engine(tmp_path, "exec sleep 5\n")
    cfg = tmp_path / "run.yaml"
    cfg.write_text("compile_timeout: 0.2\ncompile_passes: 1\n")
    out = tmp_path / "out"
    argv = ["translate", "--project", str(proj), "--config", str(cfg), "--mock", "echo"]
    assert run([*argv, "--engine", engine, "--out", str(out)]) == 0
    assert f"doc: ok ({out / 'doc'})\n" in capsys.readouterr().out
    report = json.loads((out / "doc" / "report.json").read_text())
    reason = f"{engine} exceeded 0s on main.tex"
    assert report["compile"] == {
        "skipped": False, "engine": engine, "success": False, "reason": reason,
    }
    assert report["fc_score"] is None
    assert report["warnings"][-1] == reason
    assert sorted(p.name for p in (out / "doc" / "logs").iterdir()) == [
        TRANSCRIPT_NAME, "speculation.json", "summary.txt",
    ]
    assert list((out / "doc" / "pdf").iterdir()) == []


@pytest.mark.parametrize(
    "overrides, bound",
    [
        ({"mock": "echo"}, cli.MAX_IN_FLIGHT),
        ({"mock": "replay", "replay_from": "recorded"}, cli.MAX_IN_FLIGHT),
        ({}, cli.MAX_IN_FLIGHT),
    ],
)
def test_build_client_in_flight_bound(tmp_path, overrides, bound):
    recording = tmp_path / "recorded" / "doc" / "logs"
    recording.mkdir(parents=True)
    (recording / TRANSCRIPT_NAME).write_text("")
    overrides = {
        k: str(tmp_path / v) if k == "replay_from" else v for k, v in overrides.items()
    }
    client = cli._build_client(load_config(None, overrides), tmp_path / "out" / "doc" / "logs")
    assert client.max_in_flight == bound
    assert cli.MAX_IN_FLIGHT == 8


# --------------------------------------------------------------------------
# replay


REPLAY_PROJECT = {
    "main.tex": (
        "\\documentclass{article}\n\\begin{document}\n"
        "\\section{One}\nThe calibration of the sensor.\n"
        "\\begin{remark}\nA remark on the calibration.\n\\end{remark}\n"
        "\\section{Two}\nA second calibration run.\n"
        "\\section{Three}\nClosing words.\n"
        "\\begin{figure}\n\\caption{A plain caption.}\n\\end{figure}\n"
        "\\end{document}\n"
    )
}
FILTER_PROMPT = prompts.render_for("filter", load_config(None, {}))


def _content_reply(match, request) -> str:
    """Replies from the request alone.  Terms pin "calibration", so the unit
    after the first one that holds it is translated early without the pair."""
    message = request.user_message
    if request.system_prompt == FILTER_PROMPT:
        return "True"
    if message.startswith("[Source]\n"):
        return '"calibration" - "KALIB"' if "calibration" in message else "N/A"
    if message.startswith("prev_summary:\n"):
        return "digest of " + message.rsplit("new_section:\n", 1)[1][:12]
    if message.startswith("[Original]\n"):
        return "OK"
    return message.replace("calibration", "Kalibrierung")


def _translate(project, out, monkeypatch, *mock, bound=cli.MAX_IN_FLIGHT, backend=None):
    """``latexmt translate`` of *project* into *out*; the exit code and the tree."""
    build = cli._build_client

    def client(config, logs_dir):
        built = build(config, logs_dir)
        built.max_in_flight = bound
        built.backend = backend or built.backend
        return built

    with monkeypatch.context() as patched:
        patched.setattr(cli, "_build_client", client)
        argv = ["translate", "--project", str(project), *mock, "--no-compile", "--out", str(out)]
        return run(argv), tree_snapshot(out)


def _but_speculation(tree: dict) -> dict:
    return {rel: data for rel, data in tree.items() if not rel.endswith("/speculation.json")}


def test_a_recording_replays_byte_identically_at_any_bound(tmp_path, monkeypatch):
    proj = write_files(tmp_path / "doc", REPLAY_PROJECT)
    recorded_dir = tmp_path / "recorded"
    backend = RuleBackend([(r"", _content_reply)])
    code, recorded = _translate(proj, recorded_dir, monkeypatch, "--mock", "echo", backend=backend)
    assert code == 0
    speculated = json.loads(recorded["doc/logs/speculation.json"])
    assert speculated["misses"] >= 1 and speculated["discarded_calls"] >= 1
    report = json.loads(recorded["doc/report.json"])
    assert "Kalibrierung" in recorded["doc/tex/main.tex"].decode()
    assert report["warnings"] == []
    replay = ("--mock", "replay", "--replay-from", str(recorded_dir))
    for bound in (1, cli.MAX_IN_FLIGHT):
        code, replayed = _translate(proj, tmp_path / f"b{bound}", monkeypatch, *replay, bound=bound)
        assert code == 0
        assert replayed.keys() == recorded.keys()
        assert _but_speculation(replayed) == _but_speculation(recorded), bound


def test_a_recording_of_units_sent_alone_replays_each_group_unit_by_unit(tmp_path, monkeypatch):
    proj = write_files(tmp_path / "doc", REPLAY_PROJECT)
    recorded_dir = tmp_path / "recorded"
    backend = RuleBackend([(r"", _content_reply)])
    with monkeypatch.context() as alone:
        alone.setattr(agents, "GROUP_CHARS", 0)  # every unit alone, sections included
        code, recorded = _translate(
            proj, recorded_dir, monkeypatch, "--mock", "echo", backend=backend
        )
    assert code == 0
    replay = ("--mock", "replay", "--replay-from", str(recorded_dir))
    code, replayed = _translate(proj, tmp_path / "replayed", monkeypatch, *replay)
    assert code == 0
    report = json.loads(replayed["doc/report.json"])
    # The three sections' group and the tail's (remark, figure, caption) each
    # miss once at the translator and once at the judge; then each of their
    # units replays alone and is kept.
    assert [w.split(": request not in the recording: ")[0] for w in report["warnings"]] == [
        "group translation failed for units 2, 3, 4, sent one by one",
        "group translation failed for units 5, 6, 7, sent one by one",
        "group completeness check failed for units 2, 3, 4, judged one by one",
        "group completeness check failed for units 5, 6, 7, judged one by one",
    ]
    assert report["validation"] == [{"round": 1, "findings": [], "skipped": []}]
    assert {u["status"] for u in report["units"]} == {"VALIDATED"}
    tex = {rel: data for rel, data in recorded.items() if rel.startswith("doc/tex/")}
    assert tex and all(replayed[rel] == data for rel, data in tex.items())


def test_an_unrecorded_request_falls_back_with_a_named_warning(tmp_path, monkeypatch):
    # Section A is too long to group, so B goes alone too, and only B's request is edited.
    long_a = PARSE_FIXTURE["main.tex"].replace("alpha text\n", "alpha text\n" * 600)
    proj = write_files(tmp_path / "doc", {"main.tex": long_a})
    recorded_dir = tmp_path / "recorded"
    assert _translate(proj, recorded_dir, monkeypatch, "--mock", "echo")[0] == 0
    main = proj / "main.tex"
    main.write_text(main.read_text().replace("beta text", "beta text, revised"))
    replay = ("--mock", "replay", "--replay-from", str(recorded_dir))
    code, tree = _translate(proj, tmp_path / "out", monkeypatch, *replay)
    assert code == 0
    report = json.loads(tree["doc/report.json"])
    named = "translation failed for unit 3: request not in the recording: '\\\\section{B}\\nbeta"
    assert any(w.startswith(named) for w in report["warnings"]), report["warnings"]
    # The caption after section B misses too: the summary in its prompt
    # lacks B's update, which was dropped with B's translation.
    statuses = {u["id"]: u["status"] for u in report["units"]}
    assert (statuses[3], statuses[5]) == ("FAILED", "FAILED")
    assert "beta text, revised" in tree["doc/tex/main.tex"].decode()  # the source text


def test_an_edit_in_a_section_group_fails_the_whole_group_on_replay(tmp_path, monkeypatch):
    # Sections A and B were recorded as one group request.  After an edit in B
    # the group misses, and each section alone was never recorded, so A misses
    # too; so does the caption, whose prompt lacks the group's summary update.
    # With no unit translated, the run fails.
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    recorded_dir = tmp_path / "recorded"
    assert _translate(proj, recorded_dir, monkeypatch, "--mock", "echo")[0] == 0
    main = proj / "main.tex"
    main.write_text(main.read_text().replace("beta text", "beta text, revised"))
    replay = ("--mock", "replay", "--replay-from", str(recorded_dir))
    code, tree = _translate(proj, tmp_path / "out", monkeypatch, *replay)
    assert code == 3
    report = json.loads(tree["doc/report.json"])
    missed = [w.split(": request not in the recording: ")[0] for w in report["warnings"]]
    assert [w for w in missed if "translation failed" in w] == [
        "group translation failed for units 2, 3, sent one by one",
        "translation failed for unit 2",
        "translation failed for unit 3",
        "translation failed for unit 5",
    ]
    assert missed[-1] == "PipelineFailed: all 3 translatable units failed"
    statuses = {u["id"]: u["status"] for u in report["units"]}
    assert (statuses[2], statuses[3], statuses[5]) == ("FAILED", "FAILED", "FAILED")


def test_replay_into_its_own_recording_is_refused(tmp_path, monkeypatch, capsys):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    code, recorded = _translate(proj, out, monkeypatch, "--mock", "echo")
    assert code == 0
    code, after = _translate(proj, out, monkeypatch, "--mock", "replay", "--replay-from", str(out))
    assert code == 2
    assert "replay_from must differ from out_dir" in capsys.readouterr().err
    assert after == recorded


def test_a_project_without_a_recording_is_a_usage_error(tmp_path, monkeypatch, capsys):
    one = write_files(tmp_path / "one", PARSE_FIXTURE)
    two = write_files(tmp_path / "two", PARSE_FIXTURE)
    recorded_dir, out = tmp_path / "recorded", tmp_path / "out"
    assert _translate(one, recorded_dir, monkeypatch, "--mock", "echo")[0] == 0
    _translate(two, out, monkeypatch, "--mock", "echo")
    before = tree_snapshot(out / "two")
    code = run(
        [
            "translate", "--project", str(one), "--project", str(two), "--workers", "2",
            "--mock", "replay", "--replay-from", str(recorded_dir), "--no-compile",
            "--out", str(out),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "one: ok" in captured.out
    missing = recorded_dir / "two" / "logs" / TRANSCRIPT_NAME
    assert f"two: FAILED: no recording to replay: {missing} not found" in captured.err
    assert tree_snapshot(out / "two") == before  # the last run's output is untouched


def test_a_recording_not_in_utf8_is_a_usage_error_that_keeps_the_last_output(
    tmp_path, monkeypatch, capsys
):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    recorded_dir, out = tmp_path / "recorded", tmp_path / "out"
    assert _translate(proj, recorded_dir, monkeypatch, "--mock", "echo")[0] == 0
    assert _translate(proj, out, monkeypatch, "--mock", "echo")[0] == 0
    before = tree_snapshot(out)
    transcript = recorded_dir / "doc" / "logs" / TRANSCRIPT_NAME
    recorded = transcript.read_bytes()
    transcript.write_bytes(recorded + b'"\xff"\n')
    capsys.readouterr()
    code, after = _translate(
        proj, out, monkeypatch, "--mock", "replay", "--replay-from", str(recorded_dir)
    )
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    where = f"{transcript}, line {len(recorded.splitlines()) + 1}"
    assert line.startswith(f"doc: FAILED: {where}: not JSON ('utf-8' codec can't decode")
    assert after == before


def test_a_recording_cut_off_mid_line_is_a_usage_error_that_keeps_the_last_output(
    tmp_path, monkeypatch, capsys
):
    # A truncated last line used to end the run with a JSONDecodeError traceback.
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    recorded_dir, out = tmp_path / "recorded", tmp_path / "out"
    assert _translate(proj, recorded_dir, monkeypatch, "--mock", "echo")[0] == 0
    assert _translate(proj, out, monkeypatch, "--mock", "echo")[0] == 0
    before = tree_snapshot(out)
    transcript = recorded_dir / "doc" / "logs" / TRANSCRIPT_NAME
    lines = transcript.read_text().splitlines(keepends=True)
    transcript.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    capsys.readouterr()
    code, after = _translate(
        proj, out, monkeypatch, "--mock", "replay", "--replay-from", str(recorded_dir)
    )
    assert code == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"doc: FAILED: {transcript}, line {len(lines)}: not JSON (")
    assert after == before


def test_an_unreadable_protected_list_is_a_usage_error_that_keeps_the_last_output(
    tmp_path, monkeypatch, capsys
):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    assert _translate(proj, out, monkeypatch, "--mock", "echo")[0] == 0
    before = tree_snapshot(out)
    missing = tmp_path / "nonexistent" / "list.txt"
    cfg = tmp_path / "run.yaml"
    cfg.write_text(f"protected_envs_path: {json.dumps(str(missing))}\n")
    code, after = _translate(proj, out, monkeypatch, "--mock", "echo", "--config", str(cfg))
    assert code == 2
    assert "doc: FAILED: cannot read protected_envs_path:" in capsys.readouterr().err
    assert after == before


def test_an_endpoint_without_a_scheme_is_a_usage_error_that_keeps_the_last_output(
    tmp_path, monkeypatch, capsys
):
    # It used to crash the run with requests' InvalidSchema after the
    # previous tree was deleted, leaving no report.json.
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    assert _translate(proj, out, monkeypatch, "--mock", "echo")[0] == 0
    before = tree_snapshot(out)
    code, after = _translate(proj, out, monkeypatch, "--endpoint", "localhost:8000/v1")
    assert code == 2
    err = capsys.readouterr().err
    assert "endpoint must start with http:// or https://, not 'localhost:8000/v1'" in err
    assert after == before


def test_an_endpoint_without_a_host_is_a_usage_error_that_keeps_the_last_output(
    tmp_path, monkeypatch, capsys
):
    # It used to replace the tree, fail every call with requests' InvalidURL
    # and exit 3 with PipelineFailed.
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    out = tmp_path / "out"
    assert _translate(proj, out, monkeypatch, "--mock", "echo")[0] == 0
    before = tree_snapshot(out)
    code, after = _translate(proj, out, monkeypatch, "--endpoint", "http://")
    assert code == 2
    assert capsys.readouterr().err == "error: endpoint must name a host, not 'http://'\n"
    assert after == before


@pytest.mark.parametrize("bound", [1, 8])
def test_a_rejected_key_stops_the_run(tmp_path, monkeypatch, capsys, bound):
    # AuthError used to be an LlmError: every unit failed on its own, and
    # the run ended in PipelineFailed with the cause only in the warnings.
    body = "".join(f"\\section{{S{i}}}\nText {i}.\n" for i in range(6))
    proj = write_files(
        tmp_path / "doc",
        {"main.tex": f"\\documentclass{{article}}\n\\begin{{document}}\n{body}\\end{{document}}\n"},
    )
    calls = []

    class Refusing:
        def complete(self, request):
            calls.append(request)
            raise AuthError("endpoint rejected credentials (HTTP 401)")

    out = tmp_path / "out"
    code, _ = _translate(proj, out, monkeypatch, "--mock", "echo", bound=bound, backend=Refusing())
    error = "AuthError: endpoint rejected credentials (HTTP 401)"
    assert code == 3
    assert capsys.readouterr().err == f"doc: FAILED: {error}\n"
    assert json.loads((out / "doc" / "report.json").read_text())["error"] == error
    # The first refusal stops the run. Above a bound of 1, jobs already queued
    # still run, so a few more calls may be made.
    assert 1 <= len(calls) <= (1 if bound == 1 else 2 * bound)


def test_translate_rejects_bad_config(tmp_path):
    proj = write_files(tmp_path / "doc", PARSE_FIXTURE)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("no_such_knob: 1\n")
    code = run(
        ["translate", "--project", str(proj), "--config", str(cfg), "--mock", "echo"]
    )
    assert code == 2


# --------------------------------------------------------------------------
# score


def test_score_single_log_file(tmp_path, capsys):
    log = tmp_path / "mydoc.log"
    log.write_text("! Boom.\nOutput written on mydoc.pdf (1 page).\n")
    assert run(["score", str(log)]) == 0
    table = capsys.readouterr().out
    assert "mydoc" in table
    # 100 - 10*1 + 20 capped at 100
    assert "100.0" in table


def test_score_report_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(
        json.dumps(
            {
                "doc_id": "paper",
                "compile": {
                    "skipped": False,
                    "error_count": 2,
                    "warning_count": 3,
                    "success": True,
                },
            }
        )
    )
    assert run(["score", str(report), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["documents"][0]["doc_id"] == "paper"
    assert payload["documents"][0]["score"] == 94.0


def test_score_skipped_report_and_empty_input(tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"doc_id": "x", "compile": {"skipped": True}}))
    assert run(["score", str(report)]) == 2  # nothing scoreable remained
    assert "no compile data" in capsys.readouterr().err


def test_score_an_output_root_reads_its_reports_compile_data(tmp_path, capsys):
    compiled = {"skipped": False, "error_count": 1, "warning_count": 2, "success": True}
    write_files(tmp_path / "out", {
        "a/report.json": json.dumps({"doc_id": "a", "compile": compiled}),
        "a/logs/compile.log": "! ignored, the report has the counts\n",
        "b/report.json": json.dumps({"doc_id": "b", "compile": {"skipped": True}}),
    })
    assert run(["score", str(tmp_path / "out"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["documents"] == [
        {"doc_id": "a", "error_count": 1, "warning_count": 2, "compiled": True, "score": 100.0}
    ]


DAMAGED_REPORTS = {
    "truncated": '{"doc_id": "a", "compile": {"skipped": fal',
    "not-an-object": "[1, 2]",
    "no-warning-count": json.dumps({"compile": {"skipped": False, "error_count": 1}}),
}


@pytest.mark.parametrize("text", DAMAGED_REPORTS.values(), ids=DAMAGED_REPORTS.keys())
@pytest.mark.parametrize("as_dir", [False, True], ids=["file", "dir"])
def test_score_a_damaged_report_is_a_usage_error(tmp_path, capsys, text, as_dir):
    report = write_files(tmp_path / "out", {"a/report.json": text}) / "a" / "report.json"
    assert run(["score", str(report.parent.parent if as_dir else report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report} is not a report: ") and err.count("\n") == 1


def test_score_names_a_compile_log_after_its_output_tree(tmp_path, capsys):
    write_files(tmp_path / "out", {"paper/logs/compile.log": "Output written on main.pdf\n"})
    assert run(["score", str(tmp_path / "out"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["documents"][0]["doc_id"] == "paper"


def test_score_directory_walk(tmp_path, capsys):
    logs = tmp_path / "logs"
    logs.mkdir()
    (logs / "a.log").write_text("Output written on a.pdf\n")
    (logs / "b.log").write_text("! broken\n")
    assert run(["score", str(logs)]) == 0
    out = capsys.readouterr().out
    assert "a" in out and "b" in out
    assert "mean score:" in out


def test_score_nonexistent_path(tmp_path, capsys):
    assert run(["score", str(tmp_path / "nope.log")]) == 2


def test_score_custom_params(tmp_path, capsys):
    log = tmp_path / "d.log"
    log.write_text("! one\n")
    assert (
        run(["score", str(log), "--s0", "50", "--alpha", "5", "--gamma", "0"]) == 0
    )
    assert "45.0" in capsys.readouterr().out


# --------------------------------------------------------------------------
# config-check


def test_config_check_ok(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("target_language: ja\n")
    assert run(["config-check", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "chosen_engine: xelatex" in out


def test_config_check_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("frobnicate: yes\n")
    assert run(["config-check", "--config", str(cfg)]) == 2
    assert "frobnicate" in capsys.readouterr().err


# --------------------------------------------------------------------------
# wiring


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "translate" in capsys.readouterr().out


def test_python_m_latexmt_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "latexmt", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: latexmt ")


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2

