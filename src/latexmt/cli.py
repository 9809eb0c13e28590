"""Command-line interface: translate, parse, score, config-check.

Exit codes: 0 success, 2 usage/configuration error, 3 pipeline failure.
Each translated document gets its own output tree::

    out/<doc-id>/tex/      translated sources (plus untouched project files)
    out/<doc-id>/pdf/      compiled artifact, when an engine ran
    out/<doc-id>/logs/     engine log (compile.log, moved out of tex/) and its
                           timing, LLM transcript (read it with
                           llm.read_transcript), and what speculative calls
                           cost (speculation.json)
    out/<doc-id>/maps/     placeholder maps and file boundaries
    out/<doc-id>/report.json   outcome, with the unit manifest

``<doc-id>`` is the name of the project directory made absolute.  A batch
whose projects share a name, and an output tree that overlaps its project
or where a file stands, are refused before any tree is touched; a project
that fails to parse keeps its last tree.

report.json deliberately excludes wall-clock data so that two runs with the
same config and mock transcript are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import prompts
from .agents import run_pipeline
from .config import RunConfig, base_language, load_config
from .errors import (
    ConfigError,
    EmptyCorpus,
    LatexmtError,
    MissingMainFile,
)
from .evaluator import FCScoreParams, LogStats, parse_log, score_corpus
from .generator import (
    DEFAULT_LANGUAGE_PREAMBLES,
    compile_document,
    inject_language_preamble,
    reassemble,
    unmerge,
)
from .llm import TRANSCRIPT_NAME, EchoBackend, HttpBackend, LlmClient, ReplayBackend, UsageLedger
from .parser import (
    GRAN_CAPTION,
    GRAN_ENVIRONMENT,
    GRAN_SECTION,
    ProjectSource,
    enumerate_units,
    parse_project,
    units_to_manifest,
)
from .unit_filter import classify_units, protected_environments

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FAILURE = 3
# Errors that are the caller's to fix: each exits EXIT_USAGE.
USAGE_ERRORS = (ConfigError, MissingMainFile, EmptyCorpus)

# Model calls one document keeps in flight at most, where they do not
# depend on each other; ``workers`` projects run side by side on top.
MAX_IN_FLIGHT = 8


# --------------------------------------------------------------------------
# translate


@dataclass
class RunOutcome:
    doc_id: str
    out_dir: Path
    ok: bool
    error: str | None = None
    usage_error: bool = False
    report: dict = dataclasses.field(default_factory=dict)


def _build_client(config: RunConfig, logs_dir: Path) -> LlmClient:
    """The client of the document whose logs go to *logs_dir*, ``<out>/<doc-id>/logs``.

    A replay answers from the recording in ``<replay_from>/<doc-id>/logs``.
    """
    if config.mock == "echo":
        backend = EchoBackend()
    elif config.mock == "replay":
        backend = ReplayBackend(Path(config.replay_from) / logs_dir.parent.name / "logs")
    else:
        api_key = os.environ.get(config.api_key_env) or None
        backend = HttpBackend(
            config.endpoint, config.model, api_key, config.request_timeout
        )
    return LlmClient(
        backend,
        UsageLedger(config.prompt_token_price, config.completion_token_price),
        retry_budget=config.retry_budget,
        backoff_base=config.backoff_base,
        transcript_path=logs_dir / TRANSCRIPT_NAME,
        max_in_flight=MAX_IN_FLIGHT,
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=True) + "\n",
        encoding="utf-8",
    )


def _write_tex(path: Path, text: str) -> None:
    """Write LaTeX source back byte for byte: no newline translation."""
    path.write_text(text, encoding="utf-8", errors="surrogateescape", newline="")


def _write_maps(parsed, maps_dir: Path) -> None:
    parsed.cap_map.save(maps_dir / "cap_map.json")
    parsed.env_map.save(maps_dir / "env_map.json")
    _write_json(
        maps_dir / "file_boundaries.json", [dataclasses.asdict(b) for b in parsed.merged.boundaries]
    )


def _doc_id(project_dir: Path | str) -> str:
    """The name of the project's output tree: its directory's own name, also for ``.``."""
    name = Path(os.path.abspath(project_dir)).name
    if not name:
        raise ConfigError(f"project directory {str(project_dir)!r} has no name to give its output")
    return name


def _out_root(project_dir: Path | str, config: RunConfig) -> Path:
    """``<out>/<doc-id>``, refused if it overlaps the project directory or a file is in its way."""
    out_root = Path(config.out_dir) / _doc_id(project_dir)
    mine, theirs = out_root.resolve(), Path(project_dir).resolve()
    if mine.is_relative_to(theirs) or theirs.is_relative_to(mine):
        raise ConfigError(f"output tree {out_root} overlaps the project directory {theirs}")
    existing = next(path for path in (mine, *mine.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"output tree {out_root} cannot be made: {existing} is not a directory")
    return out_root


def _setup(project_dir: Path | str, config: RunConfig, main_file: str | None):
    """``(out_root, parsed, units)`` of a project, or the error that refuses it.

    It writes nothing, so ``translate`` and ``parse`` call it before they
    touch the output tree: a refused project keeps its last output.
    """
    out_root = _out_root(project_dir, config)
    parsed = parse_project(ProjectSource.from_dir(Path(project_dir), main_file))
    return out_root, parsed, enumerate_units(parsed)


def translate_project(
    project_dir: Path | str, config: RunConfig, main_file: str | None = None
) -> RunOutcome:
    """Run the whole pipeline for one project directory.

    Setup comes first: :func:`_setup`, the client and the protected list,
    any of which can refuse the project.  Only then is the previous output
    tree deleted.  The filter jobs (:func:`~latexmt.unit_filter.classify_units`)
    run while the sections translate (:func:`~latexmt.agents.run_pipeline`).
    The Generator stage follows: the language preamble goes into the
    reassembled merged document before it is split back into files, and
    :func:`~latexmt.generator.compile_document` compiles and scores them.
    Every run that gets past setup writes a report.json, including failed
    ones; partial outputs stay on disk for inspection.
    """
    out_root, parsed, units = _setup(project_dir, config, main_file)
    tex_dir, pdf_dir = out_root / "tex", out_root / "pdf"
    logs_dir, maps_dir = out_root / "logs", out_root / "maps"
    # A client opens no file and starts no thread before its first call, so
    # it is part of setup: a replay with no recording stops here.
    client = _build_client(config, logs_dir)
    protected = protected_environments(config.protected_envs_path)
    for name in prompts.TEMPLATE_NAMES:  # a prompt_dir template that cannot be read stops here
        prompts.load_template(name, config.prompt_dir)
    if out_root.exists():
        shutil.rmtree(out_root)
    # Non-.tex project files (figures, .bib, .cls) ride along untouched;
    # unmerge overwrites the translated .tex files afterwards.
    shutil.copytree(project_dir, tex_dir)
    for d in (pdf_dir, logs_dir, maps_dir):
        d.mkdir()
    warnings = client.warnings  # the agents add theirs after the parser's
    warnings.extend(parsed.warnings)

    report: dict = {
        "doc_id": out_root.name,
        "main_file": parsed.merged.main_file,
        "source_language": config.source_language,
        "target_language": config.target_language,
        "compile": {"skipped": True, "reason": "compilation disabled"},
        "fc_score": None,
        "error": None,
    }
    try:
        filtering = classify_units(units, protected, client, config)
        result = run_pipeline(units, client, config, filtering)
        body = reassemble(units, parsed.cap_map, parsed.env_map, parsed.merged)
        if config.inject_preamble:
            preambles = {**DEFAULT_LANGUAGE_PREAMBLES, **config.language_preambles}
            body = inject_language_preamble(
                body, base_language(config.target_language), preambles, warnings
            )
        written = unmerge(body, parsed.merged, tex_dir)
        report |= {
            "filter": [dataclasses.asdict(d) for d in result.decisions],
            "rounds_used": len(result.reports),
            "validation": [r.to_dict() for r in result.reports],
            "summary": {"version": result.summary.version, "words": result.summary.word_count},
            "terms": [[src, tgt] for src, tgt in result.dictionary],
            "output_files": sorted(str(p.relative_to(out_root)) for p in written),
        }
        (logs_dir / "summary.txt").write_text(
            result.summary.text, encoding="utf-8", errors="surrogateescape"
        )
        if config.compile_enabled:
            report["compile"], report["fc_score"] = compile_document(
                tex_dir, pdf_dir, logs_dir, parsed.merged.main_file, config, warnings
            )
    except LatexmtError as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        warnings.append(report["error"])
    finally:
        client.close()

    # Discarded calls are in neither the ledger nor the transcript, so what
    # speculation cost is kept apart from report.json.
    _write_json(logs_dir / "speculation.json", client.speculation)
    _write_maps(parsed, maps_dir)
    report["units"] = units_to_manifest(units)
    report["usage"] = client.ledger.summary()
    report["warnings"] = warnings
    _write_json(out_root / "report.json", report)
    return RunOutcome(out_root.name, out_root, not report["error"], report["error"], False, report)


def cmd_translate(args) -> int:
    config = load_config(args.config, _flag_overrides(args))
    projects: dict[str, str] = {}
    for path in args.projects:
        doc_id = _doc_id(path)
        if doc_id in projects:
            raise ConfigError(
                f"projects {projects[doc_id]!r} and {path!r} would share the output tree "
                f"{Path(config.out_dir) / doc_id}"
            )
        projects[doc_id] = path

    def run_one(doc_id: str, path: str) -> RunOutcome:
        try:
            return translate_project(path, config, args.main)
        except USAGE_ERRORS as exc:
            return RunOutcome(doc_id, Path(config.out_dir) / doc_id, False, str(exc), True)
        except LatexmtError as exc:
            error = f"{type(exc).__name__}: {exc}"
            return RunOutcome(doc_id, Path(config.out_dir) / doc_id, False, error)

    if config.workers > 1 and len(projects) > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(run_one, projects, projects.values()))
    else:
        outcomes = [run_one(doc_id, path) for doc_id, path in projects.items()]

    usage_error = False
    failures = 0
    for outcome in outcomes:
        if outcome.ok:
            score = outcome.report.get("fc_score")
            note = f" fc={score:.1f}" if isinstance(score, (int, float)) else ""
            print(f"{outcome.doc_id}: ok ({outcome.out_dir}){note}")
        else:
            failures += 1
            usage_error = usage_error or outcome.usage_error
            print(f"{outcome.doc_id}: FAILED: {outcome.error}", file=sys.stderr)
    if usage_error:
        return EXIT_USAGE
    return EXIT_FAILURE if failures else EXIT_OK


def _flag_overrides(args) -> dict:
    """The RunConfig fields set on the command line: such a flag's dest is its field."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    return {name: value for name, value in vars(args).items() if name in fields}


# --------------------------------------------------------------------------
# parse


def cmd_parse(args) -> int:
    config = load_config(args.config, _flag_overrides(args))
    out_root, parsed, units = _setup(args.project, config, args.main)
    maps_dir = out_root / "maps"
    maps_dir.mkdir(parents=True, exist_ok=True)
    _write_maps(parsed, maps_dir)
    # No report.json here, so the unit manifest gets a file of its own.
    _write_json(maps_dir / "units.json", units_to_manifest(units))
    _write_tex(maps_dir / "merged_document.tex", parsed.merged.text)
    _write_tex(maps_dir / "substituted_document.tex", parsed.text)
    by_kind = {GRAN_SECTION: 0, GRAN_ENVIRONMENT: 0, GRAN_CAPTION: 0}
    for unit in units:
        by_kind[unit.granularity] += 1
    print(
        f"{out_root.name}: {len(units)} units "
        f"({by_kind[GRAN_SECTION]} section, {by_kind[GRAN_ENVIRONMENT]} environment, "
        f"{by_kind[GRAN_CAPTION]} caption), "
        f"{len(parsed.merged.boundaries)} merged file(s), "
        f"{len(parsed.warnings)} warning(s) -> {maps_dir}"
    )
    for warning in parsed.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------------------
# score


def _stats_from_log(path: Path, count_box_warnings: bool) -> tuple[str, LogStats]:
    text = path.read_text(encoding="utf-8", errors="replace")
    stats = parse_log(text, count_box_warnings=count_box_warnings)
    if path.name == "compile.log" and path.parent.name == "logs":
        doc_id = path.parent.parent.name  # out/<doc-id>/logs/compile.log
    else:
        doc_id = path.stem
    return doc_id, stats


def _stats_from_report(path: Path) -> tuple[str, LogStats] | None:
    """A report's compile counts, None when it has none; a damaged report is a ConfigError."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        compile_info = payload.get("compile") or {}
        if compile_info.get("skipped", True) or "error_count" not in compile_info:
            return None
        return (
            payload.get("doc_id", path.parent.name),
            LogStats(
                compile_info["error_count"],
                compile_info["warning_count"],
                bool(compile_info.get("success")),
            ),
        )
    except (ValueError, AttributeError, KeyError) as exc:
        raise ConfigError(f"{path} is not a report: {type(exc).__name__}: {exc}") from None


def cmd_score(args) -> int:
    params = FCScoreParams(
        s0=args.s0, alpha=args.alpha, beta=args.beta, gamma=args.gamma
    )
    items: list[tuple[str, LogStats]] = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            report_paths = sorted(path.rglob("report.json"))
            found = False
            for rp in report_paths:
                item = _stats_from_report(rp)
                if item is not None:
                    items.append(item)
                    found = True
            if not found:
                for log in sorted(path.rglob("*.log")):
                    items.append(_stats_from_log(log, args.count_box_warnings))
        elif path.is_file():
            if path.suffix == ".json":
                item = _stats_from_report(path)
                if item is None:
                    print(f"score: {path} has no compile data; skipped", file=sys.stderr)
                else:
                    items.append(item)
            else:
                items.append(_stats_from_log(path, args.count_box_warnings))
        else:
            print(f"score: no such path: {path}", file=sys.stderr)
            return EXIT_USAGE
    corpus = score_corpus(items, params)  # EmptyCorpus -> usage error in main()
    if args.json:
        print(corpus.to_json(), end="")
    else:
        print(corpus.format_table())
    return EXIT_OK


# --------------------------------------------------------------------------
# config-check


def cmd_config_check(args) -> int:
    import yaml

    config = load_config(args.config, {})
    payload = dataclasses.asdict(config)
    payload["chosen_engine"] = config.chosen_engine
    print(yaml.safe_dump(payload, default_flow_style=False, sort_keys=True).rstrip())
    print("config ok")
    return EXIT_OK


# --------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latexmt",
        description="Translate LaTeX projects between languages while keeping them compilable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("translate", help="translate one or more projects end to end")
    t.add_argument(
        "--project",
        dest="projects",
        action="append",
        required=True,
        metavar="DIR",
        help="project directory (repeat for a batch)",
    )
    t.add_argument("--main", default=None, help="main .tex file relative to the project")
    t.add_argument("--from", dest="source_language", default=None, metavar="LANG")
    t.add_argument("--to", dest="target_language", default=None, metavar="LANG")
    t.add_argument("--engine", default=None, help="TeX engine (default: by target language)")
    t.add_argument("--endpoint", default=None, help="OpenAI-compatible API base URL")
    t.add_argument("--model", default=None)
    t.add_argument("--max-rounds", dest="max_validation_rounds", type=int, default=None,
                   metavar="MAX_ROUNDS")
    t.add_argument("--mock", choices=["echo", "replay"], default=None)
    t.add_argument("--replay-from", dest="replay_from", default=None, metavar="DIR",
                   help="for --mock replay: the --out of the run to replay")
    t.add_argument("--config", default=None, help="YAML config file")
    t.add_argument("--out", dest="out_dir", default=None, metavar="OUT",
                   help="output root directory")
    t.add_argument("--workers", type=int, default=None)
    t.add_argument("--no-compile", dest="compile_enabled", action="store_false", default=None)
    t.add_argument("--no-preamble", dest="inject_preamble", action="store_false", default=None,
                   help="skip target-language preamble injection")
    t.set_defaults(func=cmd_translate)

    p = sub.add_parser("parse", help="parse only: write maps and the unit manifest")
    p.add_argument("--project", required=True, metavar="DIR")
    p.add_argument("--main", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", dest="out_dir", default=None, metavar="OUT")
    p.set_defaults(func=cmd_parse)

    s = sub.add_parser("score", help="compute format-consistency scores from logs")
    s.add_argument("paths", nargs="+", help="log files, report.json files, or out trees")
    s.add_argument("--s0", type=float, default=100.0)
    s.add_argument("--alpha", type=float, default=10.0)
    s.add_argument("--beta", type=float, default=2.0)
    s.add_argument("--gamma", type=float, default=20.0)
    s.add_argument("--count-box-warnings", action="store_true")
    s.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    s.set_defaults(func=cmd_score)

    c = sub.add_parser("config-check", help="validate a config file and show the result")
    c.add_argument("--config", default=None)
    c.set_defaults(func=cmd_config_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LatexmtError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
