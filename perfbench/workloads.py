"""The three workloads: one document at a time, through public functions only.

``parse-large``
    The structural round trip of an L project with no model: load, parse,
    enumerate units, reassemble, unmerge and inject the language preamble,
    with every unit left as source.  Parser and generator CPU time.

``translate-steady``
    ``translate_project`` on an M project without compilation, the latency
    backend answering cleanly.  Model calls on the critical path and prompt
    tokens set the time.

``translate-revise``
    The same, with the backend's fault profile: validation rounds,
    corrector calls, retries, the filter's retry budget and source fallback
    do much of the work.

Every document is checked: the output tree must equal the input tree byte
for byte, except for the injected preamble line in the main file, and a
translated document's ``report.json`` must equal the first one written in
the run.
"""

from __future__ import annotations

import shutil
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from latexmt import agents, cli, generator, parser
from latexmt.config import load_config
from latexmt.llm import LlmClient
from latexmt.placeholders import PlaceholderMap

from perfbench import projgen
from perfbench.latency import DELAY_S, LatencyBackend, LlmFigures
from perfbench.spans import Tracer

DOC_NAME = "paper"
TARGET_LANGUAGE = "zh"


@dataclass
class DocResult:
    """What one document cost and whether its output was right.

    Only small figures are kept, so that documents processed earlier in a
    run do not grow the heap that later ones work in.
    """

    wall_s: float
    ok: bool
    cpu_s: float = 0.0
    reference_s: float = 0.0  # the speed reference, timed around the document
    problem: str = ""
    out_bytes: int = 0
    units: Counter = field(default_factory=Counter)
    translatable: int = 0
    fallback: int = 0
    usage: dict = field(default_factory=dict)
    filter_sources: Counter = field(default_factory=Counter)
    findings: Counter = field(default_factory=Counter)
    rounds_used: int = 0
    llm: LlmFigures = field(default_factory=LlmFigures)
    transcript_bytes: int = 0
    maps_bytes: int = 0


def _begin(tracer: Tracer | None) -> tuple[float, float]:
    """Start timing a document; a traced one gets its root span here."""
    if tracer is not None:
        tracer.begin_doc()
    return time.perf_counter(), time.process_time()


def _end(tracer: Tracer | None, start: tuple[float, float]) -> tuple[float, float]:
    """Wall and CPU seconds since *start*."""
    wall = time.perf_counter() - start[0]
    cpu = time.process_time() - start[1]
    if tracer is not None:
        tracer.end_doc()
    return wall, cpu


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _check_tree(out_dir: Path, expected: dict[str, str], wanted: set[str]) -> str:
    """Empty string when *out_dir* holds exactly *wanted*, byte-equal."""
    found = {p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()}
    if found != wanted:
        missing, extra = sorted(wanted - found), sorted(found - wanted)
        return f"output files differ: missing {missing}, extra {extra}"
    for rel in sorted(wanted):
        if (out_dir / rel).read_bytes() != expected[rel].encode("utf-8"):
            return f"{rel} differs from the expected output"
    return ""


class Workload:
    """Set-up, one document, and the wrappers a traced run installs."""

    size = "M"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.project: projgen.Project | None = None
        self.project_dir = work / "in" / DOC_NAME
        self.out_dir = work / "out"
        self.delay = DELAY_S

    def setup(self) -> None:
        """Generate and write the project, then run one document to warm up.

        The warm-up document runs with no backend delay: waiting warms
        nothing, and set-up stays short enough to repeat.
        """
        if self.work.exists():
            shutil.rmtree(self.work)
        self.project = projgen.generate(self.seed, self.size)
        self.project.write(self.project_dir)
        self.delay = 0.0
        try:
            result = self.run_doc()
        finally:
            self.delay = DELAY_S
        if not result.ok:
            raise RuntimeError(f"warm-up document failed: {result.problem}")

    def run_doc(self, tracer: Tracer | None = None) -> DocResult:
        raise NotImplementedError

    def document(self, tracer: Tracer | None = None) -> DocResult:
        """:meth:`run_doc`, with an error turned into a failed document."""
        try:
            return self.run_doc(tracer)
        except Exception:  # a failed document is data; keep measuring the rest
            traceback.print_exc()
            return DocResult(wall_s=0.0, ok=False, problem="raised an error")

    def install(self, tracer: Tracer) -> None:
        """Wrap the program's functions at the names its callers look up."""
        tracer.count_calls(parser, "comment_spans", "parser.comment_scans")
        tracer.wrap(parser, "merge_project", "parser.merge")
        tracer.wrap(parser, "extract_captions", "parser.captions")
        tracer.wrap(parser, "extract_environments", "parser.environments")
        tracer.wrap(parser, "split_sections", "parser.split")
        for method in ("add", "restore", "save"):
            tracer.wrap(PlaceholderMap, method, f"placeholders.{method}")

    def close(self) -> None:
        pass


class ParseLarge(Workload):
    size = "L"

    def run_doc(self, tracer: Tracer | None = None) -> DocResult:
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        start = _begin(tracer)
        source = parser.ProjectSource.from_dir(self.project_dir)
        parsed = parser.parse_project(source)
        units = parser.enumerate_units(parsed)
        body = generator.reassemble(units, parsed.cap_map, parsed.env_map, parsed.merged)
        generator.unmerge(body, parsed.merged, self.out_dir)
        main_path = self.out_dir / parsed.merged.main_file
        text = main_path.read_text(encoding="utf-8", errors="surrogateescape")
        text = generator.inject_language_preamble(text, TARGET_LANGUAGE)
        with open(main_path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            fh.write(text)
        wall, cpu = _end(tracer, start)
        problem = _check_tree(self.out_dir, self.project.expected, set(self.project.merged))
        return DocResult(
            wall_s=wall,
            ok=not problem,
            cpu_s=cpu,
            problem=problem,
            out_bytes=_tree_bytes(self.out_dir),
            units=Counter(u.granularity for u in units),
            translatable=sum(u.needs_translation for u in units),
        )

    def install(self, tracer: Tracer) -> None:
        super().install(tracer)
        tracer.wrap(parser, "parse_project", "parser.parse_project")
        tracer.wrap(parser, "enumerate_units", "parser.enumerate")
        tracer.wrap(generator, "reassemble", "generator.reassemble")
        tracer.wrap(generator, "unmerge", "generator.unmerge")
        tracer.wrap(generator, "inject_language_preamble", "generator.preamble")


class Translate(Workload):
    """``translate_project`` with the latency backend swapped in."""

    profile = "steady"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.config = load_config(
            None,
            {
                "target_language": TARGET_LANGUAGE,
                "out_dir": str(self.out_dir),
                "compile_enabled": False,
                "mock": "echo",
                "backoff_base": 0.002,
            },
        )
        self.tracer: Tracer | None = None
        self.backend: LatencyBackend | None = None
        self.first_report: bytes | None = None
        self._build_client = cli._build_client
        cli._build_client = self._client

    def _client(self, config, logs_dir) -> LlmClient:
        client = self._build_client(config, logs_dir)
        self.backend = client.backend = LatencyBackend(self.profile, self.delay)
        if self.tracer is not None:
            self.backend.on_call = lambda role, s, e: self.tracer.record("llm.backend", s, e)
        return client

    def close(self) -> None:
        cli._build_client = self._build_client

    def run_doc(self, tracer: Tracer | None = None) -> DocResult:
        self.tracer = tracer
        start = _begin(tracer)
        outcome = cli.translate_project(self.project_dir, self.config)
        wall, cpu = _end(tracer, start)
        root = outcome.out_dir
        report_bytes = (root / "report.json").read_bytes()
        report = outcome.report
        problem = ""
        if not outcome.ok or report.get("error"):
            problem = f"report error: {outcome.error}"
        elif self.first_report is None:
            self.first_report = report_bytes
        elif report_bytes != self.first_report:
            problem = "report.json differs from the first run's"
        if not problem:
            problem = _check_tree(root / "tex", self.project.expected, set(self.project.files))
        units = report.get("units", [])
        wanted = [u for u in units if u["needs_translation"]]
        transcript = root / "logs" / "llm_transcript.jsonl"
        llm, self.backend = self.backend.figures(), None
        return DocResult(
            wall_s=wall,
            ok=not problem,
            cpu_s=cpu - llm.wait_cpu_s,
            problem=problem,
            out_bytes=_tree_bytes(root),
            units=Counter(u["granularity"] for u in units),
            translatable=len(wanted),
            fallback=sum(u["status"] == parser.STATUS_FAILED for u in wanted),
            usage=report.get("usage", {}),
            filter_sources=Counter(d["source"] for d in report.get("filter", [])),
            findings=Counter(
                f["dimension"] for r in report.get("validation", []) for f in r["findings"]
            ),
            rounds_used=report.get("rounds_used", 0),
            llm=llm,
            transcript_bytes=transcript.stat().st_size if transcript.exists() else 0,
            maps_bytes=_tree_bytes(root / "maps"),
        )

    def install(self, tracer: Tracer) -> None:
        super().install(tracer)
        tracer.wrap(cli, "translate_project", "cli.translate_project")
        tracer.wrap(cli, "parse_project", "parser.parse_project")
        tracer.wrap(cli, "enumerate_units", "parser.enumerate")
        tracer.wrap(cli, "classify_units", "unit_filter.classify")
        tracer.wrap(cli, "run_pipeline", "agents.pipeline")
        tracer.wrap(cli, "reassemble", "generator.reassemble")
        tracer.wrap(cli, "unmerge", "generator.unmerge")
        tracer.wrap(cli, "inject_language_preamble", "generator.preamble")
        tracer.wrap(agents, "translate_unit", "agents.translate")
        tracer.wrap(agents, "extract_terms", "agents.terms")
        tracer.wrap(agents, "update_summary", "agents.summary")
        tracer.wrap(agents, "validate_translations", "agents.validate")
        tracer.wrap(agents, "retranslate_unit", "agents.revise")
        tracer.wrap(LlmClient, "chat", "llm.chat")


class TranslateRevise(Translate):
    profile = "revise"


WORKLOADS = {
    "parse-large": ParseLarge,
    "translate-steady": Translate,
    "translate-revise": TranslateRevise,
}
