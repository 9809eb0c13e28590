"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload translate-steady --seed 1 --seconds 10 --trace 0

The run sets up several times (import, generate and write the project, one
warm-up document) and reports the median as ``setup_s``; then it processes
the project again and again, one document at a time, for ``--seconds``.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
documents and reports per-layer metrics from the traced ones.  Lines before
it are a readable table of every metric, the per-document counts included.

``setup_s`` and ``doc_wall_s`` are wall times whose CPU part is rescaled to a
reference machine speed (see ``speed.py``); the table also shows the raw
median wall time and the speed factor.  Per-layer times are raw.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import speed  # noqa: E402
from perfbench.spans import Tracer, self_times  # noqa: E402

SETUP_REPEATS = 3
MIN_DOCS = 3
MB = 1 << 20

# Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "parser.merge": "parser.merge_s",
    "parser.captions": "parser.captions_s",
    "parser.environments": "parser.environments_s",
    "parser.split": "parser.split_s",
    "parser.enumerate": "parser.enumerate_s",
    "parser.parse_project": "parser.parse_project_self_s",
    "generator.reassemble": "generator.reassemble_s",
    "generator.unmerge": "generator.unmerge_s",
    "generator.preamble": "generator.preamble_s",
    "unit_filter.classify": "unit_filter.classify_s",
    "agents.translate": "agents.translate_s",
    "agents.terms": "agents.terms_s",
    "agents.summary": "agents.summary_s",
    "agents.validate": "agents.validate_s",
    "agents.revise": "agents.revise_s",
    "agents.pipeline": "agents.pipeline_self_s",
    "llm.chat": "llm.client_overhead_s",
    "llm.backend": "llm.backend_s",
    "cli.translate_project": "cli.translate_project_self_s",
    "bench.doc": "bench.harness_self_s",
}
PARSER_PASSES = ("merge", "captions", "environments", "split", "enumerate")
LAYERS = ("parser", "generator", "placeholders", "unit_filter", "agents", "llm", "cli", "bench")
ROLES = ("filter", "translator", "terminology", "summarizer", "completeness", "corrector")
FINDINGS = {
    "PLACEHOLDER_INTEGRITY": "placeholder",
    "COMMAND_INTEGRITY": "command",
    "CONTENT_COMPLETENESS": "completeness",
}


def _import_program():
    src = ROOT / "src"
    if not (src / "latexmt" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import latexmt

    if Path(latexmt.__file__).resolve().parent != (src / "latexmt").resolve():
        sys.exit(f"error: imported latexmt from {latexmt.__file__}, not from {src}")
    from perfbench import workloads

    return workloads


def _doc_counts(doc) -> dict[str, float]:
    """The per-document figures a user sees, from one document's result."""
    return {
        "llm_calls": sum(doc.llm.attempts.values()),
        "prompt_tokens": doc.usage.get("prompt_tokens", 0),
        "completion_tokens": doc.usage.get("completion_tokens", 0),
        "transcript_mb": doc.transcript_bytes / MB,
        "fallback_share": doc.fallback / doc.translatable if doc.translatable else 0.0,
    }


def _layer_metrics(doc, spans, counts, doc_mb: float, speed_factor: float) -> dict[str, float]:
    """Per-layer figures for one traced document.

    Times are as measured, not speed-adjusted; ``bench.speed_factor`` is the
    factor the document's CPU time is scaled by in ``doc_wall_s``.
    """
    self_by_id = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    n_spans: Counter = Counter()
    for s in spans:
        self_by_name[s.name] += self_by_id[s.span_id]
        n_spans[s.name] += 1
    root = next(s for s in spans if s.parent_id is None)
    wall = root.end - root.start

    m: dict[str, float] = {}
    for name, metric in SELF_TIME_METRICS.items():
        m[metric] = self_by_name.get(name, 0.0)
    for p in PARSER_PASSES:
        t = m[f"parser.{p}_s"]
        m[f"parser.{p}_mb_s"] = doc_mb / t if t > 0 else 0.0
    m["parser.comment_scans"] = counts.get("parser.comment_scans", 0)
    m["parser.units.section"] = doc.units.get("SECTION_CONTEXT", 0)
    m["parser.units.environment"] = doc.units.get("ENVIRONMENT", 0)
    m["parser.units.caption"] = doc.units.get("CAPTION", 0)

    sources = doc.filter_sources
    llm = doc.llm
    attempts = llm.attempts
    m["unit_filter.decisions.predefined"] = sources.get("PREDEFINED", 0)
    m["unit_filter.decisions.llm"] = sources.get("LLM", 0)
    m["unit_filter.decisions.default"] = sources.get("DEFAULT", 0)
    # Useful results per attempt: model decisions over filter calls made.
    m["unit_filter.attempts_per_llm_decision"] = (
        sources.get("LLM", 0) / attempts["filter"] if attempts["filter"] else 0.0
    )

    m["agents.rounds_used"] = doc.rounds_used
    for dim, short in FINDINGS.items():
        m[f"agents.findings.{short}"] = doc.findings.get(dim, 0)
    m["agents.rejudged_calls"] = llm.rejudged

    for role in ROLES:
        m[f"llm.calls.{role}"] = attempts[role]
        m[f"llm.prompt_tokens.{role}"] = llm.prompt_tokens[role]
    replies = llm.replies["translator"]
    m["llm.prompt_tokens_per_translator_call"] = (
        llm.prompt_tokens["translator"] / replies if replies else 0.0
    )
    m["llm.retries"] = sum(attempts.values()) - n_spans["llm.chat"]
    m["llm.transient_failures"] = llm.transient_failures
    m["llm.transcript_bytes"] = doc.transcript_bytes
    m["llm.max_in_flight"] = llm.max_in_flight
    m["llm.backend_busy_over_wall"] = m["llm.backend_s"] / wall
    m["cli.maps_bytes"] = doc.maps_bytes

    for layer in LAYERS:
        m[f"layer.{layer}_self_s"] = sum(
            t for name, t in self_by_name.items() if name.split(".", 1)[0] == layer
        )
    m["trace.self_sum_over_wall"] = sum(self_by_id.values()) / wall
    m["bench.speed_factor"] = speed_factor
    return m


def _median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _emit(result: dict, table: dict[str, tuple[float, str]]) -> None:
    width = max(len(k) for k in table)
    for name, (value, unit) in table.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(json.dumps(result, sort_keys=False))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads, import_s = _measured(_import_program)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")

    work_root = ROOT / ".bench_work"
    work = work_root / args.workload
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            setup_times.append(_measured(wl.setup)[1])
        doc_mb = wl.project.size_bytes / MB

        untraced, traced = [], []
        tracer = Tracer() if args.trace else None
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(untraced) < MIN_DOCS:
            untraced.append(_run_one(wl, None))
            if tracer is not None:
                wl.install(tracer)
                try:
                    doc = _run_one(wl, tracer)
                finally:
                    tracer.uninstall()
                if doc.ok:
                    traced.append((doc, tracer.doc_spans(tracer.docs - 1), tracer.counts))
                else:
                    untraced.append(doc)
    finally:
        wl.close()

    docs = untraced + [d for d, _, _ in traced]
    if tracer is not None and not traced:
        sys.exit("error: no traced document succeeded")
    failed = sum(not d.ok for d in docs)
    timed = [d for d in untraced if d.ok] or untraced
    doc_wall = statistics.median(_adjusted(d) for d in timed)
    counts = [_doc_counts(d) for d in untraced]
    doc_counts = _median_metrics(counts)
    end_to_end = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "doc_wall_s": (doc_wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "out_mb": (statistics.median(d.out_bytes for d in untraced) / MB, "MB"),
        "doc_ok_share": (1 - failed / len(docs), "ratio"),
        "kept_share": (1 - doc_counts["fallback_share"], "ratio"),
    }
    table = dict(end_to_end)
    table["doc_wall_raw_s"] = (statistics.median(d.wall_s for d in timed), "s")
    table["speed_factor"] = (
        statistics.median(speed.REFERENCE_S / d.reference_s for d in timed), "ratio"
    )
    table["llm_calls"] = (doc_counts["llm_calls"], "count")
    table["prompt_tokens"] = (doc_counts["prompt_tokens"], "count")
    table["completion_tokens"] = (doc_counts["completion_tokens"], "count")
    table["transcript_mb"] = (doc_counts["transcript_mb"], "MB")
    table["fallback_share"] = (doc_counts["fallback_share"], "ratio")
    table["doc_fail_share"] = (failed / len(docs), "ratio")
    table["documents"] = (len(docs), "count")

    repeat_ok = all(c == counts[0] for c in counts)
    if not repeat_ok:
        print("error: per-document counts differ between documents", file=sys.stderr)
    for d in docs:
        if not d.ok:
            print(f"error: document failed: {d.problem}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end
    else:
        rows = [
            _layer_metrics(d, s, c, doc_mb, speed.REFERENCE_S / d.reference_s)
            for d, s, c in traced
        ]
        layer = _median_metrics(rows)
        # Speed-adjusted like doc_wall_s, so the overhead compares like with like.
        layer["trace.wall_s"] = statistics.median(_adjusted(d) for d, _, _ in traced)
        layer["trace.untraced_wall_s"] = doc_wall
        layer["trace.overhead_s"] = layer["trace.wall_s"] - doc_wall
        for name in ("llm_calls", "prompt_tokens", "completion_tokens", "transcript_mb",
                     "fallback_share"):
            layer[f"doc.{name}"] = doc_counts[name]
        layer["doc.fail_share"] = failed / len(docs)
        metrics = {k: (v, _unit(k)) for k, v in layer.items()}
        table.update(metrics)
        work_root.mkdir(exist_ok=True)
        tracer.dump(work_root / f"spans-{args.workload}.jsonl")

    shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": failed == 0 and repeat_ok,
        "attempted": len(docs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    _emit(result, table)
    return 0


def _measured(fn):
    """Run *fn*; return its result and its speed-adjusted wall time."""
    before = speed.reference_s()
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    reference = (before + speed.reference_s()) / 2
    return result, speed.adjusted(wall, cpu, reference)


def _adjusted(doc) -> float:
    return speed.adjusted(doc.wall_s, doc.cpu_s, doc.reference_s)


def _run_one(wl, tracer: Tracer | None):
    # Each document starts from a collected heap, so that garbage left by
    # earlier ones moves neither its time nor the peak RSS.
    gc.collect()
    before = speed.reference_s()
    doc = wl.document(tracer)
    doc.reference_s = (before + speed.reference_s()) / 2
    return doc


def _unit(metric: str) -> str:
    if metric.endswith("_mb_s"):
        return "MB/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_share", "_over_wall", "_per_llm_decision", "_factor")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
