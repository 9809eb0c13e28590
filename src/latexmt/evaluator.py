"""TeX log analysis and the format-consistency score.

The score rewards a document that still compiles after translation and
penalizes every error and warning the engine reported:

    score = clip(S0 - alpha * errors - beta * warnings + gamma * compiled,
                 s_min, s_max)

with defaults S0=100, alpha=10, beta=2, gamma=20 on a 0..100 scale.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass

from .errors import EmptyCorpus

_PKG_WARNING_RE = re.compile(r"^(?:Package|Class)\s+\S+\s+Warning:")
_FONT_WARNING_RE = re.compile(r"^LaTeX Font Warning:")
_BOX_WARNING_RE = re.compile(r"^(?:Overfull|Underfull) \\[hv]box")


@dataclass(frozen=True)
class LogStats:
    error_count: int
    warning_count: int
    compiled: bool


def parse_log(log_text: str, count_box_warnings: bool = False) -> LogStats:
    """Count errors and warnings in a TeX log; detect output production.

    Errors are lines starting with ``!`` plus ``LaTeX Error:`` lines that
    lack the ``!`` prefix (file-line-error mode); a ``! LaTeX Error:`` line
    counts once.  Warnings cover ``LaTeX Warning:``, package/class warnings
    and font warnings; overfull/underfull box complaints only when asked.
    The document "compiled" when the engine wrote an output file.
    """
    errors = 0
    warnings = 0
    compiled = False
    for line in log_text.splitlines():
        if line.startswith("!"):
            errors += 1
            continue
        if "LaTeX Error:" in line:
            errors += 1
            continue
        if (
            "LaTeX Warning:" in line
            or _PKG_WARNING_RE.match(line)
            or _FONT_WARNING_RE.match(line)
        ):
            warnings += 1
            continue
        if count_box_warnings and _BOX_WARNING_RE.match(line):
            warnings += 1
            continue
        if line.startswith("Output written on"):
            compiled = True
    return LogStats(errors, warnings, compiled)


@dataclass(frozen=True)
class FCScoreParams:
    s0: float = 100.0
    alpha: float = 10.0
    beta: float = 2.0
    gamma: float = 20.0
    s_min: float = 0.0
    s_max: float = 100.0

    def __post_init__(self):
        if self.s_min > self.s_max:
            raise ValueError("s_min must not exceed s_max")
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def fc_score(
    error_count: int,
    warning_count: int,
    compiled: bool,
    params: FCScoreParams | None = None,
) -> float:
    """Format-consistency score for one document."""
    if error_count < 0 or warning_count < 0:
        raise ValueError("counts must be non-negative")
    p = params or FCScoreParams()
    raw = (
        p.s0
        - p.alpha * error_count
        - p.beta * warning_count
        + (p.gamma if compiled else 0.0)
    )
    return min(p.s_max, max(p.s_min, raw))


@dataclass(frozen=True)
class DocumentScore:
    doc_id: str
    error_count: int
    warning_count: int
    compiled: bool
    score: float


@dataclass(frozen=True)
class CorpusScore:
    documents: tuple[DocumentScore, ...]
    mean_score: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def format_table(self) -> str:
        rows = [("document", "errors", "warnings", "compiled", "score")]
        for d in self.documents:
            rows.append(
                (
                    d.doc_id,
                    str(d.error_count),
                    str(d.warning_count),
                    "yes" if d.compiled else "no",
                    f"{d.score:.1f}",
                )
            )
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = []
        for r in rows:
            lines.append(
                "  ".join(
                    cell.ljust(w) if i == 0 else cell.rjust(w)
                    for i, (cell, w) in enumerate(zip(r, widths))
                ).rstrip()
            )
        lines.insert(1, "  ".join("-" * w for w in widths))
        lines.append(f"mean score: {self.mean_score:.2f}")
        return "\n".join(lines)


def score_corpus(
    items: list[tuple[str, LogStats]],
    params: FCScoreParams | None = None,
) -> CorpusScore:
    """Score every (doc_id, stats) pair and average; empty input is an error."""
    if not items:
        raise EmptyCorpus("no documents to score")
    p = params or FCScoreParams()
    docs = []
    for doc_id, stats in items:
        docs.append(
            DocumentScore(
                doc_id,
                stats.error_count,
                stats.warning_count,
                stats.compiled,
                fc_score(stats.error_count, stats.warning_count, stats.compiled, p),
            )
        )
    mean = sum(d.score for d in docs) / len(docs)
    return CorpusScore(tuple(docs), mean)
