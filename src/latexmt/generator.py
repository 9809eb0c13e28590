"""The Generator stage: rebuild the translated document, compile and score it.

:func:`reassemble` substitutes the translated units back into the merged
document, :func:`inject_language_preamble` adds the target language's
support lines to it, :func:`unmerge` splits it back into the project's
files, and :func:`compile_document` compiles them, files the PDF and the
engine log, and computes the FC score.

Reassembly enforces placeholder conservation strictly: every map entry
must be consumed exactly once and no unknown token may remain.  Environment
tokens are resolved before caption tokens because captions live inside
environment bodies.  Unmerging checks every file-boundary token before
it writes a file, so bad boundaries leave the output directory untouched.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import time
from collections import Counter
from pathlib import Path

from .errors import (
    DuplicatePlaceholderUse,
    MissingPlaceholderUse,
    UnbalancedFileBoundaries,
    UnresolvedPlaceholder,
)
from .config import CJK_LANGUAGES, RunConfig
from .evaluator import fc_score, parse_log
from . import parser
from .parser import GRAN_SECTION, MergedDocument, TranslationUnit
from .placeholders import (
    CAP_TOKEN_RE,
    ENV_TOKEN_RE,
    FILE_TOKEN_RE,
    PlaceholderMap,
    file_begin_token,
    file_end_token,
)

DEFAULT_LANGUAGE_PREAMBLES: dict[str, tuple[str, ...]] = {
    lang: ("\\usepackage{xeCJK}",) for lang in sorted(CJK_LANGUAGES)
}


# --------------------------------------------------------------------------
# reassembly


def reassemble(
    units: list[TranslationUnit],
    cap_map: PlaceholderMap,
    env_map: PlaceholderMap,
    merged: MergedDocument,
) -> str:
    """Rebuild the merged document from translated units and maps.

    Section units are concatenated in id order, then ENV tokens are
    replaced (by the environment unit's output if one exists, else the
    original text), then CAP tokens inside those bodies the same way.
    Every file-boundary token of *merged* must survive exactly once; the
    tokens are left for :func:`unmerge`.
    """
    by_token = {u.token: u for u in units if u.token is not None}
    text = "".join(u.output_text() for u in units if u.granularity == GRAN_SECTION)
    seen: list[str] = []
    for token_re, pmap in ((ENV_TOKEN_RE, env_map), (CAP_TOKEN_RE, cap_map)):
        text = _substitute(text, token_re, pmap, by_token, seen)
    counts = Counter(seen)
    for entry in (*env_map, *cap_map):
        if (n := counts[entry.token]) != 1:
            if n == 0:
                raise MissingPlaceholderUse(entry.token, "never substituted back")
            raise DuplicatePlaceholderUse(entry.token, f"substituted {n} times")
    file_counts = Counter(m.group(0) for m in FILE_TOKEN_RE.finditer(text))
    for boundary in merged.boundaries:
        for token in (file_begin_token(boundary.token_id), file_end_token(boundary.token_id)):
            if (n := file_counts[token]) != 1:
                raise UnbalancedFileBoundaries(
                    f"{token} appears {n} times after reassembly (expected 1)"
                )
    return text


def _substitute(text, token_re, pmap: PlaceholderMap, by_token, seen: list[str]) -> str:
    """Replace *pmap*'s tokens by their units' output or, with no unit, their source.

    Each token replaced is appended to *seen*; one of no map is an error.
    """
    texts = {entry.token: entry.original_text for entry in pmap}
    texts.update((token, by_token[token].output_text()) for token in texts.keys() & by_token.keys())

    def repl(m):
        seen.append(token := m.group(0))
        if token not in texts:
            raise UnresolvedPlaceholder(token, "not present in any map")
        return texts[token]

    return token_re.sub(repl, text)


# --------------------------------------------------------------------------
# un-merging


def unmerge(full_text: str, merged: MergedDocument, out_dir: Path | str) -> list[Path]:
    """Split a merged document back into its original file tree.

    Every begin/end boundary pair becomes one file under *out_dir*; the
    containing file gets the original ``\\input``/``\\include`` directive
    back.  Mispaired, unknown or unclosed boundary tokens are fatal, and
    then nothing is written.  Returns the written paths, main file first.
    """
    by_id = {b.token_id: b for b in merged.boundaries}
    # Begin tokens arrive in pre-order, so each opens the next file to write.
    files: list[tuple[str, list[str]]] = [(merged.main_file, [])]
    stack = [(None, files[0][1])]  # open (boundary, pieces), innermost last
    cursor = 0
    for m in FILE_TOKEN_RE.finditer(full_text):
        token_id, which = int(m.group(1)), m.group(2)
        pieces = stack[-1][1]
        pieces.append(full_text[cursor : m.start()])
        cursor = m.end()
        if which == "begin":
            boundary = by_id.get(token_id)
            if boundary is None:
                raise UnbalancedFileBoundaries(
                    f"unknown file boundary token {m.group(0)}"
                )
            pieces.append(boundary.directive)
            files.append((boundary.path, []))
            stack.append((boundary, files[-1][1]))
        else:
            if len(stack) == 1 or stack[-1][0].token_id != token_id:
                raise UnbalancedFileBoundaries(f"unexpected {m.group(0)}")
            stack.pop()
    if len(stack) != 1:
        raise UnbalancedFileBoundaries(
            f"missing end marker for file {stack[-1][0].path}"
        )
    files[0][1].append(full_text[cursor:])

    texts = dict(files)  # a file included twice: its later copy, listed once
    written = [Path(out_dir) / rel_path for rel_path in texts]
    for path, pieces in zip(written, texts.values()):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(pieces), encoding="utf-8", errors="surrogateescape", newline="")
    return written


# --------------------------------------------------------------------------
# language preamble


def inject_language_preamble(
    text: str,
    target_language: str,
    preambles: dict[str, tuple[str, ...]] | None = None,
    warnings: list[str] | None = None,
) -> str:
    """Insert the target language's support lines before ``\\begin{document}``.

    Idempotent: lines already live in the preamble, outside comments and
    verbatim-like bodies, are not added again.  Given the merged document,
    the preamble includes the files it ``\\input``s, and the lines land in
    whichever file holds ``\\begin{document}``.  Languages without an entry
    (e.g. ``en``) leave the text untouched.
    """
    table = DEFAULT_LANGUAGE_PREAMBLES if preambles is None else preambles
    lines = table.get(target_language, ())
    if not lines:
        return text
    spans = parser.comment_spans(text)
    insert_at, _, _ = parser.document_body(text, spans)
    if insert_at is None:
        if warnings is not None:
            warnings.append(
                "no \\begin{document} found; language preamble prepended to file"
            )
        insert_at = 0
    # The preamble as TeX reads it: the gaps between the spans before insert_at.
    cuts = [0, *(i for span in spans if span[0] < insert_at for i in span), insert_at]
    region = "".join(text[a:b] for a, b in zip(cuts[::2], cuts[1::2]))
    missing = [line for line in lines if line not in region]
    if not missing:
        return text
    block = "".join(line + "\n" for line in missing)
    return text[:insert_at] + block + text[insert_at:]


# --------------------------------------------------------------------------
# compilation


def compile_document(
    tex_dir: Path,
    pdf_dir: Path,
    logs_dir: Path,
    main_file: str,
    config: RunConfig,
    warnings: list[str],
) -> tuple[dict, float | None]:
    """Compile the main file in *tex_dir*, file the artifacts and score the log.

    Runs ``config.compile_passes`` passes of the chosen engine, moves the
    PDF to *pdf_dir* and the engine log to ``compile.log`` in *logs_dir*,
    and writes the passes' seconds to ``compile_meta.json`` there.
    Returns report.json's ``compile`` record and the FC score.  A failed
    compilation is data: the record carries the parsed error and warning
    counts either way.  A missing engine or a pass over the time limit
    adds a warning and gives a record without a score.
    """
    engine = config.chosen_engine
    if shutil.which(engine) is None:
        warnings.append(f"TeX engine not found on PATH: {engine}; compilation skipped")
        return {"skipped": True, "reason": f"engine not found: {engine}"}, None
    started = time.monotonic()
    for _ in range(config.compile_passes):
        try:
            proc = subprocess.run(
                [engine, "-interaction=nonstopmode", main_file],
                cwd=tex_dir,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=config.compile_timeout,
            )
        except subprocess.TimeoutExpired:
            reason = f"{engine} exceeded {config.compile_timeout:.0f}s on {main_file}"
            warnings.append(reason)
            return {"skipped": False, "engine": engine, "success": False, "reason": reason}, None
    elapsed = time.monotonic() - started
    stem = Path(main_file).stem
    pdf_path, log_path = tex_dir / f"{stem}.pdf", tex_dir / f"{stem}.log"
    log_text = ""
    if log_path.exists():
        log_text = log_path.read_text(encoding="utf-8", errors="replace")
        shutil.move(log_path, logs_dir / "compile.log")
    stats = parse_log(log_text, count_box_warnings=config.count_box_warnings)
    success = stats.compiled and proc.returncode == 0 and pdf_path.exists()
    if pdf_path.exists():
        shutil.move(pdf_path, pdf_dir / pdf_path.name)
    (logs_dir / "compile_meta.json").write_text(
        json.dumps({"elapsed_seconds": round(elapsed, 3)}, indent=2) + "\n", encoding="utf-8"
    )
    record = {
        "skipped": False,
        "engine": engine,
        "success": success,
        "error_count": stats.error_count,
        "warning_count": stats.warning_count,
        "returncode": proc.returncode,
        "passes": config.compile_passes,
    }
    return record, fc_score(stats.error_count, stats.warning_count, success)
