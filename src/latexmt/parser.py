"""LaTeX project parsing: merge, protect, split.

The pipeline runs in a fixed order so that later passes see the tokens of
earlier ones:

1. ``merge_project``       - inline \\input/\\include files between boundary tokens
2. ``extract_environments``- swap caption bodies inside floats for CAP tokens
   (``extract_captions``) and top-level environment blocks for ENV tokens
3. ``split_sections``      - cut the remaining text at sectioning commands
4. ``enumerate_units``     - one flat, ordered list of translation units

Every pass finds structure with ``_next_live``: a match counts only when it
is not escaped and lies outside the spans it is given.  ``comment_spans``
finds them in one scan: the comments (an unescaped ``%`` hides the rest of
the line; inside ``verbatim``-like environments it is literal) and the
verbatim-like bodies.  Includes, captions, sections and ``document_body``
skip both; the block search skips the comments alone (``_comments``), since
a verbatim block is itself a block.  Each text is scanned at most once, by
the pass that reads it: a source file only when it holds an include
candidate, the merged text by the protection pass, whose one walk over its
blocks also finds the floats, and the stripped text by the split.
A source that already holds a placeholder token is refused.  Structural
problems such as unbalanced braces, a stray ``\\end`` or a brace-less
``\\input`` are recorded as warning strings, never raised.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate
from pathlib import Path, PurePosixPath

from .errors import InclusionCycle, MissingMainFile, PlaceholderError
from .placeholders import (
    PlaceholderMap,
    TOKEN_RE,
    cap_token,
    env_token,
    file_begin_token,
    file_end_token,
)

GRAN_SECTION = "SECTION_CONTEXT"
GRAN_ENVIRONMENT = "ENVIRONMENT"
GRAN_CAPTION = "CAPTION"

STATUS_PENDING = "PENDING"
STATUS_TRANSLATED = "TRANSLATED"
STATUS_VALIDATED = "VALIDATED"
STATUS_FAILED = "FAILED"

# Environments whose bodies are taken verbatim by TeX; '%' inside them is
# not a comment and nothing inside them should be scanned structurally.
VERBATIM_ENVS = frozenset(
    {
        "verbatim",
        "verbatim*",
        "Verbatim",
        "Verbatim*",
        "lstlisting",
        "minted",
        "comment",
        "filecontents",
        "filecontents*",
    }
)

# Environments that may legitimately carry a \caption.
FLOAT_ENVS = frozenset(
    {
        "figure",
        "figure*",
        "table",
        "table*",
        "sidewaysfigure",
        "sidewaystable",
        "wrapfigure",
        "wraptable",
        "subfigure",
        "subtable",
        "algorithm",
        "algorithm*",
        "listing",
    }
)

_FLOAT_BEGIN_RE = re.compile(
    r"\\begin\s*\{(" + "|".join(map(re.escape, sorted(FLOAT_ENVS))) + r")\}"
)
_BEGIN_OR_END_RE = re.compile(r"\\(begin|end)\s*\{([^{}]*)\}")
_BEGIN_DOC_RE = re.compile(r"\\begin\s*\{document\}")
_END_DOC_RE = re.compile(r"\\end\s*\{document\}")
_CAPTION_RE = re.compile(r"\\caption(of)?\*?(?![A-Za-z@])")
_SECTION_RE = re.compile(r"\\(?:part|chapter|section|subsection|subsubsection)\*?(?![A-Za-z@])")
# Group 1 is the path of \input or \include, None for the brace-less TeX form,
# \input chap; group 2 names a directive that is never merged (the match takes its arguments).
_INCLUDE_RE = re.compile(
    r"\\(?:(?:input|include)(?![A-Za-z@])(?:\s*\{\s*([^{}%]+?)\s*\}|(?!\s*\{))"
    r"|(subfile|import|subimport)(?![A-Za-z@])(?:\s*\{[^{}%]*\}){0,2})"
)
# Where str.splitlines ends a line, and the \begin of a verbatim-like
# environment on one line (\s less the line breaks).
_LINE_BREAK_RE = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
_VERBATIM_BEGIN_RE = re.compile(
    r"\\begin[^\S\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*\{("
    + "|".join(map(re.escape, sorted(VERBATIM_ENVS)))
    + r")\}"
)
_SPACE_RE = re.compile(r"[ \t\r\n]*")
# The characters brace matching stops at; a backslash takes the next one along
# (only those it takes from brace matching, or from the next backslash, matter).
_GROUP_RE = re.compile(r"\\[{}\\]|[{}]")
# A brace group at most three deep, read the same way.
_FLAT = r"[^{}\\]*(?:\\.[^{}\\]*)*"
_SHALLOW_GROUP_RE = re.compile(
    rf"\{{{_FLAT}(?:\{{{_FLAT}(?:\{{{_FLAT}\}}{_FLAT})*\}}{_FLAT})*\}}", re.DOTALL
)
_OPTIONAL_RE = re.compile(r"\\[{}\[\]\\]|[{}\[\]]")
# A segment of whitespace and placeholder tokens alone, which needs no translation.
_BLANK_RE = re.compile(rf"(?:\s|{TOKEN_RE.pattern})*")


# --------------------------------------------------------------------------
# low-level scanning


def comment_spans(text: str) -> list[tuple[int, int]]:
    """Return sorted (start, end) spans of the comments and verbatim-like bodies.

    A comment runs from an unescaped ``%`` to the end of that line, excluding
    the newline itself (TeX eats it, but for our purposes the line boundary
    must survive).  Percent signs inside verbatim-like environments, one
    line long or not, do not open comments.  Lines are those of ``str.splitlines``.
    Each such environment, from its ``\\begin`` to its ``\\end`` (or the end
    of the text), is a span as well.
    """
    spans: list[tuple[int, int]] = []
    pos = 0
    while True:
        pct = text.find("%", pos)
        m = _VERBATIM_BEGIN_RE.search(text, pos, len(text) if pct == -1 else pct)
        if m is not None and _escaped(text, m.start()):  # \\begin is text
            pos = m.end()
        elif m is not None:  # a verbatim-like environment opens before the '%'
            content_end, next_line = _line_bounds(text, m.start())
            end = f"\\end{{{m.group(1)}}}"
            close = text.find(end, m.end(), content_end)
            if close != -1:  # opened and closed on the same line
                pos = close + len(end)
            elif (close := text.find(end, next_line)) == -1:  # verbatim to the end
                spans.append((m.start(), len(text)))
                break
            else:  # verbatim up to the first later line that holds its \end
                pos = _line_bounds(text, close)[1]
            spans.append((m.start(), close + len(end)))
        elif pct == -1:
            break
        elif _escaped(text, pct):
            pos = pct + 1
        else:
            content_end, pos = _line_bounds(text, pct)
            spans.append((pct, content_end))
    return spans


def _line_bounds(text: str, pos: int) -> tuple[int, int]:
    """End of *pos*'s line as ``rstrip("\\r\\n")`` leaves it, and the next line's start."""
    m = _LINE_BREAK_RE.search(text, pos)
    if m is None:
        return len(text), len(text)
    return (m.start() if text[m.start()] in "\r\n" else m.end()), m.end()


def _comments(text: str, spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The comments among *text*'s *spans*: those opened by ``%``."""
    return [span for span in spans if text[span[0]] == "%"]


def _cut(text: str, cuts: list[tuple[int, int, str]]) -> str:
    """*text* with each ``(start, end, token)`` cut, in order, replaced by its token."""
    pieces, pos = [], 0
    for a, b, token in cuts:
        pieces += (text[pos:a], token)
        pos = b
    pieces.append(text[pos:])
    return "".join(pieces)


def _span_index(spans: list[tuple[int, int]]):
    """Build a fast pos -> containing-span lookup over sorted spans."""
    starts = [s for s, _ in spans]

    def lookup(pos: int) -> tuple[int, int] | None:
        i = bisect_right(starts, pos) - 1
        if i >= 0 and spans[i][0] <= pos < spans[i][1]:
            return spans[i]
        return None

    lookup.spans, lookup.starts = spans, starts  # for walks that bisect for themselves
    return lookup


def _escaped(text: str, pos: int) -> bool:
    """True when an odd run of backslashes ends just before *pos*, as in ``\\%``."""
    j = pos
    while j > 0 and text[j - 1] == "\\":
        j -= 1
    return (pos - j) % 2 == 1


def _structural(text: str, pos: int, span_at, pattern: re.Pattern):
    """Yield (offset, char) for each *pattern* character from *pos* on.

    Comments are jumped over, and a backslash takes the next character along
    with it, so escaped characters are never yielded.  A match is looked up
    among the spans only when it lies at or past the next span's start.
    """
    spans, starts, next_start = span_at.spans, span_at.starts, -1
    while (m := pattern.search(text, pos)) is not None:
        i = m.start()
        if i >= next_start:
            k = bisect_right(starts, i)
            if k and i < spans[k - 1][1]:
                pos = spans[k - 1][1]
                continue
            next_start = starts[k] if k < len(starts) else len(text)
        pos = m.end()
        if text[i] != "\\":
            yield i, text[i]


def _match_group(text: str, open_pos: int, span_at, pattern: re.Pattern = _GROUP_RE) -> int | None:
    """Index of the ``}`` closing the ``{`` at *open_pos*, or None.

    With ``_OPTIONAL_RE``, of the ``]`` closing a ``[``; brackets inside brace
    groups do not count, so ``[short {a]b}]`` closes at the final bracket.
    """
    # A group at most three deep that holds no span is matched in one search.
    if pattern is _GROUP_RE and (m := _SHALLOW_GROUP_RE.match(text, open_pos)) is not None:
        k = bisect_left(span_at.starts, m.end())
        if not k or span_at.spans[k - 1][1] <= open_pos:
            return m.end() - 1
    closer, brace, bracket = "}" if pattern is _GROUP_RE else "]", 0, 0
    for i, ch in _structural(text, open_pos, span_at, pattern):
        if ch in "{}":
            brace += 1 if ch == "{" else -1
        elif not brace:
            bracket += 1 if ch == "[" else -1
        if ch == closer and not brace and not bracket:
            return i
    return None


_match_optional = partial(_match_group, pattern=_OPTIONAL_RE)


def _find_env_end(text: str, search_from: int, name: str, span_at) -> int | None:
    """Position just past the ``\\end{name}`` matching an already-seen begin.

    Handles nesting of the same environment name; matches inside comments
    are ignored.
    """
    pattern = _env_pattern(name)
    depth = 1
    while (m := _next_live(pattern, text, span_at, search_from)) is not None:
        search_from = m.end()
        depth += 1 if m.group(1) == "begin" else -1
        if depth == 0:
            return m.end()
    return None


@lru_cache(maxsize=512)
def _env_pattern(name: str) -> re.Pattern:
    return re.compile(r"\\(begin|end)\s*\{" + re.escape(name) + r"\}")


def _next_live(pattern: re.Pattern, text: str, span_at, pos: int = 0, endpos: int | None = None):
    """First match of *pattern* in ``text[pos:endpos]`` that is live structure.

    A match is dead when it starts inside one of *span_at*'s spans or is
    escaped; the search then resumes at its end, as ``finditer`` would.
    """
    endpos = len(text) if endpos is None else endpos
    while (m := pattern.search(text, pos, endpos)) is not None:
        if span_at(i := m.start()) is None and not _escaped(text, i):
            return m
        pos = m.end()
    return None


# --------------------------------------------------------------------------
# project sources and merging


@dataclass(frozen=True)
class ProjectSource:
    """A LaTeX project on disk: the main file plus every .tex sibling."""

    root_dir: Path
    main_file: str  # relative POSIX path
    files: dict[str, str]  # relative POSIX path -> raw text

    def __post_init__(self):
        if self.main_file not in self.files:
            raise MissingMainFile(f"{self.main_file} not found under {self.root_dir}")

    @classmethod
    def from_dir(cls, root: Path | str, main_file: str | None = None) -> "ProjectSource":
        """Load every .tex file under *root*; auto-detect the main file.

        A directory or a broken link named ``*.tex`` is skipped.  Detection
        prefers ``main.tex`` when it holds a ``\\documentclass``, then the
        alphabetically first file that does.
        """
        root = Path(root)
        if not root.is_dir():
            raise MissingMainFile(f"project directory does not exist: {root}")
        files: dict[str, str] = {}
        for path in sorted(p for p in root.rglob("*.tex") if p.is_file()):
            rel = path.relative_to(root).as_posix()
            files[rel] = path.read_text(encoding="utf-8", errors="surrogateescape")
        if not files:
            raise MissingMainFile(f"no .tex files under {root}")
        if main_file is None:
            main_file = _detect_main(files)
        return cls(root, main_file, files)


def _detect_main(files: dict[str, str]) -> str:
    candidates = [p for p in sorted(files) if "\\documentclass" in files[p]]
    if not candidates:
        raise MissingMainFile("no file contains \\documentclass")
    for p in candidates:
        if PurePosixPath(p).name == "main.tex":
            return p
    return candidates[0]


@dataclass(frozen=True)
class FileBoundary:
    """One inlined file: which token pair wraps it and what it replaced."""

    token_id: int
    path: str  # relative POSIX path of the inlined file
    directive: str  # the exact \input{...}/\include{...} text replaced


@dataclass(frozen=True)
class MergedDocument:
    text: str
    main_file: str
    boundaries: tuple[FileBoundary, ...] = ()
    warnings: tuple[str, ...] = ()


def _resolve_include(files: dict[str, str], raw: str) -> str | None:
    rel = str(PurePosixPath(raw.strip()))
    for candidate in (rel, rel + ".tex"):
        if candidate in files:
            return candidate
    return None


def merge_project(project: ProjectSource) -> MergedDocument:
    """Inline the include closure of the main file into one string.

    Each inlined file is wrapped in ``<PLACEHOLDER_FILE_k_begin>`` /
    ``<PLACEHOLDER_FILE_k_end>`` so it can be split back out verbatim.
    Include paths resolve relative to the project root.  Directives in
    comments and verbatim-like environments are text, not includes.
    Unresolvable and brace-less (``\\input chap``) directives, ``\\subfile``,
    ``\\import`` and ``\\subimport`` stay in place, a repeat include is
    inlined again, each with a warning; cycles are fatal.  A file with no
    include candidate is returned as it is, unscanned.
    """
    warnings: list[str] = []
    boundaries: list[FileBoundary] = []
    visiting: list[str] = []
    included: dict[str, str] = {}  # path -> where it was first included
    counter = 0

    def expand(rel_path: str) -> str:
        nonlocal counter
        text = project.files[rel_path]
        if "<PLACEHOLDER_" in text and (m := TOKEN_RE.search(text)) is not None:
            raise PlaceholderError(
                m.group(0), f"already in the source, at offset {m.start()} in {rel_path}"
            )
        if _INCLUDE_RE.search(text) is None:
            return text
        visiting.append(rel_path)
        span_at = _span_index(comment_spans(text))
        cuts, scan = [], 0
        while (m := _next_live(_INCLUDE_RE, text, span_at, scan)) is not None:
            scan = m.end()
            if m.group(1) is None:
                warnings.append(
                    f"{'brace-less ' if m.group(2) is None else ''}{m.group(0)} at offset "
                    f"{m.start()} in {rel_path}; not merged, left in place"
                )
                continue
            target = _resolve_include(project.files, m.group(1))
            if target is None:
                warnings.append(
                    f"unresolved include {m.group(0)!r} in {rel_path}; left in place"
                )
                continue
            if target in visiting:
                raise InclusionCycle(visiting + [target])
            where = f"offset {m.start()} in {rel_path}"
            if included.setdefault(target, where) != where:
                warnings.append(
                    f"{target} included more than once, at {included[target]} and at "
                    f"{where}; only the later copy's translation is written"
                )
            token_id = counter
            counter += 1
            body = file_begin_token(token_id) + expand(target) + file_end_token(token_id)
            boundaries.append(FileBoundary(token_id, target, m.group(0)))
            cuts.append((m.start(), m.end(), body))
        visiting.pop()
        return _cut(text, cuts)

    merged_text = expand(project.main_file)
    boundaries.sort(key=lambda b: b.token_id)
    return MergedDocument(merged_text, project.main_file, tuple(boundaries), tuple(warnings))


# --------------------------------------------------------------------------
# protection passes


def extract_captions(text: str, warnings: list[str], span_at, floats):
    """Cut the caption bodies in *floats*, ``(start, end, region_end)`` in order, for CAP tokens.

    Handles ``\\caption``, ``\\caption*`` and ``\\captionof``, an optional
    short-caption argument, and nested braces in the body; captions in
    *span_at*'s spans are text.  Returns the cuts ``(start, end, token)``,
    the map, and whether each float ends in its region and each body lies in
    its float, holds no ``\\begin`` or ``\\end`` and does not start on the
    line a verbatim-like body ends on: where not, the cuts change the walk.
    """
    pmap, cuts, exact, scan = PlaceholderMap(), [], True, 0
    for float_start, float_end, region_end in floats:
        exact = exact and float_end <= region_end
        scan = max(scan, float_start)
        while (m := _next_live(_CAPTION_RE, text, span_at, scan, float_end)) is not None:
            scan = i = m.end()
            if m.group(1):  # \captionof{type} carries the float type first
                i = _SPACE_RE.match(text, i).end()
                if not text.startswith("{", i) or (close := _match_group(text, i, span_at)) is None:
                    continue
                i = close + 1
            i = _SPACE_RE.match(text, i).end()
            if text.startswith("[", i):
                if (close := _match_optional(text, i, span_at)) is None:
                    where = f"{m.group(0)} at offset {m.start()}"
                    warnings.append(f"UnbalancedBraces: unterminated optional argument of {where}")
                    continue
                i = _SPACE_RE.match(text, close + 1).end()
            if not text.startswith("{", i):
                continue  # bare \caption without a braced body: nothing to protect
            if (close := _match_group(text, i, span_at)) is None:
                warnings.append(f"UnbalancedBraces: {m.group(0)} at offset {m.start()} never closes")
                continue
            token = cap_token(len(cuts))
            pmap.add(token, text[i + 1 : close])
            cuts.append((i + 1, close, token))
            scan = close
            k = bisect_left(span_at.starts, i) - 1  # does a verbatim-like body end on this line?
            on_rest = k >= 0 and text[span_at.starts[k]] == "\\"
            on_rest = on_rest and not _LINE_BREAK_RE.search(text, span_at.spans[k][1], i)
            exact = exact and close < float_end and not on_rest
            exact = exact and not _BEGIN_OR_END_RE.search(text, i + 1, close)
    return cuts, pmap, exact


def _floats(text: str, span_at, start: int, end: int):
    """Yield ``(start, end, region_end)`` for each outermost float beginning in ``text[start:end]``."""
    scan = start
    while (m := _next_live(_FLOAT_BEGIN_RE, text, span_at, scan, end)) is not None:
        scan = m.end()
        if (close := _find_env_end(text, scan, m.group(1), span_at)) is not None:
            yield m.start(), close, end
            scan = close


def extract_environments(
    text: str, warnings: list[str] | None = None, captions: bool = True
) -> tuple[str, PlaceholderMap, PlaceholderMap]:
    """Swap caption bodies in floats for CAP tokens and top-level blocks for ENV tokens.

    Only the body's blocks are cut, but every float's captions are, and a
    block holds its floats'.  Nested environments ride along inside their
    outermost block.  A stray ``\\end`` or an unterminated ``\\begin`` is a
    warning, after the captions', at its offset with the captions cut.
    Comments hide structure from the search for blocks; inside a block,
    verbatim-like bodies hide it too.  Where the caption cuts would change
    the walk, they are made first and the rest is walked without *captions*.
    Returns the stripped text and the CAP and ENV maps.
    """
    warnings = [] if warnings is None else warnings
    spans = comment_spans(text)
    span_at, verbatim_at = _span_index(_comments(text, spans)), _span_index(spans)
    begin_doc, body_start, body_end = document_body(text, spans)
    floats = list(_floats(text, verbatim_at, 0, begin_doc or 0))
    blocks, strays, scan = [], [], body_start
    while (m := _next_live(_BEGIN_OR_END_RE, text, span_at, scan, body_end)) is not None:
        start, scan, (which, name) = m.start(), m.end(), m.groups()
        if which == "end":
            strays.append((start, f"stray \\end{{{name}}}", ""))
            continue
        # A verbatim's own body is one of the spans.
        end = _find_env_end(text, scan, name, span_at if name in VERBATIM_ENVS else verbatim_at)
        if end is None or end > body_end:
            strays.append((start, f"\\begin{{{name}}}", " has no matching \\end"))
            floats += _floats(text, verbatim_at, start, scan) if end else ()
            continue
        blocks.append((start, end))
        if name in FLOAT_ENVS and verbatim_at(start) is None:
            floats.append((start, end, end))
        elif _FLOAT_BEGIN_RE.search(text, scan, end):
            floats += _floats(text, verbatim_at, start, end)
        scan = end
    floats += _floats(text, verbatim_at, body_end, len(text))
    cap_warnings: list[str] = []
    cuts, cap_map, exact = extract_captions(text, cap_warnings, verbatim_at, floats if captions else [])
    if not exact:
        whole = _floats(text, verbatim_at, 0, len(text))
        cuts, cap_map, _ = extract_captions(text, warnings, verbatim_at, whole)
        out, _, env_map = extract_environments(_cut(text, cuts), warnings, captions=False)
        return out, cap_map, env_map
    starts = [start for start, _, _ in cuts]
    shifts = list(accumulate((len(token) - (b - a) for a, b, token in cuts), initial=0))
    warnings += cap_warnings
    warnings += [f"UnmatchedEnvironment: {what} at offset {pos + shifts[bisect_left(starts, pos)]}{tail}"
                 for pos, what, tail in strays]
    # Captions before the first block are in the preamble, those after the last after the body.
    k = bisect_left(starts, blocks[0][0]) if blocks else len(cuts)
    env_map, out_cuts = PlaceholderMap(), cuts[:k]
    for n, (start, end) in enumerate(blocks):
        pieces, pos = [], start
        while k < len(cuts) and cuts[k][0] < end:
            pieces += (text[pos : cuts[k][0]], cuts[k][2])
            pos = cuts[k][1]
            k += 1
        env_map.add(token := env_token(n), "".join(pieces) + text[pos:end])
        out_cuts.append((start, end, token))
    return _cut(text, out_cuts + cuts[k:]), cap_map, env_map


def document_body(text: str, spans: list[tuple[int, int]]) -> tuple[int | None, int, int]:
    """Where the live ``\\begin{document}`` starts (or None), and where the body starts and ends.

    The body runs from that ``\\begin`` to the live ``\\end{document}`` after
    it, or to the end of *text*; with no ``\\begin``, it is all of *text*.
    Neither counts inside one of *spans*, *text*'s ``comment_spans``.
    """
    span_at = _span_index(spans)
    m = _next_live(_BEGIN_DOC_RE, text, span_at)
    if m is None:
        return None, 0, len(text)
    e = _next_live(_END_DOC_RE, text, span_at, m.end())
    return m.start(), m.end(), e.start() if e is not None else len(text)


# --------------------------------------------------------------------------
# units


@dataclass
class TranslationUnit:
    """One schedulable piece of work for the agent loop.

    ``source_text`` is immutable ground truth; only ``status``,
    ``needs_translation`` and ``translated_text`` change over a run.
    """

    id: int
    granularity: str
    source_text: str
    needs_translation: bool = True
    status: str = STATUS_PENDING
    translated_text: str | None = None
    token: str | None = None  # the placeholder this unit fills (ENV/CAP only)
    env_name: str | None = None
    role: str = "body"  # preamble | body | env | caption

    def output_text(self) -> str:
        """Text this unit contributes to the final document.

        Falls back to the untouched source whenever there is no validated
        translation, so a failed unit degrades to "not translated" rather
        than corrupting the output.
        """
        if (
            self.needs_translation
            and self.status == STATUS_VALIDATED
            and self.translated_text is not None
        ):
            return self.translated_text
        return self.source_text


def split_sections(text: str) -> list[TranslationUnit]:
    """Cut the document into preamble + section-sized units.

    The preamble (up to and including the live ``\\begin{document}``, as
    :func:`document_body` finds it) becomes a non-translatable unit.  The
    body is split before every live sectioning command; front matter before
    the first section is its own unit.  The units are numbered from 0; their
    ``source_text`` fields concatenate to *text* exactly.
    """
    spans = comment_spans(text)
    _, prev, _ = document_body(text, spans)
    scan, span_at = prev, _span_index(spans)
    units = [TranslationUnit(0, GRAN_SECTION, text[:prev], False, role="preamble")] if prev else []
    segments: list[str] = []
    while (c := _next_live(_SECTION_RE, text, span_at, scan)) is not None:
        segments.append(text[prev : c.start()])
        prev, scan = c.start(), c.end()
    segments.append(text[prev:])
    for seg in segments:
        blank = _BLANK_RE.fullmatch(seg) is not None
        units.append(TranslationUnit(len(units), GRAN_SECTION, seg, not blank, role="body"))
    return units


@dataclass
class ParsedDocument:
    """Everything the agent loop needs: tokenized text, maps, units."""

    merged: MergedDocument
    text: str  # body after caption + environment substitution
    cap_map: PlaceholderMap
    env_map: PlaceholderMap
    section_units: list[TranslationUnit] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def parse_project(project: ProjectSource) -> ParsedDocument:
    """Run the full parse pipeline over a project."""
    merged = merge_project(project)
    warnings = list(merged.warnings)
    stripped, cap_map, env_map = extract_environments(merged.text, warnings)
    sections = split_sections(stripped)
    return ParsedDocument(merged, stripped, cap_map, env_map, sections, warnings)


def enumerate_units(doc: ParsedDocument) -> list[TranslationUnit]:
    """Flatten a parsed document into the ordered unit list.

    The parse's own section units come first (they carry the placeholder
    tokens), then one unit per environment, then one per caption.
    Environment units start with ``needs_translation=False``; the unit
    filter may flip them.
    """
    units = list(doc.section_units)
    for entry in doc.env_map:
        name = _BEGIN_OR_END_RE.match(entry.original_text).group(2)
        units.append(
            TranslationUnit(len(units), GRAN_ENVIRONMENT, entry.original_text, False,
                            token=entry.token, env_name=name, role="env")
        )
    for entry in doc.cap_map:
        units.append(
            TranslationUnit(len(units), GRAN_CAPTION, entry.original_text, token=entry.token,
                            role="caption")
        )
    return units


def units_to_manifest(units: list[TranslationUnit]) -> list[dict]:
    """JSON-friendly view of the unit list (ids, kinds, flags, statuses)."""
    return [
        {
            "id": u.id,
            "granularity": u.granularity,
            "needs_translation": u.needs_translation,
            "status": u.status,
            "token": u.token,
            "env_name": u.env_name,
            "role": u.role,
            "chars": len(u.source_text),
        }
        for u in units
    ]
