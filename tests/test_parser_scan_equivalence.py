"""The parser's scanning kernels against their character-by-character forms.

``comment_spans``, ``_match_group`` and ``_match_optional`` jump between
interesting characters with ``str.find`` and regular expressions.  The
walks below step through every character instead; they are the reference,
and the two must agree on any text.  The ``%`` walk finds the comments
alone, so ``comment_spans``' comments are checked against it apart from its
verbatim-like bodies.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latexmt import parser
from latexmt.parser import VERBATIM_ENVS, _comments, _span_index

# --------------------------------------------------------------------------
# reference walks

BEGIN_RE = re.compile(r"\\begin\s*\{([^{}]*)\}")


def oracle_comment_spans(text: str) -> list[tuple[int, int]]:
    """The ``%`` comments of *text*."""
    return oracle_walk(text)[0]


def oracle_spans(text: str) -> list[tuple[int, int]]:
    """The comments and the verbatim-like bodies of *text*, in order."""
    comments, bodies = oracle_walk(text)
    return sorted(comments + bodies)


def oracle_walk(text: str) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The comments of *text*, and its verbatim-like bodies from ``\\begin`` to ``\\end``."""
    spans: list[tuple[int, int]] = []
    bodies: list[tuple[int, int]] = []
    in_verbatim: str | None = None
    opened = 0
    offset = 0
    for line in text.splitlines(keepends=True):
        content_len = len(line.rstrip("\r\n"))
        if in_verbatim is not None:
            end = f"\\end{{{in_verbatim}}}"
            if end in line:
                bodies.append((opened, offset + line.index(end) + len(end)))
                in_verbatim = None
            offset += len(line)
            continue
        start = 0
        while True:
            cut = oracle_comment_start(line, start, content_len)
            scan_end = content_len if cut is None else cut
            landed = oracle_landings(line, start, scan_end)
            begin = next(
                (m for m in BEGIN_RE.finditer(line, start, scan_end)
                 if m.group(1) in VERBATIM_ENVS and m.start() in landed),
                None,
            )
            if begin is None:
                if cut is not None:
                    spans.append((offset + cut, offset + content_len))
                break
            # A '%' inside the verbatim is literal: its \end may follow one.
            end = f"\\end{{{begin.group(1)}}}"
            close = line.find(end, begin.end(), content_len)
            if close == -1:
                in_verbatim = begin.group(1)
                opened = offset + begin.start()
                break
            start = close + len(end)
            bodies.append((offset + begin.start(), offset + start))
        offset += len(line)
    if in_verbatim is not None:
        bodies.append((opened, len(text)))
    return spans, bodies


def oracle_landings(line: str, start: int, limit: int) -> set[int]:
    """The offsets the walk stops at: every character a backslash does not take."""
    landed = set()
    i = start
    while i < limit:
        landed.add(i)
        i += 2 if line[i] == "\\" else 1
    return landed


def oracle_comment_start(line: str, start: int, limit: int) -> int | None:
    i = start
    while i < limit:
        ch = line[i]
        if ch == "\\":
            i += 2
            continue
        if ch == "%":
            return i
        i += 1
    return None


def oracle_match_group(text: str, open_pos: int, span_at) -> int | None:
    depth = 0
    i = open_pos
    n = len(text)
    while i < n:
        span = span_at(i)
        if span is not None:
            i = span[1]
            continue
        ch = text[i]
        if ch == "\\":
            i += 2
            continue
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None


def oracle_match_optional(text: str, open_pos: int, span_at) -> int | None:
    bracket = 0
    brace = 0
    i = open_pos
    n = len(text)
    while i < n:
        span = span_at(i)
        if span is not None:
            i = span[1]
            continue
        ch = text[i]
        if ch == "\\":
            i += 2
            continue
        if ch == "{":
            brace += 1
        elif ch == "}":
            brace -= 1
        elif brace == 0:
            if ch == "[":
                bracket += 1
            elif ch == "]":
                bracket -= 1
                if bracket == 0:
                    return i
        i += 1
    return None


# --------------------------------------------------------------------------
# generated text

# Every character ``str.splitlines`` breaks a line on.
LINE_BREAKS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "",
]
# What the scanners look for, escaped and not.
PIECES = ["%", "\\", "\\%", "\\\\", "{", "}", "[", "]", "\\{", "\\}", "\\[", "\\]", "a", " "]
# The markers that switch comment scanning off and on, alone or together.
MARKERS = [
    "\\begin{verbatim}", "\\end{verbatim}", "\\begin{lstlisting}", "\\end{lstlisting}",
    "\\begin {verbatim}", "\\begin{verbatim}50%\\end{verbatim}", "\\begin{figure}",
    "\\begin{lstlisting}x\\end{lstlisting}", "\\begin", "{verbatim}",
]


@st.composite
def texts(draw):
    """A few lines of pieces and markers, or of a marker alone.

    Each text draws its pieces from a small subset of PIECES, which makes
    the rarer combinations (an escaped bracket inside an optional argument,
    a comment after a closed verbatim) common.
    """
    pieces = draw(st.lists(st.sampled_from(PIECES), min_size=1, max_size=5, unique=True))
    fragment = st.sampled_from(pieces) | st.sampled_from(MARKERS)
    line = st.sampled_from(MARKERS) | st.lists(fragment, max_size=6).map("".join)
    lines = draw(st.lists(st.tuples(line, st.sampled_from(LINE_BREAKS)), max_size=6))
    return "".join(body + brk for body, brk in lines)


def _span_at(text: str):
    return _span_index(oracle_spans(text))


def _starts(text: str) -> list[int]:
    """Where a walk may begin: each opener, and each character that is skipped."""
    return [0] + [i for i, ch in enumerate(text) if ch in "{[\\%"]


# A verbatim opened on a line with no comment, closed, and then comments:
# after it on the next line, and after one closed on its own line.
VERBATIM_THEN_COMMENT = (
    "\\begin{verbatim}\n%a\n\\end{verbatim}\n%b\n\\begin{verbatim}x\\end{verbatim} %c\n"
)
# A verbatim closed on its line after a '%' it holds: the '%' is literal and
# the comments on the next lines are comments.
CUT_VERBATIM = "\\begin{verbatim}50%\\end{verbatim}\n%a\n\\end{verbatim}\n%b\n"
# Percent signs after one, two and three backslashes.
ESCAPED_PERCENT = "a\\%b\\\\%c\n\\\\\\%d %e\n"
# A \begin after an escaped backslash is text: the '%' after it is a comment.
ESCAPED_BEGIN = "a \\\\begin{verbatim} % c\n\\section{S}\n"
# A \begin whose name is on the next line opens nothing.
SPLIT_BEGIN = "\\begin\x0b{verbatim}\n%a\n"
# Escaped braces and brackets inside groups and optional arguments.
ESCAPES = "[\\]]{\\}}[{\\{]}]\\\n{\\\n}"


@settings(max_examples=200, deadline=None)
@given(texts())
@example(VERBATIM_THEN_COMMENT)
@example(SPLIT_BEGIN)
@example(CUT_VERBATIM)
@example(ESCAPED_PERCENT)
@example(ESCAPED_BEGIN)
def test_comment_spans_matches_the_walk(text):
    assert _comments(text, parser.comment_spans(text)) == oracle_comment_spans(text)


@settings(max_examples=200, deadline=None)
@given(texts())
@example(VERBATIM_THEN_COMMENT)
@example(CUT_VERBATIM)
@example(ESCAPED_BEGIN)
@example(SPLIT_BEGIN)
def test_verbatim_spans_only_add_verbatim_bodies(text):
    spans = parser.comment_spans(text)
    assert spans == oracle_spans(text)
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    added = [span for span in spans if span not in _comments(text, spans)]
    assert all(text.startswith("\\begin", start) for start, _ in added)


@settings(max_examples=200, deadline=None)
@given(texts())
@example(ESCAPES)
@example(VERBATIM_THEN_COMMENT + "{%}\n}")
def test_match_group_matches_the_walk(text):
    span_at = _span_at(text)
    for pos in _starts(text):
        assert parser._match_group(text, pos, span_at) == oracle_match_group(
            text, pos, span_at
        )


@settings(max_examples=200, deadline=None)
@given(texts())
@example(ESCAPES)
@example(VERBATIM_THEN_COMMENT + "[%]\n]")
def test_match_optional_matches_the_walk(text):
    span_at = _span_at(text)
    for pos in _starts(text):
        assert parser._match_optional(text, pos, span_at) == oracle_match_optional(
            text, pos, span_at
        )
