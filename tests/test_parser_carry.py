"""The scans a parse makes, the float and end searches, and the protection pass.

Each text is scanned (``comment_spans``: comments and verbatim-like bodies)
at most once, by the pass that reads it: a source file only when it holds
an include candidate, then the merged text, then the stripped text.  A cut
is a plain splice; nothing is carried across it.  ``_floats`` searches float
names only, in the regions the environments walk gives, and
``_find_env_end`` compiles each name's pattern once; the walks they
replaced are kept below as their oracles.  So is the parse they replaced: a
captions pass over the whole text, then an environments pass over what it
left, each with its own cut and its own scan.  The one walk must give the
same stripped text, maps, warnings and section units, and the stripped
text's comments must be the ones the ``%`` walk finds.
"""

from __future__ import annotations

import re
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latexmt import parser
from latexmt.parser import (
    _BEGIN_OR_END_RE,
    _CAPTION_RE,
    _FLOAT_BEGIN_RE,
    FLOAT_ENVS,
    VERBATIM_ENVS,
    ProjectSource,
    _comments,
    _cut,
    _find_env_end,
    _match_group,
    _match_optional,
    _next_live,
    _span_index,
    comment_spans,
    document_body,
    merge_project,
    split_sections,
)
from latexmt.placeholders import PlaceholderMap, cap_token, env_token

from test_parser_scan_equivalence import ESCAPED_BEGIN, oracle_comment_spans, texts
from test_round_trip import projects

# --------------------------------------------------------------------------
# the walks the searches replaced

BEGIN_RE = re.compile(r"\\begin\s*\{([^{}]*)\}")


def walk_float_spans(text: str, span_at) -> list[tuple[int, int]]:
    """Every live ``\\begin``, kept when its name is a float's."""
    spans: list[tuple[int, int]] = []
    scan = 0
    while (m := _next_live(BEGIN_RE, text, span_at, scan)) is not None:
        scan = m.end()
        name = m.group(1)
        if name not in FLOAT_ENVS:
            continue
        end = uncached_find_env_end(text, m.end(), name, span_at)
        if end is None:
            continue
        spans.append((m.start(), end))
        scan = end
    return spans


def uncached_find_env_end(text: str, search_from: int, name: str, span_at) -> int | None:
    pattern = re.compile(r"\\(begin|end)\s*\{" + re.escape(name) + r"\}")
    depth = 1
    while (m := _next_live(pattern, text, span_at, search_from)) is not None:
        search_from = m.end()
        depth += 1 if m.group(1) == "begin" else -1
        if depth == 0:
            return m.end()
    return None


# --------------------------------------------------------------------------
# the parse the one walk replaced


def oracle_float_spans(text: str, span_at) -> list[tuple[int, int]]:
    """Spans of outermost float environments (where captions may live)."""
    spans: list[tuple[int, int]] = []
    scan = 0
    while (m := _next_live(_FLOAT_BEGIN_RE, text, span_at, scan)) is not None:
        scan = m.end()
        if (end := _find_env_end(text, m.end(), m.group(1), span_at)) is not None:
            spans.append((m.start(), end))
            scan = end
    return spans


def skip_ws(text: str, i: int) -> int:
    return re.compile(r"[ \t\r\n]*").match(text, i).end()


def oracle_captions(text: str, warnings: list[str]):
    """Replace caption bodies inside float environments with CAP tokens."""
    span_at = _span_index(comment_spans(text))
    in_float = _span_index(oracle_float_spans(text, span_at))
    pmap = PlaceholderMap()
    cuts: list[tuple[int, int, str]] = []
    scan = 0
    while (m := _next_live(_CAPTION_RE, text, span_at, scan)) is not None:
        scan = m.end()
        if in_float(m.start()) is None:
            continue
        i = m.end()
        if m.group(1):  # \captionof{type} carries the float type first
            i = skip_ws(text, i)
            if i >= len(text) or text[i] != "{":
                continue
            close = _match_group(text, i, span_at)
            if close is None:
                continue
            i = close + 1
        i = skip_ws(text, i)
        if i < len(text) and text[i] == "[":
            close = _match_optional(text, i, span_at)
            if close is None:
                warnings.append(
                    f"UnbalancedBraces: unterminated optional argument of "
                    f"{m.group(0)} at offset {m.start()}"
                )
                continue
            i = close + 1
        i = skip_ws(text, i)
        if i >= len(text) or text[i] != "{":
            continue  # bare \caption without a braced body: nothing to protect
        close = _match_group(text, i, span_at)
        if close is None:
            warnings.append(
                f"UnbalancedBraces: {m.group(0)} at offset {m.start()} never closes"
            )
            continue
        token = cap_token(len(cuts))
        pmap.add(token, text[i + 1 : close])
        cuts.append((i + 1, close, token))
        scan = close
    return _cut(text, cuts), pmap


def oracle_environments(text: str, warnings: list[str]):
    """Replace each top-level ``\\begin{x}...\\end{x}`` block of the body with an ENV token."""
    spans = comment_spans(text)
    span_at, verbatim_at = _span_index(_comments(text, spans)), _span_index(spans)
    _, body_start, body_end = document_body(text, spans)
    pmap = PlaceholderMap()
    cuts: list[tuple[int, int, str]] = []
    scan = body_start
    while (m := _next_live(_BEGIN_OR_END_RE, text, span_at, scan, body_end)) is not None:
        scan = m.end()
        which, name = m.group(1), m.group(2)
        if which == "end":
            warnings.append(
                f"UnmatchedEnvironment: stray \\end{{{name}}} at offset {m.start()}"
            )
            continue
        # A verbatim's own body is one of the spans.
        end = _find_env_end(text, m.end(), name, span_at if name in VERBATIM_ENVS else verbatim_at)
        if end is None or end > body_end:
            warnings.append(
                f"UnmatchedEnvironment: \\begin{{{name}}} at offset {m.start()} "
                f"has no matching \\end"
            )
            continue
        token = env_token(len(cuts))
        pmap.add(token, text[m.start() : end])
        cuts.append((m.start(), end, token))
        scan = end
    return _cut(text, cuts), pmap


def oracle_protect(text: str, warnings: list[str]):
    """The captions pass, then the environments pass over what it left."""
    decapped, cap_map = oracle_captions(text, warnings)
    stripped, env_map = oracle_environments(decapped, warnings)
    return stripped, cap_map, env_map


# --------------------------------------------------------------------------
# generated text

# Captions and blocks to cut, among texts()'s comments and verbatims.
CUT_MARKERS = [
    "\\caption{", "\\caption[", "]", "}", "{", "\\begin{document}", "\\end{document}", "\n",
    "\\end{verbatim} ", "\\begin{verbatim}\n",
]


@st.composite
def cut_texts(draw) -> str:
    """Pieces of texts() and markers, and the \\begin and \\end of one environment."""
    name = draw(st.sampled_from(sorted(FLOAT_ENVS) + ["itemize", "verbatim", "figure**"]))
    space = draw(st.sampled_from(["", " ", "\n"]))
    markers = CUT_MARKERS + [f"\\begin{space}{{{name}}}", f"\\end{space}{{{name}}}"]
    return "".join(draw(st.lists(texts() | st.sampled_from(markers), max_size=10)))


# The structure the environments walk and the float search see, and the
# caption bodies that may cross it.
STRUCTURE_MARKERS = [
    "\\begin{figure}", "\\end{figure}", "\\begin{itemize}", "\\end{itemize}", "\\caption{",
    "\\caption[", "\\captionof{t}{", "[", "]", "{", "}", "\\begin{document}", "\\end{document}",
    "\\begin{verbatim}\n", "\\end{verbatim}", "\n", "%", "\\", "a",
]


def structure_texts() -> st.SearchStrategy[str]:
    """A float, a caption in it and a block after, among floats, blocks and the document's bounds."""
    pieces = st.lists(st.sampled_from(STRUCTURE_MARKERS), max_size=6).map("".join)
    short = st.just("") | pieces.map(lambda p: f"[{p}]")  # the caption's optional argument
    return st.tuples(pieces, pieces, short, pieces, pieces, pieces).map(
        lambda p: f"{p[0]}\\begin{{figure}}{p[1]}\\caption{p[2]}{{{p[3]}}}{p[4]}"
        f"\\begin{{table}}{p[5]}\\end{{table}}"
    )


def merged(files: dict[str, str]):
    return merge_project(ProjectSource(Path("."), "main.tex", files))


# The environments pass cuts the inner verbatim as a block, so in its output
# the outer one runs to the end and the '%' after it is no comment.
NESTED_VERBATIM = "\\begin{verbatim}\\begin{verbatim}50%\\end{verbatim}%\n"
# An included file ending inside an unterminated verbatim: in the merged
# text, the main file's comment after the include is verbatim.
OPEN_VERBATIM_PROJECT = {
    "main.tex": (
        "\\documentclass{article}\n\\begin{document}\n\\input{f1}\n"
        "% \\section{Hidden}\n\\end{document}\n"
    ),
    "f1.tex": "\\section{One}\n\\begin{verbatim}\n50% code\n",
}
# An included file whose last line is a comment: in the merged text, the
# comment runs on over the end token and the rest of the including line.
COMMENT_END_PROJECT = {
    "main.tex": "\\documentclass{article}\n\\begin{document}\n\\input{f1} y\n\\end{document}\n",
    "f1.tex": "x % c",
}
# The scan skips the rest of a multi-line verbatim's \end line: a '%' there
# is no comment, one a cut or an include moves there is none, and one a cut
# moves away from there is one.  An include on that rest...
INCLUDE_IN_SKIPPED = {
    "main.tex": (
        "\\documentclass{article}\n\\begin{document}\n\\begin{verbatim}\nx\n"
        "\\end{verbatim}\\input{f1}\n\\end{document}\n"
    ),
    "f1.tex": "% c\n",
}
# ...a block cut...
BLOCK_BEFORE_SKIPPED = "\\begin{verbatim}\nx\n\\end{verbatim} % c\n"
# ...a caption cut holding it...
CAPTION_BEFORE_SKIPPED = (
    "\\begin{figure}\n\\caption{a \\begin{verbatim}\nx\n\\end{verbatim} b} % c\n\\end{figure}\n"
)
# ...or a caption cut from the skipped rest into the next line.
CAPTION_FROM_SKIPPED = (
    "\\begin{figure}\n\\begin{verbatim}\nx\n\\end{verbatim}\\caption{a\nb} %c\n\\end{figure}\n"
)
# ...and a caption cut that moves a commented \end{figure} onto that rest,
# where it is live.
CAPTION_FROM_SKIPPED_TO_END = (
    "\\begin{figure}\n\\begin{verbatim}\nx\n\\end{verbatim}\\caption{a\nb} %\\end{figure}\n"
    "\\end{figure}\n"
)
# A \begin after an escaped backslash opens no verbatim, before and after
# the caption and block cuts around it.
ESCAPED_BEGIN_IN_FLOAT = (
    "\\begin{document}\n\\begin{figure}\n\\caption{a} \\\\begin{verbatim} % c\n"
    "\\end{figure}\\\\begin{verbatim} %d\n\\end{document}\n"
)
# Floats the walk's blocks do not hold: one that runs past \end{document},
# one that runs past the block it begins in, one in the preamble that runs
# into the body, and one after the body.
FLOAT_PAST_THE_BODY = (
    "\\begin{document}\n\\begin{figure}\\caption{x}\n\\end{document}\n\\end{figure}\n"
)
FLOAT_PAST_ITS_BLOCK = (
    "\\begin{itemize}\\begin{figure}\\end{itemize}\\caption{y}\\begin{table}\\caption{z}\\end{table}"
    "\\end{figure}\n"
)
FLOAT_INTO_THE_BODY = (
    "\\begin{figure}\n\\begin{document}\n\\caption{z}\n\\end{figure}\n"
    "\\begin{table}\\caption{w}\\end{table}\\end{document}\n\\begin{figure}\\caption{v}\\end{figure}"
)
# Caption bodies that hold the structure the walk sees: the \end of their
# float, and the \begin{document}.
CAPTION_HOLDS_ITS_END = "\\begin{figure}\\caption{a\\end{figure}b}\\end{figure}\n"
# A short caption that holds the float's \end puts the body after the float.
ARGUMENT_HOLDS_ITS_END = (
    "\\begin{document}\\begin{figure}\\caption[\\end{figure}]{a}\\end{figure}"
    "\\begin{table}\\caption{b}\\end{table}\\end{document}\n"
)
CAPTION_HOLDS_THE_BEGIN = (
    "\\begin{figure}\\caption{\\begin{document}}\\end{figure}\n\\begin{document}\n"
    "\\begin{itemize}x\\end{itemize}\n\\end{document}\n"
)


def assert_protects_as_the_two_passes(text: str, warnings=()) -> None:
    want_warnings, got_warnings = list(warnings), list(warnings)
    want = oracle_protect(text, want_warnings)
    got = parser.extract_environments(text, got_warnings)
    assert got[0] == want[0]
    for got_map, want_map in zip(got[1:], want[1:]):
        assert [(e.token, e.original_text) for e in got_map] == [
            (e.token, e.original_text) for e in want_map
        ]
    assert got_warnings == want_warnings
    assert _comments(got[0], comment_spans(got[0])) == oracle_comment_spans(got[0])
    assert [vars(u) for u in split_sections(got[0])] == [vars(u) for u in split_sections(want[0])]


@settings(max_examples=400, deadline=None)
@given(texts() | cut_texts() | structure_texts())
@example(NESTED_VERBATIM)
@example(BLOCK_BEFORE_SKIPPED)
@example(CAPTION_BEFORE_SKIPPED)
@example(CAPTION_FROM_SKIPPED)
@example(CAPTION_FROM_SKIPPED_TO_END)
@example(ESCAPED_BEGIN)
@example(ESCAPED_BEGIN_IN_FLOAT)
@example(FLOAT_PAST_THE_BODY)
@example(FLOAT_PAST_ITS_BLOCK)
@example(FLOAT_INTO_THE_BODY)
@example(CAPTION_HOLDS_ITS_END)
@example(CAPTION_HOLDS_THE_BEGIN)
@example(ARGUMENT_HOLDS_ITS_END)
def test_one_walk_protects_as_the_two_passes(text):
    assert_protects_as_the_two_passes(text)


@settings(max_examples=150, deadline=None)
@given(projects())
@example(OPEN_VERBATIM_PROJECT)
@example(COMMENT_END_PROJECT)
@example(INCLUDE_IN_SKIPPED)
def test_one_walk_protects_merged_projects_as_the_two_passes(files):
    doc = merged(files)
    assert_protects_as_the_two_passes(doc.text, doc.warnings)


def walk_floats(text: str) -> list[tuple[int, int, int]]:
    """The floats, with their regions' ends, that the environments walk hands ``extract_captions``."""
    calls = []
    real = parser.extract_captions
    parser.extract_captions = lambda *args: calls.append(args[3]) or real(*args)
    try:
        parser.extract_environments(text, [])
    finally:
        parser.extract_captions = real
    return calls[0]


@settings(max_examples=200, deadline=None)
@given(texts() | cut_texts() | projects().map(lambda files: merged(files).text))
@example(CAPTION_BEFORE_SKIPPED)
@example(FLOAT_PAST_ITS_BLOCK)
def test_float_and_end_searches_match_the_walks(text):
    spans = comment_spans(text)
    span_at = _span_index(spans)
    whole = parser._floats(text, span_at, 0, len(text))
    assert [(start, end) for start, end, _ in whole] == walk_float_spans(text, span_at)
    # In the walk's regions, a float that runs past its region is reported.
    floats = walk_floats(text)
    if all(end <= region_end for _, end, region_end in floats):
        assert [(start, end) for start, end, _ in floats] == walk_float_spans(text, span_at)
    else:
        assert not parser.extract_captions(text, [], span_at, floats)[2]
    for m in BEGIN_RE.finditer(text):
        assert parser._find_env_end(text, m.end(), m.group(1), span_at) == (
            uncached_find_env_end(text, m.end(), m.group(1), span_at)
        )


def test_each_float_name_is_searched():
    floats = "".join(f"\\begin {{{name}}}%\n\\end{{{name}}}" for name in sorted(FLOAT_ENVS))
    for text in (
        floats + "\\begin{document}\n",  # the preamble
        "\\begin{document}\\begin{center}" + floats + "\\end{center}",  # a block
    ):
        found = [(start, end) for start, end, _ in walk_floats(text)]
        assert len(found) == len(FLOAT_ENVS)
        assert found == walk_float_spans(text, _span_index(comment_spans(text)))


def test_each_text_is_scanned_once_and_a_leaf_file_never(monkeypatch):
    files = {
        "main.tex": (
            "\\documentclass{article}\n\\begin{document}\n\\input{a}\n"
            "\\section{Two} 50\\% % \\section{Hidden}\n\\input{b}\n\\end{document}\n"
        ),
        "a.tex": (
            "\\section{One}\n\\begin{figure}\n\\begin{verbatim}\n50% \\caption{x}\n"
            "\\end{verbatim}\n\\caption[s]{A {b}} % c\n\\end{figure}\n\\input{c}\n"
        ),
        "b.tex": "\\begin{lstlisting}\n% x\n\\end{lstlisting}\n% \\input{a}\n",
        "c.tex": (
            "\\begin{itemize}\\begin{itemize}\n\\item % \\end{itemize}\n"
            "\\end{itemize}\\end{itemize}\n"
        ),
    }
    scanned = []

    def scan(text, *args, **kwargs):
        scanned.append(text)
        return comment_spans(text, *args, **kwargs)

    monkeypatch.setattr(parser, "comment_spans", scan)
    parsed = parser.parse_project(ProjectSource(Path("."), "main.tex", files))
    # b.tex holds \input only in a comment; c.tex, a leaf, holds no candidate.
    want = [files["main.tex"], files["a.tex"], files["b.tex"], parsed.merged.text, parsed.text]
    assert scanned == want
    assert len(parsed.cap_map) == 1 and len(parsed.env_map) == 3
