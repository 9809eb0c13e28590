"""The spans each parser pass hands on, and the float and end searches.

``merge_project`` puts the merged text's spans (``comment_spans(text)``:
comments and verbatim-like bodies) together from its files', and
``extract_captions`` and ``extract_environments`` carry their input's
through their cuts; each hands it on to the next pass.  Carried or scanned,
the spans must be the ones a scan of the output gives, and their comments
the ones the ``%`` walk finds.
``_float_spans`` searches float names only and ``_find_env_end`` compiles
each name's pattern once; the walks they replaced are kept below as their
oracles.
"""

from __future__ import annotations

import re
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latexmt import parser
from latexmt.parser import (
    FLOAT_ENVS,
    ProjectSource,
    _comments,
    _next_live,
    _span_index,
    comment_spans,
    merge_project,
)

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
# generated text

# Captions and blocks to cut, among texts()'s comments and verbatims.
CUT_MARKERS = [
    "\\caption{", "\\caption[", "]", "}", "{", "\\begin{document}", "\n", "\\end{verbatim} ",
    "\\begin{verbatim}\n",
]


@st.composite
def cut_texts(draw) -> str:
    """Pieces of texts() and markers, and the \\begin and \\end of one environment."""
    name = draw(st.sampled_from(sorted(FLOAT_ENVS) + ["itemize", "verbatim", "figure**"]))
    space = draw(st.sampled_from(["", " ", "\n"]))
    markers = CUT_MARKERS + [f"\\begin{space}{{{name}}}", f"\\end{space}{{{name}}}"]
    return "".join(draw(st.lists(texts() | st.sampled_from(markers), max_size=10)))


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
# A \begin after an escaped backslash opens no verbatim, before and after
# the caption and block cuts around it.
ESCAPED_BEGIN_IN_FLOAT = (
    "\\begin{document}\n\\begin{figure}\n\\caption{a} \\\\begin{verbatim} % c\n"
    "\\end{figure}\\\\begin{verbatim} %d\n\\end{document}\n"
)


def assert_hands_on_a_scan(text: str, spans=None) -> None:
    decapped, _, spans = parser.extract_captions(text, None, spans)
    assert spans == comment_spans(decapped)
    assert _comments(decapped, spans) == oracle_comment_spans(decapped)
    stripped, _, spans = parser.extract_environments(decapped, None, spans)
    assert spans == comment_spans(stripped)
    assert _comments(stripped, spans) == oracle_comment_spans(stripped)


@settings(max_examples=300, deadline=None)
@given(texts() | cut_texts())
@example(NESTED_VERBATIM)
@example(BLOCK_BEFORE_SKIPPED)
@example(CAPTION_BEFORE_SKIPPED)
@example(CAPTION_FROM_SKIPPED)
@example(ESCAPED_BEGIN)
@example(ESCAPED_BEGIN_IN_FLOAT)
def test_each_pass_hands_on_what_a_scan_of_its_output_gives(text):
    assert_hands_on_a_scan(text)


@settings(max_examples=150, deadline=None)
@given(projects())
@example(OPEN_VERBATIM_PROJECT)
@example(COMMENT_END_PROJECT)
@example(INCLUDE_IN_SKIPPED)
def test_each_pass_hands_on_what_a_scan_gives_on_merged_projects(files):
    doc = merged(files)
    assert doc.spans == comment_spans(doc.text)
    assert_hands_on_a_scan(doc.text, doc.spans)


@settings(max_examples=200, deadline=None)
@given(texts() | cut_texts() | projects().map(lambda files: merged(files).text))
@example(CAPTION_BEFORE_SKIPPED)
def test_float_and_end_searches_match_the_walks(text):
    span_at = _span_index(comment_spans(text))
    assert parser._float_spans(text, span_at) == walk_float_spans(text, span_at)
    for m in BEGIN_RE.finditer(text):
        assert parser._find_env_end(text, m.end(), m.group(1), span_at) == (
            uncached_find_env_end(text, m.end(), m.group(1), span_at)
        )


def test_each_float_name_is_searched():
    text = "".join(f"\\begin {{{name}}}%\n\\end{{{name}}}" for name in sorted(FLOAT_ENVS))
    span_at = _span_index(comment_spans(text))
    assert len(parser._float_spans(text, span_at)) == len(FLOAT_ENVS)
    assert parser._float_spans(text, span_at) == walk_float_spans(text, span_at)


def test_one_scan_per_source_file_and_none_after(monkeypatch):
    files = {
        "main.tex": (
            "\\documentclass{article}\n\\begin{document}\n\\input{a}\n"
            "\\section{Two} 50\\% % \\section{Hidden}\n\\input{b}\n\\end{document}\n"
        ),
        "a.tex": (
            "\\section{One}\n\\begin{figure}\n\\begin{verbatim}\n50% \\caption{x}\n"
            "\\end{verbatim}\n\\caption[s]{A {b}} % c\n\\end{figure}\n"
            "\\begin{itemize}\\begin{itemize}\n\\item % \\end{itemize}\n"
            "\\end{itemize}\\end{itemize}\n"
        ),
        "b.tex": "\\begin{lstlisting}\n% x\n\\end{lstlisting}\n% \\input{a}\n",
    }
    scanned = []

    def scan(text, *args, **kwargs):
        scanned.append(text)
        return comment_spans(text, *args, **kwargs)

    monkeypatch.setattr(parser, "comment_spans", scan)
    parsed = parser.parse_project(ProjectSource(Path("."), "main.tex", files))
    assert scanned == [files["main.tex"], files["a.tex"], files["b.tex"]]
    assert len(parsed.cap_map) == 1 and len(parsed.env_map) == 3
