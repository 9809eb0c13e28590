"""Round-trip property over generated multi-file LaTeX projects.

Parsing, reassembling the untranslated units and unmerging must give back
every file of the include closure byte for byte, and only real captions
(inside floats, outside comments and verbatim-like bodies) become CAPTION
units.  The projects mix the constructs the parser has to skip: comments,
``\\%`` and ``\\\\``, ``verbatim``/``lstlisting`` bodies holding ``%``,
``\\section``, a captioned float and a lone ``{``, ``\\verb|50%|``, nested
environments (``itemize`` inside ``itemize`` among them), captions with
optional arguments and nested braces, nested ``\\input``, and an included
file that ends inside a ``verbatim`` it never closes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from latexmt.generator import reassemble, unmerge
from latexmt.parser import ProjectSource, enumerate_units, parse_project

REAL = "REAL"  # every generated float caption holds this word once
FAKE = "in verbatim"  # captions inside verbatim-like bodies hold this
# Ends an included file: the merged text is verbatim from there to the next
# line that holds an \end{verbatim}, or to its end.
OPEN_VERBATIM = "\\begin{verbatim}\n50% left open\n"

prose = st.lists(
    st.sampled_from(
        [
            "alpha",
            "beta {gamma}",
            "50\\% of",
            "naïve",
            "$x^{2}$",
            "\\textbf{bold}",
            "break\\\\caption{escaped}",  # \\ then text: no caption
        ]
    ),
    min_size=1,
    max_size=4,
).map(lambda words: " ".join(words) + "\n")

comment = st.sampled_from(
    [
        "% \\section{Hidden} {\n",
        "kept \\% text % \\begin{figure}\\caption{ghost}\n",
        "% \\input{f1}\n",
        "%\n",
    ]
)

verbatim = st.tuples(
    st.sampled_from(["verbatim", "lstlisting"]),
    st.lists(
        st.sampled_from(
            [
                "50% done\n",
                "\\section{Not a section}\n",
                f"\\begin{{figure}}\\caption{{{FAKE}}}\\end{{figure}}\n",
                f"% \\begin{{table}}\\caption{{{FAKE}}}\\end{{table}}\n",
                "{\n",
            ]
        ),
        min_size=1,
        max_size=4,
    ),
).map(lambda t: f"\\begin{{{t[0]}}}\n" + "".join(t[1]) + f"\\end{{{t[0]}}}\n")

# \verb|50%| reads as a comment, so a heading after it on its line is lost
# as a cut; bytes still survive.
verb = st.sampled_from(["\\verb|50%|\n", "\\verb|50%| \\section{Lost cut}\n"])

section = st.sampled_from(["\\section{Intro}\n", "\\subsection*{More {words}}\n"])

caption = st.tuples(
    st.sampled_from(["", "[short]", "[s {a]b}]", " [x] "]),
    st.sampled_from([REAL, f"A {{{REAL} {{b}}}} c", f"50\\% {{{REAL}}}"]),
).map(lambda t: f"\\caption{t[0]}{{{t[1]}}}\n")


def _environment(t) -> str:
    name, children = t
    return f"\\begin{{{name}}}\n" + "".join(children) + f"\\end{{{name}}}\n"


def _float(t) -> str:
    name, children, cap = t
    return f"\\begin{{{name}}}\n" + "".join(children) + cap + f"\\end{{{name}}}\n"


chunks = st.recursive(
    st.one_of(prose, comment, verbatim, verb, section),
    lambda inner: st.one_of(
        st.tuples(
            st.sampled_from(["itemize", "center", "theorem"]),
            st.lists(inner, min_size=1, max_size=3),
        ).map(_environment),
        st.tuples(
            st.sampled_from(["figure", "table*"]),
            st.lists(inner, max_size=2),
            caption,
        ).map(_float),
        st.lists(inner, min_size=1, max_size=2).map(
            lambda children: _environment(("itemize", [_environment(("itemize", children))]))
        ),
    ),
    max_leaves=8,
)


@st.composite
def projects(draw) -> dict[str, str]:
    """Main file plus up to three included files, each included once.

    One included file may end inside an open verbatim.
    """
    n = draw(st.integers(0, 3))
    bodies = [draw(st.lists(chunks, max_size=5)) for _ in range(n + 1)]
    for child in range(1, n + 1):
        parent = draw(st.integers(0, child - 1))
        at = draw(st.integers(0, len(bodies[parent])))
        bodies[parent].insert(at, f"\\input{{f{child}}}\n")
    if n and draw(st.booleans()):
        bodies[draw(st.integers(1, n))].append(OPEN_VERBATIM)
    files = {f"f{i}.tex": "".join(bodies[i]) for i in range(1, n + 1)}
    files["main.tex"] = (
        "\\documentclass{article}\n\\begin{document}\n"
        + "".join(bodies[0])
        + "\\end{document}\n"
    )
    return files


@settings(max_examples=300, deadline=None)
@given(projects())
def test_echo_round_trip_restores_every_file(files):
    parsed = parse_project(ProjectSource(Path("."), "main.tex", files))
    merged = parsed.merged
    assert sorted(b.path for b in merged.boundaries) == sorted(set(files) - {"main.tex"})
    units = enumerate_units(parsed)
    text = reassemble(units, parsed.cap_map, parsed.env_map, merged)
    assert text == merged.text
    with tempfile.TemporaryDirectory() as out:
        written = unmerge(text, merged, out)
        assert sorted(p.relative_to(out).as_posix() for p in written) == sorted(files)
        for rel, source in files.items():
            assert (Path(out) / rel).read_bytes() == source.encode("utf-8"), rel


@settings(max_examples=300, deadline=None)
@given(projects())
def test_only_real_captions_become_units(files):
    parsed = parse_project(ProjectSource(Path("."), "main.tex", files))
    captions = [e.original_text for e in parsed.cap_map]
    assert not [c for c in captions if FAKE in c]
    real = sum(text.count(REAL) for text in files.values())
    opened = parsed.merged.text.find(OPEN_VERBATIM)
    if opened == -1:
        assert len(captions) == real
    else:  # past it, a caption counts only where a later \end{verbatim} closed it
        assert parsed.merged.text[:opened].count(REAL) <= len(captions) <= real
