"""Parsing: comments, captions, environments, sections, merging."""

from pathlib import Path

import pytest

from latexmt.errors import InclusionCycle, MissingMainFile
from latexmt.parser import (
    GRAN_CAPTION,
    GRAN_ENVIRONMENT,
    GRAN_SECTION,
    STATUS_TRANSLATED,
    STATUS_VALIDATED,
    ProjectSource,
    TranslationUnit,
    _cut,
    _floats,
    _span_index,
    comment_spans,
    enumerate_units,
    extract_captions,
    extract_environments,
    merge_project,
    parse_project,
    split_sections,
    units_to_manifest,
)
from latexmt.placeholders import cap_token, env_token, file_begin_token, file_end_token

from conftest import CORPUS


# --------------------------------------------------------------------------
# comment scanning


def test_comment_span_basic():
    text = "ab % cd\nef\n"
    spans = comment_spans(text)
    assert len(spans) == 1
    s, e = spans[0]
    assert text[s:e] == "% cd"


def test_escaped_percent_is_not_a_comment():
    assert comment_spans("50\\% of cases\n") == []


def test_percent_inside_verbatim_is_literal():
    text = "\\begin{verbatim}\na % b\n\\end{verbatim}\nc % d\n"
    spans = comment_spans(text)
    assert [text[s:e] for s, e in spans] == ["\\begin{verbatim}\na % b\n\\end{verbatim}", "% d"]


def test_verbatim_opened_and_closed_on_one_line():
    text = "\\begin{verbatim}x\\end{verbatim} % tail\nnext % two\n"
    spans = comment_spans(text)
    assert [text[s:e] for s, e in spans] == ["\\begin{verbatim}x\\end{verbatim}", "% tail", "% two"]


# --------------------------------------------------------------------------
# captions


def decap(text, warnings=None):
    """*text* with the captions in its floats cut, and their map."""
    warnings = [] if warnings is None else warnings
    span_at = _span_index(comment_spans(text))
    cuts, pmap, _ = extract_captions(text, warnings, span_at, _floats(text, span_at, 0, len(text)))
    return _cut(text, cuts), pmap


def test_caption_with_nested_braces():
    text = "\\begin{figure}\\caption{a {b {c}} d}\\end{figure}"
    out, pmap = decap(text)
    assert out == "\\begin{figure}\\caption{" + cap_token(0) + "}\\end{figure}"
    assert pmap.get(cap_token(0)).original_text == "a {b {c}} d"


def test_caption_short_argument_preserved():
    text = "\\begin{figure}\\caption[s]{long body}\\end{figure}"
    out, pmap = decap(text)
    assert "\\caption[s]{" + cap_token(0) + "}" in out
    assert pmap.get(cap_token(0)).original_text == "long body"


def test_captionof_keeps_float_type():
    text = "\\begin{figure}\\captionof{table}{body}\\end{figure}"
    out, pmap = decap(text)
    assert "\\captionof{table}{" + cap_token(0) + "}" in out
    assert pmap.get(cap_token(0)).original_text == "body"


def test_starred_caption():
    text = "\\begin{figure}\\caption*{star}\\end{figure}"
    _, pmap = decap(text)
    assert pmap.get(cap_token(0)).original_text == "star"


def test_caption_outside_float_left_alone():
    text = "Intro. \\caption{loose} Outro."
    out, pmap = decap(text)
    assert out == text
    assert len(pmap) == 0


def test_commented_caption_ignored():
    text = "\\begin{figure}\n% \\caption{ghost}\n\\caption{real}\n\\end{figure}"
    _, pmap = decap(text)
    assert [e.original_text for e in pmap] == ["real"]


def test_caption_numbering_is_zero_based_document_order():
    text = (
        "\\begin{figure}\\caption{first}\\end{figure}"
        "\\begin{table}\\caption{second}\\end{table}"
    )
    out, pmap = decap(text)
    assert [e.token for e in pmap] == [cap_token(0), cap_token(1)]
    assert out.index(cap_token(0)) < out.index(cap_token(1))


def test_unbalanced_caption_is_a_warning_not_an_error():
    text = "\\begin{figure}\\caption{never closes\\end{figure}"
    warnings = []
    out, pmap = decap(text, warnings)
    assert out == text
    assert len(pmap) == 0
    assert any("UnbalancedBraces" in w for w in warnings)


@pytest.mark.parametrize(
    "block",
    [
        "\\begin{verbatim}\n"
        "\\begin{figure}\\caption{do not touch}\\end{figure}\n"
        "\\end{verbatim}\n",
        "\\begin{lstlisting}\n"
        "% \\begin{table}\\caption{code}\\end{table}\n"
        "\\end{lstlisting}\n",
    ],
)
def test_caption_inside_verbatim_body_is_text(project_factory, block):
    main = "\\documentclass{article}\n\\begin{document}\n" + block + "\\end{document}\n"
    parsed = parse_project(ProjectSource.from_dir(project_factory({"main.tex": main})))
    units = enumerate_units(parsed)
    assert [u for u in units if u.granularity == GRAN_CAPTION] == []
    [verbatim] = [u for u in units if u.granularity == GRAN_ENVIRONMENT]
    assert verbatim.source_text == block[:-1]
    assert "PLACEHOLDER_CAP" not in verbatim.source_text


def test_captionof_without_a_braced_type_is_left_alone():
    for text in ("\\begin{figure}\\captionof table{x}\\end{figure}",
                 "\\begin{figure}\\captionof{table\\end{figure}"):
        warnings = []
        out, pmap = decap(text, warnings)
        assert (out, len(pmap), warnings) == (text, 0, [])


def test_unterminated_optional_argument_is_a_warning():
    text = "\\begin{figure}\\caption[short{x}\\end{figure}"
    warnings = []
    out, pmap = decap(text, warnings)
    assert (out, len(pmap)) == (text, 0)
    assert warnings == [
        "UnbalancedBraces: unterminated optional argument of \\caption at offset 14"
    ]


def test_bare_caption_has_nothing_to_protect():
    text = "\\begin{figure}\\caption[s] x\\end{figure}"
    warnings = []
    out, pmap = decap(text, warnings)
    assert (out, len(pmap), warnings) == (text, 0, [])


def test_captionsetup_is_not_a_caption():
    text = "\\begin{figure}\\captionsetup{font=small}\\caption{real}\\end{figure}"
    out, pmap = decap(text)
    assert "\\captionsetup{font=small}" in out
    assert [e.original_text for e in pmap] == ["real"]


def _parse(main: str, **files: str):
    files["main.tex"] = "\\documentclass{article}\n" + main
    return parse_project(ProjectSource(Path("."), "main.tex", files))


def _entries(pmap):
    return [(e.token, e.original_text) for e in pmap]


def test_floats_in_the_preamble_and_after_the_document_keep_their_tokens_in_order():
    parsed = _parse(
        "\\begin{figure}\\caption{Pre}\\end{figure}\n\\begin{document}\n"
        "\\begin{figure}\\caption{Body}\\end{figure}\n\\end{document}\n"
        "\\begin{table}\\caption{Post}\\end{table}\n"
    )
    assert _entries(parsed.cap_map) == [
        (cap_token(0), "Pre"), (cap_token(1), "Body"), (cap_token(2), "Post")
    ]
    assert _entries(parsed.env_map) == [
        (env_token(0), f"\\begin{{figure}}\\caption{{{cap_token(1)}}}\\end{{figure}}")
    ]
    assert parsed.text.index(cap_token(0)) < parsed.text.index(env_token(0))
    assert parsed.text.index(env_token(0)) < parsed.text.index(cap_token(2))


def test_only_captions_inside_floats_are_captioned():
    parsed = _parse(
        "\\begin{document}\n"
        "\\begin{center}\\begin{figure}\\caption{Inside}\\end{figure}\\end{center}\n"
        "Text \\captionof{figure}{Loose}.\n"
        "\\begin{minipage}{1in}\\captionof{table}{Mini}\\end{minipage}\n"
        "\\begin{verbatim}\n\\begin{figure}\\caption{Code}\\end{figure}\n\\end{verbatim}\n"
        "\\end{document}\n"
    )
    assert _entries(parsed.cap_map) == [(cap_token(0), "Inside")]
    figure = f"\\begin{{figure}}\\caption{{{cap_token(0)}}}\\end{{figure}}"
    center = parsed.env_map.get(env_token(0)).original_text
    assert center == f"\\begin{{center}}{figure}\\end{{center}}"
    assert "\\captionof{figure}{Loose}" in parsed.text
    assert parsed.warnings == []


def test_a_float_that_runs_past_its_block_keeps_its_caption():
    # The float ends after the itemize block it begins in: its caption is
    # cut where it is, between the block and the next one.
    parsed = _parse(
        "\\begin{document}\n"
        "\\begin{itemize}\\begin{figure}\\end{itemize}\\caption{Past}\\end{figure}\n"
        "\\begin{table}\\caption{Next}\\end{table}\n\\end{document}\n"
    )
    assert _entries(parsed.cap_map) == [(cap_token(0), "Past"), (cap_token(1), "Next")]
    assert _entries(parsed.env_map) == [
        (env_token(0), "\\begin{itemize}\\begin{figure}\\end{itemize}"),
        (env_token(1), f"\\begin{{table}}\\caption{{{cap_token(1)}}}\\end{{table}}"),
    ]
    assert f"{env_token(0)}\\caption{{{cap_token(0)}}}\\end{{figure}}\n{env_token(1)}" in parsed.text
    assert parsed.warnings == ["UnmatchedEnvironment: stray \\end{figure} at offset 112"]


def test_a_float_that_runs_past_the_body_keeps_its_caption():
    parsed = _parse(
        "\\begin{document}\n\\begin{figure}\\caption{Open}\n\\end{document}\n\\end{figure}\n"
    )
    assert _entries(parsed.cap_map) == [(cap_token(0), "Open")]
    assert len(parsed.env_map) == 0
    assert parsed.text.endswith(
        f"\\begin{{figure}}\\caption{{{cap_token(0)}}}\n\\end{{document}}\n\\end{{figure}}\n"
    )
    assert parsed.warnings == [
        "UnmatchedEnvironment: \\begin{figure} at offset 41 has no matching \\end"
    ]


def test_a_caption_body_after_its_float_stays_out_of_the_next_block():
    # The short caption holds the figure's \end, so the figure's block ends
    # inside it and the caption's body comes after the block.
    parsed = _parse(
        "\\begin{document}\n\\begin{figure}\\caption[\\end{figure}]{Short}\\end{figure}\n"
        "\\begin{table}\\caption{Next}\\end{table}\n\\end{document}\n"
    )
    assert _entries(parsed.cap_map) == [(cap_token(0), "Short"), (cap_token(1), "Next")]
    assert _entries(parsed.env_map) == [
        (env_token(0), "\\begin{figure}\\caption[\\end{figure}"),
        (env_token(1), f"\\begin{{table}}\\caption{{{cap_token(1)}}}\\end{{table}}"),
    ]
    assert f"{env_token(0)}]{{{cap_token(0)}}}\\end{{figure}}\n{env_token(1)}\n" in parsed.text
    assert parsed.warnings == ["UnmatchedEnvironment: stray \\end{figure} at offset 98"]


# --------------------------------------------------------------------------
# environments


_DOC = "\\documentclass{article}\n\\begin{document}\n{body}\\end{document}\n"


def _body(body: str) -> str:
    return _DOC.replace("{body}", body)


def test_top_level_environments_extracted_nested_ride_along():
    text = _body(
        "pre\n\\begin{center}\\begin{figure}x\\end{figure}\\end{center}\n"
        "mid\n\\begin{equation}e = m\\end{equation}\npost\n"
    )
    out, _, pmap = extract_environments(text)
    assert [e.token for e in pmap] == [env_token(0), env_token(1)]
    assert pmap.get(env_token(0)).original_text.startswith("\\begin{center}")
    assert "\\begin{figure}x\\end{figure}" in pmap.get(env_token(0)).original_text
    assert pmap.get(env_token(1)).original_text == "\\begin{equation}e = m\\end{equation}"
    for piece in ("pre\n", "mid\n", "post\n", env_token(0), env_token(1)):
        assert piece in out
    assert "\\begin{center}" not in out


def test_preamble_environments_untouched():
    text = (
        "\\documentclass{article}\n"
        "\\begin{filecontents*}{d.csv}\n1,2\n\\end{filecontents*}\n"
        "\\begin{document}\n\\begin{itemize}\\item a\\end{itemize}\n\\end{document}\n"
    )
    out, _, pmap = extract_environments(text)
    assert len(pmap) == 1
    assert pmap.get(env_token(0)).original_text.startswith("\\begin{itemize}")
    assert "\\begin{filecontents*}{d.csv}" in out


def test_stray_end_is_a_warning():
    warnings = []
    text = _body("x\\end{itemize} y\n")
    out, _, pmap = extract_environments(text, warnings)
    assert out == text
    assert len(pmap) == 0
    assert any("stray \\end{itemize}" in w for w in warnings)


def test_unterminated_begin_is_a_warning():
    warnings = []
    text = _body("x\\begin{itemize} y\n")
    out, _, pmap = extract_environments(text, warnings)
    assert out == text
    assert len(pmap) == 0
    assert any("no matching \\end" in w for w in warnings)


def test_same_name_nesting_matched_by_depth():
    block = "\\begin{itemize}\\item o\\begin{itemize}\\item i\\end{itemize}\\end{itemize}"
    text = _body(block + "\n")
    _, _, pmap = extract_environments(text)
    assert [e.original_text for e in pmap] == [block]


def test_verbatim_body_swallowed_whole():
    block = (
        "\\begin{lstlisting}\n% not a comment\n\\begin{figure} fake\n10 % mod\n"
        "\\end{lstlisting}"
    )
    text = _body(block + "\n")
    out, _, pmap = extract_environments(text)
    assert [e.original_text for e in pmap] == [block]
    assert "% not a comment" not in out


def test_verbatim_inside_a_block_hides_its_end():
    block = (
        "\\begin{itemize}\n\\begin{verbatim}\n\\end{itemize}\n\\end{verbatim}\n"
        "\\end{itemize}"
    )
    text = _body(block + "\n")
    warnings = []
    out, _, pmap = extract_environments(text, warnings)
    assert [e.original_text for e in pmap] == [block]
    assert warnings == []
    assert pmap.restore(out) == text


def test_an_end_document_inside_a_body_verbatim_does_not_end_the_body(project_factory):
    verbatim = "\\begin{verbatim}\n\\end{document}\n\\end{verbatim}"
    itemize = "\\begin{itemize}\n\\item x\n\\end{itemize}"
    main = _body(f"\\section{{A}}\n{verbatim}\n{itemize}\n")
    parsed = parse_project(ProjectSource.from_dir(project_factory({"main.tex": main})))
    envs = [u for u in enumerate_units(parsed) if u.granularity == GRAN_ENVIRONMENT]
    assert [u.source_text for u in envs] == [verbatim, itemize]
    assert parsed.warnings == []


def test_commented_begin_ignored():
    text = _body("% \\begin{figure}\nreal text\n")
    out, _, pmap = extract_environments(text)
    assert out == text
    assert len(pmap) == 0


# --------------------------------------------------------------------------
# sections


def test_split_sections_partition_and_flags():
    text = (
        "\\documentclass{a}\n\\begin{document}\nfront\n"
        "\\section{A}\nbody a\n\\subsection{B}\nbody b\n\\end{document}\n"
    )
    units = split_sections(text)
    assert "".join(u.source_text for u in units) == text
    assert [u.id for u in units] == [0, 1, 2, 3]
    assert units[0].role == "preamble"
    assert units[0].needs_translation is False
    assert units[0].source_text.endswith("\\begin{document}")
    assert units[1].source_text == "\nfront\n"
    assert units[2].source_text.startswith("\\section{A}")
    assert units[3].source_text.startswith("\\subsection{B}")
    assert all(u.needs_translation for u in units[1:])


def test_zero_sections_single_body_unit():
    text = "\\documentclass{a}\n\\begin{document}\nonly body\n\\end{document}\n"
    units = split_sections(text)
    assert len(units) == 2
    assert units[1].needs_translation is True


def test_empty_front_matter_unit_not_translatable():
    text = "\\documentclass{a}\n\\begin{document}\n\\section{A}\nx\n\\end{document}\n"
    units = split_sections(text)
    assert units[1].source_text == "\n"
    assert units[1].needs_translation is False


def test_commented_section_is_not_a_cut():
    text = (
        "\\documentclass{a}\n\\begin{document}\nfront\n"
        "% \\section{ghost}\nmore front\n\\section{Real}\nx\n\\end{document}\n"
    )
    units = split_sections(text)
    assert len(units) == 3
    assert "% \\section{ghost}" in units[1].source_text


def test_section_in_an_unterminated_verbatim_is_not_a_cut():
    # TeX reads everything after an unclosed \begin{verbatim} as verbatim.
    text = "\\begin{document}\nA\n\\begin{verbatim}\n\\section{X}\ncode\n"
    units = split_sections(text)
    assert [u.role for u in units] == ["preamble", "body"]
    assert units[1].source_text == "\nA\n\\begin{verbatim}\n\\section{X}\ncode\n"


def test_percent_in_a_one_line_verbatim_leaves_later_comments_alone():
    text = (
        "\\begin{document}\n\\begin{verbatim}50%\\end{verbatim}\n"
        "% \\section{Hidden}\n\\section{A}\nx\n\\end{document}\n"
    )
    units = split_sections(text)
    assert len(units) == 3
    assert "% \\section{Hidden}" in units[1].source_text
    assert units[2].source_text.startswith("\\section{A}")


# A \\begin{document} inside a preamble comment block, which TeX never reads.
COMMENTED_BEGIN = (
    "\\documentclass{article}\n\\begin{comment}\n\\begin{document}\n\\end{comment}\n"
    "\\begin{document}\n\\begin{itemize}\n\\item x\n\\end{itemize}\n\\end{document}\n"
)


def test_a_begin_document_inside_a_preamble_comment_block_is_not_the_real_one():
    real = COMMENTED_BEGIN.rindex("\\begin{document}") + len("\\begin{document}")
    warnings = []
    out, _, pmap = extract_environments(COMMENTED_BEGIN, warnings)
    assert warnings == []
    assert [e.original_text for e in pmap] == ["\\begin{itemize}\n\\item x\n\\end{itemize}"]
    for units in (split_sections(COMMENTED_BEGIN), split_sections(out)):
        assert units[0].role == "preamble"
        assert units[0].source_text == COMMENTED_BEGIN[:real]


def test_fragment_without_document_env():
    text = "lead text\n\\section{A}\nmore\n"
    units = split_sections(text)
    assert [u.role for u in units] == ["body", "body"]
    assert units[0].source_text == "lead text\n"
    assert "".join(u.source_text for u in units) == text


@pytest.mark.parametrize(
    "segment, needs_translation",
    [
        (env_token(0), False),
        # \\s and str.isspace agree: an ideographic space, a separator control, a no-break space.
        (f"{env_token(0)}\u3000{cap_token(1)}\x1c{env_token(2)}\xa0", False),
        (f"\n{file_begin_token(0)}\n{file_end_token(0)}\n", False),
        (f"{env_token(0)}x", True),
    ],
    ids=["token", "unicode-spaces", "file-tokens", "token-then-text"],
)
def test_token_only_segment_needs_no_translation(segment, needs_translation):
    text = "\\documentclass{a}\\begin{document}" + segment + "\\section{A}text\\end{document}"
    units = split_sections(text)
    assert units[1].source_text == segment
    assert units[1].needs_translation is needs_translation


def test_starred_section_is_a_cut():
    text = "\\documentclass{a}\n\\begin{document}\nf\n\\section*{S}\nx\n\\end{document}\n"
    units = split_sections(text)
    assert units[2].source_text.startswith("\\section*{S}")


def test_output_text_requires_validated_status():
    u = TranslationUnit(
        id=0,
        granularity=GRAN_SECTION,
        source_text="src",
        status=STATUS_TRANSLATED,
        translated_text="dst",
    )
    assert u.output_text() == "src"
    u.status = STATUS_VALIDATED
    assert u.output_text() == "dst"
    u.needs_translation = False
    assert u.output_text() == "src"


# --------------------------------------------------------------------------
# project loading and merging


def test_from_dir_missing_directory(tmp_path):
    with pytest.raises(MissingMainFile):
        ProjectSource.from_dir(tmp_path / "nope")


def test_from_dir_no_tex_files(tmp_path):
    (tmp_path / "readme.md").write_text("hi")
    with pytest.raises(MissingMainFile):
        ProjectSource.from_dir(tmp_path)


def test_from_dir_skips_a_directory_and_a_broken_link_named_tex(project_factory):
    root = project_factory({"main.tex": "\\documentclass{article}\n", "figs.tex/a.pdf": "x"})
    (root / "gone.tex").symlink_to(root / "missing.tex")
    assert ProjectSource.from_dir(root).files == {"main.tex": "\\documentclass{article}\n"}


def test_main_detection_prefers_main_tex(project_factory):
    root = project_factory(
        {
            "aaa.tex": "\\documentclass{article}\\begin{document}a\\end{document}",
            "main.tex": "\\documentclass{article}\\begin{document}m\\end{document}",
        }
    )
    assert ProjectSource.from_dir(root).main_file == "main.tex"


def test_main_detection_falls_back_alphabetically(project_factory):
    root = project_factory(
        {
            "zeta.tex": "\\documentclass{article}\\begin{document}z\\end{document}",
            "alpha.tex": "\\documentclass{article}\\begin{document}a\\end{document}",
        }
    )
    assert ProjectSource.from_dir(root).main_file == "alpha.tex"


def test_main_detection_needs_a_documentclass(project_factory):
    root = project_factory({"a.tex": "\\section{A}\n", "b.tex": "text\n"})
    with pytest.raises(MissingMainFile, match="no file contains \\\\documentclass"):
        ProjectSource.from_dir(root)


def test_explicit_main_must_exist(project_factory):
    root = project_factory({"main.tex": "x"})
    with pytest.raises(MissingMainFile):
        ProjectSource.from_dir(root, "other.tex")


def test_merge_multifile_nesting(corpus_root):
    project = ProjectSource.from_dir(corpus_root / "multifile")
    merged = merge_project(project)
    assert merged.warnings == ()
    assert [b.path for b in merged.boundaries] == [
        "chapters/intro.tex",
        "chapters/method.tex",
        "appendix.tex",
    ]
    assert merged.boundaries[0].directive == "\\input{chapters/intro}"
    text = merged.text
    assert "This is the introduction body." in text
    assert "Appendix details." in text
    # the appendix rides inside the method file's span
    assert (
        text.index(file_begin_token(1))
        < text.index(file_begin_token(2))
        < text.index(file_end_token(2))
        < text.index(file_end_token(1))
    )
    assert "\\input{chapters/intro}" not in text


def test_unresolved_include_left_in_place(project_factory):
    root = project_factory(
        {
            "main.tex": (
                "\\documentclass{a}\\begin{document}\\input{nothere}\\end{document}"
            )
        }
    )
    merged = merge_project(ProjectSource.from_dir(root))
    assert "\\input{nothere}" in merged.text
    assert merged.boundaries == ()
    assert any("unresolved include" in w for w in merged.warnings)


def test_inclusion_cycle_is_fatal(project_factory):
    root = project_factory(
        {
            "main.tex": "\\documentclass{a}\\begin{document}\\input{a}\\end{document}",
            "a.tex": "\\input{b}",
            "b.tex": "\\input{a}",
        }
    )
    with pytest.raises(InclusionCycle) as err:
        merge_project(ProjectSource.from_dir(root))
    assert "a.tex" in str(err.value)


def test_a_repeat_include_is_warned_about_with_both_offsets(project_factory):
    main = (
        "\\documentclass{a}\n\\begin{document}\n"
        "\\input{a}\n\\section{Mid}\n\\input{a}\n\\end{document}\n"
    )
    root = project_factory({"main.tex": main, "a.tex": "A BODY\n"})
    merged = merge_project(ProjectSource.from_dir(root))
    assert merged.text.count("A BODY") == 2
    first, second = main.index("\\input"), main.rindex("\\input")
    assert merged.warnings == (
        f"a.tex included more than once, at offset {first} in main.tex and at "
        f"offset {second} in main.tex; only the later copy's translation is written",
    )


def test_commented_include_not_expanded(corpus_root):
    project = ProjectSource.from_dir(corpus_root / "comments")
    merged = merge_project(project)
    assert merged.warnings == ()
    assert merged.boundaries == ()
    assert "% \\input{ghost}" in merged.text


@pytest.mark.parametrize(
    "body",
    [
        "\\begin{verbatim}\n\\input{sub}\n\\end{verbatim}\n",
        "\\begin{lstlisting}\\input{sub}\\end{lstlisting}\n",
        "\\begin{comment}\nsee \\input{sub}\n",  # never closed: verbatim to the end
    ],
)
def test_include_inside_verbatim_not_expanded(project_factory, body):
    main = "\\documentclass{a}\n\\begin{document}\n" + body + "\\input{sub}\n\\end{document}\n"
    root = project_factory({"main.tex": main, "sub.tex": "SUB BODY\n"})
    merged = merge_project(ProjectSource.from_dir(root))
    assert merged.text.startswith(main[: main.index(body) + len(body)])
    assert merged.text.count("SUB BODY") == (0 if "comment" in body else 1)


def test_include_with_explicit_extension(project_factory):
    root = project_factory(
        {
            "main.tex": "\\documentclass{a}\\begin{document}\\input{sub.tex}\\end{document}",
            "sub.tex": "included",
        }
    )
    merged = merge_project(ProjectSource.from_dir(root))
    assert "included" in merged.text
    assert [b.path for b in merged.boundaries] == ["sub.tex"]


def test_escaped_input_not_expanded(project_factory):
    root = project_factory(
        {
            "main.tex": (
                "\\documentclass{a}\\begin{document}a \\\\input{sub} c\\end{document}"
            ),
            "sub.tex": "included",
        }
    )
    merged = merge_project(ProjectSource.from_dir(root))
    assert merged.boundaries == ()
    assert "\\\\input{sub}" in merged.text


def _brace_less_warnings(project_factory, body: str) -> list[str]:
    main = "\\documentclass{a}\n\\begin{document}\n" + body + "\n\\end{document}\n"
    root = project_factory({"main.tex": main, "chap.tex": "CHAPTER\n"})
    return [w for w in merge_project(ProjectSource.from_dir(root)).warnings if "brace-less" in w]


def test_brace_less_input_is_left_in_place_with_a_warning(project_factory):
    main = "\\documentclass{a}\n\\begin{document}\n\\input chap\n\\end{document}\n"
    merged = merge_project(ProjectSource.from_dir(project_factory({"main.tex": main})))
    assert merged.text == main
    assert merged.boundaries == ()
    offset = main.index("\\input")
    assert merged.warnings == (
        f"brace-less \\input at offset {offset} in main.tex; not merged, left in place",
    )


@pytest.mark.parametrize(
    "body",
    [
        "\\input{chap}",
        "\\input {chap}",
        "\\include{chap}",
        "\\makeatletter\\input@path\\makeatother",
        "\\includegraphics{chap}",
        "% \\input chap",
        "\\begin{verbatim}\n\\input chap\n\\end{verbatim}",
    ],
)
def test_brace_less_warning_only_for_live_brace_less_include(project_factory, body):
    assert _brace_less_warnings(project_factory, body) == []


def test_subfile_import_and_subimport_are_left_in_place_with_a_warning():
    body = "\\subfile{sec/a}\n\\import{sec/}{a}\n\\subimport {sec/}{a}\n% \\subfile{sec/a}\n"
    parsed = _parse(f"\\begin{{document}}\n{body}\\end{{document}}\n", **{"sec/a.tex": "A.\n"})
    main = "\\documentclass{article}\n\\begin{document}\n" + body + "\\end{document}\n"
    assert parsed.merged.text == main
    assert parsed.warnings == [
        f"{directive} at offset {41 + body.index(directive)} in main.tex; not merged, left in place"
        for directive in ("\\subfile{sec/a}", "\\import{sec/}{a}", "\\subimport {sec/}{a}")
    ]


def test_brace_less_include_warns_once_each(project_factory):
    warnings = _brace_less_warnings(project_factory, "\\input chap \\include\tchap")
    assert len(warnings) == 2
    assert "\\include at offset" in warnings[1]


# --------------------------------------------------------------------------
# whole-corpus properties


def test_full_restore_equals_merged_text(corpus_root):
    for name in sorted(CORPUS):
        parsed = parse_project(ProjectSource.from_dir(corpus_root / name))
        restored = parsed.cap_map.restore(parsed.env_map.restore(parsed.text))
        assert restored == parsed.merged.text, name


def test_section_units_partition_substituted_text(corpus_root):
    for name in sorted(CORPUS):
        parsed = parse_project(ProjectSource.from_dir(corpus_root / name))
        concat = "".join(u.source_text for u in parsed.section_units)
        assert concat == parsed.text, name


def test_enumerate_units_ordering_and_defaults(corpus_root):
    for name in sorted(CORPUS):
        parsed = parse_project(ProjectSource.from_dir(corpus_root / name))
        units = enumerate_units(parsed)
        assert [u.id for u in units] == list(range(len(units))), name
        kinds = [u.granularity for u in units]
        # sections, then environments, then captions -- never interleaved
        assert kinds == sorted(
            kinds,
            key=[GRAN_SECTION, GRAN_ENVIRONMENT, GRAN_CAPTION].index,
        ), name
        for u in units:
            if u.granularity == GRAN_ENVIRONMENT:
                assert u.needs_translation is False
                assert u.token is not None
            if u.granularity == GRAN_CAPTION:
                assert u.needs_translation is True
                assert u.token is not None


def test_floats_project_units(corpus_root):
    parsed = parse_project(ProjectSource.from_dir(corpus_root / "floats"))
    assert len(parsed.cap_map) == 2
    assert len(parsed.env_map) == 2
    assert cap_token(0) in parsed.env_map.get(env_token(0)).original_text
    units = enumerate_units(parsed)
    envs = [u for u in units if u.granularity == GRAN_ENVIRONMENT]
    assert envs[0].env_name == "figure"
    assert envs[1].env_name == "table"


def test_tricky_captions_project(corpus_root):
    parsed = parse_project(ProjectSource.from_dir(corpus_root / "tricky_captions"))
    texts = [e.original_text for e in parsed.cap_map]
    assert texts == ["Starred caption.", "Caption on its own line.", "Captionof body."]
    assert "\\caption{not inside a float}" in parsed.merged.text


def test_verbatim_project_has_no_captions(corpus_root):
    parsed = parse_project(ProjectSource.from_dir(corpus_root / "verbatim"))
    assert len(parsed.cap_map) == 0
    assert len(parsed.env_map) == 2  # lstlisting and verbatim blocks


def test_manifest_shape(corpus_root):
    parsed = parse_project(ProjectSource.from_dir(corpus_root / "sections"))
    manifest = units_to_manifest(enumerate_units(parsed))
    assert {m["granularity"] for m in manifest} == {GRAN_SECTION}
    for row in manifest:
        assert set(row) == {
            "id",
            "granularity",
            "needs_translation",
            "status",
            "token",
            "env_name",
            "role",
            "chars",
        }


def test_zero_sections_project(corpus_root):
    parsed = parse_project(ProjectSource.from_dir(corpus_root / "zero_sections"))
    units = enumerate_units(parsed)
    assert len(units) == 2
    assert units[1].needs_translation is True
