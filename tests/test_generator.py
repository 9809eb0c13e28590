"""Reassembly, conservation checks, unmerge, preamble injection, compile."""

import json
import stat

import pytest

from latexmt import parser
from latexmt.config import RunConfig
from latexmt.errors import (
    DuplicatePlaceholderUse,
    MissingPlaceholderUse,
    UnbalancedFileBoundaries,
    UnresolvedPlaceholder,
)
from latexmt.evaluator import fc_score
from latexmt.generator import (
    compile_document,
    inject_language_preamble,
    reassemble,
    unmerge,
)
from latexmt.parser import (
    GRAN_CAPTION,
    GRAN_ENVIRONMENT,
    GRAN_SECTION,
    STATUS_VALIDATED,
    FileBoundary,
    MergedDocument,
    ProjectSource,
    TranslationUnit,
    comment_spans,
    enumerate_units,
    merge_project,
    parse_project,
)
from latexmt.placeholders import (
    PlaceholderMap,
    cap_token,
    env_token,
    file_begin_token,
    file_end_token,
)


ONE_FILE = MergedDocument("", "main.tex")  # no file boundaries to check


def built_doc():
    """A tiny hand-assembled document: section + figure env + caption."""
    env_body = "\\begin{figure}\\caption{" + cap_token(0) + "}\\end{figure}"
    env_map = PlaceholderMap()
    env_map.add(env_token(0), env_body)
    cap_map = PlaceholderMap()
    cap_map.add(cap_token(0), "A caption")
    units = [
        TranslationUnit(
            id=0,
            granularity=GRAN_SECTION,
            source_text="pre ",
            needs_translation=False,
        ),
        TranslationUnit(
            id=1,
            granularity=GRAN_SECTION,
            source_text=env_token(0) + " post",
            needs_translation=True,
        ),
        TranslationUnit(
            id=2,
            granularity=GRAN_ENVIRONMENT,
            source_text=env_body,
            needs_translation=False,
            token=env_token(0),
            env_name="figure",
            role="env",
        ),
        TranslationUnit(
            id=3,
            granularity=GRAN_CAPTION,
            source_text="A caption",
            needs_translation=True,
            token=cap_token(0),
            role="caption",
        ),
    ]
    return units, cap_map, env_map


def test_reassemble_identity_without_translations():
    units, cap_map, env_map = built_doc()
    text = reassemble(units, cap_map, env_map, ONE_FILE)
    assert text == "pre \\begin{figure}\\caption{A caption}\\end{figure} post"


def test_reassemble_uses_validated_caption():
    units, cap_map, env_map = built_doc()
    units[3].translated_text = "Une l\u00e9gende"
    units[3].status = STATUS_VALIDATED
    text = reassemble(units, cap_map, env_map, ONE_FILE)
    assert "\\caption{Une l\u00e9gende}" in text
    assert "A caption" not in text


def test_reassemble_translated_env_must_keep_inner_tokens():
    units, cap_map, env_map = built_doc()
    units[2].needs_translation = True
    units[2].translated_text = (
        "\\begin{figure}\\caption{" + cap_token(0) + "} (translated)\\end{figure}"
    )
    units[2].status = STATUS_VALIDATED
    text = reassemble(units, cap_map, env_map, ONE_FILE)
    assert "(translated)" in text
    assert "\\caption{A caption}" in text


def test_reassemble_detects_dropped_token():
    units, cap_map, env_map = built_doc()
    units[1].translated_text = "dropped post"
    units[1].status = STATUS_VALIDATED
    # The message is the token and its detail: the class is named by whoever prints it.
    with pytest.raises(
        MissingPlaceholderUse, match=r"^<PLACEHOLDER_[A-Z]+_\d+> \(never substituted back\)$"
    ):
        reassemble(units, cap_map, env_map, ONE_FILE)


def test_reassemble_detects_duplicated_token():
    units, cap_map, env_map = built_doc()
    units[1].translated_text = env_token(0) + env_token(0)
    units[1].status = STATUS_VALIDATED
    with pytest.raises(
        DuplicatePlaceholderUse, match=r"^<PLACEHOLDER_[A-Z]+_\d+> \(substituted 2 times\)$"
    ):
        reassemble(units, cap_map, env_map, ONE_FILE)


def test_reassemble_detects_unknown_token():
    units, cap_map, env_map = built_doc()
    units[1].translated_text = env_token(0) + " " + env_token(5)
    units[1].status = STATUS_VALIDATED
    with pytest.raises(
        UnresolvedPlaceholder, match=r"^<PLACEHOLDER_[A-Z]+_\d+> \(not present in any map\)$"
    ):
        reassemble(units, cap_map, env_map, ONE_FILE)


def test_reassemble_verifies_file_boundaries_when_merged_given():
    boundary = FileBoundary(0, "sub.tex", "\\input{sub}")
    merged = MergedDocument(
        "a " + file_begin_token(0) + "sub" + file_end_token(0) + " b",
        "main.tex",
        (boundary,),
    )
    good = TranslationUnit(
        id=0, granularity=GRAN_SECTION, source_text=merged.text, needs_translation=False
    )
    text = reassemble([good], PlaceholderMap(), PlaceholderMap(), merged)
    assert text == merged.text
    bad = TranslationUnit(
        id=0, granularity=GRAN_SECTION, source_text="a sub b", needs_translation=False
    )
    with pytest.raises(UnbalancedFileBoundaries):
        reassemble([bad], PlaceholderMap(), PlaceholderMap(), merged)


def test_reassemble_rejects_a_duplicated_file_boundary():
    boundary = FileBoundary(0, "sub.tex", "\\input{sub}")
    merged = MergedDocument(
        "a " + file_begin_token(0) + "sub" + file_end_token(0) + " b",
        "main.tex",
        (boundary,),
    )
    unit = TranslationUnit(
        id=0,
        granularity=GRAN_SECTION,
        source_text=merged.text,
        status=STATUS_VALIDATED,
        translated_text="a " + file_begin_token(0) + "sub" + file_end_token(0)
        + " b " + file_begin_token(0),
    )
    with pytest.raises(UnbalancedFileBoundaries) as err:
        reassemble([unit], PlaceholderMap(), PlaceholderMap(), merged)
    assert str(err.value) == (
        f"{file_begin_token(0)} appears 2 times after reassembly (expected 1)"
    )


def test_end_to_end_identity_over_parsed_project(corpus_root):
    parsed = parse_project(ProjectSource.from_dir(corpus_root / "floats"))
    units = enumerate_units(parsed)
    text = reassemble(units, parsed.cap_map, parsed.env_map, parsed.merged)
    assert text == parsed.merged.text


# --------------------------------------------------------------------------
# unmerge


def test_unmerge_round_trips_multifile_project(corpus_root, tmp_path):
    project = ProjectSource.from_dir(corpus_root / "multifile")
    merged = merge_project(project)
    written = unmerge(merged.text, merged, tmp_path / "out")
    assert [p.name for p in written][0] == "main.tex"
    for rel, original in project.files.items():
        restored = (tmp_path / "out" / rel).read_text(encoding="utf-8")
        assert restored == original, rel


def test_unmerge_writes_a_repeat_include_once_with_its_later_copy(project_factory, tmp_path):
    main = (
        "\\documentclass{a}\n\\begin{document}\n"
        "\\input{a}\n\\section{Mid}\n\\input{a}\n\\end{document}\n"
    )
    root = project_factory({"main.tex": main, "a.tex": "A BODY\n"})
    merged = merge_project(ProjectSource.from_dir(root))
    later = merged.text.rindex("A BODY\n")
    text = merged.text[:later] + "SECOND COPY.\n" + merged.text[later + len("A BODY\n") :]
    written = unmerge(text, merged, tmp_path / "out")
    assert [p.name for p in written] == ["main.tex", "a.tex"]
    assert (tmp_path / "out" / "main.tex").read_text() == main
    assert (tmp_path / "out" / "a.tex").read_text() == "SECOND COPY.\n"


def test_unmerge_missing_end_marker():
    boundary = FileBoundary(0, "sub.tex", "\\input{sub}")
    merged = MergedDocument("x" + file_begin_token(0) + "body", "main.tex", (boundary,))
    with pytest.raises(UnbalancedFileBoundaries):
        unmerge(merged.text, merged, "/tmp/never-used")


def test_unmerge_unexpected_end_marker():
    boundary = FileBoundary(0, "sub.tex", "\\input{sub}")
    merged = MergedDocument("x" + file_end_token(0) + "y", "main.tex", (boundary,))
    with pytest.raises(UnbalancedFileBoundaries):
        unmerge(merged.text, merged, "/tmp/never-used")


def test_unmerge_unknown_token_id():
    merged = MergedDocument(
        file_begin_token(7) + "y" + file_end_token(7), "main.tex", ()
    )
    with pytest.raises(UnbalancedFileBoundaries):
        unmerge(merged.text, merged, "/tmp/never-used")


def test_unmerge_writes_nothing_when_a_later_boundary_is_bad(tmp_path):
    boundary = FileBoundary(0, "sub.tex", "\\input{sub}")
    text = "x" + file_begin_token(0) + "body" + file_end_token(0) + file_end_token(0)
    merged = MergedDocument(text, "main.tex", (boundary,))
    with pytest.raises(UnbalancedFileBoundaries):
        unmerge(merged.text, merged, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_unmerge_single_file_writes_main_only(tmp_path):
    merged = MergedDocument("whole document", "main.tex", ())
    written = unmerge(merged.text, merged, tmp_path)
    assert [p.name for p in written] == ["main.tex"]
    assert (tmp_path / "main.tex").read_text() == "whole document"


# --------------------------------------------------------------------------
# language preamble


DOC = "\\documentclass{article}\n\\begin{document}\nx\n\\end{document}\n"


def test_inject_preamble_for_cjk_target():
    out = inject_language_preamble(DOC, "zh")
    head = out.split("\\begin{document}")[0]
    assert "\\usepackage{xeCJK}" in head
    assert out.endswith("x\n\\end{document}\n")


def test_inject_preamble_is_idempotent():
    once = inject_language_preamble(DOC, "zh")
    assert inject_language_preamble(once, "zh") == once


def test_inject_preamble_noop_for_english():
    assert inject_language_preamble(DOC, "en") == DOC


def test_inject_preamble_without_document_env_prepends_and_warns():
    warnings = []
    out = inject_language_preamble("just a fragment", "zh", warnings=warnings)
    assert out.startswith("\\usepackage{xeCJK}\n")
    assert len(warnings) == 1


def test_inject_preamble_adds_a_line_that_is_only_commented_out(monkeypatch):
    scans = []
    monkeypatch.setattr(parser, "comment_spans", lambda *a: scans.append(a) or comment_spans(*a))
    commented = DOC.replace("\\begin", "% \\usepackage{xeCJK}\n\\begin")
    out = inject_language_preamble(commented, "zh")
    assert out == commented.replace("\\begin", "\\usepackage{xeCJK}\n\\begin")
    assert len(scans) == 1  # one scan for the \\begin{document} search and the lines loaded
    live = DOC.replace("\\begin", "\\usepackage{xeCJK} % CJK\n\\begin")
    assert inject_language_preamble(live, "zh") == live


def test_inject_preamble_goes_before_the_real_begin_document():
    text = DOC.replace("\\begin", "\\begin{comment}\n\\begin{document}\n\\end{comment}\n\\begin", 1)
    real = text.rindex("\\begin{document}")
    assert inject_language_preamble(text, "zh") == (
        text[:real] + "\\usepackage{xeCJK}\n" + text[real:]
    )


@pytest.mark.parametrize("env, arg", [("comment", ""), ("filecontents*", "{x.sty}")])
def test_inject_preamble_adds_a_line_that_only_a_verbatim_body_holds(env, arg):
    block = f"\\begin{{{env}}}{arg}\n\\usepackage{{xeCJK}}\n\\end{{{env}}}\n"
    text = DOC.replace("\\begin", block + "\\begin", 1)
    real = text.rindex("\\begin{document}")
    assert inject_language_preamble(text, "zh") == (
        text[:real] + "\\usepackage{xeCJK}\n" + text[real:]
    )


def test_inject_preamble_custom_table():
    table = {"de": ("\\usepackage[ngerman]{babel}",)}
    out = inject_language_preamble(DOC, "de", preambles=table)
    assert "\\usepackage[ngerman]{babel}" in out
    assert inject_language_preamble(DOC, "zh", preambles=table) == DOC


# --------------------------------------------------------------------------
# compilation (no real TeX needed: fake engines)


def fake_engine(tmp_path, script_body):
    path = tmp_path / "fakeengine"
    path.write_text("#!/bin/sh\n" + script_body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return str(path)


GOOD_LOG = "Output written on main.pdf (1 page, 1234 bytes).\n"


def compile_in(tmp_path, engine, **settings):
    """compile_document over tmp_path's tex/, pdf/ and logs/; its record, score and warnings."""
    dirs = [tmp_path / name for name in ("tex", "pdf", "logs")]
    for d in dirs:
        d.mkdir()
    (dirs[0] / "main.tex").write_text("irrelevant")
    warnings = []
    config = RunConfig(engine=engine, **settings)
    record, score = compile_document(*dirs, "main.tex", config, warnings)
    return record, score, warnings


def test_compile_missing_engine(tmp_path):
    engine = "definitely-not-a-tex-engine-7f3a"
    record, score, warnings = compile_in(tmp_path, engine)
    assert record == {"skipped": True, "reason": f"engine not found: {engine}"}
    assert score is None
    assert warnings == [f"TeX engine not found on PATH: {engine}; compilation skipped"]
    assert not any((tmp_path / "pdf").iterdir()) and not any((tmp_path / "logs").iterdir())


def test_compile_success_with_fake_engine(tmp_path):
    engine = fake_engine(
        tmp_path,
        f"printf '%s' '{GOOD_LOG}' > main.log\n: > main.pdf\nexit 0\n",
    )
    record, score, warnings = compile_in(tmp_path, engine, compile_passes=2)
    assert record == {
        "skipped": False,
        "engine": engine,
        "success": True,
        "error_count": 0,
        "warning_count": 0,
        "returncode": 0,
        "passes": 2,
    }
    assert score == 100.0 and warnings == []
    # The log and the PDF are moved, not copied.
    assert (tmp_path / "logs" / "compile.log").read_text() == GOOD_LOG
    assert sorted(p.name for p in (tmp_path / "tex").iterdir()) == ["main.tex"]
    assert (tmp_path / "pdf" / "main.pdf").exists()
    meta = json.loads((tmp_path / "logs" / "compile_meta.json").read_text())
    assert list(meta) == ["elapsed_seconds"] and meta["elapsed_seconds"] >= 0


def test_compile_failure_is_data_not_exception(tmp_path):
    engine = fake_engine(
        tmp_path,
        'printf \'! Undefined control sequence.\\nl.3 oops\\n\' > main.log\nexit 1\n',
    )
    record, score, warnings = compile_in(tmp_path, engine)
    assert record["success"] is False
    assert record["error_count"] == 1
    assert record["returncode"] == 1
    assert score == fc_score(1, 0, False) and warnings == []


def test_compile_no_pdf_means_failure_even_with_zero_errors(tmp_path):
    engine = fake_engine(tmp_path, "printf '%s' 'nothing useful' > main.log\nexit 0\n")
    record, score, _ = compile_in(tmp_path, engine)
    assert record["success"] is False
    assert record["error_count"] == 0
    assert score == fc_score(0, 0, False)
    assert not any((tmp_path / "pdf").iterdir())


def test_compile_timeout(tmp_path):
    engine = fake_engine(tmp_path, "exec sleep 5\n")
    record, score, warnings = compile_in(tmp_path, engine, compile_timeout=0.2, compile_passes=1)
    reason = f"{engine} exceeded 0s on main.tex"
    assert record == {"skipped": False, "engine": engine, "success": False, "reason": reason}
    assert score is None
    assert warnings == [reason]


def test_unmerge_preserves_non_ascii_bytes(tmp_path):
    merged = MergedDocument("caf\u00e9 \u4e2d\u6587\n", "main.tex", ())
    unmerge(merged.text, merged, tmp_path)
    assert (tmp_path / "main.tex").read_bytes() == "caf\u00e9 \u4e2d\u6587\n".encode("utf-8")
