"""The project generator is deterministic per seed and round-trips cleanly."""

from latexmt import generator, parser

from perfbench import projgen


def test_same_seed_same_project():
    for size in projgen.SIZES:
        assert projgen.generate(7, size) == projgen.generate(7, size)


def test_seed_changes_words_not_structure():
    a, b = projgen.generate(1, "M"), projgen.generate(2, "M")
    assert a.files != b.files
    assert a.files.keys() == b.files.keys()
    assert a.merged == b.merged


def test_structural_round_trip_matches_expected(tmp_path):
    project = projgen.generate(3, "S")
    project.write(tmp_path / "in")
    parsed = parser.parse_project(parser.ProjectSource.from_dir(tmp_path / "in"))
    units = parser.enumerate_units(parsed)
    assert {u.env_name for u in units} >= {"theorem", "resultbox", "lstlisting", "verbatim"}
    body = generator.reassemble(units, parsed.cap_map, parsed.env_map, parsed.merged)
    written = generator.unmerge(body, parsed.merged, tmp_path / "out")
    assert sorted(p.relative_to(tmp_path / "out").as_posix() for p in written) == sorted(
        project.merged
    )
    for rel in project.merged:
        text = (tmp_path / "out" / rel).read_text(encoding="utf-8")
        if rel == project.main_file:
            text = generator.inject_language_preamble(text, "zh")
        assert text == project.expected[rel]
