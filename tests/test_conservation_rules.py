"""The Validator's conservation rules over drawn LaTeX-like text.

The text mixes the round-trip property's chunks (prose holding
``\\textbf`` and ``\\\\``, comments, verbatim bodies, environments and
captions) with placeholder tokens.  A translation equal to its source has no
finding; one inserted control word or token is one finding of its row, with
the right counts; and the word after a ``\\\\`` may change freely, since it
is no control word.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from test_round_trip import chunks

from latexmt.agents import DIM_COMMAND, DIM_PLACEHOLDER, RULES, check_rules
from latexmt.parser import GRAN_SECTION, TranslationUnit
from latexmt.placeholders import cap_token, env_token, file_begin_token, file_end_token

makers = (cap_token, env_token, file_begin_token, file_end_token)
tokens = st.one_of([st.builds(f, st.integers(0, 2)) for f in makers])
pieces = st.lists(chunks | tokens, max_size=6)
# Control words no row lets come and go: two the chunks hold, one they lack, a CJK one.
words = st.sampled_from(["\\textbf", "\\emph", "\\section", "\\左"])
inserts = st.tuples(st.just(DIM_COMMAND), words) | st.tuples(st.just(DIM_PLACEHOLDER), tokens)
# Words after a line break: Latin, accented and CJK letters.
names = st.text(st.sampled_from("abzXYé大学"), min_size=1, max_size=6)
# How each row words one match more than the source has.
WORDING = {
    DIM_COMMAND: ("control sequence", "count changed"),
    DIM_PLACEHOLDER: ("placeholder", "duplicated"),
}


def unit(source: str, translated: str) -> TranslationUnit:
    u = TranslationUnit(0, GRAN_SECTION, source)
    u.translated_text = translated
    return u


@settings(max_examples=200, deadline=None)
@given(pieces)
def test_a_translation_equal_to_its_source_has_no_finding(parts):
    text = " ".join(parts)
    assert check_rules(unit(text, text)) == []


@settings(max_examples=200, deadline=None)
@given(pieces, inserts, st.integers(0, 6))
def test_one_inserted_match_is_one_finding_of_its_row(parts, insert, at):
    dimension, match = insert
    source = " ".join(parts)
    [rule] = [r for r in RULES if r.dimension == dimension]
    n = rule.pattern.findall(source).count(match)
    noun, more = WORDING[dimension]
    [finding] = check_rules(unit(source, " ".join(parts[:at] + [match] + parts[at:])))
    assert finding.dimension == dimension
    assert finding.description == (
        f"{noun} {match} {more} (source has {n}, translation has {n + 1})"
        if n
        else f"{noun} {match} introduced by translation (1 occurrence, none in source)"
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(chunks | tokens, names, names), min_size=1, max_size=4))
def test_the_word_after_a_line_break_may_change(parts):
    source = "".join(f"{piece} x\\\\{old} " for piece, old, _ in parts)
    translated = "".join(f"{piece} y\\\\{new} " for piece, _, new in parts)
    assert check_rules(unit(source, translated)) == []
