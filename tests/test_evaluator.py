"""Log parsing and the format-consistency score."""

import json
import random
from pathlib import Path

import pytest

from latexmt.errors import EmptyCorpus
from latexmt.evaluator import (
    FCScoreParams,
    LogStats,
    fc_score,
    parse_log,
    score_corpus,
)

LOG_DIR = Path(__file__).parent / "data" / "logs"


def read_log(name):
    return (LOG_DIR / name).read_text(encoding="utf-8")


# --------------------------------------------------------------------------
# parse_log


def test_clean_log():
    stats = parse_log(read_log("clean.log"))
    assert stats == LogStats(0, 0, True)


def test_error_and_warning_log():
    stats = parse_log(read_log("one_error_two_warnings.log"))
    assert stats == LogStats(1, 2, True)


def test_truncated_garbage_log():
    stats = parse_log(read_log("truncated_garbage.log"))
    assert stats == LogStats(1, 0, False)


def test_bang_latex_error_counts_once():
    text = "! LaTeX Error: File `x.sty' not found.\n"
    assert parse_log(text).error_count == 1


def test_file_line_error_mode_counts():
    text = "./main.tex:12: LaTeX Error: Environment foo undefined.\n"
    assert parse_log(text).error_count == 1


def test_package_and_font_warnings():
    text = (
        "Package hyperref Warning: Token not allowed.\n"
        "Class beamer Warning: deprecated option.\n"
        "LaTeX Font Warning: Font shape `OT1/cmr/m/n' undefined\n"
    )
    stats = parse_log(text)
    assert stats.warning_count == 3
    assert stats.compiled is False


def test_box_warnings_only_when_asked():
    text = "Overfull \\hbox (1.0pt too wide) in paragraph\nUnderfull \\vbox (badness 10000)\n"
    assert parse_log(text).warning_count == 0
    assert parse_log(text, count_box_warnings=True).warning_count == 2


def test_parse_log_total_on_garbage_bytes():
    noise = "\x00\x7f\udcff garbage % {{{ \\\n" * 5
    stats = parse_log(noise)
    assert stats == LogStats(0, 0, False)


def test_empty_log():
    assert parse_log("") == LogStats(0, 0, False)


# --------------------------------------------------------------------------
# fc_score


def test_score_known_values():
    assert fc_score(0, 0, True) == 100.0
    assert fc_score(2, 3, False) == 74.0
    assert fc_score(15, 0, False) == 0.0


def test_score_clips_at_both_ends():
    assert fc_score(50, 50, False) == 0.0
    assert fc_score(0, 0, True, FCScoreParams(s0=95.0)) == 100.0  # 95 + 20 -> clip


def test_score_rejects_negative_counts():
    with pytest.raises(ValueError):
        fc_score(-1, 0, True)


def test_params_validation():
    with pytest.raises(ValueError):
        FCScoreParams(s_min=10.0, s_max=0.0)
    with pytest.raises(ValueError):
        FCScoreParams(alpha=-1.0)


def test_score_monotone_in_errors_and_warnings():
    rng = random.Random(7)
    for _ in range(200):
        e = rng.randrange(0, 20)
        w = rng.randrange(0, 40)
        c = rng.random() < 0.5
        assert fc_score(e + 1, w, c) <= fc_score(e, w, c)
        assert fc_score(e, w + 1, c) <= fc_score(e, w, c)
        assert fc_score(e, w, True) >= fc_score(e, w, False)


# --------------------------------------------------------------------------
# corpus scoring


def test_score_corpus_mean_and_order():
    items = [
        ("a", LogStats(0, 0, True)),
        ("b", LogStats(2, 3, False)),
    ]
    corpus = score_corpus(items)
    assert [d.doc_id for d in corpus.documents] == ["a", "b"]
    assert corpus.documents[0].score == 100.0
    assert corpus.documents[1].score == 74.0
    assert corpus.mean_score == pytest.approx(87.0)


def test_score_corpus_empty_is_an_error():
    with pytest.raises(EmptyCorpus):
        score_corpus([])


def test_corpus_table_and_json():
    corpus = score_corpus([("doc-one", LogStats(2, 3, True))])
    table = corpus.format_table()
    assert "doc-one" in table
    assert table.endswith("mean score: 94.00")
    payload = json.loads(corpus.to_json())
    assert payload["mean_score"] == 94.0
    assert payload["documents"][0]["compiled"] is True
