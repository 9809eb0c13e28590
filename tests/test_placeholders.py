import json

import pytest

from latexmt.placeholders import (
    PlaceholderMap,
    TOKEN_RE,
    cap_token,
    env_token,
    file_begin_token,
    file_end_token,
)


def test_token_formats():
    assert cap_token(0) == "<PLACEHOLDER_CAP_0>"
    assert env_token(3) == "<PLACEHOLDER_ENV_3>"
    assert file_begin_token(1) == "<PLACEHOLDER_FILE_1_begin>"
    assert file_end_token(1) == "<PLACEHOLDER_FILE_1_end>"


def test_token_re_matches_every_kind():
    text = (
        "a <PLACEHOLDER_CAP_0> b <PLACEHOLDER_ENV_12> "
        "c <PLACEHOLDER_FILE_2_begin> d <PLACEHOLDER_FILE_2_end>"
    )
    assert len(TOKEN_RE.findall(text)) == 4


def test_token_re_ignores_lookalikes():
    text = "<PLACEHOLDER_CAP_x> <PLACEHOLDER_FILE_1_middle> <PLACEHOLDER_ENV_>"
    assert TOKEN_RE.findall(text) == []


def test_add_and_restore():
    pmap = PlaceholderMap()
    pmap.add(cap_token(0), "A caption")
    pmap.add(env_token(0), "\\begin{x}\\end{x}")
    text = f"pre {env_token(0)} mid {cap_token(0)} post"
    assert pmap.restore(text) == "pre \\begin{x}\\end{x} mid A caption post"


def test_restore_leaves_unknown_tokens_alone():
    pmap = PlaceholderMap()
    assert pmap.restore("x <PLACEHOLDER_ENV_9> y") == "x <PLACEHOLDER_ENV_9> y"


def test_duplicate_token_rejected():
    pmap = PlaceholderMap()
    pmap.add(cap_token(0), "one")
    with pytest.raises(ValueError):
        pmap.add(cap_token(0), "two")


def test_json_round_trip(tmp_path):
    pmap = PlaceholderMap()
    pmap.add(env_token(0), "\\begin{a}%\n\\end{a}")
    pmap.add(cap_token(0), "Nested {braces {deep}}")
    path = tmp_path / "map.json"
    pmap.save(path)
    loaded = json.loads(path.read_text(encoding="utf-8"))["entries"]
    assert [e["token"] for e in loaded] == [e.token for e in pmap]
    assert [e["original_text"] for e in loaded] == [e.original_text for e in pmap]
    assert all(set(e) == {"token", "original_text"} for e in loaded)


def test_insertion_order_preserved():
    pmap = PlaceholderMap()
    for i in (2, 0, 1):
        pmap.add(env_token(i), str(i))
    assert [e.token for e in pmap] == [env_token(2), env_token(0), env_token(1)]
    assert len(pmap) == 3
    assert pmap.get(env_token(0)) is not None
    assert pmap.get(env_token(7)) is None
