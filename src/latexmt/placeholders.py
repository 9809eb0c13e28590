"""Placeholder tokens and the token -> original-text mapping.

Protected regions (environments, captions, file boundaries) are swapped out
for opaque tokens before translation and swapped back afterwards.  The map
is append-only and saved with each run, so the run can be audited.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

# Any token this package ever emits.
TOKEN_RE = re.compile(
    r"<PLACEHOLDER_(?:CAP|ENV)_\d+>|<PLACEHOLDER_FILE_\d+_(?:begin|end)>"
)
CAP_TOKEN_RE = re.compile(r"<PLACEHOLDER_CAP_(\d+)>")
ENV_TOKEN_RE = re.compile(r"<PLACEHOLDER_ENV_(\d+)>")
FILE_TOKEN_RE = re.compile(r"<PLACEHOLDER_FILE_(\d+)_(begin|end)>")


def cap_token(index: int) -> str:
    return f"<PLACEHOLDER_CAP_{index}>"


def env_token(index: int) -> str:
    return f"<PLACEHOLDER_ENV_{index}>"


def file_begin_token(index: int) -> str:
    return f"<PLACEHOLDER_FILE_{index}_begin>"


def file_end_token(index: int) -> str:
    return f"<PLACEHOLDER_FILE_{index}_end>"


@dataclass(frozen=True)
class PlaceholderEntry:
    token: str
    original_text: str


class PlaceholderMap:
    """Ordered, write-once table from token to the exact source text it hides."""

    def __init__(self):
        self._by_token: dict[str, PlaceholderEntry] = {}

    def add(self, token: str, original_text: str) -> None:
        if token in self._by_token:
            raise ValueError(f"duplicate placeholder token: {token}")
        self._by_token[token] = PlaceholderEntry(token, original_text)

    def get(self, token: str) -> PlaceholderEntry | None:
        return self._by_token.get(token)

    def __len__(self) -> int:
        return len(self._by_token)

    def __iter__(self) -> Iterator[PlaceholderEntry]:
        return iter(self._by_token.values())

    def restore(self, text: str) -> str:
        """Replace every known token in *text* with its original source.

        Unknown tokens are left untouched; strict conservation checking is
        the reassembler's job, not this helper's.
        """

        def repl(m: re.Match[str]) -> str:
            entry = self._by_token.get(m.group(0))
            return entry.original_text if entry is not None else m.group(0)

        return TOKEN_RE.sub(repl, text)

    def save(self, path: Path | str) -> None:
        """Write the entries, in order, as ``{"entries": [...]}`` JSON."""
        payload = {"entries": [asdict(e) for e in self]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        Path(path).write_text(text, encoding="utf-8")
