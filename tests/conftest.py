"""Shared fixtures: the corpus of small LaTeX projects, and counting mock backends."""

from __future__ import annotations

import re
import threading
from pathlib import Path
from typing import Callable, Sequence

import pytest

from latexmt.errors import LlmError
from latexmt.llm import ChatRequest, ChatResult, _estimated

# ---------------------------------------------------------------------------
# corpus
#
# Each project is a mapping of relative path -> file text.  Together they
# cover single/multi-file layouts, nested environments, captions with nested
# braces, verbatim blocks, comment traps, unicode, and section-free bodies.

CORPUS: dict[str, dict[str, str]] = {
    "minimal": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\begin{document}\n"
            "Just one paragraph, no sections at all.\n"
            "\\end{document}\n"
        ),
    },
    "sections": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\title{Two Sections}\n"
            "\\begin{document}\n"
            "\\maketitle\n"
            "Opening remarks before any section.\n"
            "\\section{First}\n"
            "\\label{sec:first}\n"
            "Alpha paragraph with \\textbf{bold} text.\n"
            "\\subsection{Nested}\n"
            "Beta paragraph.\n"
            "\\section{Second}\n"
            "Gamma paragraph referring to Section~\\ref{sec:first}.\n"
            "\\end{document}\n"
        ),
    },
    "multifile": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\begin{document}\n"
            "\\section{Introduction}\n"
            "\\input{chapters/intro}\n"
            "\\section{Method}\n"
            "\\input{chapters/method}\n"
            "\\end{document}\n"
        ),
        "chapters/intro.tex": "This is the introduction body.\n",
        "chapters/method.tex": (
            "Method text before a nested include.\n"
            "\\input{appendix}\n"
            "After the nested include.\n"
        ),
        "appendix.tex": "Appendix details.\n",
    },
    "floats": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\begin{document}\n"
            "\\section{Results}\n"
            "See Figure~\\ref{fig:one} and Table~\\ref{tab:one}.\n"
            "\\begin{figure}[t]\n"
            "  \\centering\n"
            "  \\rule{1cm}{1cm}\n"
            "  \\caption[Short]{Long caption with {nested {deep}} braces and math $x^2$.}\n"
            "  \\label{fig:one}\n"
            "\\end{figure}\n"
            "\\begin{table}\n"
            "  \\centering\n"
            "  \\begin{tabular}{ll}\n"
            "    a & b \\\\\n"
            "  \\end{tabular}\n"
            "  \\caption{A table caption.}\n"
            "  \\label{tab:one}\n"
            "\\end{table}\n"
            "\\end{document}\n"
        ),
    },
    "math": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\begin{document}\n"
            "Inline $a+b$ math and a display:\n"
            "\\[\n"
            "  \\int_0^1 x\\,dx = \\frac{1}{2}\n"
            "\\]\n"
            "\\begin{equation}\n"
            "  e^{i\\pi} + 1 = 0\n"
            "  \\label{eq:euler}\n"
            "\\end{equation}\n"
            "Text after the mathematics.\n"
            "\\end{document}\n"
        ),
    },
    "verbatim": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\usepackage{listings}\n"
            "\\begin{document}\n"
            "\\section{Code}\n"
            "\\begin{lstlisting}\n"
            "% not a comment here\n"
            "\\begin{figure} not an environment\n"
            "10 % modulo\n"
            "\\end{lstlisting}\n"
            "\\begin{verbatim}\n"
            "\\caption{not a caption}\n"
            "\\end{verbatim}\n"
            "After the listings.\n"
            "\\end{document}\n"
        ),
    },
    "comments": {
        "main.tex": (
            "\\documentclass{article}\n"
            "% \\input{ghost}\n"
            "\\begin{document}\n"
            "Real text. % \\section{Phantom}\n"
            "% \\begin{figure}\n"
            "Escaped percent: 50\\% of cases.\n"
            "% \\caption{ghost caption}\n"
            "\\section{Visible}\n"
            "Section body.\n"
            "\\end{document}\n"
        ),
    },
    "nested_envs": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\begin{document}\n"
            "\\begin{center}\n"
            "  \\begin{figure}\n"
            "    \\caption{Caption inside a nested figure.}\n"
            "  \\end{figure}\n"
            "\\end{center}\n"
            "\\begin{itemize}\n"
            "  \\item Outer item.\n"
            "  \\begin{itemize}\n"
            "    \\item Inner item.\n"
            "  \\end{itemize}\n"
            "\\end{itemize}\n"
            "\\end{document}\n"
        ),
    },
    "zero_sections": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\begin{document}\n"
            "Body text with no sectioning commands whatsoever.\n"
            "\n"
            "Second paragraph.\n"
            "\\end{document}\n"
        ),
    },
    "unicode": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\begin{document}\n"
            "\\section{Caf\\'e and na\u00efve d\u00e9j\u00e0 vu}\n"
            "Unicode: \u03b1\u03b2\u03b3, \u4e2d\u6587, \u2018curly quotes\u2019.\n"
            "\\end{document}\n"
        ),
    },
    "tricky_captions": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\usepackage{capt-of}\n"
            "\\begin{document}\n"
            "\\begin{figure}\n"
            "  \\caption*{Starred caption.}\n"
            "\\end{figure}\n"
            "\\begin{table}\n"
            "  \\caption\n"
            "  [Short form]\n"
            "  {Caption on its own line.}\n"
            "\\end{table}\n"
            "A misplaced \\caption{not inside a float} stays put.\n"
            "\\begin{figure}\n"
            "  \\captionof{table}{Captionof body.}\n"
            "\\end{figure}\n"
            "\\end{document}\n"
        ),
    },
    "empty_front": {
        "main.tex": (
            "\\documentclass{article}\n"
            "\\begin{document}\n"
            "\\section{Immediate}\n"
            "No front matter before the first section.\n"
            "\\end{document}\n"
        ),
    },
}


def write_files(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return root


@pytest.fixture(scope="session")
def corpus_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    for name, files in CORPUS.items():
        write_files(root / name, files)
    return root


@pytest.fixture
def project_factory(tmp_path):
    """Write an ad-hoc project; returns its directory."""

    counter = [0]

    def make(files: dict[str, str], name: str | None = None) -> Path:
        if name is None:
            counter[0] += 1
            name = f"proj{counter[0]}"
        return write_files(tmp_path / name, files)

    return make


def tree_snapshot(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes for every file under root."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# mock backends that count their calls, which pool threads may make at once


class Counted:
    """*backend* with a count of the calls made to it."""

    def __init__(self, backend):
        self.backend = backend
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResult:
        with self._lock:
            self.calls += 1
        return self.backend.complete(request)


class RuleBackend:
    """First regex rule matching the user message wins; optional default; counts its calls."""

    def __init__(
        self,
        rules: Sequence[tuple[str, str | Callable[[re.Match, ChatRequest], str]]],
        default: str | None = None,
    ):
        self._rules = [(re.compile(pat, re.S), reply) for pat, reply in rules]
        self._default = default
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResult:
        with self._lock:
            self.calls += 1
        for pattern, reply in self._rules:
            m = pattern.search(request.user_message)
            if m is not None:
                text = reply(m, request) if callable(reply) else reply
                break
        else:
            if self._default is None:
                raise LlmError(f"no rule matched user message: {request.user_message[:80]!r}")
            text = self._default
        return _estimated(request, text)
