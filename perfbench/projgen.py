"""Seeded synthetic LaTeX projects in three sizes.

A project is a main file, one brace-less ``\\input`` target and a tree of
chapter files, each chapter pulling in its part files with ``\\input{..}``
(so includes nest two deep).  Every file is a run of *section blocks* with a
fixed structure; the seed only chooses the words.  Numbers, sentence
lengths and the unicode words follow from the block's position, so all
projects of one size have the same *shape* (the text with each run of
letters masked), and every unit carries its block number, so no two units
of a project share a shape.  Unit counts, file counts and sizes barely move
between seeds.

Each block carries the constructs the parser has to get right: a
``\\caption[short]{..{nested}..}`` float and a ``\\captionof`` inside a float,
``%`` comments hiding ``\\section`` and ``\\begin``, escaped ``\\%``,
``verbatim`` and ``lstlisting`` bodies holding ``%`` and ``\\section``, inline
and display math, protected math environments, custom environments that
reach the unit filter, and unicode prose.  Every chapter file also holds the
inputs behind two known parser defects, so the unit counts include them:
``\\verb|50%|`` followed by a ``\\subsection`` on the same line (the scanner
reads the ``%`` as a comment and loses the heading), and the main file has a
brace-less ``\\input extra`` (not merged, copied through as is).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# chapters, part files per chapter, section blocks per chapter file and per
# part file.  File count is 2 + chapters * (1 + parts).
SIZES = {
    "S": (1, 1, 1, 1),
    "M": (3, 2, 1, 3),
    "L": (13, 2, 8, 16),
}

PREAMBLE_LINE = "\\usepackage{xeCJK}\n"

_WORDS = (
    "model translation document structure section method result analysis "
    "training evaluation baseline corpus sentence language terminology "
    "consistency placeholder environment caption equation figure table "
    "experiment dataset accuracy latency throughput parameter gradient "
    "representation attention encoder decoder alignment benchmark retrieval "
    "summary context dictionary validation revision compiler formatting "
    "reference citation appendix theorem proof lemma definition notation "
    "probability distribution estimator variance sampling optimisation "
    "objective constraint regularisation architecture pipeline component "
    "module interface protocol measurement ablation comparison improvement "
    "degradation robustness coverage precision recall fluency adequacy "
    "referee annotator guideline heuristic approximation convergence "
    "iteration schedule allocation partition boundary segment token "
    "vocabulary morphology syntax semantics pragmatics discourse coherence"
).split()

_UNICODE_WORDS = (
    "naïve", "façade", "Zürich", "résumé", "coöperation", "Gödel",
    "Erdős", "São Paulo", "Ångström", "crème brûlée", "α-stable",
    "≤ bound", "—", "中文摘要", "日本語の例",
)

_ENV_NUMERIC = "0.91 & 0.88 & 0.93 \\\\ 1.20 & 1.31 & 1.12"


@dataclass(frozen=True)
class Project:
    """Generated files and what a correct structural round trip yields.

    ``expected`` maps every project file to the bytes the output tree must
    hold after an echo translation: the file itself, except that the main
    file gains :data:`PREAMBLE_LINE` right before ``\\begin{document}``.
    ``merged`` lists the files the parser inlines (the brace-less target is
    not among them).
    """

    files: dict[str, str]
    main_file: str
    expected: dict[str, str]
    merged: tuple[str, ...]

    @property
    def size_bytes(self) -> int:
        return sum(len(t.encode("utf-8")) for t in self.files.values())

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)


class _Writer:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.block = 0
        self.sentences = 0

    def words(self, n: int) -> str:
        return " ".join(self.rng.choice(_WORDS) for _ in range(n))

    def sentence(self, n: int = 12) -> str:
        text = self.words(n)
        return text[0].upper() + text[1:] + "."

    def prose(self, sentences: int) -> str:
        parts = []
        for _ in range(sentences):
            self.sentences += 1
            parts.append(self.sentence(9 + self.sentences * 5 % 8))
        return " ".join(parts)

    def title(self) -> str:
        return self.words(3).title()

    def section_block(self) -> str:
        """One section with a subsection and the full construct mix."""
        self.block += 1
        b = self.block
        uni = _UNICODE_WORDS[b % len(_UNICODE_WORDS)]
        k = 2 + b % 8
        box_body = f"{b} & {_ENV_NUMERIC}" if b % 2 == 0 else f"Run {b}. {self.prose(2)}"
        return "".join(
            [
                f"\\section{{{self.title()}}}\\label{{sec:b{b}}}\n",
                f"{self.prose(3)} We follow \\emph{{{self.words(2)}}} as in "
                f"\\cite{{key{b}}}, reaching {50 + b * 7 % 50}\\% on "
                f"$x_{{{k}}}^2 + \\alpha_{{{b}}}$ with {uni} inputs.\n",
                "\n",
                f"% \\section{{Hidden heading {b}}} a commented-out section\n",
                f"% \\begin{{figure}} a commented-out float {b}\n",
                f"{self.prose(2)} See Figure~\\ref{{fig:b{b}}}.\n",
                "\n",
                "\\begin{theorem}\\label{thm:b%d}\n%s\n\\end{theorem}\n" % (b, self.prose(2)),
                "\n",
                "\\begin{equation}\n"
                f"E_{{{b}}} = \\sum_{{i=1}}^{{{k}}} w_i x_i % weights of block {b}\n"
                "\\end{equation}\n",
                "\n",
                "\\begin{figure}[t]\n\\centering\n"
                f"\\includegraphics[width=0.5\\linewidth]{{fig{b}.pdf}}\n"
                f"\\caption[{self.words(3)}]{{{self.sentence(8)} with "
                f"{{nested {{{self.words(2)}}}}} and $y_{{{b}}}$.}}\n"
                f"\\label{{fig:b{b}}}\n\\end{{figure}}\n",
                "\n",
                "\\begin{verbatim}\n"
                f"% not a comment: {10 + b % 90}% literal, block {b}\n"
                "\\section{Not a section}\n"
                "\\end{verbatim}\n",
                "\n",
                f"\\subsection{{{self.title()}}}\n",
                f"{self.prose(3)} Display math follows:\n"
                f"\\[ z_{{{b}}} = \\frac{{a}}{{b + {k}}} \\]\n"
                f"{self.prose(1)}\n",
                "\n",
                "\\begin{itemize}\n"
                f"\\item {self.sentence(10)} (Table~\\ref{{tab:b{b}}})\n"
                f"\\item {self.sentence(10)}\n"
                "\\end{itemize}\n",
                "\n",
                "\\begin{resultbox}\n%s\n\\end{resultbox}\n" % box_body,
                "\n",
                "\\begin{lstlisting}[language=Python]\n"
                f"ratio = {100 + b} % 7  # percent in code\n"
                "print(\"\\section{inside code}\")\n"
                "\\end{lstlisting}\n",
                "\n",
                "\\begin{table}[h]\n\\centering\n"
                "\\begin{minipage}{0.4\\linewidth}\n"
                f"\\captionof{{table}}{{{self.sentence(7)} "
                f"{{grouped {self.words(1)}}} in set {b}}}\n"
                "\\end{minipage}\n"
                "\\begin{tabular}{lll}\n"
                f"{_ENV_NUMERIC} \\\\\n"
                f"\\end{{tabular}}\\label{{tab:b{b}}}\n\\end{{table}}\n",
                "\n",
                "\\begin{align}\n"
                f"f(x) &= x^{{{k}}} + {b} \\\\\n"
                "g(x) &= \\log x\n"
                "\\end{align}\n",
                "\n",
            ]
        )

    def defect_line(self) -> str:
        return (
            f"The option \\verb|50%| sets the width. \\subsection{{{self.title()}}}\n"
            f"{self.prose(1)}\n\n"
        )


def _main_file(w: _Writer, includes: list[str]) -> tuple[str, str]:
    """Return (main text, main text with the preamble line injected)."""
    head = (
        "\\documentclass{article}\n"
        "\\usepackage{amsmath}\n"
        "\\usepackage{graphicx}\n"
        "\\usepackage{listings}\n"
        "\\usepackage{caption}\n"
        "\\newtheorem{theorem}{Theorem}\n"
        "\\newenvironment{resultbox}{\\par}{\\par}\n"
        f"\\title{{{w.title()}}}\n"
        "% \\begin{document} in a comment must not end the preamble\n"
    )
    body = (
        "\\begin{document}\n"
        "\\maketitle\n"
        "\\begin{abstract}\n"
        f"{w.prose(3)}\n"
        "\\end{abstract}\n\n"
        + "".join(f"\\input{{{inc}}}\n" for inc in includes)
        + "\\input extra\n"
        "\\end{document}\n"
    )
    return head + body, head + PREAMBLE_LINE + body


def generate(seed: int, size: str) -> Project:
    """Build the project of *size* (``S``, ``M`` or ``L``) for *seed*."""
    chapters, parts, chapter_blocks, part_blocks = SIZES[size]
    w = _Writer(random.Random(f"latexmt-bench/{size}/{seed}"))
    files: dict[str, str] = {}
    merged = ["main.tex"]
    includes = []
    for c in range(1, chapters + 1):
        chapter = f"chapters/ch{c:02d}.tex"
        includes.append(chapter[:-4])
        merged.append(chapter)
        text = [f"\\chapter*{{Part {c}: {w.title()}}}\n", w.defect_line()]
        text += [w.section_block() for _ in range(chapter_blocks)]
        for p in range(1, parts + 1):
            part = f"chapters/ch{c:02d}/part{p}.tex"
            merged.append(part)
            text.append(f"\\input{{{part[:-4]}}}\n")
            files[part] = "".join(w.section_block() for _ in range(part_blocks))
        files[chapter] = "".join(text)
    files["extra.tex"] = f"\\section{{{w.title()}}}\n{w.prose(2)}\n"
    main, main_expected = _main_file(w, includes)
    files["main.tex"] = main
    expected = dict(files)
    expected["main.tex"] = main_expected
    return Project(dict(sorted(files.items())), "main.tex", expected, tuple(merged))
