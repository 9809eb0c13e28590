"""Machine-speed adjustment for CPU time.

On a shared machine the speed at which Python runs drifts by a third within
tens of seconds, so a CPU-bound document can take 0.6 s in one run and 1.0 s
in the next.  The benchmark therefore times a fixed reference task right
before and after each document, and reports the document's CPU time as if
the reference task had taken :data:`REFERENCE_S`.  Time spent waiting (the
backend's delay, including the CPU it spends polling the end of each delay,
and file I/O) is not scaled: ``wall + cpu * (REFERENCE_S / measured - 1)``.
"""

from __future__ import annotations

import re
import time

REFERENCE_S = 0.015

_TEXT = (
    "Plain words % a comment to the end of the line\n"
    "\\section{Title} more text {with {nested} braces} and an escaped \\% sign\n"
) * 1500
_PATTERN = re.compile(r"\\(?:begin|end|section)\b|\{[^{}]*\}")


def reference_s() -> float:
    """Seconds one run of the reference task takes now."""
    start = time.perf_counter()
    hits = 0
    for line in _TEXT.splitlines():
        i, n = 0, len(line)
        while i < n:
            ch = line[i]
            if ch == "\\":
                i += 2
                continue
            if ch == "%":
                hits += 1
                break
            i += 1
    hits += sum(1 for _ in _PATTERN.finditer(_TEXT))
    return time.perf_counter() - start


def adjusted(wall_s: float, cpu_s: float, reference: float) -> float:
    """*wall_s* with its CPU part rescaled to the reference speed."""
    return wall_s + cpu_s * (REFERENCE_S / reference - 1)
