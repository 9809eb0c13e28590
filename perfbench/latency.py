"""A latency backend: fixed delay per call, replies keyed on request content.

The backend stands in for a chat model.  It waits :data:`DELAY_S` per call
and computes each reply from the request's role and user message, never
from call order.  Whether a fault hits a request is decided by a hash of
the role and the message's *shape*: the message with every run of letters
masked.  Generated projects of one size share their shape across seeds
(see ``projgen``), so a seed changes the words but not which units are
damaged, and the counts stay nearly the same from seed to seed.  The only
state is which exact requests have arrived before, and how often; a
pipeline that runs calls concurrently sees that the same way as a serial
one.

The role is inferred from the rendered system prompt, whose opening line
differs per template (``ChatRequest`` has no role field).

Two profiles:

``steady``
    The filter answers ``True``/``False`` by a content rule, the translator
    echoes its input, terminology returns up to three pairs or ``N/A``, the
    summary stays under :data:`SUMMARY_WORDS` words and the judge answers
    ``OK`` unless the translation differs from the original.

``revise``
    As ``steady``, plus: shares of translations lose a placeholder, a
    control word, or their last plain sentence (which only the judge
    notices); a share of requests fail their first attempt with
    ``TransientLlmError``; a share of filter requests get unparseable
    replies; the corrector restores the source, rewrites but keeps the
    defect, or fails every attempt, for fixed shares of its requests.

Token counts use the mocks' estimate: characters / 4, at least 1.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from latexmt import prompts
from latexmt.errors import TransientLlmError
from latexmt.llm import ChatRequest, ChatResult
from latexmt.placeholders import TOKEN_RE

DELAY_S = 0.005
SUMMARY_WORDS = 60
# The last stretch of each delay is polled rather than slept, so that the
# kernel's wake-up latency, which varies with machine load, does not add to
# every call.  Polling yields the interpreter lock between checks.
POLL_S = 0.0003

ROLES = ("filter", "translator", "terminology", "summarizer", "completeness", "corrector")

# Shares in percent of the hash space, per fault, for the revise profile.
# They are chosen, not measured from a model: the paper reports no revision
# or failure rates.  They are set so that on an M project every revise path
# fires many times per document (retries after a transient error, the
# filter's default after unparseable replies, each of the three findings,
# corrector repairs, corrector rewrites that keep the defect, correctors
# that never answer, and source fallback), while most units still pass on
# their first translation.
REVISE_FAULTS = {
    "transient_first": 8,
    "filter_unparseable": 15,
    "drop_placeholder": 20,
    "drop_command": 20,
    "drop_prose": 25,
    "corrector_keeps_damage": 15,
    "corrector_always_fails": 8,
}

_COMMAND_RE = re.compile(r"\\(?:emph|cite|ref|label|textbf)(?![A-Za-z])")
_WORD_RE = re.compile(r"(?<![\\A-Za-z])[A-Za-z]{3,}")
_SENTENCE_RE = re.compile(r"[A-Z][a-z]+(?: [a-z]+){4,}\.")
_TERM_RE = re.compile(r"(?<![\\A-Za-z])[a-z]{9,}")
_LETTERS_RE = re.compile(r"[^\W\d_]+")


def estimate_tokens(text: str) -> int:
    return max(1, len(text) // 4)


def _role_prefixes() -> list[tuple[str, str]]:
    prefixes = []
    for role in ROLES:
        first_line = prompts.load_template(role).split("\n", 1)[0]
        prefixes.append((first_line.split("{tgt_language}", 1)[0], role))
    # Longest first, so a prefix of another role's prefix cannot shadow it.
    return sorted(prefixes, key=lambda p: -len(p[0]))


def infer_role(request: ChatRequest, prefixes: list[tuple[str, str]]) -> str:
    for prefix, role in prefixes:
        if request.system_prompt.startswith(prefix):
            return role
    raise ValueError(f"unknown system prompt: {request.system_prompt[:60]!r}")


def wait(delay: float) -> None:
    """Return *delay* seconds from now, give or take a few microseconds."""
    deadline = time.perf_counter() + delay
    if delay > POLL_S:
        time.sleep(delay - POLL_S)
    while time.perf_counter() < deadline:
        time.sleep(0)


def _share(key: str, fault: str) -> int:
    """Stable value in [0, 100) for one request key and one fault."""
    digest = hashlib.blake2b(f"{fault}\0{key}".encode("utf-8", "surrogateescape"), digest_size=8)
    return int.from_bytes(digest.digest(), "big") % 100


def _blocks(message: str, first: str, second: str) -> tuple[str, str]:
    """Split ``[first]\\n..\\n\\n[second]\\n..`` user messages."""
    head, _, tail = message.partition(f"\n\n[{second}]\n")
    return head.removeprefix(f"[{first}]\n"), tail


def _drop_last_sentence(text: str) -> str | None:
    """*text* without its last plain-prose sentence, or None if it has none."""
    last = None
    for last in _SENTENCE_RE.finditer(text):
        pass
    return None if last is None else text[: last.start()] + text[last.end() :]


@dataclass(frozen=True)
class LlmFigures:
    """The backend's counts for one document."""

    attempts: Counter = field(default_factory=Counter)
    replies: Counter = field(default_factory=Counter)
    prompt_tokens: Counter = field(default_factory=Counter)
    transient_failures: int = 0
    rejudged: int = 0
    max_in_flight: int = 0
    wait_cpu_s: float = 0.0


class LatencyBackend:
    """Backend with a fixed per-call delay and content-keyed replies.

    ``attempts`` counts every call per role, failed ones included;
    ``replies`` and ``prompt_tokens`` count successful replies only.
    ``wait_cpu_s`` is the CPU time spent polling out the delays: waiting,
    not work, so the benchmark keeps it out of the CPU time it rescales.
    ``on_call`` (optional) is called with ``(role, start, end)`` after each
    attempt, for tracing.
    """

    def __init__(self, profile: str = "steady", delay: float = DELAY_S, wait=wait):
        if profile not in ("steady", "revise"):
            raise ValueError(f"unknown profile: {profile!r}")
        self.profile = profile
        self.delay = delay
        self.wait = wait
        self.on_call = None
        self._prefixes = _role_prefixes()
        self._lock = threading.Lock()
        self._seen: Counter = Counter()
        self._judged: set[str] = set()
        self.attempts: Counter = Counter()
        self.replies: Counter = Counter()
        self.prompt_tokens: Counter = Counter()
        self.transient_failures = 0
        self.rejudged = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.wait_cpu_s = 0.0

    def complete(self, request: ChatRequest) -> ChatResult:
        role = infer_role(request, self._prefixes)
        key = f"{role}\0{request.user_message}"
        shape = f"{role}\0{_LETTERS_RE.sub('w', request.user_message)}"
        with self._lock:
            seen = self._seen[key]
            self._seen[key] += 1
            self.attempts[role] += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        start = time.perf_counter()
        try:
            cpu = time.thread_time()
            self.wait(self.delay)
            cpu = time.thread_time() - cpu
            with self._lock:
                self.wait_cpu_s += cpu
            text = self._reply(role, shape, seen, request.user_message)
        finally:
            with self._lock:
                self.in_flight -= 1
            if self.on_call is not None:
                self.on_call(role, start, time.perf_counter())
        prompt = estimate_tokens(request.system_prompt + request.user_message)
        with self._lock:
            self.replies[role] += 1
            self.prompt_tokens[role] += prompt
        return ChatResult(text, prompt, estimate_tokens(text))

    def figures(self) -> LlmFigures:
        with self._lock:
            return LlmFigures(
                Counter(self.attempts),
                Counter(self.replies),
                Counter(self.prompt_tokens),
                self.transient_failures,
                self.rejudged,
                self.max_in_flight,
                self.wait_cpu_s,
            )

    def _fault(self, key: str, fault: str) -> bool:
        return self.profile == "revise" and _share(key, fault) < REVISE_FAULTS[fault]

    def _reply(self, role: str, key: str, seen: int, message: str) -> str:
        if seen == 0 and self._fault(key, "transient_first"):
            self._transient()
        return getattr(self, f"_{role}")(key, message)

    def _transient(self):
        with self._lock:
            self.transient_failures += 1
        raise TransientLlmError("injected transient failure")

    def _filter(self, key: str, message: str) -> str:
        if self._fault(key, "filter_unparseable"):
            return "It depends on the content."
        return "True" if _SENTENCE_RE.search(message) else "False"

    def _translator(self, key: str, message: str) -> str:
        if self._fault(key, "drop_placeholder"):
            m = TOKEN_RE.search(message)
            if m is not None:
                return message[: m.start()] + message[m.end() :]
        if self._fault(key, "drop_command"):
            m = _COMMAND_RE.search(message)
            if m is not None:
                return message[: m.start()] + message[m.end() :]
        if self._fault(key, "drop_prose"):
            damaged = _drop_last_sentence(message)
            if damaged is not None:
                return damaged
        return message

    def _terminology(self, key: str, message: str) -> str:
        source, _ = _blocks(message, "Source", "Translation")
        terms = sorted(set(_TERM_RE.findall(source)))
        if not terms or _share(key, "terms") < 30:
            return "N/A"
        start = _share(key, "term_pick") % len(terms)
        picked = terms[start : start + 3]
        return "\n".join(f'"{t}" - "{t[::-1]}"' for t in picked)

    def _summarizer(self, key: str, message: str) -> str:
        prev, _, new = message.partition("\n\nnew_section:\n")
        prev = prev.removeprefix("prev_summary:\n")
        words = [] if prev == "(empty)" else prev.split()
        words += _WORD_RE.findall(new)[:20]
        return " ".join(words[-SUMMARY_WORDS:]) or "(empty)"

    def _completeness(self, key: str, message: str) -> str:
        with self._lock:
            if message in self._judged:
                self.rejudged += 1
            self._judged.add(message)
        original, translation = _blocks(message, "Original", "Translation")
        if original != translation:
            return "- a sentence of the original is missing from the translation"
        return "OK"

    def _corrector(self, key: str, message: str) -> str:
        if self._fault(key, "corrector_always_fails"):
            self._transient()
        original, rest = _blocks(message, "Original", "Translation")
        translation, _, _ = rest.partition("\n\n[Error Reports]\n")
        if self._fault(key, "corrector_keeps_damage"):
            # A rewrite that keeps the defect: new text, so no re-judging.
            return translation + "\n"
        return original
