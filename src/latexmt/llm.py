"""Chat-completion access: one real HTTP backend, two deterministic mocks.

The mocks answer from the request alone: :class:`EchoBackend` returns the
user message, and :class:`ReplayBackend` the reply a recorded run's
transcript holds for the same request.  Neither has a tokenizer; their
token counts are estimated as characters / 4.

Every agent goes through :class:`LlmClient`, which owns retries, usage
accounting, the optional request transcript (each block of a call's texts
stored once, on a line before the first call that lists it by index;
:func:`read_transcript` joins them back), the run's
warnings (:meth:`LlmClient.warn`) and the jobs that run ahead of the program
(:meth:`LlmClient.submit`), whose calls and warnings count only once they
are kept; a job may submit the next job of a chain, and each is kept on
its own.  Above a bound of 1 every submitted job runs, kept or not, so the
backend sees the same calls whatever the timing; at a bound of 1 a job
runs only once its value is asked for.  A request sent early
(:meth:`LlmClient.send_early`) is answered only to a byte-equal request
(:meth:`LlmClient.reply`), so one program serves every bound; its job may
chain a request built from its reply, which counts as sent early once the
first is taken; the pool runs early requests before submitted jobs.  Its
threads are the one bound on calls in flight: a call the program makes
itself waits in the queue among the early requests, and a retry's backoff
sleep holds its thread.  After :meth:`LlmClient.close` any call raises.
Backends implement a single ``complete(request) -> ChatResult`` method, so
tests can swap in the mocks and the rest of the pipeline cannot tell the
difference.  Backends may be called from several threads at once.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Generic, Iterator, Sequence, TextIO, TypeVar

from .errors import (
    AuthError,
    ConfigError,
    EmptyCompletion,
    LlmError,
    RetryBudgetExhausted,
    TransientLlmError,
)

if TYPE_CHECKING:
    import requests

TRANSCRIPT_NAME = "llm_transcript.jsonl"
# What LlmClient.speculation counts, each from 0.
SPECULATED = dict.fromkeys(
    ("hits", "misses", "discarded_calls", "discarded_prompt_tokens", "discarded_completion_tokens"),
    0,
)
# A text's blocks start here, and after the ``[Name]`` header line that opens
# a block or the text: a template, a summary, a term list, the source a judge
# quotes or the translation it checks is one block of its own.
_BLOCK_START = "\n\n["
_TEXTS = ("system", "user", "reply")  # the texts of a call, stored as their blocks' indexes
_FIELDS = {f"{name}_parts" for name in _TEXTS} | {"temperature", "max_new_tokens"}
EARLY, BACKGROUND = 0, 1  # the ranks of queued jobs: the lowest runs first
_STOP = (2, 0, None)  # queued behind every job, it stops a pool thread
_private = partial(field, init=False, repr=False, compare=False)  # not in __init__, repr or ==


@dataclass(frozen=True)
class ChatRequest:
    system_prompt: str
    user_message: str
    temperature: float = 0.7
    max_new_tokens: int = 8192

    def messages(self) -> list[dict]:
        msgs = []
        if self.system_prompt:
            msgs.append({"role": "system", "content": self.system_prompt})
        msgs.append({"role": "user", "content": self.user_message})
        return msgs


@dataclass(frozen=True)
class ChatResult:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0


class UsageLedger:
    """Thread-safe running totals of calls and tokens; spend is tokens times prices."""

    def __init__(self, prompt_token_price: float = 0.0, completion_token_price: float = 0.0):
        self._lock = threading.Lock()
        self.prompt_token_price = prompt_token_price
        self.completion_token_price = completion_token_price
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def record(self, prompt_tokens: int, completion_tokens: int) -> None:
        with self._lock:
            self.calls += 1
            self.prompt_tokens += prompt_tokens
            self.completion_tokens += completion_tokens

    def summary(self) -> dict:
        with self._lock:
            cost = (
                self.prompt_tokens * self.prompt_token_price
                + self.completion_tokens * self.completion_token_price
            )
            return {
                "calls": self.calls,
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens,
                "cost": round(cost, 6),
            }


def _estimated(request: ChatRequest, reply: str) -> ChatResult:
    """*reply* with the mocks' token counts: no tokenizer, so chars/4, at least 1."""
    return ChatResult(
        reply,
        max(1, len(request.system_prompt + request.user_message) // 4),
        max(1, len(reply) // 4),
    )


class EchoBackend:
    """Returns the user message unchanged. The identity translator."""

    def complete(self, request: ChatRequest) -> ChatResult:
        return _estimated(request, request.user_message)


class ReplayBackend:
    """Answers each request with its reply in a recorded run's transcript.

    A request is keyed on every field, all of which the transcript records,
    so calls may come in any order.  A request recorded twice replays its
    first reply.  Only successful calls are recorded, so a call that failed
    in the recording fails here as an unrecorded request.  A missing
    recording, or a line of it that :func:`read_transcript` refuses, is a
    :class:`ConfigError`, raised here: before a run touches its output.
    """

    def __init__(self, logs_dir: Path | str):
        transcript = Path(logs_dir) / TRANSCRIPT_NAME
        if not transcript.is_file():
            raise ConfigError(f"no recording to replay: {transcript} not found")
        self._replies: dict[ChatRequest, str] = {}
        for call in read_transcript(logs_dir):
            fields = call["system"], call["user"], call["temperature"], call["max_new_tokens"]
            self._replies.setdefault(ChatRequest(*fields), call["reply"])

    def complete(self, request: ChatRequest) -> ChatResult:
        if request not in self._replies:
            raise LlmError(f"request not in the recording: {request.user_message[:80]!r}")
        return _estimated(request, self._replies[request])


def _retry_after(value: str | None) -> float | None:
    """Seconds from a ``Retry-After`` header in its delta-seconds form.

    The HTTP-date form, and anything malformed, gives None: the client
    then waits its own backoff.
    """
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class HttpBackend:
    """OpenAI-compatible /chat/completions over HTTP.

    Only this backend imports ``requests``: a run without one never loads it.
    """

    def __init__(
        self,
        endpoint: str,
        model: str = "",
        api_key: str | None = None,
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        endpoint = endpoint.rstrip("/")
        if not endpoint.endswith("/chat/completions"):
            endpoint += "/chat/completions"
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def complete(self, request: ChatRequest) -> ChatResult:
        import requests

        payload = {
            "model": self.model,
            "messages": request.messages(),
            "temperature": request.temperature,
            "max_tokens": request.max_new_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = self._session.post(
                self.endpoint, json=payload, headers=headers, timeout=self.timeout
            )
        except (
            requests.Timeout,
            requests.ConnectionError,
            requests.exceptions.ChunkedEncodingError,  # the reply was cut off mid-body
        ) as exc:
            raise TransientLlmError(f"transport failure: {exc}") from exc
        except requests.RequestException as exc:
            raise LlmError(f"request failed: {type(exc).__name__}: {exc}") from exc
        if resp.status_code in (401, 403):
            raise AuthError(f"endpoint rejected credentials (HTTP {resp.status_code})")
        if resp.status_code == 429 or resp.status_code >= 500:
            retry_after = (
                _retry_after(resp.headers.get("Retry-After"))
                if resp.status_code in (429, 503)
                else None
            )
            raise TransientLlmError(
                f"HTTP {resp.status_code}: {resp.text[:200]}", retry_after
            )
        if resp.status_code != 200:
            raise LlmError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:  # a missing or null reply, usage or token count is empty or 0
            data = resp.json()
            choice = data["choices"][0]
            text = choice["message"]["content"] or ""
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not a string")
            usage = data.get("usage") or {}
            tokens = [usage.get(key) for key in ("prompt_tokens", "completion_tokens")]
            tokens = [0 if n is None else int(n) for n in tokens]
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise LlmError(f"malformed completion payload: {exc}") from exc
        if choice.get("finish_reason") == "length":
            raise LlmError(f"reply cut off at max_tokens ({request.max_new_tokens})")
        return ChatResult(text, *tokens)


R = TypeVar("R")


class Pending(Generic[R]):
    """A job from :meth:`LlmClient.submit`; its calls and warnings count only once it is kept.

    The ledger records and transcript lines of its calls, and its warnings,
    are held until :meth:`result` commits them, when it is called, so the
    order of ``result`` calls is the order of the transcript and of
    ``LlmClient.warnings``; :meth:`discard` drops them.  At a bound above 1
    every job runs, discarded or not, queued at *rank*.  At a bound of 1 the
    job runs in the calling thread, when its value is first asked for, or never.
    """

    def __init__(self, client: "LlmClient", fn: Callable[..., R], args: tuple, rank: int):
        self._client, self._fn, self._args = client, fn, args
        self._held, self._warnings = [], []  # the calls and warnings result() commits
        self._future: Future | None = None  # set when the job is queued or first run
        client._queue(rank, self)

    def _run(self) -> None:  # here, in the calling thread; its value or error to its future
        local = self._client._local
        outer, local.job = getattr(local, "job", None), self
        try:
            self._future.set_result(self._fn(*self._args))
        except BaseException as exc:
            self._future.set_exception(exc)
        finally:
            local.job = outer

    def result(self) -> R:
        """The job's value, or its error raised, with its calls committed now."""
        if self._future is None:
            self._future = Future()
            self._run()
        try:
            return self._future.result()
        finally:
            held, warnings, self._held, self._warnings = self._held, self._warnings, [], []
            self._client._commit(held, warnings)

    def discard(self) -> None:
        """Drop the job's calls and warnings; a job not yet started still runs."""
        if self._future is not None:
            self._client._discarded.append(self._held)


@dataclass
class LlmClient:
    """Retry loop + bookkeeping around a backend.

    Transient failures back off exponentially up to ``retry_budget``
    attempts, or wait as long as the server's ``Retry-After`` asks if that
    is longer, never more than ``backoff_cap``; auth failures and
    malformed-payload errors propagate at once.  ``sleep`` is injectable so
    tests never wait.  :meth:`warn` adds to ``warnings``, in the order a
    serial run would.  Jobs share one pool of ``max_in_flight`` threads, which
    run the requests of :meth:`send_early` and those they chain (the next
    step waits for them) before the jobs of :meth:`submit`, each rank in the
    order submitted; a job may submit the next one of a chain.  The default
    of 1 starts no thread and keeps every call in program order.  The
    threads are the one bound on calls in flight: :meth:`chat` runs on a
    job's thread, or queues with the early requests and waits, so a
    backoff sleep holds a thread, the program's own call's retry too.
    Only the program's thread calls :meth:`send_early`, :meth:`reply` and
    :meth:`close`, and only it files requests sent early: :meth:`reply`
    files the job that a job it takes chained.  ``speculation``
    counts the requests sent early that :meth:`reply` took (hits) and never
    took (misses), and the calls that :meth:`Pending.discard` dropped.
    :meth:`close`, or leaving a ``with`` block, discards the misses and,
    once each returns, what it chained, waits for every queued job, counts
    what was discarded and closes the transcript, which is buffered until
    then: a killed process loses its tail.  A call or a job asked
    for after that raises :class:`RuntimeError`.
    """

    backend: object
    ledger: UsageLedger = field(default_factory=UsageLedger)
    retry_budget: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    transcript_path: Path | None = None
    sleep: Callable[[float], None] = time.sleep
    max_in_flight: int = 1
    speculation: Counter = field(default_factory=lambda: Counter(SPECULATED), init=False)
    warnings: list[str] = field(default_factory=list, init=False)
    _lock: threading.Lock = _private(default_factory=threading.Lock)
    _local: threading.local = _private(default_factory=threading.local)
    _stored: dict[str, int] = _private(default_factory=dict)  # each block's index in the file
    _file: TextIO | None = _private(default=None)
    _discarded: list = _private(default_factory=list)
    _early: dict = _private(default_factory=dict)
    _jobs: queue.PriorityQueue = _private(default_factory=queue.PriorityQueue)  # (rank, order, job)
    _order: Iterator[int] = _private(default_factory=itertools.count)
    _threads: list = _private(default_factory=list)
    _closed: bool = _private(default=False)

    def chat(self, request: ChatRequest) -> str:
        """The reply to *request*: inside a job, from its thread; else queued at rank EARLY."""
        if getattr(self._local, "job", None) is not None:
            return self._chat(request)
        return Pending(self, self._chat, (request,), EARLY).result()

    def _chat(self, request: ChatRequest) -> str:
        last: Exception | None = None
        for attempt in range(self.retry_budget):
            try:
                result = self.backend.complete(request)
            except TransientLlmError as exc:
                last = exc
                if attempt + 1 < self.retry_budget:
                    backoff = self.backoff_base * 2**attempt
                    self.sleep(min(self.backoff_cap, max(backoff, exc.retry_after or 0.0)))
                continue
            if not result.text.strip():
                raise EmptyCompletion("backend returned an empty reply")
            line = self._line(request, result)
            self._commit([(result.prompt_tokens, result.completion_tokens, line)])
            return result.text
        raise RetryBudgetExhausted(self.retry_budget, last or LlmError("no attempt ran"))

    def warn(self, text: str) -> None:
        """Add *text* to ``warnings``; inside a job, once the job is kept."""
        self._commit([], [text])

    def submit(self, fn: Callable[..., R], *args) -> Pending[R]:
        """Start ``fn(*args)``, which must not wait for other jobs, behind the early requests."""
        return Pending(self, fn, args, BACKGROUND)

    def _queue(self, rank: int, job: Pending) -> None:
        """Above a bound of 1, queue *job* at *rank*; the first job starts the pool's threads."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cannot call or submit to a closed client")
            if self.max_in_flight == 1:
                return
            job._future = Future()
            if not self._threads:
                for _ in range(self.max_in_flight):
                    thread = threading.Thread(target=_work, args=(self._jobs,), daemon=True)
                    thread.start()
                    self._threads.append(thread)
            self._jobs.put((rank, next(self._order), job))

    def send_early(self, request: ChatRequest, then: Callable | None = None) -> None:
        """Submit :meth:`chat` of *request*, for :meth:`reply` to an equal request to take.

        Given *then*, the job next submits the chat of ``then(reply)``, early once the job is taken.
        """
        if request not in self._early:
            self._early[request] = Pending(self, self._early_job, (request, then), EARLY)

    def _early_job(self, request: ChatRequest, then) -> tuple[str, tuple | None]:
        """The reply to *request*, and the chained ``(request, job)`` *then* asks for."""
        text = self.chat(request)
        if then is None:
            return text, None
        chained = then(text)
        return text, (chained, Pending(self, self._early_job, (chained, None), EARLY))

    def reply(self, request: ChatRequest) -> str:
        """The reply to an equal request sent early, committed now (a hit), or :meth:`chat`."""
        early = self._early.pop(request, None)
        if early is None:
            return self.chat(request)
        self.speculation["hits"] += 1
        text, chained = early.result()
        if chained is not None and self._early.setdefault(*chained) is not chained[1]:
            self.speculation["misses"] += 1  # an equal request is pending already
            chained[1].discard()
        return text

    def close(self) -> None:
        """Discard the misses and the jobs they chain, wait for the pool, count, close the file."""
        self.speculation["misses"] += len(self._early)
        for early in self._early.values():
            early.discard()
            if early._future is not None and early._future.exception() is None:  # waits for it
                chained = early._future.result()[1]  # submitted before the client closes
                if chained is not None:
                    chained[1].discard()
        self._early.clear()
        self._closed = True  # a call or a job asked for from now on raises
        self._jobs.put(_STOP)  # taken once every queued job has been
        for thread in self._threads:
            thread.join()
        for held in self._discarded:
            self.speculation.update(
                discarded_calls=len(held),
                discarded_prompt_tokens=sum(p for p, _, _ in held),
                discarded_completion_tokens=sum(c for _, c, _ in held),
            )
        self._discarded.clear()
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "LlmClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _commit(self, held: list[tuple], warnings: Sequence[str] = ()) -> None:
        """Count ``(prompt_tokens, completion_tokens, line)`` calls; write their lines.

        Inside a job they are held by the job, with *warnings*, instead.
        A line is ``(record, texts)``, or None without a transcript.  A block
        new to the file is numbered and written first, here, in commit order,
        so held calls give the same file as a serial run.
        """
        job = getattr(self._local, "job", None)
        if job is not None:
            job._held.extend(held)
            job._warnings.extend(warnings)
            return
        self.warnings.extend(warnings)
        for prompt_tokens, completion_tokens, _ in held:
            self.ledger.record(prompt_tokens, completion_tokens)
        lines = [line for *_, line in held if line is not None]
        if not lines:
            return
        with self._lock:
            out, stored = [], self._stored
            for record, texts in lines:
                for name, blocks in zip(_TEXTS, texts):
                    for block in blocks:
                        if block not in stored:
                            stored[block] = len(stored)
                            out.append(_json_line(block))
                    record[f"{name}_parts"] = [stored[block] for block in blocks]
                out.append(_json_line(record))
            if self._file is None:  # opened once per client and flushed by close()
                self._file = open(self.transcript_path, "a", encoding="utf-8")
            self._file.writelines(out)

    def _line(self, request: ChatRequest, result: ChatResult) -> tuple | None:
        if self.transcript_path is None:
            return None
        record = {"max_new_tokens": request.max_new_tokens, "temperature": request.temperature}
        texts = request.system_prompt, request.user_message, result.text
        return record, [_blocks(text) for text in texts]


def _work(jobs: queue.PriorityQueue) -> None:
    for _, _, job in iter(jobs.get, _STOP):  # up to the stop item; it goes back for the next thread
        job._run()
    jobs.put(_STOP)


def _json_line(value: dict | str) -> str:
    return json.dumps(value, ensure_ascii=True, sort_keys=True) + "\n"


def _blocks(text: str) -> list[str]:
    """*text* cut before each ``\\n\\n[``, and after a ``[Name]`` line that opens a block or *text*.

    The blocks, none empty, join back to *text*.
    """
    blocks = []
    for n, block in enumerate(text.split(_BLOCK_START)):
        start = 0
        if n:
            block, start = _BLOCK_START + block, 2
        if block.startswith("[", start):
            end = block.find("\n", start + 1)
            if end > 0 and block[end - 1] == "]":
                blocks.append(block[: end + 1])
                block = block[end + 1 :]
        if block:
            blocks.append(block)
    return blocks


def _json_lines(path: Path) -> Iterator[tuple[str, object]]:
    """``(where, value)`` of each line of *path*; a line not JSON in UTF-8 is a ConfigError."""
    for n, line in enumerate(path.read_bytes().splitlines(), 1):
        where = f"{path}, line {n}"
        try:
            value = json.loads(line)
        except ValueError as exc:
            raise ConfigError(f"{where}: not JSON ({exc})") from None
        yield where, value


def read_transcript(logs_dir: Path | str) -> Iterator[dict]:
    """Each transcribed call in order, its ``system``, ``user`` and ``reply`` joined back.

    A line is a block, a JSON string, or a call, whose parts are indexes
    among the block lines, from 0; a file cut at a line end reads back as
    the calls before the cut.  A line that is not JSON or neither, or a part
    not an earlier block's index, is a :class:`ConfigError` naming its line.
    """
    blocks: list[str] = []
    for where, line in _json_lines(Path(logs_dir) / TRANSCRIPT_NAME):
        if isinstance(line, str):
            blocks.append(line)
            continue
        if not isinstance(line, dict) or set(line) != _FIELDS:
            layout = f"a block string or a call {sorted(_FIELDS)}"
            raise ConfigError(f"{where}: not a transcript line of this layout: {layout}")
        record = {key: line[key] for key in ("temperature", "max_new_tokens")}
        for name in _TEXTS:
            parts = line[f"{name}_parts"]
            if not isinstance(parts, list):
                raise ConfigError(f"{where}: parts that are not a list of block indexes")
            for i in parts:
                if type(i) is not int or not 0 <= i < len(blocks):
                    raise ConfigError(f"{where}: not a block on an earlier line: {i!r}")
            record[name] = "".join(blocks[i] for i in parts)
        yield record
