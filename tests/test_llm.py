"""Client retry behaviour, mock backends, HTTP adapter, usage ledger, fan-out."""

import json
import re
import tempfile
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from latexmt.agents import run_pipeline
from latexmt.config import RunConfig
from latexmt.errors import (
    AuthError,
    ConfigError,
    EmptyCompletion,
    LlmError,
    RetryBudgetExhausted,
    TransientLlmError,
)
from latexmt.llm import (
    PROMPTS_NAME,
    TRANSCRIPT_NAME,
    ChatRequest,
    ChatResult,
    EchoBackend,
    HttpBackend,
    LlmClient,
    ReplayBackend,
    RuleBackend,
    UsageLedger,
    read_transcript,
)
from latexmt.parser import GRAN_SECTION, STATUS_FAILED, STATUS_VALIDATED, TranslationUnit


def req(user="hello", system="sys"):
    return ChatRequest(system_prompt=system, user_message=user)


def client_for(backend, **kwargs):
    kwargs.setdefault("sleep", lambda _s: None)
    return LlmClient(backend, UsageLedger(), **kwargs)


# --------------------------------------------------------------------------
# backends


def test_echo_backend_returns_user_message():
    client = client_for(EchoBackend())
    assert client.chat(req("round and round")) == "round and round"


def record(logs, calls):
    """Transcribe *calls*, ``(request, reply)`` pairs, into *logs*."""
    logs.mkdir(parents=True, exist_ok=True)
    replies = iter([reply for _, reply in calls])
    backend = RuleBackend([(r"", lambda _m, _r: next(replies))])
    with client_for(backend, transcript_path=logs / TRANSCRIPT_NAME) as client:
        for request, _ in calls:
            client.chat(request)


def test_replay_backend_answers_by_request_in_any_order(tmp_path):
    block = "template\n\n[Summary]\nshared block"
    record(
        tmp_path,
        [(req("a", block), "reply a"), (req("b", block), "reply b"), (req("a", block), "later a")],
    )
    client = client_for(ReplayBackend(tmp_path))
    assert client.chat(req("b", block)) == "reply b"
    assert client.chat(req("a", block)) == "reply a"  # the first recorded reply wins
    assert client.chat(req("a", block)) == "reply a"
    assert client.ledger.summary()["completion_tokens"] == 3 * (len("reply a") // 4)


@pytest.mark.parametrize(
    "change",
    [
        {"system_prompt": "other"},
        {"user_message": "other"},
        {"temperature": 0.0},
        {"max_new_tokens": 7},
    ],
)
def test_replay_backend_keys_on_every_recorded_field(tmp_path, change):
    recorded = req("hello", "sys")
    record(tmp_path, [(recorded, "hi")])
    backend = ReplayBackend(tmp_path)
    assert backend.complete(recorded).text == "hi"
    asked = ChatRequest(**{**recorded.__dict__, **change})
    with pytest.raises(LlmError, match="request not in the recording: '"):
        backend.complete(asked)


def test_replay_backend_without_a_recording_is_a_config_error(tmp_path):
    for logs in (tmp_path / "missing", tmp_path):  # no directory; no transcript in it
        with pytest.raises(ConfigError, match="no recording to replay: .* not found"):
            ReplayBackend(logs)


@pytest.mark.parametrize(
    "damage, problem",
    [
        (lambda line: line[: len(line) // 2], r"not JSON \("),
        (lambda line: line.replace('"reply_parts": ["', '"reply_parts": ["0'), "block 0"),
        (  # the layout before every text was stored as blocks
            lambda _line: '{"max_new_tokens": 8192, "reply": "r", "system_parts": [], '
            '"temperature": 0.7, "user": "u"}',
            r"not a transcript line of this layout \['max_new_tokens', ",
        ),
    ],
)
def test_replay_backend_refuses_a_bad_line_naming_its_file_and_line(tmp_path, damage, problem):
    record(tmp_path, [(req("a"), "reply a"), (req("b"), "reply b")])
    transcript = tmp_path / TRANSCRIPT_NAME
    first, last = transcript.read_text().splitlines()
    transcript.write_text(f"{first}\n{damage(last)}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(transcript))}, line 2: {problem}"):
        ReplayBackend(tmp_path)




def test_rule_backend_first_match_wins():
    backend = RuleBackend(
        [
            (r"\[Error Reports\]", "fixed"),
            (r"begin", "True"),
        ],
        default="fallback",
    )
    client = client_for(backend)
    assert client.chat(req("\\begin{x}")) == "True"
    assert client.chat(req("[Error Reports]\n- stuff")) == "fixed"
    assert client.chat(req("nothing matches")) == "fallback"


def test_rule_backend_callable_reply():
    backend = RuleBackend([(r"name: (\w+)", lambda m, r: f"hi {m.group(1)}")])
    client = client_for(backend)
    assert client.chat(req("name: ada")) == "hi ada"


def test_rule_backend_without_default_raises():
    client = client_for(RuleBackend([(r"never", "x")]))
    with pytest.raises(LlmError):
        client.chat(req("unmatched"))


# --------------------------------------------------------------------------
# retry loop


class FlakyBackend:
    """Fails transiently n times, then succeeds."""

    def __init__(self, failures, reply="ok"):
        self.failures = failures
        self.reply = reply
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientLlmError("temporarily down")
        return ChatResult(self.reply, 1, 1)


def test_transient_failures_retried_with_backoff():
    naps = []
    backend = FlakyBackend(2)
    client = LlmClient(
        backend, UsageLedger(), retry_budget=3, backoff_base=0.5, sleep=naps.append
    )
    assert client.chat(req()) == "ok"
    assert backend.calls == 3
    assert naps == [0.5, 1.0]  # exponential: base * 2**attempt


def test_backoff_is_capped():
    naps = []
    backend = FlakyBackend(4)
    client = LlmClient(
        backend,
        UsageLedger(),
        retry_budget=5,
        backoff_base=10.0,
        backoff_cap=15.0,
        sleep=naps.append,
    )
    client.chat(req())
    assert naps == [10.0, 15.0, 15.0, 15.0]


def test_retry_budget_exhausted():
    backend = FlakyBackend(99)
    client = client_for(backend, retry_budget=3)
    with pytest.raises(RetryBudgetExhausted):
        client.chat(req())
    assert backend.calls == 3
    assert client.ledger.calls == 0  # nothing ever succeeded


class RefusingBackend:
    def complete(self, request):
        raise AuthError("bad key")


def test_auth_errors_never_retried():
    client = client_for(RefusingBackend())
    with pytest.raises(AuthError):
        client.chat(req())


def test_empty_reply_raises():
    client = client_for(RuleBackend([], default="   \n"))
    with pytest.raises(EmptyCompletion):
        client.chat(req())


# --------------------------------------------------------------------------
# ledger and transcript


def test_ledger_totals_and_cost():
    ledger = UsageLedger(prompt_token_price=0.001, completion_token_price=0.002)
    ledger.record(100, 50)
    ledger.record(10, 5)
    assert ledger.calls == 2
    summary = ledger.summary()
    assert summary["calls"] == 2
    assert summary["prompt_tokens"] == 110
    assert summary["completion_tokens"] == 55
    assert summary["cost"] == pytest.approx(0.001 * 110 + 0.002 * 55)


def test_client_records_usage_per_successful_call():
    client = client_for(EchoBackend())
    client.chat(req("x" * 40))
    assert client.ledger.calls == 1
    assert client.ledger.summary()["completion_tokens"] == 10  # 40 chars // 4


def test_transcript_written_as_jsonl(tmp_path):
    path = tmp_path / TRANSCRIPT_NAME
    backend = RuleBackend([("^first$", "alpha"), ("^second$", "beta")])
    client = client_for(backend, transcript_path=path)
    client.chat(req("first"))
    client.chat(req("second"))
    client.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [sorted(entry) for entry in lines] == 2 * [
        ["max_new_tokens", "reply_parts", "system_parts", "temperature", "user_parts"]
    ]
    calls = list(read_transcript(tmp_path))
    assert [c["reply"] for c in calls] == ["alpha", "beta"]
    assert calls[0]["user"] == "first"


# Prompts that share blocks, in the layout the agents use, and edge cases:
# no system prompt, a prompt that starts with a block, non-ASCII text and a
# lone surrogate (from undecodable source bytes).
SYSTEMS = [
    "Translate.\n\n[Summary]\n(none yet)\n\n[Term Dictionary]\n(empty)",
    "Translate.\n\n[Summary]\nso far\n\n[Term Dictionary]\n(empty)",
    "Translate.\n\n[Summary]\nso far\n\n[Term Dictionary]\n\"graph\" - \"\u56fe\"",
    "",
    "\n\n[Term Dictionary]\n(empty)",
    "Judge.",
    "Judge \udcff.\n\n[",
    "Translate.\n\n[Summary]\n(none yet)\n\n[Term Dictionary]\n(empty)",
]


def transcribe_all(path, max_in_flight=1):
    client = client_for(EchoBackend(), transcript_path=path, max_in_flight=max_in_flight)

    def call(i):
        time.sleep(0.002 * (len(SYSTEMS) - i))  # later calls finish first
        return client.chat(req(f"user {i}", SYSTEMS[i]))

    with client:
        for job in [client.submit(call, i) for i in range(len(SYSTEMS))]:
            job.result()


def test_read_transcript_rebuilds_each_system_prompt(tmp_path):
    transcribe_all(tmp_path / TRANSCRIPT_NAME)
    calls = list(read_transcript(tmp_path))
    assert [c["system"] for c in calls] == SYSTEMS
    assert [c["user"] for c in calls] == [f"user {i}" for i in range(len(SYSTEMS))]
    assert all("system_parts" not in c for c in calls)


def test_read_transcript_without_any_system_prompt(tmp_path):
    client = client_for(EchoBackend(), transcript_path=tmp_path / TRANSCRIPT_NAME)
    with client:
        client.chat(req("only a user message", ""))
    (line,) = (tmp_path / TRANSCRIPT_NAME).read_text().splitlines()
    assert json.loads(line)["system_parts"] == []
    assert [c["system"] for c in read_transcript(tmp_path)] == [""]


def test_each_prompt_block_is_stored_once_before_its_first_use(tmp_path):
    transcribe_all(tmp_path / TRANSCRIPT_NAME)
    stored = [json.loads(line) for line in (tmp_path / PROMPTS_NAME).read_text().splitlines()]
    first_use = []
    for line in (tmp_path / TRANSCRIPT_NAME).read_text().splitlines():
        entry = json.loads(line)
        assert not {"system", "user", "reply"} & set(entry)
        for field in ("system_parts", "user_parts", "reply_parts"):
            first_use += [i for i in entry[field] if i not in first_use]
    assert [part["id"] for part in stored] == first_use
    texts = [part["text"] for part in stored]
    assert len(set(texts)) == len(texts)
    # Each header line is a block, so the summary and the terms are blocks of their own;
    # echo's reply is the user message, stored once.
    assert texts[:6] == [
        "Translate.", "\n\n[Summary]\n", "(none yet)", "\n\n[Term Dictionary]\n", "(empty)",
        "user 0",
    ]


def test_prompt_sidecar_is_the_same_under_concurrency(tmp_path):
    for name, bound in (("serial", 1), ("concurrent", 4)):
        (tmp_path / name).mkdir()
        transcribe_all(tmp_path / name / TRANSCRIPT_NAME, bound)
    for name in (TRANSCRIPT_NAME, PROMPTS_NAME):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "concurrent" / name
        ).read_bytes()


def test_a_text_quoted_under_a_header_is_not_stored_again(tmp_path):
    source, translation = "A source.\n\n[1] A citation.", "Une source.\n\n[1] Une citation."
    record(
        tmp_path,
        [
            (req(source, "Translate."), translation),
            (req(f"[Source]\n{source}\n\n[Translation]\n{translation}", "Mine."), "N/A"),
        ],
    )
    stored = [json.loads(line) for line in (tmp_path / PROMPTS_NAME).read_text().splitlines()]
    assert [part["text"] for part in stored] == [
        "Translate.", "A source.", "\n\n[1] A citation.", "Une source.", "\n\n[1] Une citation.",
        "Mine.", "[Source]\n", "\n\n[Translation]\n", "N/A",
    ]


class ReplyByTemperature:
    """Answers a request with ``replies[int(temperature)]``, whatever the order of calls."""

    def __init__(self, replies):
        self.replies = replies

    def complete(self, request):
        return ChatResult(self.replies[int(request.temperature)])


# Texts built to hit the cuts: block starts, header lines at the start and
# after a block start, brackets that open no header, non-ASCII and a lone surrogate.
PIECES = st.sampled_from(
    ["\n\n[", "[x]\n", "\n\n[Summary]\n", "[", "]\n", "\n", "\u56fe", "\udcff"]
)
TEXTS = st.lists(st.one_of(PIECES, st.text(max_size=6)), max_size=8).map("".join)
CALLS = st.lists(
    st.tuples(st.one_of(st.just(""), TEXTS), TEXTS, TEXTS.filter(str.strip)), min_size=1, max_size=6
)


@settings(max_examples=200, deadline=None)
@given(CALLS)
def test_read_transcript_gives_back_every_text_sent_and_stores_each_block_once(calls):
    requests_ = [ChatRequest(system, user, float(i)) for i, (system, user, _) in enumerate(calls)]
    written = set()
    with tempfile.TemporaryDirectory() as tmp:
        for bound in (1, 4):
            logs = Path(tmp) / str(bound)
            logs.mkdir()
            backend = ReplyByTemperature([reply for *_, reply in calls])
            transcript = logs / TRANSCRIPT_NAME
            with client_for(backend, transcript_path=transcript, max_in_flight=bound) as client:
                for job in [client.submit(client.chat, r) for r in requests_]:
                    job.result()
            assert [(c["system"], c["user"], c["reply"]) for c in read_transcript(logs)] == calls
            stored = [json.loads(line) for line in (logs / PROMPTS_NAME).read_text().splitlines()]
            assert len({part["id"] for part in stored}) == len(stored)
            assert len({part["text"] for part in stored}) == len(stored)
            assert all(part["text"] for part in stored)
            written.add((transcript.read_bytes(), (logs / PROMPTS_NAME).read_bytes()))
    assert len(written) == 1  # the same files at either bound


# --------------------------------------------------------------------------
# HTTP adapter (no sockets: a duck-typed session)


class FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}
        self.text = text or (json.dumps(payload) if payload is not None else "")

    def json(self):
        if self._payload is None:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append(
            {"url": url, "json": json, "headers": headers, "timeout": timeout}
        )
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_payload(text="bonjour"):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }


def test_http_backend_happy_path():
    session = FakeSession([FakeResponse(200, ok_payload())])
    backend = HttpBackend(
        "http://host:8000/v1", model="m1", api_key="sk-test", session=session
    )
    result = backend.complete(req("hi"))
    assert result.text == "bonjour"
    assert result.prompt_tokens == 7
    sent = session.requests[0]
    assert sent["url"] == "http://host:8000/v1/chat/completions"
    assert sent["headers"]["Authorization"] == "Bearer sk-test"
    assert sent["json"]["model"] == "m1"
    assert [m["role"] for m in sent["json"]["messages"]] == ["system", "user"]


def test_http_backend_endpoint_suffix_not_doubled():
    backend = HttpBackend("http://host/v1/chat/completions", session=FakeSession([]))
    assert backend.endpoint == "http://host/v1/chat/completions"


def test_http_backend_auth_failure():
    backend = HttpBackend("http://h", session=FakeSession([FakeResponse(401)]))
    with pytest.raises(AuthError):
        backend.complete(req())


@pytest.mark.parametrize("status", [429, 500, 503])
def test_http_backend_transient_statuses(status):
    backend = HttpBackend("http://h", session=FakeSession([FakeResponse(status)]))
    with pytest.raises(TransientLlmError):
        backend.complete(req())


def test_http_backend_transport_errors_are_transient():
    session = FakeSession([requests.ConnectionError("refused")])
    backend = HttpBackend("http://h", session=session)
    with pytest.raises(TransientLlmError):
        backend.complete(req())


def test_a_connection_dropped_mid_reply_is_retried():
    dropped = requests.exceptions.ChunkedEncodingError("connection broken: IncompleteRead")
    session = FakeSession([dropped, FakeResponse(200, ok_payload("done"))])
    client = client_for(HttpBackend("http://h", session=session), retry_budget=2)
    assert client.chat(req()) == "done"
    assert len(session.requests) == 2


@pytest.mark.parametrize(
    "error",
    [
        requests.exceptions.InvalidSchema("No connection adapters were found"),
        requests.exceptions.InvalidURL("Invalid URL: No host supplied"),
        requests.exceptions.ContentDecodingError("bad gzip"),
        requests.exceptions.TooManyRedirects("Exceeded 30 redirects."),
    ],
)
def test_any_other_request_error_is_one_llm_error_sent_once(error):
    # These used to escape the client as themselves and abort the whole run.
    session = FakeSession([error, FakeResponse(200, ok_payload())])
    client = client_for(HttpBackend("http://h", session=session), retry_budget=3)
    with pytest.raises(LlmError, match=f"^request failed: {type(error).__name__}: ") as info:
        client.chat(req())
    assert not isinstance(info.value, TransientLlmError)
    assert info.value.__cause__ is error
    assert len(session.requests) == 1


def test_http_backend_malformed_payload():
    session = FakeSession([FakeResponse(200, {"surprise": True})])
    backend = HttpBackend("http://h", session=session)
    with pytest.raises(LlmError):
        backend.complete(req())


def test_http_backend_other_status_is_an_error_sent_once():
    session = FakeSession([FakeResponse(404, text="no such model"), FakeResponse(200, ok_payload())])
    client = client_for(HttpBackend("http://h", session=session), retry_budget=3)
    with pytest.raises(LlmError, match="^HTTP 404: no such model$") as info:
        client.chat(req())
    assert not isinstance(info.value, TransientLlmError)
    assert len(session.requests) == 1


def cut_payload(text="bonj", finish_reason="length"):
    payload = ok_payload(text)
    payload["choices"][0]["finish_reason"] = finish_reason
    return payload


def test_http_backend_refuses_a_reply_cut_off_at_max_tokens_without_retrying():
    session = FakeSession([FakeResponse(200, cut_payload())])
    client = client_for(HttpBackend("http://h", session=session), retry_budget=3)
    with pytest.raises(LlmError, match="cut off at max_tokens") as info:
        client.chat(req())
    assert not isinstance(info.value, TransientLlmError)
    assert len(session.requests) == 1 and client.ledger.calls == 0


def test_http_backend_keeps_a_reply_that_stopped():
    session = FakeSession([FakeResponse(200, cut_payload("bonjour", "stop"))])
    assert HttpBackend("http://h", session=session).complete(req()).text == "bonjour"


class ReplyingSession(FakeSession):
    """Answers each post from its user message: *reply* gives ``(text, finish_reason)``."""

    def __init__(self, reply):
        super().__init__([])
        self._reply = reply

    def post(self, url, json=None, headers=None, timeout=None):
        text, finish_reason = self._reply(json["messages"][-1]["content"])
        self.outcomes.append(FakeResponse(200, cut_payload(text, finish_reason)))
        return super().post(url, json, headers, timeout)


def test_a_pipeline_falls_back_on_replies_cut_off_at_max_tokens():
    def reply(message):
        if "\n\n[Error Reports]\n" in message:  # every revision is cut off
            return "Delta", "length"
        if message.startswith("[Original]\n"):  # the judge: a verdict on Gamma is cut off
            verdict = "- a clause is missing" if "Delta" in message else "OK"
            return verdict, "length" if "Gamma" in message else "stop"
        if message.startswith(("prev_summary:\n", "[Source]\n")):
            return ("digest" if message.startswith("prev") else "N/A"), "stop"
        return message, "length" if "cut" in message else "stop"  # the translator echoes

    sources = ["Alpha.\n", "A cut one.\n", "Gamma.\n", "Delta.\n"]
    units = [
        TranslationUnit(id=i, granularity=GRAN_SECTION, source_text=text)
        for i, text in enumerate(sources)
    ]
    session = ReplyingSession(reply)
    client = client_for(HttpBackend("http://h", session=session))
    result = run_pipeline(units, client, RunConfig(max_validation_rounds=3))
    assert [u.status for u in units] == [
        STATUS_VALIDATED, STATUS_FAILED, STATUS_VALIDATED, STATUS_FAILED
    ]
    assert [r.skipped for r in result.reports] == [["unit 2: CONTENT_COMPLETENESS"], [], []]
    cut = "reply cut off at max_tokens (8192)"
    # The group's judge call, on 0, 2 and 3, is cut off too: each is then judged alone.
    assert client.warnings == [
        f"group translation failed for units 0, 1, 2, 3, sent one by one: {cut}",
        f"translation failed for unit 1: {cut}",
        f"group completeness check failed for units 0, 2, 3, judged one by one: {cut}",
        f"completeness check skipped for unit 2: {cut}",
        f"revision failed for unit 3: {cut}",
        f"revision failed for unit 3: {cut}",
        "unit 3 still failing after 3 validation rounds; falling back to source text",
    ]
    # No cut-off reply was asked for again.
    sent = [r["json"]["messages"][-1]["content"] for r in session.requests]
    assert sum("cut" in m for m in sent) == 2
    assert sum("[Error Reports]" in m for m in sent) == 2
    assert sum(m.startswith("[Original]\n<PLACEHOLDER_PART_") for m in sent) == 1


def test_client_retries_http_transients_end_to_end():
    session = FakeSession([FakeResponse(429), FakeResponse(200, ok_payload("done"))])
    backend = HttpBackend("http://h", session=session)
    client = client_for(backend, retry_budget=2)
    assert client.chat(req()) == "done"
    assert len(session.requests) == 2


@pytest.mark.parametrize("status", [429, 503])
@pytest.mark.parametrize(
    "headers, wanted",
    [
        ({"Retry-After": "7"}, 7.0),
        ({"Retry-After": " 0 "}, 0.0),
        ({}, None),
        ({"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, None),
        ({"Retry-After": "-3"}, None),
        ({"Retry-After": "1.5"}, None),
        ({"Retry-After": "soon"}, None),
    ],
)
def test_http_backend_reads_retry_after_seconds(status, headers, wanted):
    session = FakeSession([FakeResponse(status, headers=headers)])
    backend = HttpBackend("http://h", session=session)
    with pytest.raises(TransientLlmError) as info:
        backend.complete(req())
    assert info.value.retry_after == wanted


def test_client_waits_as_long_as_retry_after_asks_within_the_cap():
    naps = []
    session = FakeSession(
        [
            FakeResponse(429, headers={"Retry-After": "4"}),  # longer than 0.5 backoff
            FakeResponse(503, headers={"Retry-After": "120"}),  # capped at 30
            FakeResponse(429, headers={"Retry-After": "soon"}),  # malformed: 2.0 backoff
            FakeResponse(429),  # absent: 4.0 backoff
            FakeResponse(429, headers={"Retry-After": "1"}),  # shorter than 8.0 backoff
            FakeResponse(200, ok_payload("done")),
        ]
    )
    client = LlmClient(
        HttpBackend("http://h", session=session),
        UsageLedger(),
        retry_budget=6,
        backoff_base=0.5,
        backoff_cap=30.0,
        sleep=naps.append,
    )
    assert client.chat(req()) == "done"
    assert naps == [4.0, 30.0, 2.0, 4.0, 8.0]


# --------------------------------------------------------------------------
# jobs taken in order


def transcript_users(path):
    return [call["user"] for call in read_transcript(path.parent)]


def test_jobs_taken_in_order_give_results_and_transcript_in_that_order(tmp_path):
    path = tmp_path / TRANSCRIPT_NAME
    client = client_for(EchoBackend(), transcript_path=path, max_in_flight=4)
    items = [str(i) for i in range(12)]
    threads = threading.active_count()

    def call(item):
        time.sleep(0.001 * (12 - int(item)))  # later items finish first
        return client.chat(req(item))

    jobs = [client.submit(call, item) for item in items]
    assert [job.result() for job in jobs] == items
    assert client.ledger.calls == 12
    client.close()
    assert transcript_users(path) == items
    assert threading.active_count() == threads  # no thread outlives close()


def test_jobs_run_up_to_the_bound_at_once():
    client = client_for(EchoBackend(), max_in_flight=4)
    barrier = threading.Barrier(4, timeout=10)

    def meet(item):
        barrier.wait()  # breaks, and raises, unless four jobs run together
        return item

    with client:
        jobs = [client.submit(meet, item) for item in range(8)]
        assert [job.result() for job in jobs] == list(range(8))


def test_jobs_discarded_after_an_error_still_run(tmp_path):
    path = tmp_path / TRANSCRIPT_NAME
    client = client_for(EchoBackend(), transcript_path=path, max_in_flight=3)

    def call(item):
        if item == 2:
            raise ValueError("item 2 broke")
        time.sleep(0.02)  # items 0 and 1 are still running when item 2 raises
        return client.chat(req(str(item)))

    with client:
        jobs = [client.submit(call, item) for item in range(30)]
        assert [job.result() for job in jobs[:2]] == ["0", "1"]
        with pytest.raises(ValueError, match="item 2 broke"):
            jobs[2].result()
        for job in jobs[3:]:
            job.discard()
    assert transcript_users(path) == ["0", "1"]
    assert client.ledger.calls == 2
    assert client.backend.calls == 29  # every job ran but item 2's, which raised first
    assert client.speculation["discarded_calls"] == 27


def test_with_bound_one_jobs_run_inline_in_the_order_taken(tmp_path):
    path = tmp_path / TRANSCRIPT_NAME
    backend = RuleBackend([("x", "a"), ("y", "b"), ("z", "c")])
    client = client_for(backend, transcript_path=path)
    assert client.max_in_flight == 1
    seen = []

    def call(item):
        seen.append((item, threading.get_ident()))
        reply = client.chat(req(item))
        assert client.ledger.calls == len(seen) - 1  # held until the job ends
        return reply

    with client:
        jobs = {item: client.submit(call, item) for item in "xyz"}
        assert seen == []  # a job runs when its value is asked for
        assert [jobs[item].result() for item in "zxy"] == ["c", "a", "b"]
    assert seen == [(item, threading.get_ident()) for item in "zxy"]
    assert transcript_users(path) == ["z", "x", "y"]


# --------------------------------------------------------------------------
# jobs run ahead: submit, result, discard


def test_results_commit_in_the_order_they_are_taken(tmp_path):
    path = tmp_path / TRANSCRIPT_NAME
    with client_for(EchoBackend(), transcript_path=path, max_in_flight=3) as client:
        jobs = {u: client.submit(client.chat, req(u)) for u in ("a", "bb", "ccc")}
        assert [jobs[u]._future.result() for u in jobs] == ["a", "bb", "ccc"]
        assert not path.exists() and client.ledger.calls == 0  # done, but held
        assert jobs["ccc"].result() == "ccc"
        assert jobs["a"].result() == "a"
        assert jobs["a"].result() == "a"  # taken again: committed once
        jobs["bb"].discard()  # it ran: its call is dropped
    assert transcript_users(path) == ["ccc", "a"]
    assert client.ledger.calls == 2
    assert client.speculation["discarded_calls"] == 1
    assert client.speculation["discarded_prompt_tokens"] == len(req("bb").system_prompt + "bb") // 4


def test_a_job_discarded_while_running_is_dropped_when_it_ends(tmp_path):
    path = tmp_path / TRANSCRIPT_NAME
    started, release = threading.Event(), threading.Event()

    def slow(item):
        started.set()
        assert release.wait(10)
        return client.chat(req(item))

    with client_for(EchoBackend(), transcript_path=path, max_in_flight=2) as client:
        job = client.submit(slow, "late")
        assert started.wait(10)
        job.discard()
        release.set()
    assert not path.exists()
    assert client.ledger.calls == 0 and client.backend.calls == 1
    assert client.speculation["discarded_calls"] == 1


def test_a_queued_job_discarded_before_it_starts_still_runs(tmp_path):
    path = tmp_path / TRANSCRIPT_NAME
    started, release = threading.Barrier(3, timeout=10), threading.Event()

    def gated(item):
        started.wait()
        assert release.wait(10)
        return client.chat(req(item))

    with client_for(EchoBackend(), transcript_path=path, max_in_flight=2) as client:
        gates = [client.submit(gated, item) for item in ("a", "b")]
        queued = client.submit(client.chat, req("queued"))
        started.wait()  # both threads hold a gated job: the third waits in the queue
        queued.discard()
        release.set()
        assert [gate.result() for gate in gates] == ["a", "b"]
    assert client.backend.calls == 3
    assert transcript_users(path) == ["a", "b"]
    assert client.ledger.calls == 2
    assert client.speculation["discarded_calls"] == 1
    tokens = len(req("queued").system_prompt + "queued") // 4
    assert client.speculation["discarded_prompt_tokens"] == tokens


def test_with_bound_one_a_job_runs_inside_result_or_never(tmp_path):
    backend = RuleBackend([], default="first")
    with client_for(backend, transcript_path=tmp_path / TRANSCRIPT_NAME) as client:
        dropped = client.submit(client.chat, req("dropped"))
        kept = client.submit(client.chat, req("kept"))
        assert backend.calls == 0
        dropped.discard()
        assert kept.result() == "first"
        assert kept.result() == "first"  # taken again: run and committed once
    assert backend.calls == 1
    assert transcript_users(tmp_path / TRANSCRIPT_NAME) == ["kept"]
    assert dict(client.speculation) == dict.fromkeys(client.speculation, 0)


# --------------------------------------------------------------------------
# the pool: requests sent early before submitted jobs


class Gated:
    """Echoes and records each message as its call starts; a message in *held* waits.

    Each held call meets the test's thread at ``inside``, then waits for its
    own event in ``release``.  Keeps the most calls seen in flight at once.
    """

    def __init__(self, *held):
        self.release = {message: threading.Event() for message in held}
        self.inside = threading.Barrier(len(held) + 1, timeout=10)
        self.started = []
        self.in_flight = self.max_in_flight = 0
        self._lock = threading.Lock()

    def __call__(self, _match, request):
        message = request.user_message
        with self._lock:
            self.started.append(message)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            if message in self.release:
                self.inside.wait()
                assert self.release[message].wait(10)
            return message
        finally:
            with self._lock:
                self.in_flight -= 1


def test_pool_runs_requests_sent_early_before_jobs_submitted_earlier(tmp_path):
    gated = Gated("held 0", "held 1")
    path = tmp_path / TRANSCRIPT_NAME
    with client_for(RuleBackend([(r"", gated)]), transcript_path=path, max_in_flight=2) as client:
        held = [client.submit(client.chat, req(message)) for message in gated.release]
        background = [client.submit(client.chat, req(f"background {i}")) for i in range(3)]
        gated.inside.wait()  # both threads are in a held call: the other jobs wait in the queue
        client.send_early(req("early"), lambda text: req(f"chained to {text}"))
        gated.release["held 0"].set()  # one thread is free; the other stays held
        assert client.reply(req("early")) == "early"
        assert client.reply(req("chained to early")) == "chained to early"
        gated.release["held 1"].set()
        kept = [job.result() for job in held + background]
    assert sorted(gated.started[:2]) == ["held 0", "held 1"]
    assert gated.started[2:4] == ["early", "chained to early"]
    assert sorted(gated.started[4:]) == ["background 0", "background 1", "background 2"]
    # The transcript keeps the order in which the program took the replies.
    assert transcript_users(path) == ["early", "chained to early"] + kept
    assert client.speculation["hits"] == 2 and client.speculation["misses"] == 0


def test_pool_runs_the_programs_own_call_before_jobs_submitted_earlier():
    gated = Gated("held 0", "held 1")
    with client_for(RuleBackend([(r"", gated)]), max_in_flight=2) as client:
        held = [client.submit(client.chat, req(message)) for message in gated.release]
        background = [client.submit(client.chat, req(f"background {i}")) for i in range(3)]
        gated.inside.wait()  # both threads are in a held call: the other jobs wait in the queue

        def release_once_queued():  # one thread is freed once the direct call waits too
            deadline = time.monotonic() + 5
            while client._jobs.qsize() < len(background) + 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            gated.release["held 0"].set()

        timer = threading.Timer(0.01, release_once_queued)
        timer.start()
        assert client.chat(req("direct")) == "direct"
        timer.join()
        gated.release["held 1"].set()
        assert [job.result() for job in held + background] == list(gated.release) + [
            f"background {i}" for i in range(3)
        ]
    assert sorted(gated.started[:2]) == ["held 0", "held 1"]
    assert gated.started[2] == "direct"
    assert sorted(gated.started[3:]) == ["background 0", "background 1", "background 2"]
    assert gated.max_in_flight == 2


@pytest.mark.parametrize("bound", [1, 4])
def test_a_call_after_close_raises_and_opens_no_file(tmp_path, bound):
    path = tmp_path / TRANSCRIPT_NAME
    client = client_for(EchoBackend(), transcript_path=path, max_in_flight=bound)
    assert client.chat(req("before")) == "before"
    client.close()
    with pytest.raises(RuntimeError, match="closed"):
        client.chat(req("after"))
    assert client._files == {}
    assert client.backend.calls == 1 and transcript_users(path) == ["before"]


def test_pool_of_bound_one_runs_a_job_only_when_its_value_is_asked_for():
    gated = Gated()
    with client_for(RuleBackend([(r"", gated)])) as client:
        job = client.submit(client.chat, req("job"))
        client.send_early(req("early"), lambda text: req(f"chained to {text}"))
        assert gated.started == []
        assert client.reply(req("early")) == "early"
        assert job.result() == "job"
        assert gated.started == ["early", "job"]  # the chained request is never taken
    assert client.speculation["misses"] == 1 and client.speculation["discarded_calls"] == 0
    with pytest.raises(RuntimeError, match="closed"):
        client.submit(client.chat, req("late"))


def test_pool_close_waits_for_every_queued_job_and_then_refuses_jobs():
    gated = Gated("held 0", "held 1")
    backend = RuleBackend([(r"", gated)])
    client = client_for(backend, max_in_flight=2)
    threads = threading.active_count()
    jobs = [client.submit(client.chat, req(message)) for message in gated.release]
    jobs += [client.submit(client.chat, req(f"queued {i}")) for i in range(4)]
    gated.inside.wait()  # the four others are still queued
    timers = [threading.Timer(0.05, release.set) for release in gated.release.values()]
    for timer in timers:
        timer.start()
    client.close()
    assert backend.calls == 6 and all(job._future.done() for job in jobs)
    for timer in timers:
        timer.join()
    assert threading.active_count() == threads  # the pool's threads are gone
    with pytest.raises(RuntimeError, match="closed"):
        client.submit(client.chat, req("late"))
    assert backend.calls == 6


# --------------------------------------------------------------------------
# requests sent early: a reply is kept only for an equal request


def test_an_early_reply_is_kept_only_for_an_equal_request(tmp_path):
    terms = "sys\n\n[Term Dictionary]\n"
    hit = req("unit 1", terms + '"a" - "x"')
    miss = req("unit 2", terms + '"a" - "x"')
    resent = req("unit 2", terms + '"a" - "y"')  # one byte of the term block differs
    answered = threading.Event()

    def reply(_match, request):
        if request == hit:
            answered.set()
        return request.user_message + request.system_prompt[-2]

    lines = {}
    for bound in (1, 3):  # at bound 1, a serial run: nothing is sent early
        path = tmp_path / f"b{bound}" / TRANSCRIPT_NAME
        path.parent.mkdir()
        backend = RuleBackend([(r"", reply)])
        with client_for(backend, transcript_path=path, max_in_flight=bound) as client:
            if bound > 1:
                client.send_early(hit)
                client.send_early(miss)
                assert answered.wait(10)  # its reply is in, and held
            client.chat(req("before"))
            assert client.reply(hit) == "unit 1x"
            assert client.reply(resent) == "unit 2y"
            client.chat(req("after"))
        lines[bound] = path.read_bytes()
    assert lines[3] == lines[1]
    assert transcript_users(path) == ["before", "unit 1", "unit 2", "after"]
    assert backend.calls == 5 and client.ledger.calls == 4
    spent = len(miss.system_prompt + miss.user_message) // 4, len("unit 2x") // 4
    assert dict(client.speculation) == {
        "hits": 1,
        "misses": 1,
        "discarded_calls": 1,
        "discarded_prompt_tokens": spent[0],
        "discarded_completion_tokens": spent[1],
    }


def test_with_bound_one_a_request_sent_early_runs_only_when_taken(tmp_path):
    path = tmp_path / TRANSCRIPT_NAME
    with client_for(EchoBackend(), transcript_path=path) as client:
        client.send_early(req("taken"))
        client.send_early(req("never taken"))
        assert client.backend.calls == 0
        assert client.reply(req("taken")) == "taken"
    assert client.backend.calls == 1
    assert transcript_users(path) == ["taken"]
    assert client.speculation["hits"] == client.speculation["misses"] == 1
    assert client.speculation["discarded_calls"] == 0


@pytest.mark.parametrize("bound", [1, 3])
def test_a_request_chained_behind_an_early_one_is_early_once_that_one_is_taken(tmp_path, bound):
    path = tmp_path / TRANSCRIPT_NAME
    with client_for(EchoBackend(), transcript_path=path, max_in_flight=bound) as client:
        client.send_early(req("unit"), lambda text: req(f"terms of {text}"))
        assert client.reply(req("before")) == "before"  # not sent early: a plain call
        assert client.reply(req("unit")) == "unit"
        assert client.reply(req("terms of unit")) == "terms of unit"
    assert transcript_users(path) == ["before", "unit", "terms of unit"]
    assert client.backend.calls == 3
    assert client.speculation["hits"] == 2 and client.speculation["misses"] == 0


@pytest.mark.parametrize("bound", [1, 3])
def test_a_chained_request_already_pending_is_a_miss_for_the_later_chain(tmp_path, bound):
    path = tmp_path / TRANSCRIPT_NAME
    with client_for(EchoBackend(), transcript_path=path, max_in_flight=bound) as client:
        for unit in ("a", "b"):
            client.send_early(req(unit), lambda _text: req("shared terms"))
        assert [client.reply(req(unit)) for unit in ("a", "b")] == ["a", "b"]
        assert client.reply(req("shared terms")) == "shared terms"  # a's chained job
    assert transcript_users(path) == ["a", "b", "shared terms"]
    assert client.speculation["hits"] == 3 and client.speculation["misses"] == 1
    assert client.speculation["discarded_calls"] == (0 if bound == 1 else 1)
    assert client.backend.calls == 3 + client.speculation["discarded_calls"]


# --------------------------------------------------------------------------
# warnings: held, kept and dropped with a job's calls


def warning_job(client, item):
    client.chat(req(item))
    client.warn(f"warned {item}")
    return item


@pytest.mark.parametrize("bound", [1, 3])
def test_kept_jobs_warnings_arrive_in_the_order_results_are_taken(bound):
    with client_for(EchoBackend(), max_in_flight=bound) as client:
        client.warn("before")
        jobs = {item: client.submit(warning_job, client, item) for item in ("a", "b", "c")}
        if bound > 1:
            assert [job._future.result() for job in jobs.values()] == ["a", "b", "c"]
        assert client.warnings == ["before"]  # done at bound 3, but held
        jobs["c"].result()
        jobs["a"].result()
        client.warn("outside")  # not in a job: kept at once
        jobs["b"].result()
    assert client.warnings == ["before", "warned c", "warned a", "outside", "warned b"]


@pytest.mark.parametrize("bound", [1, 3])
def test_a_discarded_jobs_warnings_never_arrive(bound):
    with client_for(EchoBackend(), max_in_flight=bound) as client:
        dropped = client.submit(warning_job, client, "dropped")
        kept = client.submit(warning_job, client, "kept")
        if bound > 1:
            assert dropped._future.result() == "dropped"  # it ran and warned
        dropped.discard()
        assert kept.result() == "kept"
    assert client.warnings == ["warned kept"]
    assert client.ledger.calls == 1


@pytest.mark.parametrize("bound", [1, 3])
def test_a_job_that_raises_still_commits_its_warnings(bound):
    def call(item):
        warning_job(client, item)
        if item == "b":
            raise ValueError("b broke")
        return item

    client = client_for(EchoBackend(), max_in_flight=bound)
    with client:
        jobs = [client.submit(call, item) for item in "abc"]
        assert jobs[0].result() == "a"
        with pytest.raises(ValueError, match="b broke"):
            jobs[1].result()
        jobs[2].discard()
    assert client.warnings == ["warned a", "warned b"]  # c's, if it ran, were dropped
    assert client.ledger.calls == 2


@pytest.mark.parametrize("bound", [1, 3])
def test_chained_jobs_commit_in_the_order_they_are_taken(tmp_path, bound):
    path = tmp_path / TRANSCRIPT_NAME

    def step(item, left):
        time.sleep(0.002 * left if item == "a" else 0.0)  # b's chain runs ahead
        client.chat(req(f"{item}{left}"))
        return client.submit(step, item, left - 1) if left else None

    with client_for(EchoBackend(), transcript_path=path, max_in_flight=bound) as client:
        chains = [client.submit(step, item, 2) for item in "ab"]
        while chains:  # round by round, in chain order
            chains = [job for job in [job.result() for job in chains] if job is not None]
    assert transcript_users(path) == ["a2", "b2", "a1", "b1", "a0", "b0"]
