"""The latency backend answers by request content, not by call order."""

import random
import time

import pytest

from latexmt import prompts
from latexmt.errors import TransientLlmError
from latexmt.llm import ChatRequest

from perfbench import projgen
from perfbench.latency import ROLES, LatencyBackend


def _requests() -> list[ChatRequest]:
    project = projgen.generate(5, "S")
    chunks = [c for c in project.files["chapters/ch01/part1.tex"].split("\n\n") if c.strip()]
    requests = []
    for i, chunk in enumerate(chunks):
        role = ROLES[i % len(ROLES)]
        system = prompts.render(role, "Chinese")
        if role in ("completeness", "corrector"):
            damaged = chunk[: len(chunk) // 2]
            user = f"[Original]\n{chunk}\n\n[Translation]\n{damaged}"
            if role == "corrector":
                user += "\n\n[Error Reports]\n- [CONTENT_COMPLETENESS] missing"
        elif role == "terminology":
            user = f"[Source]\n{chunk}\n\n[Translation]\n{chunk}"
        elif role == "summarizer":
            user = f"prev_summary:\n(empty)\n\nnew_section:\n{chunk}"
        else:
            user = chunk
        requests.append(ChatRequest(system, user))
    return requests


def _replay(profile: str, requests: list[ChatRequest]) -> dict[int, list[str]]:
    """Send every request until it succeeds; replies (or failures) per request."""
    backend = LatencyBackend(profile, wait=lambda _: None)
    replies: dict[int, list[str]] = {}
    for index, request in requests:
        for _ in range(3):
            try:
                replies.setdefault(index, []).append(backend.complete(request).text)
                break
            except TransientLlmError:
                replies.setdefault(index, []).append("<transient>")
    return replies


@pytest.mark.parametrize("profile", ["steady", "revise"])
def test_replies_do_not_depend_on_call_order(profile):
    requests = list(enumerate(_requests()))
    assert len(requests) >= 2 * len(ROLES)
    shuffled = requests[:]
    random.Random(0).shuffle(shuffled)
    assert shuffled != requests
    assert _replay(profile, requests) == _replay(profile, shuffled)


def test_roles_are_inferred_from_the_system_prompt():
    backend = LatencyBackend(wait=lambda _: None)
    for role in ROLES:
        system = prompts.render(role, "Chinese") + "\n\n[Summary]\n(none yet)"
        user = "[Original]\nA b.\n\n[Translation]\nA b." if role == "completeness" else "x"
        backend.complete(ChatRequest(system, user))
    assert dict(backend.attempts) == {role: 1 for role in ROLES}


def test_steady_translator_echoes_and_judge_accepts():
    backend = LatencyBackend(wait=lambda _: None)
    text = "Some text with \\emph{words} and <PLACEHOLDER_ENV_0>."
    reply = backend.complete(ChatRequest(prompts.render("translator", "Chinese"), text))
    assert reply.text == text
    judge = backend.complete(
        ChatRequest(prompts.render("completeness", "Chinese"),
                    f"[Original]\n{text}\n\n[Translation]\n{text}")
    )
    assert judge.text == "OK"
    assert reply.prompt_tokens == len(prompts.render("translator", "Chinese") + text) // 4


def test_cpu_spent_waiting_is_counted_apart():
    def spin(delay):
        end = time.thread_time() + delay
        while time.thread_time() < end:
            pass

    backend = LatencyBackend(delay=0.01, wait=spin)
    backend.complete(ChatRequest(prompts.render("translator", "Chinese"), "x"))
    assert backend.figures().wait_cpu_s >= 0.01
