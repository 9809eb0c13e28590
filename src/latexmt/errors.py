"""Exception types shared across the toolchain.

Fatal conditions raise; recoverable ones are recorded as warning strings:
the parser's on the parse result, the agents' on the client
(:meth:`~latexmt.llm.LlmClient.warn`), and a run's all in its report.json.
The agents recover from an :class:`LlmError` (a unit falls back, a check is
skipped); an :class:`AuthError` is not one, since no later call can succeed,
so it stops the run.  A parse error (:class:`InclusionCycle`,
:class:`PlaceholderError`) refuses a project before its last output tree is
deleted.  No message names its class: whoever prints it puts the name first.
"""

from __future__ import annotations


class LatexmtError(Exception):
    """Base class for every error raised by this package."""


# --------------------------------------------------------------------------
# project loading / merging


class MissingMainFile(LatexmtError):
    """The main .tex file was not found or could not be identified."""


class InclusionCycle(LatexmtError):
    """A chain of \\input/\\include directives loops back on itself."""

    def __init__(self, chain: list[str]):
        self.chain = list(chain)
        super().__init__("inclusion cycle: " + " -> ".join(self.chain))


# --------------------------------------------------------------------------
# LLM client


class LlmError(LatexmtError):
    """Base class for chat-completion failures."""


class AuthError(LatexmtError):
    """The endpoint rejected our credentials; neither a retry nor another unit will help."""


class TransientLlmError(LlmError):
    """A retryable transport failure (rate limit, 5xx, timeout).

    ``retry_after`` is the wait in seconds the server asked for, if any.
    """

    def __init__(self, message: str = "", retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class RetryBudgetExhausted(LlmError):
    """Every retry attempt failed; carries the last underlying error."""

    def __init__(self, attempts: int, last: Exception):
        self.attempts = attempts
        self.last = last
        super().__init__(f"gave up after {attempts} attempts: {last}")


class EmptyCompletion(LlmError):
    """The backend returned an empty or whitespace-only reply."""


# --------------------------------------------------------------------------
# reconstruction


class PlaceholderError(LatexmtError):
    """A placeholder-shaped token already in a source file, and the base class
    of placeholder-conservation failures during reassembly."""

    def __init__(self, token: str, detail: str = ""):
        self.token = token
        super().__init__(f"{token} ({detail})" if detail else token)


class UnresolvedPlaceholder(PlaceholderError):
    """A placeholder token in the output has no entry in any map."""


class MissingPlaceholderUse(PlaceholderError):
    """A map entry was never substituted back into the output."""


class DuplicatePlaceholderUse(PlaceholderError):
    """A map entry was substituted more than once."""


class UnbalancedFileBoundaries(LatexmtError):
    """File begin/end markers do not pair up or nest properly."""


# --------------------------------------------------------------------------
# scoring / configuration


class EmptyCorpus(LatexmtError):
    """Corpus-level scoring was asked to aggregate zero documents."""


class ConfigError(LatexmtError):
    """A configuration file is malformed or contains unknown keys."""


class PipelineFailed(LatexmtError):
    """Every translatable unit failed; there is nothing to emit."""
