"""The multi-agent translation loop.

One translator pass over the units, one step per group (:func:`grouped`) of
up to :data:`GROUP_CHARS` characters: the sections up to the last one, then
the environments and captions after it, each part headed by its unit's
:func:`header`.  Every step is the same: one translator call
(:func:`translate_unit`) whose reply splits back into the parts, each with
its source's edge whitespace restored (:func:`fit_edges`), one summary
update over the group's sections, one validation job
(:func:`validate_group`), and one terminology call.  A group whose call
fails or reply does not split sends its units one by one, then validates
them together; a lone unit that fails is FAILED.  Each prompt carries the
rolling document summary and the first-occurrence-wins term dictionary built
so far.  A group's first round of checks judges its units in one call; a
unit's revisions and later rounds wait on no other unit.  Requests are sent
early (:meth:`LlmClient.send_early`): a group's summary update reads only
source text, so it goes with the group's translation; once a step is
translated, the next one's translation goes with the summary and dictionary
as they stand, its terms request chained, and again if the terms just mined
add pairs.  An early reply answers only a byte-equal request.  An early
request never taken runs only above a bound of 1, and is then discarded
unseen (:class:`~latexmt.llm.Pending`), so every bound runs one program.
The filter's jobs are submitted before the loop starts
(:func:`~latexmt.unit_filter.classify_units`); an environment's decision is
taken once the groups are read as far as its unit.  Every agent builds its
request with :func:`~latexmt.prompts.request` and records warnings with
:meth:`LlmClient.warn`, which keeps a job's warnings with its calls; jobs
are taken in program order, the validation jobs read back in the order they
were started, which is unit order, so results, findings, warnings and the
transcript read as in a serial run.  Two validation dimensions are
mechanical, rows of one table (:data:`RULES`) that one loop checks
(:func:`check_rules`): placeholder tokens and control sequences keep their
counts, and a new mechanical dimension is one more row.  The third asks a
judge model about content completeness and degrades to "skipped" without a
usable judge reply.  Units still failing after the round cap fall back to
their source text.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import prompts
from .config import RunConfig
from .errors import LlmError, PipelineFailed
from .llm import ChatRequest, LlmClient, Pending
from .parser import (
    GRAN_ENVIRONMENT,
    GRAN_SECTION,
    STATUS_FAILED,
    STATUS_TRANSLATED,
    STATUS_VALIDATED,
    TranslationUnit,
)
from .placeholders import TOKEN_RE

DIM_PLACEHOLDER = "PLACEHOLDER_INTEGRITY"
DIM_COMMAND = "COMMAND_INTEGRITY"
DIM_COMPLETENESS = "CONTENT_COMPLETENESS"

SUMMARY_WORD_LIMIT = 300
GROUP_CHARS = 6000  # source characters per group, at most (a longer unit goes alone)
# What a group's translator and judge prompts add: the format of their message and reply.
GROUP_FORMAT = (
    "\n\n[Parts]\n"
    "The text holds several parts. Each part is a header line holding only a placeholder "
    "token, then all the text up to the next header line. Translate each part on its own. "
    "Reply with every part, in the same order: its header line copied exactly, then its "
    "translation. Write nothing before the first header line."
)
JUDGE_FORMAT = (
    "\n\n[Parts]\nThe original and the translation hold the same parts, each a header line "
    "holding only a placeholder token, then the text up to the next header line. If every part "
    "is complete and faithful, output exactly: OK\nOtherwise output every header line copied "
    'exactly, in order, each followed by OK or by that part\'s findings, one "- " line each.'
)

_TERM_LINE_RE = re.compile(r'^\s*"(.+?)"\s*-\s*"(.+?)"\s*$')


@dataclass
class Summary:
    """Rolling document summary carried across section translations."""

    text: str = ""
    version: int = 0

    @property
    def word_count(self) -> int:
        return len(self.text.split())


class TermDictionary:
    """Ordered source-term -> target-term pairs; first occurrence wins."""

    def __init__(self):
        self._pairs: dict[str, str] = {}

    def add(self, source_term: str, target_term: str) -> bool:
        """Record a pair unless the source term is already pinned."""
        key = source_term.strip()
        if not key or key in self._pairs:
            return False
        self._pairs[key] = target_term
        return True

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self):
        return iter(self._pairs.items())

    def render(self, text: str, cap: int) -> str:
        """Of the most recent *cap* pairs, one line each for those *text* holds (casefolded)."""
        folded = text.casefold()
        recent = list(self._pairs.items())[-cap:]
        return "\n".join(f'"{s}" - "{t}"' for s, t in recent if s.casefold() in folded)


@dataclass(frozen=True)
class Finding:
    unit_id: int
    dimension: str
    description: str


@dataclass
class ErrorReport:
    """All findings from one validation round."""

    round_index: int
    findings: list[Finding] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # dimensions that degraded

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "round": self.round_index,
            "findings": [asdict(f) for f in self.findings],
            "skipped": list(self.skipped),
        }


# --------------------------------------------------------------------------
# mechanical validation


class Rule(NamedTuple):
    """A mechanical dimension: each match of *pattern* keeps its count in the translation.

    A finding names the match after *noun* and says it is *fewer* or *more*,
    or introduced if the source has none.  Matches in *free* may come and go.
    """

    dimension: str
    pattern: re.Pattern
    noun: str
    fewer: str
    more: str
    free: frozenset


# One row per mechanical dimension.  A control word is a backslash followed by
# letters, any Unicode letters: a translator that invents something like a
# backslash followed by CJK characters must be caught, not ignored.  A line
# break \\ is matched too, so the backslash that ends it starts no control
# word (``a\\b`` is a line break, then a word); line breaks and quotation
# macros may come and go, replaced by the target's own punctuation.
RULES = (
    Rule(DIM_PLACEHOLDER, TOKEN_RE, "placeholder", "lost", "duplicated", frozenset()),
    Rule(
        DIM_COMMAND,
        re.compile(r"\\(?:\\|[^\W\d_]+)"),
        "control sequence",
        "dropped",
        "count changed",
        frozenset({r"\\", r"\textquotedblleft", r"\textquotedblright", r"\textquoteleft",
                   r"\textquoteright", r"\textellipsis"}),
    ),
)


def check_rules(unit: TranslationUnit) -> list[Finding]:
    """Each :data:`RULES` row's findings on *unit*, one per match whose count changes."""
    findings = []
    for rule in RULES:
        want = Counter(rule.pattern.findall(unit.source_text))
        have = Counter(rule.pattern.findall(unit.translated_text or ""))
        for match in sorted(k for k in want | have if want[k] != have[k] and k not in rule.free):
            n, m = want[match], have[match]
            if n:
                how = f"{rule.fewer if m < n else rule.more} (source has {n}, translation has {m})"
            else:
                how = f"introduced by translation ({m} occurrence{'s' * (m > 1)}, none in source)"
            findings.append(Finding(unit.id, rule.dimension, f"{rule.noun} {match} {how}"))
    return findings


def check_round(
    group: Sequence[TranslationUnit], client: LlmClient, config: RunConfig
) -> list[tuple[list[Finding], bool]] | None:
    """One round of checks on each unit of *group*: ``(findings, judge skipped)``, or None.

    The mechanical checks come first.  The units they pass go to the judge
    in one call, if ``config.completeness_check`` is on: the originals, then
    the translations, joined by :func:`group_source`, with
    :data:`JUDGE_FORMAT` in a group's prompt.  Exactly ``OK`` clears every
    unit; else a lone unit's reply, or each part of a group's, must be
    ``OK`` or ``- `` lines, a finding each.  Anything else, a failed call
    too, skips a lone unit's dimension, or gives None for a group, whose
    units are then to be checked alone; either with a warning.
    """
    rounds = [(check_rules(u), False) for u in group]
    clean = [u for u, (mech, _) in zip(group, rounds) if not mech]
    if not clean or not config.completeness_check:
        return rounds
    lone = len(clean) == 1
    request = prompts.request(
        "completeness",
        f"[Original]\n{group_source(clean)}\n\n"
        f"[Translation]\n{group_source(clean, [u.translated_text for u in clean])}",
        config,
        "" if lone else prompts.render_for("completeness", config) + JUDGE_FORMAT,
    )
    try:
        reply, problem = client.chat(request).strip(), "reply unparseable"
    except LlmError as exc:
        reply, problem = "", str(exc)
    heads = [header(u) for u in clean]
    parts = [reply] * len(clean) if lone or reply == "OK" else split_parts(reply, heads) or []
    verdicts = [[x.strip() for x in part.splitlines() if x.strip()] for part in parts]
    if verdicts and all(v == ["OK"] or v and all(x.startswith("- ") for x in v) for v in verdicts):
        found = {
            u.id: [Finding(u.id, DIM_COMPLETENESS, x[2:].strip()) for x in v if x != "OK"]
            for u, v in zip(clean, verdicts)
        }
        return [(found.get(u.id, mech), False) for u, (mech, _) in zip(group, rounds)]
    ids = ", ".join(str(u.id) for u in clean)
    client.warn(
        f"completeness check skipped for unit {ids}: {problem}"
        if lone
        else f"group completeness check failed for units {ids}, judged one by one: {problem}"
    )
    return [(mech, not mech) for mech, _ in rounds] if lone else None


def validate_unit(
    unit: TranslationUnit, client: LlmClient, config: RunConfig, first: tuple | None
) -> list[tuple[list[Finding], bool]]:
    """Validate *unit*, revising until clean or capped: ``(findings, judge skipped)`` a round.

    Round 1 is *first*, if given; every other round is :func:`check_round`
    of the unit alone.  A failed revision keeps the round's findings, unjudged.
    """
    rounds = [first or check_round((unit,), client, config)[0]]
    while rounds[-1][0] and len(rounds) < config.max_validation_rounds:
        try:
            reply = retranslate_unit(unit, rounds[-1][0], client, config)
        except LlmError as exc:
            client.warn(f"revision failed for unit {unit.id}: {exc}")
            rounds.append((rounds[-1][0], False))  # same text: same findings, no judge
            continue
        unit.translated_text = fit_edges(unit.source_text, reply)
        rounds.append(check_round((unit,), client, config)[0])
    return rounds


def validate_group(
    group: Sequence[TranslationUnit], client: LlmClient, config: RunConfig
) -> list[list | Pending[list]]:
    """Each unit's :func:`validate_unit` rounds, round 1 checked for the whole group at once.

    A unit left with findings goes on in a job of its own, as does every
    unit when the group's judge gave no verdicts.
    """
    rounds = check_round(group, client, config) or [None] * len(group)
    return [
        client.submit(validate_unit, unit, client, config, first)
        if first is None or first[0]
        else [first]
        for unit, first in zip(group, rounds)
    ]


def validate_translations(
    checks: Sequence[tuple[Sequence[TranslationUnit], Pending[list]]], client: LlmClient
) -> list[ErrorReport]:
    """Each ``(group, job)`` of *checks*: the group's :func:`validate_group` rounds, as reports.

    The jobs are read back in the order they were started, which is unit
    order, so reports (one per round), warnings and the transcript read as
    in a serial run.  A unit with findings after ``max_validation_rounds``
    is FAILED, with a warning.
    """
    reports: list[ErrorReport] = []
    for group, job in checks:
        for unit, rounds in zip(group, job.result()):
            rounds = rounds.result() if isinstance(rounds, Pending) else rounds
            reports += [ErrorReport(index + 1) for index in range(len(reports), len(rounds))]
            for report, (findings, skipped) in zip(reports, rounds):
                report.findings.extend(findings)
                if skipped:
                    report.skipped.append(f"unit {unit.id}: {DIM_COMPLETENESS}")
            unit.status = STATUS_FAILED if findings else STATUS_VALIDATED
            if findings:
                client.warn(
                    f"unit {unit.id} still failing after {len(rounds)} validation "
                    f"rounds; falling back to source text"
                )
    return reports


# --------------------------------------------------------------------------
# generation agents


def join_parts(parts: Sequence[tuple[str, str]]) -> str:
    """One message of ``(header, text)`` parts: each header alone on a line, then its text.

    A blank line separates the parts.
    """
    return "\n\n".join(f"{header}\n{text}" for header, text in parts)


def split_parts(reply: str, headers: Sequence[str]) -> list[str] | None:
    """The texts of *reply*'s parts, as :func:`join_parts` joins them, or None.

    *reply* splits only if each of *headers* is a line of it exactly once,
    in order, and nothing but whitespace comes before the first.
    """
    lines = reply.split("\n")
    at = [i for i, line in enumerate(lines) if line in headers]
    if not at or [lines[i] for i in at] != list(headers) or "".join(lines[: at[0]]).strip():
        return None
    texts = ["\n".join(lines[i + 1 : j]) for i, j in zip(at, at[1:] + [len(lines)])]
    # Each part but the last ends with the blank line before the next header.
    return [text.removesuffix("\n") for text in texts[:-1]] + texts[-1:]


def header(unit: TranslationUnit) -> str:
    """The line that heads *unit*'s part: its placeholder token, or a section's (no token)."""
    return unit.token or f"<PLACEHOLDER_PART_{unit.id}>"


def group_source(group: Sequence[TranslationUnit], texts: Sequence[str] = ()) -> str:
    """What the translator is sent as *group*'s text: one unit's source, or their parts.

    *texts*, one per unit, stand in for the sources.
    """
    texts = texts or [unit.source_text for unit in group]
    return texts[0] if len(group) == 1 else join_parts(list(zip(map(header, group), texts)))


def section_source(group: Sequence[TranslationUnit]) -> str:
    """*group*'s sections' source, joined in order: what its summary update folds in."""
    return "".join(unit.source_text for unit in group if unit.granularity == GRAN_SECTION)


def fit_edges(source: str, reply: str) -> str:
    """*reply*, given back the leading or trailing whitespace of *source* that it lacks."""
    lead = source[: len(source) - len(source.lstrip())]
    rest = source[len(lead) :]
    trail = rest[len(rest.rstrip()) :]
    reply = reply if reply.startswith(lead) else lead + reply.lstrip()
    return reply if reply.endswith(trail) else reply.rstrip() + trail


def group_request(
    group: Sequence[TranslationUnit],
    summary: Summary,
    dictionary: TermDictionary,
    config: RunConfig,
) -> ChatRequest:
    """What the translator is sent for *group*: its text, under the summary and the terms it holds.

    The text is :func:`group_source`; a group of several units adds
    :data:`GROUP_FORMAT` to the system prompt.
    """
    source = group_source(group)
    dict_block = dictionary.render(source, config.term_dict_cap)
    system = (
        f"{prompts.render_for('translator', config)}\n\n[Summary]\n{summary.text or '(none yet)'}"
        f"\n\n[Term Dictionary]\n{dict_block or '(empty)'}{GROUP_FORMAT if len(group) > 1 else ''}"
    )
    return prompts.request("translator", source, config, system)


def grouped(units: Iterable[TranslationUnit]) -> Iterator[tuple[TranslationUnit, ...]]:
    """*units* in groups of up to :data:`GROUP_CHARS` characters, each once the next is read.

    A group holds only units whose joined parts split back: no line of a
    member is a member's header.  A unit too long, or holding its own header, goes alone.
    """
    group, chars, lines, heads = (), 0, set(), set()
    for unit in units:
        own, head = set(unit.source_text.split("\n")), header(unit)
        size = len(unit.source_text) if head not in own else GROUP_CHARS + 1
        if group and (chars + size > GROUP_CHARS or head in lines or not own.isdisjoint(heads)):
            yield group
            group, chars, lines, heads = (), 0, set(), set()
        group, chars = group + (unit,), chars + size
        lines |= own
        heads.add(head)
    if group:
        yield group


def translate_unit(
    group: Sequence[TranslationUnit],
    summary: Summary,
    dictionary: TermDictionary,
    client: LlmClient,
    config: RunConfig,
) -> str:
    """One translator call for *group*, or the reply to the same request sent early."""
    return client.reply(group_request(group, summary, dictionary, config))


def retranslate_unit(
    unit: TranslationUnit,
    findings: list[Finding],
    client: LlmClient,
    config: RunConfig,
) -> str:
    """One corrector call: original + current translation + what is wrong."""
    if not findings:
        raise ValueError("retranslate_unit needs at least one finding")
    errors_block = "\n".join(f"- [{f.dimension}] {f.description}" for f in findings)
    request = prompts.request(
        "corrector",
        f"[Original]\n{unit.source_text}\n\n"
        f"[Translation]\n{unit.translated_text}\n\n"
        f"[Error Reports]\n{errors_block}",
        config,
    )
    return client.chat(request)


def summary_request(summary: Summary, new_section: str, config: RunConfig) -> ChatRequest:
    """What the summarizer is sent to fold *new_section* into *summary*."""
    return prompts.request(
        "summarizer",
        f"prev_summary:\n{summary.text or '(empty)'}\n\nnew_section:\n{new_section}",
        config,
    )


def update_summary(
    summary: Summary, new_section: str, client: LlmClient, config: RunConfig
) -> Summary:
    """Fold a just-translated section into the rolling summary.

    One summarizer call, or the reply to the same request sent early.
    Failures keep the previous summary; an over-long reply is kept but
    recorded as a warning (the word limit is a target, not a knife).
    """
    try:
        text = client.reply(summary_request(summary, new_section, config))
    except LlmError as exc:
        client.warn(f"summary update failed, keeping version {summary.version}: {exc}")
        return summary
    words = len(text.split())
    if words > SUMMARY_WORD_LIMIT:
        client.warn(f"summary reached {words} words (target {SUMMARY_WORD_LIMIT}); not truncated")
    return Summary(text, summary.version + 1)


def terms_request(source_text: str, translated_text: str, config: RunConfig) -> ChatRequest:
    """What the terminology extractor is sent to mine pairs from one source/translation pair."""
    return prompts.request(
        "terminology", f"[Source]\n{source_text}\n\n[Translation]\n{translated_text}", config
    )


def extract_terms(
    source_text: str,
    translated_text: str,
    dictionary: TermDictionary,
    client: LlmClient,
    config: RunConfig,
) -> list[tuple[str, str]]:
    """Mine new term pairs from one source/translation pair.

    One terminology call, or the reply to the same request sent early.
    The reply must be ``N/A`` or lines of ``"src" - "tgt"``.  Malformed
    lines are skipped (one aggregated warning per reply); existing source
    terms are never overwritten.  Returns the pairs actually added.
    """
    try:
        reply = client.reply(terms_request(source_text, translated_text, config))
    except LlmError as exc:
        client.warn(f"terminology extraction failed: {exc}")
        return []
    cleaned = reply.strip()
    if cleaned.strip("'\"").strip() == "N/A":
        return []
    added: list[tuple[str, str]] = []
    malformed = 0
    for line in cleaned.splitlines():
        if not line.strip():
            continue
        m = _TERM_LINE_RE.match(line)
        if m is None:
            malformed += 1
            continue
        if dictionary.add(m.group(1), m.group(2)):
            added.append((m.group(1), m.group(2)))
    if malformed:
        client.warn(f"terminology reply contained {malformed} unparseable line(s); skipped")
    return added


# --------------------------------------------------------------------------
# the loop


@dataclass
class PipelineResult:
    units: list[TranslationUnit]
    summary: Summary
    dictionary: TermDictionary
    reports: list[ErrorReport]
    decisions: list = field(default_factory=list)  # what each classify item returned


def run_pipeline(
    units: list[TranslationUnit], client: LlmClient, config: RunConfig, classify: Sequence = ()
) -> PipelineResult:
    """Translate every unit, one step per group, and validate each once it is translated.

    *classify* is the environment units' filter decisions and jobs
    (:func:`~latexmt.unit_filter.classify_units`), and the groups
    (:func:`grouped`) are read only as far as the next step needs, each
    environment's decision taken, in unit order, as its unit is read.  Each
    group's validation job goes on one list as it starts, for
    :func:`validate_translations` to read back.  The run fails only when no
    unit produced a candidate translation; an invalid *config* raises
    :class:`ConfigError` before any call.  Warnings go to ``client.warnings``.
    """
    config.validate()
    summary = Summary()
    dictionary = TermDictionary()
    sections = [i for i, unit in enumerate(units) if unit.granularity == GRAN_SECTION]
    tail = sections[-1] + 1 if sections else 0  # where the units after the last section start
    decided = (item.result() if isinstance(item, Pending) else item for item in classify)
    decisions = []  # every decision, taken in unit order as the groups are read

    def translatable(part: Sequence[TranslationUnit]) -> Iterator[TranslationUnit]:
        for unit in part:
            if unit.granularity == GRAN_ENVIRONMENT:
                decisions.extend(islice(decided, 1))  # its decision, taken as it is read
            if unit.needs_translation:
                yield unit

    reading = chain(grouped(translatable(units[:tail])), grouped(translatable(units[tail:])))
    groups: list[tuple[TranslationUnit, ...]] = []  # the groups read so far

    def group_at(i: int) -> tuple[TranslationUnit, ...] | None:
        """Group *i*, or None; the units are read, and decided, up to the first after it."""
        groups.extend(islice(reading, i + 1 - len(groups)))
        return groups[i] if i < len(groups) else None

    def send_next(i: int) -> None:
        """Send the next group's translation early, its terms chained, and its summary update."""
        if (group := group_at(i + 1)) is not None:
            request = group_request(group, summary, dictionary, config)
            client.send_early(request, partial(terms_request, request.user_message, config=config))
            if new_section := section_source(group):
                client.send_early(summary_request(summary, new_section, config))

    checks: list[tuple[tuple[TranslationUnit, ...], Pending[list]]] = []  # in unit order

    def validate(group: tuple[TranslationUnit, ...]) -> None:
        checks.append((group, client.submit(validate_group, group, client, config)))

    def step(i: int, group: tuple[TranslationUnit, ...], within: tuple = ()) -> None:
        """*group*'s translator call, then its summary update, validation job and terms.

        A failed call fails a lone unit; it, or a reply that does not split,
        sends a larger group's units one by one, each *within* it: only the
        last sends ahead, and the units translated are validated together.
        """
        nonlocal summary
        head, new_section = group[0], section_source(group)
        ahead = not within or head is within[-1]
        if new_section:  # sent already, unless first or after a failure
            client.send_early(summary_request(summary, new_section, config))
        try:
            reply = translate_unit(group, summary, dictionary, client, config)
            texts = [reply] if len(group) == 1 else split_parts(reply, list(map(header, group)))
            problem = "reply did not split"
        except LlmError as exc:
            texts, problem = None, str(exc)
        if texts is None:
            if len(group) == 1:
                client.warn(f"translation failed for unit {head.id}: {problem}")
                head.status = STATUS_FAILED
            else:
                ids = ", ".join(str(u.id) for u in group)
                client.warn(f"group translation failed for units {ids}, sent one by one: {problem}")
                for unit in group:
                    step(i, (unit,), group)
                if translated := tuple(u for u in group if u.status == STATUS_TRANSLATED):
                    validate(translated)
            return
        if new_section:
            summary = update_summary(summary, new_section, client, config)
        for unit, text in zip(group, texts):
            unit.translated_text, unit.status = fit_edges(unit.source_text, text), STATUS_TRANSLATED
        if ahead:
            send_next(i)  # with the dictionary as it stands
        if not within:
            validate(group)
        if extract_terms(group_source(group), reply, dictionary, client, config) and ahead:
            send_next(i)  # again, with the pairs just added

    i = 0
    while (group := group_at(i)) is not None:
        step(i, group)
        i += 1

    for unit in units:
        if not unit.needs_translation:
            unit.status = STATUS_VALIDATED  # emitted verbatim, nothing to check
    if groups and not checks:
        raise PipelineFailed(f"all {sum(map(len, groups))} translatable units failed")
    reports = validate_translations(checks, client)
    return PipelineResult(units, summary, dictionary, reports, decisions)
