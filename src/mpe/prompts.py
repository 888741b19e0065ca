"""Deterministic rendering of the two prompt families.

Two prompts exist: one that asks the model to standardize an event record
into `[Category] ... [Summary] ...` form, and one that asks for a next-day
demand prediction in `[pickup] <int> [dropoff] <int> [reasoning] <text>`
form from a window of history lines. Rendering is a pure function of its
inputs, so equal inputs produce byte-identical requests; the canonical
wording is frozen under prompts/snapshots/.

Ablation axes: event features NA ⊂ c ⊂ c_t ⊂ c_t_h (h' swaps the raw text
for the formatted category/summary), and demand features o (raw demand) vs
r_i (baseline plus signed deviation). Richer event levels only ever append
words, which keeps the information content monotone.
"""

from __future__ import annotations

import enum
import math
import string
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Sequence

from .decomposition import DemandDecomposition, Flows
from .errors import ConfigError
from .events import EventRecord, FormattedEvent
from .gateway import ChatMessage, ChatRequest
from .ioutil import read_text

DEFAULT_MODEL = "gpt-4"
DEFAULT_DESCRIPTION_WORD_CAP = 500
TRUNCATION_MARKER = "[truncated]"

REPLY_FORM_PREDICTION = "[pickup] <int> [dropoff] <int> [reasoning] <text>"
REPLY_FORM_EVENT = "[Category] <short label> [Summary] <one or two sentences>"


class EventFeatures(str, enum.Enum):
    NA = "na"
    C = "c"
    C_T = "c_t"
    C_T_H = "c_t_h"
    C_T_H_PRIME = "c_t_h_prime"


class DemandFeatures(str, enum.Enum):
    O = "o"
    R_I = "r_i"


@dataclass(frozen=True)
class AblationConfig:
    event_features: EventFeatures = EventFeatures.C_T_H_PRIME
    demand_features: DemandFeatures = DemandFeatures.R_I

    @property
    def name(self) -> str:
        return f"{self.event_features.value}/{self.demand_features.value}"

    @classmethod
    def parse(cls, name: str) -> "AblationConfig":
        """Parse "<event>" or "<event>/<demand>", e.g. "c_t_h_prime/r_i"."""
        parts = name.strip().split("/")
        if len(parts) > 2 or not parts[0]:
            raise ValueError(f"bad ablation name: {name!r}")
        try:
            event = EventFeatures(parts[0])
            demand = DemandFeatures(parts[1]) if len(parts) == 2 else DemandFeatures.R_I
        except ValueError as exc:
            raise ValueError(f"bad ablation name: {name!r}") from exc
        return cls(event, demand)


@dataclass(frozen=True)
class DayContext:
    """One day as the prompt sees it: its events plus, for history days,
    its demand decomposition. Events may be raw records or formatted ones
    (formatted are required for the h' ablation)."""

    date: date
    events: tuple[EventRecord | FormattedEvent, ...] = ()
    decomposition: DemandDecomposition | None = None

    @property
    def weekday(self) -> str:
        return self.date.strftime("%A")


@dataclass(frozen=True)
class HistoryWindow:
    """Consecutive history days, oldest first, each with a decomposition."""

    days: tuple[DayContext, ...]

    def __post_init__(self):
        if not self.days:
            raise ValueError("history window must be non-empty")
        for prev, cur in zip(self.days, self.days[1:]):
            if cur.date != prev.date + timedelta(days=1):
                raise ValueError("history window dates must be consecutive ascending")
        for day in self.days:
            if day.decomposition is None:
                raise ValueError(f"history day {day.date} lacks a decomposition")

    @property
    def t(self) -> int:
        return len(self.days)

    @property
    def end(self) -> date:
        return self.days[-1].date


@dataclass(frozen=True)
class PromptTemplates:
    """Override points for the canonical wording.

    A template directory may contain `event_format.txt` and/or
    `prediction.txt` whose contents replace the matching field; the
    placeholder names must be kept.
    """

    event_format: str = (
        "Format the following public event record.\n"
        "\n"
        "Title: {title}\n"
        "Description: {description}\n"
        "\n"
        "Identify the type of event and write a one or two sentence summary that"
        " would help estimate how many people will attend. If the description is"
        " not available, rely on what is known about the names in the title."
        " Reply in exactly this form:\n"
        f"{REPLY_FORM_EVENT}"
    )
    prediction: str = (
        "Task: predict the daily taxi travel demand near the venue for"
        " {target_date} ({target_weekday}).\n"
        "Demand for a day is measured as two non-negative integers: pickups"
        " (taxi trips departing near the venue) and dropoffs (taxi trips"
        " arriving near the venue).\n"
        "You are given the previous {history_days} days of demand"
        " history{event_input_clause}.\n"
        f"Reply in exactly this form: {REPLY_FORM_PREDICTION}\n"
        "\n"
        "History:\n"
        "{history_block}\n"
        "\n"
        "Next day: {target_date} ({target_weekday})\n"
        "{target_block}"
        "Guidelines:\n"
        "- Make the prediction by considering both positive and negative factors"
        " affecting travel demand, including date and time{factor_clause}.\n"
        "- Make the prediction by learning from similar historical days.\n"
        "- Please think step-by-step before making the prediction."
    )


DEFAULT_TEMPLATES = PromptTemplates()


def _placeholders(template: str) -> set[str]:
    """The field names of a format string, each up to its first `.` or `[`."""
    names = (name for _, name, _, _ in string.Formatter().parse(template) if name is not None)
    return {name.partition(".")[0].partition("[")[0] for name in names}


def load_templates(directory: Path | str) -> PromptTemplates:
    """Read template overrides from <dir>/event_format.txt, prediction.txt;
    one that cannot be read as UTF-8 text, is not a format string, or names
    a placeholder its default template lacks is a ConfigError."""
    directory = Path(directory)
    kwargs = {}
    for name in ("event_format", "prediction"):
        path = directory / f"{name}.txt"
        if path.exists():
            try:
                text = kwargs[name] = read_text(path)
                unknown = _placeholders(text) - _placeholders(getattr(DEFAULT_TEMPLATES, name))
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read template {path}: {exc}") from exc
            except ValueError as exc:  # a lone `{` or `}`
                raise ConfigError(f"template {path} is not a format string: {exc}") from exc
            if unknown:
                raise ConfigError(f"template {path} has an unknown placeholder {{{min(unknown)}}}")
    return PromptTemplates(**kwargs)


def round_half_up(x: float) -> int:
    """Round with ties toward +infinity: 0.5 -> 1, -0.5 -> 0."""
    return int(math.floor(x + 0.5))


def truncate_words(text: str, cap: int) -> str:
    words = text.split()
    if len(words) <= cap:
        return text
    return " ".join(words[:cap]) + " " + TRUNCATION_MARKER


def _record_of(event: EventRecord | FormattedEvent) -> EventRecord:
    return event.source if isinstance(event, FormattedEvent) else event


def _raw_description(event: EventRecord | FormattedEvent, cap: int) -> str:
    record = _record_of(event)
    text = record.title
    if record.description:
        text += ": " + record.description
    return truncate_words(text, cap)


def render_event_block(
    events: Sequence[EventRecord | FormattedEvent],
    ablation: AblationConfig,
    description_word_cap: int = DEFAULT_DESCRIPTION_WORD_CAP,
) -> str:
    """The per-day event text for every level except NA (which renders nothing)."""
    if ablation.event_features is EventFeatures.NA:
        return ""
    if not events:
        return "no event"
    count = len(events)
    parts = [f"{count} event" if count == 1 else f"{count} events"]
    level = ablation.event_features
    if level in (EventFeatures.C_T, EventFeatures.C_T_H, EventFeatures.C_T_H_PRIME):
        times = ", ".join(
            f"{_record_of(e).start_time.strftime('%H:%M')}-"
            f"{_record_of(e).end_time.strftime('%H:%M')}"
            for e in events
        )
        parts.append(f"[time] {times}")
    if level is EventFeatures.C_T_H:
        for e in events:
            parts.append(f"[description] {_raw_description(e, description_word_cap)}")
    elif level is EventFeatures.C_T_H_PRIME:
        for e in events:
            if not isinstance(e, FormattedEvent):
                raise ValueError(
                    "formatted events are required under the c_t_h_prime ablation"
                )
            parts.append(f"[Category] {e.category} [Summary] {e.summary}")
    return " ".join(parts)


def render_history_line(
    day: DayContext,
    ablation: AblationConfig,
    description_word_cap: int = DEFAULT_DESCRIPTION_WORD_CAP,
) -> str:
    """One deterministic line per history day.

    Demand figures are rounded half-up: the raw demand under o, or the
    baseline plus the signed deviation under r_i. The event part appends
    according to the event-features level, so richer levels only add text.
    """
    if day.decomposition is None:
        raise ValueError(f"history day {day.date} lacks a decomposition")
    d = day.decomposition
    head = f"{day.date.isoformat()} ({day.weekday})"
    if ablation.demand_features is DemandFeatures.O:
        demand = f"demand out {d.actual.outflow} in {d.actual.inflow}"
    else:
        demand = (
            f"baseline out {round_half_up(d.baseline.outflow)}"
            f" in {round_half_up(d.baseline.inflow)}"
            f" | deviation out {round_half_up(d.deviation.outflow):+d}"
            f" in {round_half_up(d.deviation.inflow):+d}"
        )
    line = f"{head} | {demand}"
    block = render_event_block(day.events, ablation, description_word_cap)
    if block:
        line += f" | {block}"
    return line


def build_event_format_prompt(
    event: EventRecord,
    model: str = DEFAULT_MODEL,
    templates: PromptTemplates = DEFAULT_TEMPLATES,
    description_word_cap: int = DEFAULT_DESCRIPTION_WORD_CAP,
    temperature: float = 0.0,
) -> ChatRequest:
    """Single user message asking for the `[Category] ... [Summary] ...` form."""
    if event.description is None:
        description = "not available"
    else:
        description = truncate_words(event.description, description_word_cap)
    content = templates.event_format.format(title=event.title, description=description)
    return ChatRequest(
        model=model, messages=(ChatMessage("user", content),), temperature=temperature
    )


def build_prediction_prompt(
    window: HistoryWindow,
    target: DayContext,
    baseline: Flows,
    ablation: AblationConfig,
    model: str = DEFAULT_MODEL,
    templates: PromptTemplates = DEFAULT_TEMPLATES,
    description_word_cap: int = DEFAULT_DESCRIPTION_WORD_CAP,
    temperature: float = 0.0,
    history_lines: Sequence[str] | None = None,
) -> ChatRequest:
    """Single user message: instruction, history lines, target block, guidelines.

    Under r_i the target's rounded baseline is introduced as the expected
    demand on a regular day; under o it is omitted. Under NA no event text
    appears anywhere, including the instruction and guidelines.
    `history_lines`, when given, are the window's days as
    `render_history_line` renders them under the same ablation and cap, so a
    caller whose windows overlap renders each day once.
    """
    if target.date != window.end + timedelta(days=1):
        raise ValueError(
            f"target {target.date} must follow the window end {window.end}"
        )
    if target.decomposition is not None:
        raise ValueError("target day must not carry a decomposition")
    if history_lines is None:
        history_lines = [
            render_history_line(day, ablation, description_word_cap) for day in window.days
        ]
    elif len(history_lines) != window.t:
        raise ValueError(f"{len(history_lines)} history lines for a {window.t}-day window")

    with_events = ablation.event_features is not EventFeatures.NA
    event_input_clause = (
        ", together with the events held on each day and the events scheduled"
        " for the next day"
        if with_events
        else ""
    )
    factor_clause = ", event category, and performer popularity" if with_events else ""

    target_lines = []
    if ablation.demand_features is DemandFeatures.R_I:
        no_event_clause = " if no event occurs" if with_events else ""
        target_lines.append(
            f"Expected demand for a regular {target.weekday}{no_event_clause}:"
            f" out {round_half_up(baseline.outflow)}"
            f" in {round_half_up(baseline.inflow)}"
        )
    if with_events:
        target_lines.append(
            f"Scheduled: {render_event_block(target.events, ablation, description_word_cap)}"
        )
    target_block = "".join(line + "\n" for line in target_lines)

    content = templates.prediction.format(
        target_date=target.date.isoformat(),
        target_weekday=target.weekday,
        history_days=window.t,
        event_input_clause=event_input_clause,
        history_block="\n".join(history_lines),
        target_block=target_block,
        factor_clause=factor_clause,
    )
    return ChatRequest(
        model=model, messages=(ChatMessage("user", content),), temperature=temperature
    )
