"""Event catalog: typed records, per-day mapping, and formatted summaries.

The on-disk catalog is a JSON array of objects with keys `title` (required),
`description` (string or null), `date` ("YYYY-MM-DD"), `start_time` and
`end_time` ("HH:MM"). Multi-day events must be split per day at the source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, time
from typing import Mapping, Sequence

from .errors import CatalogError
from .trips import DateRange


@dataclass(frozen=True)
class EventRecord:
    """One event on one calendar day; same-day events only (end >= start)."""

    title: str
    description: str | None
    date: date
    start_time: time
    end_time: time

    def __post_init__(self):
        title = self.title.strip()
        if not title:
            raise ValueError("empty title")
        object.__setattr__(self, "title", title)
        if self.description is not None and self.description == "":
            object.__setattr__(self, "description", None)
        if self.end_time < self.start_time:
            raise ValueError("end_time before start_time")


@dataclass(frozen=True)
class FormattedEvent:
    """LLM-standardized event: a category label plus a short summary."""

    category: str
    summary: str
    source: EventRecord

    def __post_init__(self):
        if not self.category.strip():
            raise ValueError("empty category")
        if not self.summary.strip():
            raise ValueError("empty summary")


@dataclass(frozen=True)
class DayEvents:
    """All events on one day, sorted by start time then title."""

    date: date
    events: tuple[EventRecord, ...] = field(default=())

    def __post_init__(self):
        ordered = tuple(sorted(self.events, key=lambda e: (e.start_time, e.title)))
        object.__setattr__(self, "events", ordered)

    @property
    def is_event_day(self) -> bool:
        return bool(self.events)


def _require(entry: dict, key: str, index: int) -> object:
    if key not in entry or entry[key] is None or entry[key] == "":
        raise CatalogError(f"event {index}: missing {key}")
    return entry[key]


def parse_event_records(text: str) -> list[EventRecord]:
    """Parse the catalog document; record-level problems name the index."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"malformed event catalog: {exc}") from exc
    if not isinstance(doc, list):
        raise CatalogError("event catalog must be a JSON array of event objects")

    records = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise CatalogError(f"event {i}: not an object")
        title = _require(entry, "title", i)
        if not isinstance(title, str) or not title.strip():
            raise CatalogError(f"event {i}: empty title")
        raw_date = _require(entry, "date", i)
        try:
            day = date.fromisoformat(str(raw_date))
        except ValueError as exc:
            raise CatalogError(f"event {i}: bad date {raw_date!r}") from exc
        try:
            start = time.fromisoformat(str(_require(entry, "start_time", i)))
            end = time.fromisoformat(str(_require(entry, "end_time", i)))
        except ValueError as exc:
            raise CatalogError(f"event {i}: bad time ({exc})") from exc
        description = entry.get("description")
        if description is not None and not isinstance(description, str):
            raise CatalogError(f"event {i}: description must be string or null")
        try:
            records.append(EventRecord(title, description, day, start, end))
        except ValueError as exc:
            raise CatalogError(f"event {i}: {exc}") from exc
    return records


def serialize_event_records(records: Sequence[EventRecord]) -> str:
    """Inverse of parse_event_records; round-trips to an equal sequence."""
    doc = [
        {
            "title": r.title,
            "description": r.description,
            "date": r.date.isoformat(),
            "start_time": r.start_time.strftime("%H:%M"),
            "end_time": r.end_time.strftime("%H:%M"),
        }
        for r in records
    ]
    return json.dumps(doc, indent=2, ensure_ascii=False)


def day_events_index(
    catalog: Sequence[EventRecord], date_range: DateRange
) -> Mapping[date, DayEvents]:
    """Dense date -> DayEvents mapping over the range."""
    by_day: dict[date, list[EventRecord]] = {d: [] for d in date_range.days()}
    for event in catalog:
        if event.date in by_day:
            by_day[event.date].append(event)
    return {d: DayEvents(d, tuple(events)) for d, events in by_day.items()}
