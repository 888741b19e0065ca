"""Event catalog parsing and per-day mapping."""

import json
import os
from collections import Counter
from datetime import date, time

import pytest

from mpe.errors import CatalogError
from mpe.events import (
    DayEvents,
    FormattedEvent,
    day_events_index,
    parse_event_records,
    serialize_event_records,
)
from mpe.trips import DateRange


def _entry(**kwargs):
    entry = {
        "title": "Brooklyn Nets vs. Dallas Mavericks",
        "description": None,
        "date": "2015-05-01",
        "start_time": "19:30",
        "end_time": "22:30",
    }
    entry.update(kwargs)
    return entry


def test_parse_example_entry():
    (record,) = parse_event_records(json.dumps([_entry()]))
    assert record.title == "Brooklyn Nets vs. Dallas Mavericks"
    assert record.description is None
    assert record.date == date(2015, 5, 1)
    assert record.start_time == time(19, 30)
    assert record.end_time == time(22, 30)


def test_empty_title_is_record_level_error_with_index():
    doc = json.dumps([_entry(), _entry(title="")])
    with pytest.raises(CatalogError, match="event 1"):
        parse_event_records(doc)


def test_missing_date_is_record_level_error():
    entry = _entry()
    del entry["date"]
    with pytest.raises(CatalogError, match="missing date"):
        parse_event_records(json.dumps([entry]))


def test_empty_description_normalized_to_absent():
    (record,) = parse_event_records(json.dumps([_entry(description="")]))
    assert record.description is None


def test_malformed_document_fatal():
    with pytest.raises(CatalogError):
        parse_event_records("{ not json")
    with pytest.raises(CatalogError):
        parse_event_records(json.dumps({"title": "not a list"}))


def test_end_before_start_rejected():
    with pytest.raises(CatalogError, match="event 0"):
        parse_event_records(json.dumps([_entry(start_time="22:00", end_time="20:00")]))


def test_events_for_day_two_events():
    records = parse_event_records(json.dumps([
        _entry(title="Matinee", date="2014-07-20", start_time="13:00", end_time="16:00"),
        _entry(title="Evening", date="2014-07-20", start_time="17:00", end_time="20:00"),
        _entry(date="2014-07-21"),
    ]))
    day = day_events_index(records, DateRange(date(2014, 7, 20), date(2014, 7, 21)))[
        date(2014, 7, 20)
    ]
    assert len(day.events) == 2
    assert day.is_event_day


def test_events_for_day_empty():
    (day,) = day_events_index([], DateRange(date(2014, 7, 20), date(2014, 7, 20))).values()
    assert day.events == () and not day.is_event_day


def test_events_sorted_by_start_then_title():
    records = parse_event_records(json.dumps([
        _entry(title="Later", date="2014-07-20", start_time="17:00", end_time="20:00"),
        _entry(title="Earlier", date="2014-07-20", start_time="13:00", end_time="16:00"),
        _entry(title="A-first", date="2014-07-20", start_time="13:00", end_time="15:00"),
    ]))
    (day,) = day_events_index(records, DateRange(date(2014, 7, 20), date(2014, 7, 20))).values()
    assert [e.title for e in day.events] == ["A-first", "Earlier", "Later"]


def test_union_over_days_recovers_catalog(small_dataset_dir):
    records = parse_event_records((small_dataset_dir / "events.json").read_text())
    dates = {r.date for r in records}
    index = day_events_index(records, DateRange(min(dates), max(dates)))
    recovered = [e for d in sorted(index) for e in index[d].events]
    assert Counter(recovered) == Counter(records)
    assert len(dates) <= len(records)


def test_serialize_parse_round_trip(small_dataset_dir):
    records = parse_event_records((small_dataset_dir / "events.json").read_text())
    assert parse_event_records(serialize_event_records(records)) == records


def test_day_events_index_is_dense():
    records = parse_event_records(json.dumps([_entry(date="2014-07-20")]))
    index = day_events_index(records, DateRange(date(2014, 7, 19), date(2014, 7, 21)))
    assert sorted(index) == [date(2014, 7, 19), date(2014, 7, 20), date(2014, 7, 21)]
    assert index[date(2014, 7, 20)].is_event_day
    assert not index[date(2014, 7, 19)].is_event_day


def test_formatted_event_validation():
    (record,) = parse_event_records(json.dumps([_entry()]))
    with pytest.raises(ValueError):
        FormattedEvent("", "summary", record)
    with pytest.raises(ValueError):
        FormattedEvent("Category", "  ", record)


def test_day_events_reorders_on_construction():
    (a,) = parse_event_records(json.dumps([_entry(title="B", start_time="15:00", end_time="16:00")]))
    (b,) = parse_event_records(json.dumps([_entry(title="A", start_time="13:00", end_time="14:00")]))
    day = DayEvents(a.date, (a, b))
    assert [e.title for e in day.events] == ["A", "B"]


@pytest.mark.skipif(
    not os.environ.get("MPE_BARCLAYS_CATALOG"),
    reason="set MPE_BARCLAYS_CATALOG to the real catalog JSON to check 350/285",
)
def test_real_catalog_reports_350_events_over_285_days():
    path = os.environ["MPE_BARCLAYS_CATALOG"]
    with open(path) as fh:
        records = parse_event_records(fh.read())
    event_days = {r.date for r in records}
    assert len(records) == 350
    assert len(event_days) == 285
    # benchmark-year split: 149 event days / 181 events, 216 event-free days
    year = DateRange(date(2014, 7, 1), date(2015, 6, 30))
    in_year = [r for r in records if r.date in year]
    year_event_days = {r.date for r in in_year}
    assert len(year_event_days) == 149
    assert len(in_year) == 181
    assert year.n_days - len(year_event_days) == 216
