"""Baseline averaging, decomposition laws, and causality."""

import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe.decomposition import (
    BaselineConfig,
    DemandDecomposition,
    Fallback,
    Flows,
    decompose,
    read_decomposition_csv,
    weekday_baseline,
    write_decomposition_csv,
)
from mpe.events import DayEvents, EventRecord
from mpe.trips import DailyDemand

from oracles import recompose

FRIDAY = date(2014, 7, 25)  # target; prior Fridays are 7/18, 7/11, 7/4, ...


def _series(values, end=FRIDAY):
    """Build a history dict going back one day per value, ending before end."""
    history = {}
    for i, (out, inn) in enumerate(values):
        day = end - timedelta(days=i + 1)
        history[day] = DailyDemand(day, out, inn)
    return history


def _calendar(event_dates):
    return {
        d: DayEvents(d, (EventRecord("E", None, d, *_times()),))
        for d in event_dates
    }


def _times():
    from datetime import time

    return time(19, 0), time(22, 0)


def test_three_qualifying_fridays_mean():
    history = {}
    for weeks, (out, inn) in zip((1, 2, 3), [(300, 200), (330, 210), (363, 211)]):
        day = FRIDAY - timedelta(weeks=weeks)
        history[day] = DailyDemand(day, out, inn)
    baseline = weekday_baseline(history, {}, FRIDAY, BaselineConfig())
    assert baseline == Flows(331.0, 207.0)


def test_all_event_weekdays_fall_back_to_all_history():
    history = {}
    for weeks in (1, 2, 3):
        day = FRIDAY - timedelta(weeks=weeks)
        history[day] = DailyDemand(day, 500, 400)
    quiet = FRIDAY - timedelta(days=3)  # a Tuesday with no event
    history[quiet] = DailyDemand(quiet, 111, 99)
    calendar = _calendar([FRIDAY - timedelta(weeks=w) for w in (1, 2, 3)])
    config = BaselineConfig(fallback=Fallback.ALL_HISTORY)
    baseline = weekday_baseline(history, calendar, FRIDAY, config)
    assert baseline == Flows(111.0, 99.0)


def test_global_weekday_mean_fallback_ignores_events():
    history = {}
    for weeks in (1, 2):
        day = FRIDAY - timedelta(weeks=weeks)
        history[day] = DailyDemand(day, 500, 400)
    calendar = _calendar([FRIDAY - timedelta(weeks=w) for w in (1, 2)])
    config = BaselineConfig(fallback=Fallback.GLOBAL_WEEKDAY_MEAN)
    baseline = weekday_baseline(history, calendar, FRIDAY, config)
    assert baseline == Flows(500.0, 400.0)


def test_single_qualifying_day_with_min_samples_one():
    day = FRIDAY - timedelta(weeks=1)
    history = {day: DailyDemand(day, 420, 240)}
    baseline = weekday_baseline(history, {}, FRIDAY, BaselineConfig(min_samples=1))
    assert baseline == Flows(420.0, 240.0)


def test_expand_window_scans_past_lookback():
    far = FRIDAY - timedelta(weeks=10)
    history = {far: DailyDemand(far, 256, 128)}
    config = BaselineConfig(lookback_weeks=4, fallback=Fallback.EXPAND_WINDOW)
    baseline = weekday_baseline(history, {}, FRIDAY, config)
    assert baseline == Flows(256.0, 128.0)


def test_empty_history_is_an_error():
    with pytest.raises(ValueError):
        weekday_baseline({}, {}, FRIDAY, BaselineConfig())
    later = FRIDAY + timedelta(days=1)
    with pytest.raises(ValueError):
        weekday_baseline({later: DailyDemand(later, 1, 1)}, {}, FRIDAY, BaselineConfig())


def test_baseline_never_reads_target_or_future():
    rng = random.Random(52)
    for _ in range(100):
        n = rng.randrange(40, 90)
        history = _series([(rng.randrange(600), rng.randrange(400)) for _ in range(n)])
        calendar = _calendar(
            [d for d in history if rng.random() < 0.2]
        )
        config = BaselineConfig(min_samples=rng.choice([1, 2, 3]))
        before = weekday_baseline(history, calendar, FRIDAY, config)
        polluted = dict(history)
        for offset in range(0, 10):
            day = FRIDAY + timedelta(days=offset)
            polluted[day] = DailyDemand(day, 99999, 99999)
        after = weekday_baseline(polluted, calendar, FRIDAY, config)
        assert before == after


def test_constant_non_event_series_is_a_fixed_point():
    history = _series([(240, 160)] * 70)
    baseline = weekday_baseline(history, {}, FRIDAY, BaselineConfig())
    assert baseline == Flows(240.0, 160.0)


def test_decompose_paper_magnitudes():
    actual = DailyDemand(FRIDAY, 555, 354)
    result = decompose(actual, Flows(331.0, 207.0))
    assert result.deviation == Flows(224.0, 147.0)
    assert result.baseline == Flows(331.0, 207.0)
    assert result.actual == actual


def test_decompose_identity_and_negative_deviation():
    actual = DailyDemand(FRIDAY, 100, 100)
    assert decompose(actual, Flows(100.0, 100.0)).deviation == Flows(0.0, 0.0)
    result = decompose(actual, Flows(150.0, 120.0))
    assert result.deviation == Flows(-50.0, -20.0)


def test_recompose_paper_magnitudes():
    decomposition = DemandDecomposition(
        FRIDAY, DailyDemand(FRIDAY, 562, 353), Flows(331.0, 207.0), Flows(231.0, 146.0)
    )
    assert recompose(decomposition) == Flows(562.0, 353.0)


def test_negative_baseline_rejected():
    actual = DailyDemand(FRIDAY, 10, 10)
    with pytest.raises(ValueError):
        decompose(actual, Flows(-1.0, 5.0))
    with pytest.raises(ValueError):
        DemandDecomposition(FRIDAY, actual, Flows(-1.0, 5.0), Flows(11.0, 5.0))


def test_inconsistent_decomposition_rejected():
    actual = DailyDemand(FRIDAY, 10, 10)
    with pytest.raises(ValueError):
        DemandDecomposition(FRIDAY, actual, Flows(3.0, 3.0), Flows(5.0, 5.0))


@given(
    out=st.integers(min_value=0, max_value=200_000),
    inn=st.integers(min_value=0, max_value=200_000),
    base_out=st.floats(min_value=0.0, max_value=200_000.0, allow_nan=False),
    base_in=st.floats(min_value=0.0, max_value=200_000.0, allow_nan=False),
)
@settings(max_examples=300)
def test_recompose_decompose_round_trip(out, inn, base_out, base_in):
    actual = DailyDemand(FRIDAY, out, inn)
    decomposition = decompose(actual, Flows(base_out, base_in))
    assert recompose(decomposition) == Flows(float(out), float(inn))


def test_decomposition_csv_round_trips_exactly(tmp_path):
    rng = random.Random(11)
    rows = []
    for i in range(50):
        day = FRIDAY + timedelta(days=i)
        actual = DailyDemand(day, rng.randrange(1000), rng.randrange(1000))
        baseline = Flows(rng.random() * 500, rng.random() * 500)
        rows.append(decompose(actual, baseline))
    path = tmp_path / "decomposition.csv"
    write_decomposition_csv(rows, path)
    loaded = read_decomposition_csv(path)
    assert loaded == rows
    for row in loaded:
        assert recompose(row) == Flows(float(row.actual.outflow), float(row.actual.inflow))
