"""Split observed demand into a regular weekday baseline and a deviation.

The baseline for a day is the mean demand over prior same-weekday days with
no events, scanned over a trailing window of weeks. The averaging window is
configurable because sparse calendars need fallbacks; the scan never looks
at the target day or anything after it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Mapping, NamedTuple, Sequence

from .events import DayEvents
from .ioutil import read_csv, write_csv
from .trips import DailyDemand


class Flows(NamedTuple):
    """Real-valued (outflow, inflow) pair."""

    outflow: float
    inflow: float


class Fallback(str, enum.Enum):
    """What to do when too few qualifying same-weekday days exist."""

    EXPAND_WINDOW = "expand_window"        # same weekday, no events, all history
    ALL_HISTORY = "all_history"            # any weekday, no events
    GLOBAL_WEEKDAY_MEAN = "global_weekday_mean"  # same weekday, events allowed


@dataclass(frozen=True)
class BaselineConfig:
    lookback_weeks: int = 8
    min_samples: int = 2
    fallback: Fallback = Fallback.EXPAND_WINDOW

    def __post_init__(self):
        if self.lookback_weeks < 1:
            raise ValueError("lookback_weeks must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass(frozen=True)
class DemandDecomposition:
    """actual = baseline + deviation, exactly, component-wise."""

    date: date
    actual: DailyDemand
    baseline: Flows
    deviation: Flows

    def __post_init__(self):
        if self.baseline.outflow < 0 or self.baseline.inflow < 0:
            raise ValueError("baseline components must be non-negative")
        if (
            self.baseline.outflow + self.deviation.outflow != self.actual.outflow
            or self.baseline.inflow + self.deviation.inflow != self.actual.inflow
        ):
            raise ValueError("baseline + deviation must equal actual exactly")


def _mean_flows(days: Sequence[DailyDemand]) -> Flows:
    n = len(days)
    return Flows(
        sum(d.outflow for d in days) / n,
        sum(d.inflow for d in days) / n,
    )


def _is_event_day(calendar: Mapping[date, DayEvents], day: date) -> bool:
    entry = calendar.get(day)
    return entry is not None and entry.is_event_day


def weekday_baseline(
    history: Mapping[date, DailyDemand],
    calendar: Mapping[date, DayEvents],
    target: date,
    config: BaselineConfig = BaselineConfig(),
) -> Flows:
    """Mean demand over qualifying prior days; never reads target or later.

    Qualifying days share the target's weekday, carry no events, and lie in
    the trailing `lookback_weeks` weeks. With fewer than `min_samples` the
    configured fallback widens the pool; if even that is empty, the mean of
    all prior days is used so any non-empty prior history yields a value.
    """
    prior = {d: v for d, v in history.items() if d < target}
    if not prior:
        raise ValueError(f"history has no day before {target}")

    same_weekday_window = []
    for k in range(1, config.lookback_weeks + 1):
        d = target - timedelta(weeks=k)
        if d in prior and not _is_event_day(calendar, d):
            same_weekday_window.append(prior[d])
    if len(same_weekday_window) >= config.min_samples:
        return _mean_flows(same_weekday_window)

    if config.fallback is Fallback.EXPAND_WINDOW:
        pool = [
            v
            for d, v in prior.items()
            if d.weekday() == target.weekday() and not _is_event_day(calendar, d)
        ]
    elif config.fallback is Fallback.ALL_HISTORY:
        pool = [v for d, v in prior.items() if not _is_event_day(calendar, d)]
    else:  # GLOBAL_WEEKDAY_MEAN
        pool = [v for d, v in prior.items() if d.weekday() == target.weekday()]
    if pool:
        return _mean_flows(pool)
    return _mean_flows(list(prior.values()))


def decompose(actual: DailyDemand, baseline: Flows) -> DemandDecomposition:
    """Store actual, baseline, and deviation = actual - baseline."""
    if baseline.outflow < 0 or baseline.inflow < 0:
        raise ValueError("baseline components must be non-negative")
    deviation = Flows(actual.outflow - baseline.outflow, actual.inflow - baseline.inflow)
    return DemandDecomposition(actual.date, actual, baseline, deviation)


DECOMPOSITION_COLUMNS = [
    "date", "actual_out", "actual_in",
    "baseline_out", "baseline_in", "dev_out", "dev_in",
]


def write_decomposition_csv(rows: Sequence[DemandDecomposition], path) -> None:
    # repr() keeps floats round-trippable so recomposition stays exact.
    write_csv(path, DECOMPOSITION_COLUMNS, (
        [
            r.date.isoformat(),
            r.actual.outflow, r.actual.inflow,
            repr(r.baseline.outflow), repr(r.baseline.inflow),
            repr(r.deviation.outflow), repr(r.deviation.inflow),
        ]
        for r in rows
    ))


def read_decomposition_csv(path) -> list[DemandDecomposition]:
    out = []
    for r in read_csv(path):
        day = date.fromisoformat(r["date"])
        out.append(DemandDecomposition(
            day,
            DailyDemand(day, int(r["actual_out"]), int(r["actual_in"])),
            Flows(float(r["baseline_out"]), float(r["baseline_in"])),
            Flows(float(r["dev_out"]), float(r["dev_in"])),
        ))
    return out
