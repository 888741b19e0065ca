"""RMSE / MAE / MAPE / R^2, segmented by event and non-event days.

MAPE is reported as a fraction. Terms whose true value is zero are excluded
from the MAPE mean and counted in `mape_excluded`. R^2 over a constant true
vector is 1.0 for a perfect prediction and flagged undefined (None)
otherwise, never NaN. Reports pool pickup and dropoff residuals into one
sample set per segment (n = 2 x day count); per-flow rows are emitted
alongside for diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .decomposition import Flows
from .errors import AblationError
from .events import DayEvents
from .ioutil import write_csv
from .prompts import AblationConfig, DemandFeatures, EventFeatures
from .trips import DailyDemand


@dataclass(frozen=True)
class Metrics:
    rmse: float
    mae: float
    mape: float | None
    r2: float | None
    n: int
    mape_excluded: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.rmse < 0 or self.mae < 0:
            raise ValueError("rmse and mae must be non-negative")
        if self.rmse + 1e-9 < self.mae:
            raise ValueError("rmse must be >= mae")


def compute_metrics(y_true, y_pred) -> Metrics:
    """The four error metrics of one prediction set.

    RMSE = sqrt(mean((y - yhat)^2)); MAE = mean(|y - yhat|);
    MAPE = mean(|y - yhat| / y) over terms with y != 0, as a fraction;
    R^2 = 1 - SSE / SST with SST centered on mean(y_true).
    """
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.ndim != 1 or y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must be equal-length vectors")
    n = y_true.size
    if n == 0:
        raise ValueError("empty vectors")
    err = y_true - y_pred
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    nonzero = y_true != 0
    excluded = int(n - nonzero.sum())
    if excluded < n:
        mape = float(np.mean(np.abs(err[nonzero]) / np.abs(y_true[nonzero])))
    else:
        mape = None
    sse = float(np.sum(err**2))
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if sst == 0.0:
        r2 = 1.0 if sse == 0.0 else None
    else:
        r2 = 1.0 - sse / sst
    return Metrics(rmse=rmse, mae=mae, mape=mape, r2=r2, n=n, mape_excluded=excluded)


@dataclass(frozen=True)
class MetricsReport:
    """Metrics for all days plus the event / non-event segments.

    A segment with no days is absent (None), not zero. Per-flow metrics
    over all days ride along for diagnosis.
    """

    all_days: Metrics
    event_days: Metrics | None
    non_event_days: Metrics | None
    model_name: str
    ablation: AblationConfig
    pickup_all: Metrics | None = None
    dropoff_all: Metrics | None = None

    def __post_init__(self):
        n_event = self.event_days.n if self.event_days else 0
        n_non = self.non_event_days.n if self.non_event_days else 0
        if self.all_days.n != n_event + n_non:
            raise ValueError("segment sample counts must sum to the total")


class EvalRecord(NamedTuple):
    """One evaluated day: truth and the model's predicted flow pair."""

    date: date
    true: DailyDemand
    pred: Flows


def segment_report(
    records: Sequence[EvalRecord],
    calendar: Mapping[date, DayEvents],
    model_name: str,
    ablation: AblationConfig,
) -> MetricsReport:
    """Pool both flows per segment; a day is an event day iff it has events."""
    if not records:
        raise ValueError("records must be non-empty")
    event_true, event_pred = [], []
    non_true, non_pred = [], []
    pickup_true, pickup_pred, dropoff_true, dropoff_pred = [], [], [], []
    for rec in records:
        if rec.date not in calendar:
            raise ValueError(f"date {rec.date} missing from the event calendar")
        is_event = calendar[rec.date].is_event_day
        t_pair = (float(rec.true.outflow), float(rec.true.inflow))
        p_pair = (float(rec.pred.outflow), float(rec.pred.inflow))
        if is_event:
            event_true += t_pair
            event_pred += p_pair
        else:
            non_true += t_pair
            non_pred += p_pair
        pickup_true.append(t_pair[0])
        pickup_pred.append(p_pair[0])
        dropoff_true.append(t_pair[1])
        dropoff_pred.append(p_pair[1])
    all_true = event_true + non_true
    all_pred = event_pred + non_pred
    return MetricsReport(
        all_days=compute_metrics(all_true, all_pred),
        event_days=compute_metrics(event_true, event_pred) if event_true else None,
        non_event_days=compute_metrics(non_true, non_pred) if non_true else None,
        model_name=model_name,
        ablation=ablation,
        pickup_all=compute_metrics(pickup_true, pickup_pred),
        dropoff_all=compute_metrics(dropoff_true, dropoff_pred),
    )


class AblationRow(NamedTuple):
    """One grid entry; report is None when the config is not applicable."""

    model_name: str
    ablation: AblationConfig
    report: MetricsReport | None


def canonical_grid(full_event: EventFeatures = EventFeatures.C_T_H_PRIME) -> list[AblationConfig]:
    """The five event-feature levels at demand r_i, plus demand o at the
    model's full event configuration."""
    grid = [AblationConfig(level, DemandFeatures.R_I) for level in EventFeatures]
    grid.append(AblationConfig(full_event, DemandFeatures.O))
    return grid


def run_ablation(
    grid: Sequence[AblationConfig],
    runner: Callable[[AblationConfig], Sequence[EvalRecord] | None],
    calendar: Mapping[date, DayEvents],
    model_name: str,
) -> list[AblationRow]:
    """Evaluate the runner at each configuration, in the given order.

    A runner returning None marks the configuration not applicable for this
    model; the row is emitted with an absent report. Runner exceptions are
    wrapped with the failing configuration attached.
    """
    if not grid:
        raise ValueError("ablation grid must be non-empty")
    rows = []
    for config in grid:
        try:
            records = runner(config)
        except Exception as exc:
            raise AblationError(
                f"ablation runner failed at {config.name}: {exc}", ablation=config
            ) from exc
        if records is None:
            rows.append(AblationRow(model_name, config, None))
        else:
            report = segment_report(records, calendar, model_name, config)
            rows.append(AblationRow(model_name, config, report))
    return rows


REPORT_COLUMNS = ["model", "ablation", "segment", "n", "rmse", "mae", "mape", "r2"]


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _report_rows(report: MetricsReport):
    segments = [
        ("all", report.all_days),
        ("event", report.event_days),
        ("non_event", report.non_event_days),
        ("all_pickup", report.pickup_all),
        ("all_dropoff", report.dropoff_all),
    ]
    for segment, metrics in segments:
        if metrics is None:
            continue
        yield [
            report.model_name,
            report.ablation.name,
            segment,
            metrics.n,
            _fmt(metrics.rmse),
            _fmt(metrics.mae),
            _fmt(metrics.mape),
            _fmt(metrics.r2),
        ]


def write_report_csv(reports: Sequence[MetricsReport], path) -> None:
    """Report CSV: every segment of each report, per-flow rows included."""
    write_csv(path, REPORT_COLUMNS, (row for report in reports for row in _report_rows(report)))


ABLATION_SEGMENTS = ("all", "event", "non_event")


def write_ablation_csv(rows: Sequence[AblationRow], path) -> None:
    """Ablation CSV: the pooled segments of each grid entry; a not-applicable
    entry is one `all` row with empty metric cells."""
    lines = []
    for row in rows:
        if row.report is None:
            lines.append([row.model_name, row.ablation.name, "all", "", "", "", "", ""])
        else:
            lines.extend(r for r in _report_rows(row.report) if r[2] in ABLATION_SEGMENTS)
    write_csv(path, REPORT_COLUMNS, lines)


def write_plot_csv(
    records: Sequence[EvalRecord],
    calendar: Mapping[date, DayEvents],
    path,
) -> None:
    """Per-day true vs predicted series for external charting."""
    write_csv(path, ["date", "true_out", "true_in", "pred_out", "pred_in", "is_event_day"], (
        [
            rec.date.isoformat(),
            rec.true.outflow,
            rec.true.inflow,
            f"{rec.pred.outflow:.6f}",
            f"{rec.pred.inflow:.6f}",
            int(rec.date in calendar and calendar[rec.date].is_event_day),
        ]
        for rec in sorted(records, key=lambda r: r.date)
    ))
