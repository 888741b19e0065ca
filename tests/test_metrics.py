"""Metric arithmetic against the brute-force oracle; segmentation; ablation."""

import csv
import random
from dataclasses import replace
from datetime import date, time, timedelta
from itertools import groupby

import pytest

from mpe.baselines import GbdtParams
from mpe.decomposition import Flows
from mpe.events import DayEvents, EventRecord
from mpe.metrics import (
    AblationRow,
    EvalRecord,
    Metrics,
    canonical_grid,
    compute_metrics,
    segment_report,
    write_ablation_csv,
    write_plot_csv,
    write_report_csv,
)
from mpe.pipeline import STAGES, artifact_path, run_pipeline
from mpe.prompts import AblationConfig, DemandFeatures, EventFeatures
from mpe.trips import DailyDemand, DateRange

from oracles import metrics_brute_force


def test_hand_example_exact():
    m = compute_metrics([100.0, 200.0], [110.0, 190.0])
    assert m.mae == 10.0
    assert m.rmse == 10.0
    assert m.mape == pytest.approx(0.075, abs=1e-15)
    assert m.r2 == pytest.approx(0.96, abs=1e-15)
    assert m.n == 2 and m.mape_excluded == 0


def test_perfect_prediction():
    m = compute_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert (m.rmse, m.mae, m.mape) == (0.0, 0.0, 0.0)
    assert m.r2 == 1.0


def test_constant_mean_prediction_gives_r2_zero():
    y = [1.0, 2.0, 3.0, 6.0]
    mean = sum(y) / len(y)
    m = compute_metrics(y, [mean] * 4)
    assert m.r2 == pytest.approx(0.0, abs=1e-12)


def test_zero_true_terms_excluded_from_mape():
    m = compute_metrics([0.0, 100.0], [10.0, 110.0])
    assert m.mape == pytest.approx(0.1)
    assert m.mape_excluded == 1
    all_zero = compute_metrics([0.0, 0.0], [1.0, 2.0])
    assert all_zero.mape is None
    assert all_zero.mape_excluded == 2


def test_constant_true_vector_r2_flagged():
    undefined = compute_metrics([5.0, 5.0], [4.0, 6.0])
    assert undefined.r2 is None
    perfect = compute_metrics([5.0, 5.0], [5.0, 5.0])
    assert perfect.r2 == 1.0 and perfect.rmse == 0.0


def test_empty_and_mismatched_vectors_error():
    with pytest.raises(ValueError):
        compute_metrics([], [])
    with pytest.raises(ValueError):
        compute_metrics([1.0], [1.0, 2.0])


def test_matches_brute_force_oracle_on_random_pairs():
    rng = random.Random(99)
    for _ in range(300):
        n = rng.randrange(1, 40)
        y = [rng.uniform(0, 1000) for _ in range(n)]
        p = [rng.uniform(0, 1000) for _ in range(n)]
        if rng.random() < 0.2:
            y[rng.randrange(n)] = 0.0
        ours = compute_metrics(y, p)
        oracle = metrics_brute_force(y, p)
        assert ours.rmse == pytest.approx(oracle["rmse"], abs=1e-9)
        assert ours.mae == pytest.approx(oracle["mae"], abs=1e-9)
        if oracle["mape"] is None:
            assert ours.mape is None
        else:
            assert ours.mape == pytest.approx(oracle["mape"], abs=1e-9)
        if oracle["r2"] is None:
            assert ours.r2 is None
        else:
            assert ours.r2 == pytest.approx(oracle["r2"], abs=1e-9)
        assert ours.mape_excluded == oracle["mape_excluded"]


def test_permutation_invariance():
    rng = random.Random(3)
    y = [rng.uniform(1, 100) for _ in range(25)]
    p = [rng.uniform(1, 100) for _ in range(25)]
    m1 = compute_metrics(y, p)
    order = list(range(25))
    rng.shuffle(order)
    m2 = compute_metrics([y[i] for i in order], [p[i] for i in order])
    assert m1.rmse == pytest.approx(m2.rmse, abs=1e-12)
    assert m1.mae == pytest.approx(m2.mae, abs=1e-12)
    assert m1.mape == pytest.approx(m2.mape, abs=1e-12)
    assert m1.r2 == pytest.approx(m2.r2, abs=1e-12)


def test_mape_scale_invariance():
    rng = random.Random(4)
    y = [rng.uniform(1, 100) for _ in range(20)]
    p = [rng.uniform(1, 100) for _ in range(20)]
    base = compute_metrics(y, p).mape
    for scale in (0.001, 7.3, 1e6):
        scaled = compute_metrics([v * scale for v in y], [v * scale for v in p]).mape
        assert scaled == pytest.approx(base, abs=1e-12)


def test_metrics_validation():
    with pytest.raises(ValueError):
        Metrics(rmse=1.0, mae=2.0, mape=0.1, r2=0.5, n=4)
    with pytest.raises(ValueError):
        Metrics(rmse=1.0, mae=0.5, mape=0.1, r2=0.5, n=0)


# --- segmentation -----------------------------------------------------------------


def _calendar(days, event_days):
    calendar = {}
    for d in days:
        events = ()
        if d in event_days:
            events = (EventRecord("E", None, d, time(19, 0), time(22, 0)),)
        calendar[d] = DayEvents(d, events)
    return calendar


def _records(n_days, start=date(2022, 1, 1)):
    rng = random.Random(5)
    records = []
    for i in range(n_days):
        d = start + timedelta(days=i)
        records.append(EvalRecord(
            d,
            DailyDemand(d, rng.randrange(50, 400), rng.randrange(50, 400)),
            Flows(rng.uniform(50, 400), rng.uniform(50, 400)),
        ))
    return records


def test_segment_report_pools_two_flows_per_day():
    records = _records(2)
    days = [r.date for r in records]
    calendar = _calendar(days, {days[0]})
    report = segment_report(records, calendar, "m", AblationConfig())
    assert report.all_days.n == 4
    assert report.event_days.n == 2
    assert report.non_event_days.n == 2


def test_segment_report_missing_calendar_date_errors():
    records = _records(2)
    calendar = _calendar([records[0].date], set())
    with pytest.raises(ValueError):
        segment_report(records, calendar, "m", AblationConfig())


def test_segment_report_empty_event_segment_absent():
    records = _records(3)
    calendar = _calendar([r.date for r in records], set())
    report = segment_report(records, calendar, "m", AblationConfig())
    assert report.event_days is None
    assert report.non_event_days.n == 6
    assert report.all_days.n == 6


def test_segment_sse_decomposes_exactly():
    records = _records(30)
    days = [r.date for r in records]
    calendar = _calendar(days, set(days[::3]))
    report = segment_report(records, calendar, "m", AblationConfig())
    sse = report.all_days.n * report.all_days.rmse**2
    sse_parts = (
        report.event_days.n * report.event_days.rmse**2
        + report.non_event_days.n * report.non_event_days.rmse**2
    )
    assert sse == pytest.approx(sse_parts, rel=1e-9)


def test_segment_report_empty_records_error():
    with pytest.raises(ValueError):
        segment_report([], {}, "m", AblationConfig())


# --- ablation ---------------------------------------------------------------------


def test_canonical_grid_shape():
    grid = canonical_grid()
    assert [c.name for c in grid] == [
        "na/r_i", "c/r_i", "c_t/r_i", "c_t_h/r_i", "c_t_h_prime/r_i", "c_t_h_prime/o",
    ]
    gbdt_grid = canonical_grid(EventFeatures.C_T_H)
    assert gbdt_grid[-1].name == "c_t_h/o"


def test_run_ablation_order_and_absent_rows(small_config, tmp_path):
    # The ablate stage lists each model's cells in grid order, every row under its
    # model's name; a cell the model cannot run keeps one row with empty metrics.
    config = replace(
        small_config, output_dir=tmp_path / "out", cache_dir=None,
        test_range=DateRange(date(2021, 7, 1), date(2021, 7, 14)),
        ablate_models=("llm", "gbdt"), gbdt=GbdtParams(n_trees=5),
    )
    run_pipeline(config, STAGES)
    with open(artifact_path(config, "ablation_report"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = [key for key, _ in groupby((r["model"], r["ablation"]) for r in rows)]
    grids = {"llm": EventFeatures.C_T_H_PRIME, "gbdt": EventFeatures.C_T_H}
    assert cells == [
        (model_name, ablation.name)
        for model_name, full_event in grids.items()
        for ablation in canonical_grid(full_event)
    ]
    absent = [(r["model"], r["ablation"]) for r in rows if r["n"] == ""]
    assert absent == [("gbdt", "c_t_h_prime/r_i")]


# --- CSV writers -------------------------------------------------------------------


def test_report_csv_includes_absent_rows(tmp_path):
    records = _records(4)
    calendar = _calendar([r.date for r in records], {records[0].date})
    report = segment_report(records, calendar, "llm", AblationConfig())
    path = tmp_path / "report.csv"
    write_report_csv([report], path)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["model"] == "llm"
    assert parsed[0]["segment"] == "all"
    segments = {r["segment"] for r in parsed if r["model"] == "llm"}
    assert segments == {"all", "event", "non_event", "all_pickup", "all_dropoff"}

    rows = [
        AblationRow("llm", report.ablation, report),
        AblationRow("gbdt", AblationConfig(EventFeatures.C_T_H_PRIME, DemandFeatures.R_I), None),
    ]
    path = tmp_path / "ablation_report.csv"
    write_ablation_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["model"] == "llm"
    assert parsed[0]["segment"] == "all"
    segments = {r["segment"] for r in parsed if r["model"] == "llm"}
    assert segments == {"all", "event", "non_event"}
    absent = [r for r in parsed if r["model"] == "gbdt"]
    assert len(absent) == 1 and absent[0]["rmse"] == ""


def test_plot_csv_shape(tmp_path):
    records = _records(3)
    calendar = _calendar([r.date for r in records], {records[1].date})
    path = tmp_path / "plot.csv"
    write_plot_csv(records, calendar, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["is_event_day"] for r in rows] == ["0", "1", "0"]
    assert rows[0]["date"] == records[0].date.isoformat()
    assert float(rows[0]["pred_out"]) == pytest.approx(records[0].pred.outflow, abs=1e-6)
