"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The published benchmark numbers themselves are not reproducible offline (they
came from a live proprietary model over the full city dataset), so acceptance
rests on oracle equivalence, property suites, determinism, and the planted-
effect synthetic experiment. Criterion 9 (live smoke) runs only when
MPE_LIVE_SMOKE=1 and LLM_API_KEY are set.
"""

import csv
import hashlib
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import date, datetime, time as time_of_day, timedelta

import numpy as np
import pytest

from mpe.decomposition import BaselineConfig, Flows, decompose, weekday_baseline
from mpe.errors import MalformedReplyError
from mpe.events import DayEvents, EventRecord
from mpe.gateway import CachingBackend, ScriptedBackend, read_store
from mpe.geo import GeoPoint
from mpe.metrics import compute_metrics
from mpe.baselines import GbdtParams, fit_gbdt, fit_linear, predict_gbdt
from mpe.parsing import parse_formatted_event, parse_prediction
from mpe.pipeline import (
    PipelineConfig,
    artifact_path,
    run_pipeline,
    run_stage,
)
from mpe.prompts import (
    AblationConfig,
    DemandFeatures,
    EventFeatures,
    build_event_format_prompt,
    build_prediction_prompt,
)
from mpe.synthetic import generate_files
from mpe.trips import (
    DailyDemand,
    DateRange,
    TripRecord,
    VenueConfig,
    aggregate_daily_demand,
)

import oracles
from conftest import SNAPSHOT_DIR
from prompt_fixtures import (
    NO_DESCRIPTION_EVENT,
    TARGET_BASELINE,
    build_snapshot_target,
    build_snapshot_window,
)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.1f}s)", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence", 5.0):
        m = compute_metrics([100.0, 200.0], [110.0, 190.0])
        assert m.mae == 10.0 and m.rmse == 10.0
        assert m.mape == pytest.approx(0.075, abs=1e-15)
        assert m.r2 == pytest.approx(0.96, abs=1e-15)

        rng = random.Random(20240701)
        for _ in range(1000):
            n = rng.randrange(1, 60)
            y = [rng.uniform(0, 2000) for _ in range(n)]
            p = [rng.uniform(0, 2000) for _ in range(n)]
            if rng.random() < 0.15:
                y[rng.randrange(n)] = 0.0
            ours = compute_metrics(y, p)
            oracle = oracles.metrics_brute_force(y, p)
            assert abs(ours.rmse - oracle["rmse"]) < 1e-9
            assert abs(ours.mae - oracle["mae"]) < 1e-9
            if oracle["mape"] is None:
                assert ours.mape is None
            else:
                assert abs(ours.mape - oracle["mape"]) < 1e-9
            if oracle["r2"] is None:
                assert ours.r2 is None
            else:
                assert abs(ours.r2 - oracle["r2"]) < 1e-9


def test_criterion_2_decomposition_laws():
    with criterion(2, "decomposition laws", 10.0):
        rng = random.Random(7)
        day = date(2014, 7, 25)
        for _ in range(10_000):
            actual = DailyDemand(day, rng.randrange(0, 200_000), rng.randrange(0, 200_000))
            baseline = Flows(rng.uniform(0, 200_000), rng.uniform(0, 200_000))
            decomposition = decompose(actual, baseline)
            expected = Flows(float(actual.outflow), float(actual.inflow))
            assert oracles.recompose(decomposition) == expected

        for _ in range(100):
            n = rng.randrange(40, 100)
            history = {}
            for i in range(n):
                d = day - timedelta(days=i + 1)
                history[d] = DailyDemand(d, rng.randrange(600), rng.randrange(400))
            calendar = {
                d: DayEvents(d, (EventRecord("E", None, d, time_of_day(19), time_of_day(22)),))
                for d in history if rng.random() < 0.25
            }
            config = BaselineConfig(min_samples=rng.choice([1, 2, 3]))
            before = weekday_baseline(history, calendar, day, config)
            polluted = dict(history)
            for offset in range(0, 14):
                future = day + timedelta(days=offset)
                polluted[future] = DailyDemand(future, 99_999, 99_999)
            assert weekday_baseline(polluted, calendar, day, config) == before


def test_criterion_3_parser_robustness():
    with criterion(3, "parser robustness", 10.0):
        result = parse_prediction(
            "[pickup] 562 [dropoff] 353 [reasoning] The event is a popular pop "
            "music concert by Katy Perry.",
            date(2014, 7, 25),
        )
        assert (result.pickup, result.dropoff) == (562, 353)
        result = parse_prediction(
            "[pickup] 850 [dropoff] 600 [reasoning] First, we note that the event "
            "is an NBA All-Star Event.",
            date(2015, 2, 14),
        )
        assert (result.pickup, result.dropoff) == (850, 600)
        formatted = parse_formatted_event(
            "[Category] NBA Basketball Game [Summary] A popular match between the "
            "Brooklyn Nets and Dallas Mavericks.",
            NO_DESCRIPTION_EVENT,
        )
        assert formatted.category == "NBA Basketball Game"

        rng = random.Random(3)
        snippets = ["[pickup]", "[dropoff]", "[reasoning]", "[Category]", "[Summary]",
                    "562", "-3", "1,024", " ", "\n"]
        for i in range(10_000):
            if i % 2 == 0:
                blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
                text = blob.decode("utf-8", errors="replace")
            else:
                text = "".join(rng.choices(snippets, k=rng.randrange(0, 12)))
            for parse in (
                lambda t: parse_prediction(t, date(2014, 7, 25)),
                lambda t: parse_formatted_event(t, NO_DESCRIPTION_EVENT),
            ):
                try:
                    parse(text)
                except MalformedReplyError:
                    pass  # typed failure is the only acceptable outcome


def test_criterion_4_prompt_golden_snapshots():
    with criterion(4, "prompt golden snapshots", 2.0):
        cases = {
            "prediction_c_t_h_prime_r_i.txt": AblationConfig(),
            "prediction_na_r_i.txt": AblationConfig(EventFeatures.NA, DemandFeatures.R_I),
            "prediction_c_t_o.txt": AblationConfig(EventFeatures.C_T, DemandFeatures.O),
        }
        for name, ablation in cases.items():
            window = build_snapshot_window(ablation)
            target = build_snapshot_target(ablation)
            request = build_prediction_prompt(window, target, TARGET_BASELINE, ablation)
            assert request.messages[0].content == (SNAPSHOT_DIR / name).read_text(), name
        request = build_event_format_prompt(NO_DESCRIPTION_EVENT)
        expected = (SNAPSHOT_DIR / "event_format_no_description.txt").read_text()
        assert request.messages[0].content == expected

        full = (SNAPSHOT_DIR / "prediction_c_t_h_prime_r_i.txt").read_text()
        history = full.split("History:\n")[1].split("\n\nNext day:")[0]
        assert len(history.splitlines()) == 28

        na_tokens = oracles.word_tokens((SNAPSHOT_DIR / "prediction_na_r_i.txt").read_text())
        assert "event" not in na_tokens and "events" not in na_tokens


@pytest.fixture(scope="module")
def bundled_dataset(tmp_path_factory):
    """The bundled synthetic dataset for the end-to-end determinism check."""
    root = tmp_path_factory.mktemp("acceptance_e2e")
    generate_files(
        root,
        DateRange(date(2021, 1, 4), date(2021, 8, 15)),
        train_end=date(2021, 6, 30),
    )
    return root


def test_criterion_5_deterministic_end_to_end(bundled_dataset):
    with criterion(5, "deterministic end-to-end with scripted mock", 60.0):
        base = PipelineConfig.from_file(bundled_dataset / "config.json")

        # Materialize a digest-keyed mock script by recording one heuristic
        # run through the cache, then replay it through the scripted backend.
        seed_config = replace(
            base,
            output_dir=bundled_dataset / "seed_out",
            cache_dir=bundled_dataset / "seed_cache",
        )
        run_pipeline(seed_config)
        script = {}
        for _, digest, _, response in read_store(bundled_dataset / "seed_cache"):
            script[digest] = response.content
        script_path = bundled_dataset / "mock_script.json"
        script_path.write_text(json.dumps(script, sort_keys=True))

        scripted = ScriptedBackend(script)
        cache_dir = bundled_dataset / "mock_cache"
        backend = CachingBackend(scripted, cache_dir)
        run_a = replace(base, output_dir=bundled_dataset / "out_a",
                        backend_kind="mock", mock_script=script_path, cache_dir=cache_dir)
        run_b = replace(base, output_dir=bundled_dataset / "out_b",
                        backend_kind="mock", mock_script=script_path, cache_dir=cache_dir)
        results_a = run_pipeline(run_a, backend=backend)
        calls_after_first = scripted.call_count
        run_pipeline(run_b, backend=backend)

        # with every prompt scripted, no prediction ever falls back
        predict_stats = {r.stage: r.stats for r in results_a}["predict"]
        assert predict_stats["fallback_rate"] == 0.0

        # one backend call per unique prompt, verified through the cache
        unique_prompts = len(script)
        cached_entries = len(list(read_store(cache_dir)))
        assert calls_after_first == unique_prompts == cached_entries
        assert scripted.call_count == calls_after_first  # second run fully cached

        for name in ("report.csv", "plot_data.csv", "predictions.csv",
                     "decomposition.csv", "daily_demand.csv", "summary.txt",
                     "formatted_events.json", "predictions.jsonl"):
            a = hashlib.sha256((run_a.output_dir / name).read_bytes()).hexdigest()
            b = hashlib.sha256((run_b.output_dir / name).read_bytes()).hexdigest()
            assert a == b, f"{name} differs between identical runs"

        # causality audit: no prompt consumed data dated at/after its target
        details = (run_a.output_dir / "predictions.jsonl").read_text().splitlines()
        by_digest = {}
        for _, digest, request, _ in read_store(cache_dir):
            by_digest[digest] = request
        import re as _re
        for line in details:
            doc = json.loads(line)
            target = date.fromisoformat(doc["date"])
            prompt = "\n".join(m["content"] for m in by_digest[doc["request_digest"]]["messages"])
            for found in _re.findall(r"\d{4}-\d{2}-\d{2}", prompt):
                assert date.fromisoformat(found) <= target


@pytest.fixture(scope="module")
def planted_two_year(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_planted")
    generate_files(
        root,
        DateRange(date(2021, 1, 4), date(2022, 12, 31)),
        train_end=date(2021, 12, 31),
    )
    return root


def test_criterion_6_planted_effect_experiment(planted_two_year):
    with criterion(6, "planted-effect ablation experiment", 120.0):
        truth = oracles.read_truth_csv(planted_two_year / "truth.csv")
        rows = [(t.date, t.outflow, t.inflow, t.base_out, t.base_in, t.categories)
                for t in truth]
        mae_blind, mae_informed = oracles.planted_effect_bounds(rows)
        assert 1 - mae_informed / mae_blind >= 0.30  # fixture design target

        # No assertion reads the response cache, so none is written.
        config = replace(
            PipelineConfig.from_file(planted_two_year / "config.json"), cache_dir=None
        )
        for stage in ("ingest", "format_events", "decompose", "ablate"):
            run_stage(stage, config)

        mae = {}
        with open(artifact_path(config, "ablation_report"), newline="") as fh:
            for row in csv.DictReader(fh):
                if row["model"] == "llm" and row["segment"] == "event":
                    mae[row["ablation"]] = float(row["mae"])
        assert set(mae) >= {"na/r_i", "c_t_h_prime/r_i", "c_t_h_prime/o"}

        reduction = 1 - mae["c_t_h_prime/r_i"] / mae["na/r_i"]
        print(f"  event-day MAE: NA={mae['na/r_i']:.2f} "
              f"full={mae['c_t_h_prime/r_i']:.2f} reduction={reduction:.1%}")
        assert reduction >= 0.30

        # r+i must not underperform o by more than 5% on event days
        assert mae["c_t_h_prime/r_i"] <= 1.05 * mae["c_t_h_prime/o"]


def test_criterion_7_baseline_numerics():
    with criterion(7, "baseline numerics", 60.0):
        model = fit_linear([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], ridge_lambda=0.0)
        assert abs(model.weights[0] - 2.0) < 1e-6 and abs(model.intercept) < 1e-6
        model = fit_linear([[0.0], [1.0]], [1.0, 3.0], ridge_lambda=0.0)
        assert abs(model.weights[0] - 2.0) < 1e-6 and abs(model.intercept - 1.0) < 1e-6

        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(12, 50))
            X = rng.normal(size=(n, int(rng.integers(1, 5))))
            y = rng.normal(size=n)
            # fit_gbdt asserts non-increasing training MSE on every round
            fit_gbdt(X, y, GbdtParams(
                n_trees=25, max_depth=2,
                learning_rate=float(rng.choice([0.05, 0.3, 1.0])), min_leaf=2,
            ))

        X = rng.uniform(-2, 2, size=(200, 5))
        y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * X[:, 3] ** 2
        y += rng.normal(0, 0.05, 200)
        model = fit_gbdt(X, y)
        preds = np.array([predict_gbdt(model, row) for row in X])
        r2 = 1 - float(((y - preds) ** 2).sum()) / float(((y - y.mean()) ** 2).sum())
        assert r2 > 0.9


def test_criterion_8_ingestion_correctness():
    with criterion(8, "ingestion correctness", 10.0):
        venue = VenueConfig("Acceptance Arena", GeoPoint(40.7, -73.95), 220.0)
        rng = random.Random(88)
        start = date(2021, 3, 1)
        trips = []
        for _ in range(1000):
            offset = timedelta(days=rng.randrange(10), minutes=rng.randrange(1440))
            pickup_dt = datetime.combine(start, time_of_day(0, 0)) + offset
            dropoff_dt = pickup_dt + timedelta(minutes=rng.randrange(5, 90))
            trips.append(TripRecord(
                pickup_dt, dropoff_dt,
                40.7 + rng.uniform(-0.008, 0.008), -73.95 + rng.uniform(-0.008, 0.008),
                40.7 + rng.uniform(-0.008, 0.008), -73.95 + rng.uniform(-0.008, 0.008),
            ))
        date_range = DateRange(start, start + timedelta(days=9))
        series = aggregate_daily_demand(trips, venue, date_range)
        expected = oracles.brute_force_daily_counts(
            trips, 40.7, -73.95, 220.0, date_range.start, date_range.end
        )
        for row in series:
            assert [row.outflow, row.inflow] == expected[row.date]

        for _ in range(1000):
            a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
            ours = oracles.haversine_m(a, b)
            reference = oracles.haversine_atan2(a.lat, a.lon, b.lat, b.lon)
            assert ours == pytest.approx(reference, rel=0.005, abs=1e-6)


@pytest.mark.skipif(
    not (os.environ.get("MPE_LIVE_SMOKE") == "1" and os.environ.get("LLM_API_KEY")),
    reason="live smoke test: set MPE_LIVE_SMOKE=1 and LLM_API_KEY (excluded from CI)",
)
def test_criterion_9_live_smoke(tmp_path):
    with criterion(9, "live smoke test", 600.0):
        train_end = date(2021, 4, 30)
        doc = generate_files(
            tmp_path / "data", DateRange(date(2021, 1, 4), train_end + timedelta(days=5)),
            train_end,
        )
        config = replace(PipelineConfig.from_dict(doc), backend_kind="live")
        assert config.test_range.n_days == 5
        results = {r.stage: r for r in run_pipeline(config)}
        assert results["predict"].stats["fallback_rate"] <= 0.20
