"""Orchestration: config, stage dependencies, prediction flow, manifest."""

import concurrent.futures
import csv
import errno
import hashlib
import json
import os
import re
import shutil
import sys
import threading
from dataclasses import fields, replace
from datetime import date, timedelta
from pathlib import Path
from time import sleep, time_ns

import pytest

from mpe import gateway, ioutil, pipeline, prompts
from mpe.baselines import GbdtParams
from mpe.config import encode
from mpe.decomposition import BaselineConfig, read_decomposition_csv
from mpe.errors import (
    ConfigError,
    FallbackBudgetError,
    MissingScriptError,
    PreconditionError,
    StageError,
    TransportError,
)
from mpe.events import parse_event_records
from mpe.gateway import BackendConfig, CachingBackend, ScriptedBackend, read_store
from mpe.geo import GeoPoint
from mpe.heuristic import HeuristicBackend
from mpe.pipeline import (
    ARTIFACTS,
    STAGES,
    PipelineConfig,
    artifact_path,
    build_backend,
    load_manifest,
    plan_pipeline,
    run_pipeline,
    run_stage,
    _STAGE_DEFS,
)
from mpe.prompts import DEFAULT_TEMPLATES, AblationConfig, DemandFeatures, EventFeatures
from mpe.trips import DateRange, VenueConfig

VENUE = VenueConfig("Test Arena", GeoPoint(40.7, -73.95))


def _minimal_config(tmp_path, **overrides) -> PipelineConfig:
    defaults = dict(
        venue=VENUE,
        trip_source=tmp_path / "trips.csv",
        event_source=tmp_path / "events.json",
        train_range=DateRange(date(2014, 1, 6), date(2014, 6, 30)),
        test_range=DateRange(date(2014, 7, 1), date(2014, 7, 31)),
        output_dir=tmp_path / "out",
        backend_kind="heuristic",
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


# --- configuration ---------------------------------------------------------------


def test_train_must_end_before_test(tmp_path):
    with pytest.raises(ConfigError):
        _minimal_config(
            tmp_path,
            train_range=DateRange(date(2014, 1, 6), date(2014, 7, 1)),
            test_range=DateRange(date(2014, 7, 1), date(2014, 7, 31)),
        )


def test_bad_backend_kind(tmp_path):
    with pytest.raises(ConfigError):
        _minimal_config(tmp_path, backend_kind="oracle")


def test_config_round_trips_through_dict(small_config):
    doc = small_config.to_dict()
    again = PipelineConfig.from_dict(doc)
    assert again.to_dict() == doc


def test_config_from_file_resolves_relative_paths(tmp_path, small_config):
    doc = small_config.to_dict()
    doc["trip_source"] = "relative/trips.csv"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    loaded = PipelineConfig.from_file(path)
    assert loaded.trip_source == tmp_path / "relative" / "trips.csv"


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(empty)


def test_mock_backend_requires_script(tmp_path):
    config = _minimal_config(tmp_path, backend_kind="mock")
    with pytest.raises(ConfigError):
        build_backend(config)


def test_cache_backend_kind_is_rejected_naming_live_and_cache_dir(tmp_path, small_config):
    """`cache` was `live` with a required `cache_dir`; `live` now always
    keeps its replies."""
    doc = dict(small_config.to_dict(), backend_kind="cache")
    for make in (lambda: _minimal_config(tmp_path, backend_kind="cache"),
                 lambda: PipelineConfig.from_dict(doc)):
        with pytest.raises(ConfigError, match="'live'.*cache_dir"):
            make()


# --- stage dependencies -------------------------------------------------------------


def test_predict_before_decompose_names_the_missing_stage(small_config, tmp_path):
    config = replace(small_config, output_dir=tmp_path / "fresh")
    run_stage("ingest", config)
    with pytest.raises(PreconditionError) as info:
        run_stage("predict", config)
    assert info.value.required_stage == "decompose"
    assert "decompose" in str(info.value)


def test_missing_source_is_config_error(small_config, tmp_path):
    config = replace(
        small_config,
        trip_source=tmp_path / "nope.csv",
        output_dir=tmp_path / "out",
    )
    with pytest.raises(ConfigError):
        run_stage("ingest", config)


def test_unknown_stage_rejected(small_config, tmp_path):
    with pytest.raises(ConfigError):
        run_stage("transmogrify", small_config)
    # Every name is checked before the first stage runs.
    config = replace(small_config, output_dir=tmp_path / "out")
    with pytest.raises(ConfigError, match="unknown stage: transmogrify"):
        run_pipeline(config, ["ingest", "transmogrify"])
    with pytest.raises(ConfigError, match="unknown stage: transmogrify"):
        plan_pipeline(config, ["ingest", "transmogrify"])
    assert not any(artifact_path(config, name).exists() for name in ARTIFACTS)
    assert not (config.output_dir / "manifest.json").exists()


# --- the predict stage, one target day -------------------------------------------------


TARGET = date(2021, 7, 2)


@pytest.fixture(scope="module")
def decomposed(small_config, tmp_path_factory) -> PipelineConfig:
    """`ingest` and `decompose` run for a test range of the one day TARGET."""
    config = replace(
        small_config,
        output_dir=tmp_path_factory.mktemp("decomposed") / "out",
        test_range=DateRange(TARGET, TARGET),
        ablation=AblationConfig(EventFeatures.NA, DemandFeatures.R_I),
        cache_dir=None,
    )
    run_stage("ingest", config)
    run_stage("decompose", config)
    return config


def _predict(decomposed, tmp_path, backend):
    """Run `predict` on a copy of the decomposed output directory."""
    config = replace(decomposed, output_dir=tmp_path / "out")
    shutil.copytree(decomposed.output_dir, config.output_dir)
    result = run_stage("predict", config, backend)
    detail = json.loads(artifact_path(config, "predictions_detail").read_text())
    return config, result.stats, detail


def test_predict_writes_a_scripted_reply(decomposed, tmp_path):
    backend = ScriptedBackend({
        f"Next day: {TARGET.isoformat()}":
            "[pickup] 562 [dropoff] 353 [reasoning] A concert raises demand.",
    })
    config, stats, detail = _predict(decomposed, tmp_path, backend)
    assert (detail["date"], detail["pickup"], detail["dropoff"]) == ("2021-07-02", 562, 353)
    assert detail["fallback"] is False and stats["fallbacks"] == 0
    assert artifact_path(config, "predictions").read_text().splitlines()[1:] == [
        f"2021-07-02,562,353,{pipeline.LLM_MODEL_NAME}"
    ]


class _FlakyBackend(ScriptedBackend):
    """First reply malformed; the retry (which carries the reminder) succeeds."""

    def __init__(self):
        super().__init__({})
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        if len(self.requests) == 1:
            return self._reply(request, "sorry, no tags")
        return self._reply(request, "[pickup] 400 [dropoff] 250 [reasoning] fixed")


def test_malformed_reply_reprompts_once_then_succeeds(decomposed, tmp_path):
    backend = _FlakyBackend()
    config, stats, detail = _predict(decomposed, tmp_path, backend)
    assert (detail["pickup"], detail["dropoff"], detail["fallback"]) == (400, 250, False)
    assert len(backend.requests) == 2 and stats["parse_failures"] == 1
    retry = backend.requests[1]
    assert retry.messages[:-1] == backend.requests[0].messages
    assert retry.messages[-1].content.startswith("Reminder: reply in exactly this form")


def test_two_malformed_replies_fall_back_to_baseline(decomposed, tmp_path):
    backend = ScriptedBackend({"Task: predict the daily taxi travel demand": "still no tags"})
    config, stats, detail = _predict(decomposed, tmp_path, backend)
    (row,) = [r for r in read_decomposition_csv(artifact_path(config, "decomposition"))
              if r.date == TARGET]
    assert detail["reasoning"] == "fallback: baseline" and detail["fallback"] is True
    assert (detail["pickup"], detail["dropoff"]) == (
        prompts.round_half_up(row.baseline.outflow), prompts.round_half_up(row.baseline.inflow)
    )
    assert backend.call_count == 2 and stats["fallbacks"] == 1


def test_cache_makes_identical_predictions_single_call(decomposed, tmp_path):
    inner = ScriptedBackend({
        f"Next day: {TARGET.isoformat()}": "[pickup] 331 [dropoff] 207 [reasoning] quiet day",
    })
    backend = CachingBackend(inner, tmp_path / "cache")
    config, stats, _ = _predict(decomposed, tmp_path, backend)
    first = artifact_path(config, "predictions").read_bytes()
    artifact_path(config, "predictions").unlink()
    again = run_stage("predict", config, backend)
    assert not again.skipped and again.stats["backend_calls"] == 0
    assert artifact_path(config, "predictions").read_bytes() == first
    assert stats["backend_calls"] == inner.call_count == 1
    assert backend.hits == 1


# --- stages on the synthetic dataset --------------------------------------------------


@pytest.fixture(scope="module")
def pipeline_run(small_config):
    results = run_pipeline(small_config)
    return small_config, {r.stage: r for r in results}


def test_full_pipeline_stages_produce_artifacts(pipeline_run):
    config, results = pipeline_run
    for name in ("daily_demand", "decomposition", "predictions", "report", "summary"):
        assert artifact_path(config, name).exists()
    assert results["predict"].stats["fallbacks"] == 0


GOLDEN_DIGESTS = Path(__file__).parent / "golden_digests.json"
# The artifacts that no BLAS call feeds, so their bytes hold on any machine.
GOLDEN_ARTIFACTS = (
    "daily_demand", "ingest_rejects", "formatted_events", "decomposition", "predictions",
    "predictions_detail", "parse_failures", "predictions_historical_average",
    "predictions_gbdt", "model_gbdt_out", "model_gbdt_in",
)


def test_artifacts_match_golden_digests(pipeline_run):
    config, _ = pipeline_run
    digests = {
        ARTIFACTS[name]: hashlib.sha256(artifact_path(config, name).read_bytes()).hexdigest()
        for name in GOLDEN_ARTIFACTS
    }
    if os.environ.get("MPE_UPDATE_SNAPSHOTS") == "1":
        GOLDEN_DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden digests updated")
    assert digests == json.loads(GOLDEN_DIGESTS.read_text())


@pytest.mark.parametrize("concurrency", [1, 2])
def test_evaluate_writes_the_same_bytes_with_gbdt_workers_or_without(
    pipeline_run, tmp_path, pools, concurrency
):
    config, _ = pipeline_run
    copy = replace(config, output_dir=tmp_path / "out", concurrency=concurrency)
    shutil.copytree(config.output_dir, copy.output_dir)
    (copy.output_dir / "manifest.json").unlink()
    for name in _STAGE_DEFS["evaluate"].writes:
        artifact_path(copy, name).unlink()
    assert not run_stage("evaluate", copy).skipped
    assert len(pools) == (concurrency > 1)
    for name in _STAGE_DEFS["evaluate"].writes:
        assert artifact_path(copy, name).read_bytes() == \
            artifact_path(config, name).read_bytes(), name
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    for name in ("predictions_gbdt", "model_gbdt_out", "model_gbdt_in"):
        digest = hashlib.sha256(artifact_path(copy, name).read_bytes()).hexdigest()
        assert digest == golden[ARTIFACTS[name]], name


def test_classical_models_persisted(pipeline_run):
    config, _ = pipeline_run
    for name in ("gbdt_out.json", "gbdt_in.json", "linear_out.json", "linear_in.json"):
        assert (config.output_dir / "models" / name).exists()


def test_non_event_days_deviate_less_than_event_days(pipeline_run):
    config, _ = pipeline_run
    from mpe.decomposition import read_decomposition_csv
    from mpe.events import day_events_index

    catalog = parse_event_records(Path(config.event_source).read_text())
    calendar = day_events_index(catalog, config.full_range)
    quiet, busy = [], []
    for row in read_decomposition_csv(artifact_path(config, "decomposition")):
        sink = busy if calendar[row.date].is_event_day else quiet
        sink.append(abs(row.deviation.outflow))
        sink.append(abs(row.deviation.inflow))
    assert sum(quiet) / len(quiet) <= sum(busy) / len(busy)


def test_format_events_covers_every_unique_event(pipeline_run):
    config, results = pipeline_run
    entries = json.loads(artifact_path(config, "formatted_events").read_text())
    assert len(entries) == results["format_events"].stats["unique"]
    assert all(entry["category"] and entry["summary"] for entry in entries)
    keys = {(e["title"], e["description"]) for e in entries}
    assert len(keys) == len(entries)


def test_ingest_rejects_recorded(pipeline_run):
    config, results = pipeline_run
    lines = artifact_path(config, "ingest_rejects").read_text().splitlines()
    reasons = {json.loads(line)["reason"] for line in lines}
    assert reasons == {"bad timestamp", "null-island sentinel", "trip longer than 12 hours"}
    assert results["ingest"].stats["rejects"] == 3


def test_ingested_demand_matches_planted_truth(pipeline_run, small_dataset_dir):
    config, _ = pipeline_run
    from oracles import read_truth_csv
    from mpe.trips import read_daily_demand_csv

    truth = {t.date: t for t in read_truth_csv(small_dataset_dir / "truth.csv")}
    for row in read_daily_demand_csv(artifact_path(config, "daily_demand")):
        assert (row.outflow, row.inflow) == (truth[row.date].outflow, truth[row.date].inflow)


def test_rerun_skips_everything(pipeline_run):
    config, _ = pipeline_run
    again = run_pipeline(config)
    assert all(r.skipped for r in again)


def test_manifest_records_digests_and_backend(pipeline_run):
    config, _ = pipeline_run
    manifest = load_manifest(config)
    assert manifest["backend"] == "heuristic"
    assert set(manifest) == {"backend", "files", "stages"}
    predict_entry = manifest["stages"]["predict"]
    for digest in predict_entry["inputs"].values():
        assert len(digest) == 64
    assert set(predict_entry["outputs"]) == {"predictions", "predictions_detail", "parse_failures"}
    assert artifact_path(config, "predictions").as_posix() in {
        artifact_path(config, key).as_posix() for key in predict_entry["outputs"]
    }


@pytest.mark.parametrize("text", [
    "[]", "null", '{"stages": []}', '{"stages": {"ingest": 1}}',
])
def test_misshapen_manifest_reads_as_no_stages(small_config, tmp_path, text):
    config = replace(small_config, output_dir=tmp_path / "out")
    config.output_dir.mkdir()
    (config.output_dir / "manifest.json").write_text(text)
    assert load_manifest(config) == {"stages": {}}
    assert not run_stage("ingest", config).skipped
    assert run_stage("ingest", config).skipped


def test_plan_reports_skips_after_a_run(pipeline_run):
    config, _ = pipeline_run
    plans = plan_pipeline(config, pipeline.DEFAULT_RUN_STAGES)
    assert [p["stage"] for p in plans] == list(pipeline.DEFAULT_RUN_STAGES)
    assert all(p["would_skip"] and p["blocked"] == [] for p in plans)


def test_predictions_are_in_date_order(pipeline_run):
    config, _ = pipeline_run
    rows = artifact_path(config, "predictions").read_text().splitlines()[1:]
    dates = [row.split(",")[0] for row in rows]
    assert dates == sorted(dates)
    assert dates[0] == config.test_range.start.isoformat()


def test_fallback_budget_exceeded_raises(small_dataset_dir, small_config, tmp_path):
    script = tmp_path / "garbage.json"
    script.write_text(json.dumps({
        "Task: predict the daily taxi travel demand": "never a tagged reply",
        "Format the following public event record.":
            "[Category] Live Event [Summary] A show.",
    }))
    config = replace(
        small_config,
        output_dir=tmp_path / "out",
        backend_kind="mock",
        mock_script=script,
        cache_dir=None,
        test_range=DateRange(date(2021, 7, 1), date(2021, 7, 3)),
        fallback_budget=0.5,
        ablation=AblationConfig(EventFeatures.NA, DemandFeatures.R_I),
    )
    run_stage("ingest", config)
    run_stage("decompose", config)
    with pytest.raises(FallbackBudgetError):
        run_stage("predict", config)
    # artifacts are still written before the budget gate fires
    failures = artifact_path(config, "parse_failures").read_text().splitlines()
    assert len(failures) == 6  # two per day over three days
    doc = json.loads(failures[0])
    assert re.fullmatch("[0-9a-f]{64}", doc["request_digest"])
    assert doc == {
        "date": "2021-07-01",
        "request_digest": doc["request_digest"],
        "raw_reply": "never a tagged reply",
        "reason": "no [pickup] tag in reply",
    }


def test_unregistered_mock_prompt_is_backend_error(small_config, tmp_path):
    script = tmp_path / "empty.json"
    script.write_text("{}")
    config = replace(
        small_config,
        output_dir=tmp_path / "out",
        backend_kind="mock",
        mock_script=script,
        cache_dir=None,
        test_range=DateRange(date(2021, 7, 1), date(2021, 7, 2)),
        ablation=AblationConfig(EventFeatures.NA, DemandFeatures.R_I),
        concurrency=1,
    )
    run_stage("ingest", config)
    run_stage("decompose", config)
    with pytest.raises(MissingScriptError):
        run_stage("predict", config)


class _SlowOnBackend(ScriptedBackend):
    """Holds back the replies to prompts that contain `slow`."""

    waits = True

    def __init__(self, script, slow: str):
        super().__init__(script)
        self.slow = slow

    def complete(self, request):
        if self.slow in request.text():
            sleep(0.2)
        return super().complete(request)


def test_first_malformed_event_in_sorted_order_names_the_format_error(small_config, tmp_path):
    events = tmp_path / "events.json"
    events.write_text(json.dumps([
        {"title": title, "description": None, "date": "2021-07-02",
         "start_time": "19:00", "end_time": "22:00"}
        for title in ("Beta Night", "Gamma Night", "Alpha Night")
    ]))
    config = _fresh(small_config, tmp_path, event_source=events, concurrency=3)
    backend = _SlowOnBackend({
        "Alpha Night": "no tags",
        "Beta Night": "no tags either",
        "Gamma Night": "[Category] Live Event [Summary] A show.",
    }, slow="Alpha Night")  # so that Beta's second malformed reply comes first
    with pytest.raises(StageError, match="could not format event 'Alpha Night'"):
        run_stage("format_events", config, backend)
    assert not artifact_path(config, "formatted_events").exists()


def test_ablate_stage_is_deterministic_across_runs(pipeline_run, tmp_path):
    config, _ = pipeline_run
    first = replace(config, output_dir=tmp_path / "a")
    second = replace(config, output_dir=tmp_path / "b")
    for cfg in (first, second):
        for stage in ("ingest", "format_events", "decompose", "ablate"):
            run_stage(stage, cfg)
    report_a = artifact_path(first, "ablation_report").read_bytes()
    report_b = artifact_path(second, "ablation_report").read_bytes()
    assert report_a == report_b
    lines = report_a.decode().splitlines()
    assert len({line.split(",")[1] for line in lines[1:]}) == 6  # six grid configs


def test_baseline_config_from_dict_round_trip():
    config = BaselineConfig(lookback_weeks=6, min_samples=1)
    assert config.lookback_weeks == 6
    with pytest.raises(ValueError):
        BaselineConfig(lookback_weeks=0)


# --- the prediction loop ---------------------------------------------------------------

PRE_PREDICT = ("ingest", "format_events", "decompose")


def test_each_stage_renders_each_history_day_once_per_ablation(
    small_config, tmp_path, monkeypatch
):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config, PRE_PREDICT)
    rendered = []
    original = prompts.render_history_line

    def counting(day, ablation, *args, **kwargs):
        rendered.append((day.date, ablation))
        return original(day, ablation, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mpe" and getattr(module, "render_history_line", None) is original:
            monkeypatch.setattr(module, "render_history_line", counting)
    days = config.test_range.n_days + config.history_days - 1
    for stage, ablations in (("predict", 1), ("ablate", 6)):
        rendered.clear()
        assert not run_stage(stage, config).skipped
        assert len(rendered) == len(set(rendered)) == ablations * days, stage


class _SleepingBackend(HeuristicBackend):
    """Sleeps in each call, as a backend waiting on the network does."""

    waits = True

    def __init__(self):
        super().__init__()
        self.threads = set()
        self.in_flight = self.peak = 0
        self._flight = threading.Lock()

    def complete(self, request):
        with self._flight:
            self.threads.add(threading.get_ident())
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            sleep(0.05)
            return super().complete(request)
        finally:
            with self._flight:
                self.in_flight -= 1


def _unique_events(result, config):
    return result.stats["unique"]


def _target_days(result, config):
    return config.test_range.n_days


@pytest.mark.parametrize("stage, count, cached", [
    pytest.param("format_events", _unique_events, False, id="format_events"),
    pytest.param("predict", _target_days, False, id="predict"),
    pytest.param("format_events", _unique_events, True, id="format_events-cached"),
    pytest.param("predict", _target_days, True, id="predict-cached"),
])
def test_predict_keeps_concurrency_requests_in_flight(
    small_config, tmp_path, stage, count, cached
):
    config = _fresh(small_config, tmp_path, concurrency=3)
    run_pipeline(config, PRE_PREDICT)
    artifact_path(config, _STAGE_DEFS[stage].writes[0]).unlink(missing_ok=True)
    sleeping = _SleepingBackend()
    backend = CachingBackend(sleeping, tmp_path / "store") if cached else sleeping
    result = run_stage(stage, config, backend)
    assert sleeping.call_count == result.stats["backend_calls"] == count(result, config)
    assert sleeping.peak == len(sleeping.threads) == 3


LLM_STAGES = ("format_events", "predict", "ablate")


@pytest.fixture(scope="module")
def heuristic_script(small_config, tmp_path_factory) -> dict:
    """Digest -> the heuristic's reply, for every request of the LLM stages."""
    root = tmp_path_factory.mktemp("heuristic_script")
    config = _fresh(small_config, root, cache_dir=root / "store")
    run_pipeline(config, PRE_PREDICT + ("predict", "ablate"))
    return {digest: response.content for _, digest, _, response in read_store(root / "store")}


def _calling_threads(backend) -> list:
    """The id of the thread of each later call to `backend.complete`."""
    threads = []
    complete = backend.complete

    def recording(request):
        threads.append(threading.get_ident())
        return complete(request)

    backend.complete = recording
    return threads


@pytest.mark.parametrize("cached", [False, True], ids=["bare", "cached"])
@pytest.mark.parametrize("kind", ["heuristic", "mock"])
def test_in_process_backends_answer_on_the_stage_thread(
    small_config, tmp_path, heuristic_script, kind, cached
):
    config = _fresh(small_config, tmp_path, concurrency=3)
    run_pipeline(config, PRE_PREDICT)
    inner = HeuristicBackend() if kind == "heuristic" else ScriptedBackend(heuristic_script)
    backend = CachingBackend(inner, tmp_path / "store") if cached else inner
    outer, reached = _calling_threads(backend), _calling_threads(inner)
    for stage in LLM_STAGES:
        artifact_path(config, _STAGE_DEFS[stage].writes[0]).unlink(missing_ok=True)
        before = len(reached)
        assert not run_stage(stage, config, backend).skipped
        assert len(reached) > before, stage  # a fresh store: every call reaches the model
    assert set(outer) == set(reached) == {threading.get_ident()}


def test_one_worker_starts_no_thread_pool_even_for_a_backend_that_waits(
    small_config, tmp_path, monkeypatch
):
    config = _fresh(small_config, tmp_path, concurrency=1)
    run_pipeline(config, PRE_PREDICT)
    made = []
    real = concurrent.futures.ThreadPoolExecutor

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counting)
    backend = HeuristicBackend()
    backend.waits = True  # as a backend on the network says
    for stage in LLM_STAGES:
        artifact_path(config, _STAGE_DEFS[stage].writes[0]).unlink(missing_ok=True)
        assert not run_stage(stage, config, backend).skipped
    assert backend.call_count > 0 and made == []


def test_a_missing_scripted_day_stops_predict_at_its_own_call(small_config, tmp_path):
    config = _fresh(small_config, tmp_path, concurrency=3)
    run_pipeline(config, PRE_PREDICT)
    k = 3
    backend = ScriptedBackend({
        f"Next day: {config.test_range.start + timedelta(days=i)}":
            "[pickup] 400 [dropoff] 250 [reasoning] scripted"
        for i in range(k - 1)
    })
    with pytest.raises(MissingScriptError):
        run_stage("predict", config, backend)
    assert backend.call_count == k


def test_predict_serialises_each_request_once(small_config, tmp_path, monkeypatch):
    config = _fresh(small_config, tmp_path, cache_dir=tmp_path / "cache")
    run_pipeline(config, PRE_PREDICT)
    serialised = []
    original = gateway.canonical_serialization

    def counting(request):
        serialised.append(request)
        return original(request)

    monkeypatch.setattr(gateway, "canonical_serialization", counting)
    backend = build_backend(config)
    run_stage("predict", config, backend)
    assert len(serialised) == backend.hits + backend.misses == config.test_range.n_days


# --- per-stage invalidation -------------------------------------------------------------


def _fresh(small_config, tmp_path, **overrides) -> PipelineConfig:
    """A short, cache-free run of the small dataset in its own output directory."""
    defaults = dict(
        output_dir=tmp_path / "out",
        cache_dir=None,
        test_range=DateRange(date(2021, 7, 1), date(2021, 7, 14)),
        gbdt=GbdtParams(n_trees=20),
    )
    defaults.update(overrides)
    return replace(small_config, **defaults)


def _ran(results) -> set[str]:
    return {r.stage for r in results if not r.skipped}


def test_prediction_template_edit_reruns_predict(small_config, tmp_path):
    templates = tmp_path / "templates"
    templates.mkdir()
    prediction = templates / "prediction.txt"
    prediction.write_text(DEFAULT_TEMPLATES.prediction)
    config = _fresh(small_config, tmp_path, template_dir=templates)
    run_pipeline(config)
    detail = artifact_path(config, "predictions_detail").read_bytes()

    prediction.write_text(DEFAULT_TEMPLATES.prediction + "\n- Mind the weather.")
    ran = _ran(run_pipeline(config))
    assert "predict" in ran
    assert not ran & {"ingest", "format_events", "decompose"}
    assert artifact_path(config, "predictions_detail").read_bytes() != detail

    prediction.unlink()  # absent: the default wording applies again
    assert "predict" in _ran(run_pipeline(config))
    assert artifact_path(config, "predictions_detail").read_bytes() == detail


def test_event_format_template_edit_reruns_format_events_and_downstream(
    small_config, tmp_path
):
    templates = tmp_path / "templates"
    templates.mkdir()
    event_format = templates / "event_format.txt"
    event_format.write_text(DEFAULT_TEMPLATES.event_format)
    config = _fresh(small_config, tmp_path, template_dir=templates)
    run_pipeline(config)
    predictions = artifact_path(config, "predictions").read_bytes()

    event_format.write_text(
        DEFAULT_TEMPLATES.event_format.replace("Title: {title}", "Title: {title} (revised)")
    )
    ran = _ran(run_pipeline(config))
    assert {"format_events", "predict"} <= ran
    assert not ran & {"ingest", "decompose"}
    changed = artifact_path(config, "predictions").read_bytes() != predictions
    assert ("evaluate" in ran) == changed


def test_mock_script_edit_reruns_backend_stages(small_config, tmp_path):
    script = tmp_path / "script.json"

    def write_script(pickup):
        script.write_text(json.dumps({
            "Format the following public event record.":
                "[Category] Live Event [Summary] A show.",
            "Task: predict the daily taxi travel demand":
                f"[pickup] {pickup} [dropoff] 200 [reasoning] steady.",
        }))

    write_script(300)
    config = _fresh(small_config, tmp_path, backend_kind="mock", mock_script=script)
    run_pipeline(config)
    write_script(301)
    ran = _ran(run_pipeline(config))
    assert {"format_events", "predict", "evaluate", "report"} <= ran
    assert not ran & {"ingest", "decompose"}
    assert artifact_path(config, "predictions").read_text().splitlines()[1].startswith(
        "2021-07-01,301,200"
    )


def test_gbdt_change_reruns_evaluate_only(small_config, tmp_path):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config)
    ran = _ran(run_pipeline(replace(config, gbdt=GbdtParams(n_trees=10))))
    assert "evaluate" in ran
    assert not ran & {"ingest", "format_events", "decompose", "predict"}


def test_up_to_date_live_run_skips_without_an_api_key(small_config, tmp_path, monkeypatch):
    config = _fresh(small_config, tmp_path, backend_kind="live")
    run_pipeline(config, STAGES, HeuristicBackend())
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    assert _ran(run_pipeline(config, STAGES)) == set()


@pytest.fixture
def live_model(monkeypatch):
    """`live` answered in process: `HttpBackend` becomes a heuristic backend
    that records each request's digest and, once `budget` calls have been
    answered, fails every call, as an endpoint that went away does."""

    class Endpoint(HeuristicBackend):
        budget: int | None = None
        answered: list[str] = []
        lock = threading.Lock()

        def __init__(self, config):
            super().__init__()

        def complete(self, request):
            with self.lock:
                if self.budget is not None and len(self.answered) >= self.budget:
                    raise TransportError("connection refused")
                self.answered.append(request.digest)
            return super().complete(request)

    monkeypatch.setattr(pipeline, "HttpBackend", Endpoint)
    return Endpoint


def test_live_predict_resumes_from_the_replies_it_kept(small_config, tmp_path, live_model):
    whole = _fresh(small_config, tmp_path / "whole", backend_kind="live")
    run_pipeline(whole, PRE_PREDICT)
    n = run_stage("predict", whole).stats["backend_calls"]

    config = replace(whole, output_dir=tmp_path / "cut")
    run_pipeline(config, PRE_PREDICT)
    k = 5
    live_model.budget = len(live_model.answered) + k
    with pytest.raises(TransportError) as info:
        run_stage("predict", config)
    assert info.value.exit_code == 4
    live_model.budget = None
    assert run_stage("predict", config).stats["backend_calls"] == n - k
    assert artifact_path(config, "predictions").read_bytes() == \
        artifact_path(whole, "predictions").read_bytes()


def test_live_ablate_asks_nothing_predict_asked(small_config, tmp_path, live_model):
    config = _fresh(small_config, tmp_path, backend_kind="live")
    run_pipeline(config, (*PRE_PREDICT, "predict"))
    predicted = set(live_model.answered)
    before = len(live_model.answered)
    calls = run_stage("ablate", config).stats["backend_calls"]
    asked = live_model.answered[before:]
    assert calls == len(asked) > 0
    assert predicted.isdisjoint(asked)


def test_run_stage_closes_each_backend_it_builds(small_config, tmp_path, monkeypatch):
    closed = []

    class Closing(HeuristicBackend):
        def close(self):
            closed.append(self)

    class Refusing(ScriptedBackend):
        def close(self):
            closed.append(self)

    stages = ("ingest", "format_events", "decompose", "predict")
    monkeypatch.setattr(pipeline, "build_backend", lambda config: Closing())
    config = _fresh(small_config, tmp_path / "built")
    assert _ran(run_pipeline(config, stages)) == set(stages)
    assert len(closed) == len({id(b) for b in closed}) == 2  # format_events, predict
    assert _ran(run_pipeline(config, stages)) == set()  # builds nothing
    run_pipeline(_fresh(small_config, tmp_path / "given"), stages, Closing())
    assert len(closed) == 2  # a given backend is the caller's to close

    monkeypatch.setattr(pipeline, "build_backend", lambda config: Refusing({}))
    with pytest.raises(MissingScriptError):
        run_pipeline(_fresh(small_config, tmp_path / "refused"), stages)
    assert len(closed) == 3 and isinstance(closed[-1], Refusing)


def test_cache_dir_and_concurrency_changes_skip_every_stage(small_config, tmp_path):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config)
    for changed in (
        replace(config, cache_dir=tmp_path / "cache"),
        replace(config, concurrency=1),
    ):
        assert _ran(run_pipeline(changed)) == set()


# --- manifest saves ---------------------------------------------------------------------


@pytest.fixture
def renames(monkeypatch):
    """`(destination, whether it existed)` for each rename made through mpe.ioutil."""
    seen: list[tuple[Path, bool]] = []
    real = ioutil.os.replace

    def recording(src, dst):
        seen.append((Path(dst), os.path.exists(dst)))
        return real(src, dst)

    monkeypatch.setattr(ioutil.os, "replace", recording)
    return seen


def _dotfiles(config: PipelineConfig) -> list[str]:
    return sorted(p.name for p in config.output_dir.rglob(".*"))


def test_manifest_saves_rename_onto_no_file(small_config, tmp_path, renames, short_margin):
    """A rename over an old file would make ext4 write it out, and the next
    write of that file would then wait to free its blocks."""
    config = _fresh(small_config, tmp_path)
    for stage in STAGES:
        assert not run_stage(stage, config).skipped
        assert _dotfiles(config) == []
    short_margin()  # each skip below records its stage's outputs and saves
    assert _ran(run_pipeline(config, STAGES)) == set()
    saves = [existed for dst, existed in renames if dst.name == "manifest.json"]
    assert len(saves) > len(STAGES) and not any(saves)
    assert _dotfiles(config) == []
    (config.output_dir / "manifest.json").unlink()  # a second forced cold run
    assert _ran(run_pipeline(config, STAGES)) == set(STAGES)
    rewritten = {dst.name for dst, _ in renames} - {"manifest.json"}
    assert rewritten == {artifact_path(config, n).name for s in STAGES
                         for n in _STAGE_DEFS[s].writes}
    assert [dst for dst, existed in renames if existed] == []
    assert _dotfiles(config) == []

    (tmp_path / "empty").mkdir()
    for output_dir in (tmp_path / "empty", tmp_path / "absent"):
        elsewhere = replace(config, output_dir=output_dir)
        pipeline.save_manifest(elsewhere, load_manifest(config))
        assert load_manifest(elsewhere) == load_manifest(config)


def test_failed_manifest_save_reruns_every_stage_to_the_same_bytes(
    small_config, tmp_path, monkeypatch
):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config, STAGES)
    written = [artifact_path(config, n) for s in STAGES for n in _STAGE_DEFS[s].writes]
    first = {path: path.read_bytes() for path in written}
    real = ioutil.os.replace

    def full_disk(src, dst):
        if Path(dst).name == "manifest.json":
            raise OSError(errno.ENOSPC, "No space left on device")
        return real(src, dst)

    monkeypatch.setattr(ioutil.os, "replace", full_disk)
    artifact_path(config, "summary").unlink()  # so report re-runs, and its save fails
    with pytest.raises(OSError):
        run_stage("report", config)
    assert not (config.output_dir / "manifest.json").exists()
    assert _dotfiles(config) == []
    monkeypatch.undo()

    assert _ran(run_pipeline(config, STAGES)) == set(STAGES)
    assert {path: path.read_bytes() for path in written} == first


@pytest.fixture(scope="module")
def seven_stage_run(small_config, tmp_path_factory):
    """All seven stages of a short, cache-free run."""
    config = _fresh(small_config, tmp_path_factory.mktemp("seven_stages"))
    run_pipeline(config, STAGES)
    return config


def _other_values(config: PipelineConfig, root: Path) -> dict:
    """Another valid value for every config field but `output_dir`; a path
    field names a byte-identical copy of what it named."""
    trips, events, script = root / "trips.csv", root / "events.json", root / "script.json"
    shutil.copyfile(config.trip_source, trips)
    shutil.copyfile(config.event_source, events)
    script.write_text("{}")
    templates = root / "templates"
    templates.mkdir()
    for name in ("event_format", "prediction"):
        (templates / f"{name}.txt").write_text(getattr(DEFAULT_TEMPLATES, name), encoding="utf-8")
    return {
        "venue": replace(config.venue, name="Other Arena", radius_m=400.0),
        "trip_source": trips,
        "event_source": events,
        "train_range": DateRange(config.train_range.start + timedelta(days=7),
                                 config.train_range.end),
        "test_range": DateRange(config.test_range.start,
                                config.test_range.end - timedelta(days=3)),
        "history_days": 21,
        "baseline": BaselineConfig(lookback_weeks=6),
        "model": "another-model",
        "temperature": 0.7,
        "max_tokens": 64,
        "backend_kind": "live",
        "backend": BackendConfig(timeout_s=5.0),
        "mock_script": script,
        "cache_dir": root / "cache",
        "ablation": AblationConfig(EventFeatures.C, DemandFeatures.O),
        "concurrency": 1,
        "fallback_budget": 0.5,
        "max_description_words": 5,
        "template_dir": templates,
        "linear_ridge_lambda": 3.0,
        "gbdt": GbdtParams(n_trees=7),
        "time_bins": 12,
        "text_dim": 16,
        "ablate_models": ("llm", "gbdt"),
    }


@pytest.mark.parametrize("stage", STAGES)
def test_fields_outside_a_stage_slice_leave_its_bytes_alone(seven_stage_run, tmp_path, stage):
    """A field that is in no slice of a stage must not change what it writes,
    or a stage that skips could keep stale outputs."""
    config = seven_stage_run
    other = _other_values(config, tmp_path)
    assert set(other) == {f.name for f in fields(PipelineConfig)} - {"output_dir"}
    stage_def = _STAGE_DEFS[stage]
    changed = replace(
        config,
        output_dir=tmp_path / "out",
        **{name: value for name, value in other.items() if name not in stage_def.config},
    )
    shutil.copytree(config.output_dir, changed.output_dir)
    for name in stage_def.writes:
        artifact_path(changed, name).unlink()
    assert not run_stage(stage, changed).skipped
    for name in stage_def.writes:
        assert artifact_path(changed, name).read_bytes() == \
            artifact_path(config, name).read_bytes(), name


def test_evaluate_restores_deleted_and_corrupted_outputs(small_config, tmp_path):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config)
    predictions = config.output_dir / "predictions_gbdt.csv"
    model = config.output_dir / "models" / "gbdt_out.json"
    expected = {path: path.read_bytes() for path in (predictions, model)}
    predictions.unlink()
    model.write_text("{}")
    assert "evaluate" in _ran(run_pipeline(config))
    assert {path: path.read_bytes() for path in expected} == expected


@pytest.mark.parametrize("stage, least", [
    pytest.param("format_events", lambda stats, config: stats["unique"], id="format_events"),
    pytest.param("predict", lambda stats, config: config.test_range.n_days, id="predict"),
    # six grid configurations, each predicting every test day
    pytest.param("ablate", lambda stats, config: 6 * config.test_range.n_days, id="ablate"),
])
def test_format_events_counts_only_calls_that_reach_the_model(
    small_config, tmp_path, stage, least
):
    config = _fresh(small_config, tmp_path, cache_dir=tmp_path / "cache")
    run_pipeline(replace(config, cache_dir=None), PRE_PREDICT)  # the cache stays empty

    def rerun() -> dict:
        for name in _STAGE_DEFS[stage].writes:
            artifact_path(config, name).unlink(missing_ok=True)
        result = run_stage(stage, config)
        assert not result.skipped
        return result.stats

    cold = rerun()
    assert cold["backend_calls"] >= least(cold, config) > 0
    assert rerun()["backend_calls"] == 0  # every reply is in the cache


def test_gbdt_ablation_grid(small_config, tmp_path):
    config = _fresh(small_config, tmp_path, ablate_models=("llm", "gbdt"),
                    gbdt=GbdtParams(n_trees=5))
    assert config.ablation.name == "c_t_h_prime/r_i"  # evaluate's gbdt runs at c_t_h/r_i
    results = {r.stage: r for r in run_pipeline(config, STAGES)}
    assert results["ablate"].stats["configs"] == 12

    def rows(name):
        with open(artifact_path(config, name), newline="") as fh:
            return [r for r in csv.DictReader(fh) if r["model"] == "gbdt"]

    grid = rows("ablation_report")
    assert len({r["ablation"] for r in grid}) == 6
    assert [r for r in grid if r["ablation"] == "c_t_h_prime/r_i"] == [{
        "model": "gbdt", "ablation": "c_t_h_prime/r_i", "segment": "all",
        "n": "", "rmse": "", "mae": "", "mape": "", "r2": "",
    }]
    summary = artifact_path(config, "summary").read_text()
    assert re.search(r"gbdt +c_t_h_prime/r_i +not applicable", summary)

    segments = ("all", "event", "non_event")
    from_grid = [r for r in grid if r["ablation"] == "c_t_h/r_i" and r["segment"] in segments]
    from_evaluate = [r for r in rows("report") if r["segment"] in segments]
    assert [r["segment"] for r in from_grid] == list(segments)
    assert from_grid == from_evaluate


def test_report_reruns_after_ablate(small_config, tmp_path):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config)
    assert "Ablation grid" not in artifact_path(config, "summary").read_text()
    run_stage("ablate", config)
    assert not run_stage("report", config).skipped
    assert "Ablation grid" in artifact_path(config, "summary").read_text()
    assert run_stage("report", config).skipped


def test_summary_keeps_its_bytes_without_the_manifest(small_config, tmp_path):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config)
    summary = artifact_path(config, "summary").read_bytes()
    assert b"Prediction fallback rate: 0.0000 (0 of 14 days)\n" in summary
    (config.output_dir / "manifest.json").unlink()
    assert not run_stage("report", config).skipped
    assert artifact_path(config, "summary").read_bytes() == summary


def test_summary_counts_fallbacks_of_replies_with_unicode_line_breaks(small_config, tmp_path):
    """predictions.jsonl keeps U+2028 and U+0085 raw in a reply; they end no
    line of it, so the report reads one document a day."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps({
        "Format the following public event record.": "[Category] Live Event [Summary] A show.",
        "Next day: 2021-07-01": "[pickup] 300 [dropoff] 200 [reasoning] steady\u2028and\x85calm.",
        "Next day: 2021-07-02": "no tags\u2028at\x85all",
        "Next day: 2021-07-03": "[pickup] 310 [dropoff] 210 [reasoning] \u2028\x85",
    }))
    config = _fresh(
        small_config, tmp_path, backend_kind="mock", mock_script=script, fallback_budget=1.0,
        test_range=DateRange(date(2021, 7, 1), date(2021, 7, 3)),
    )
    run_pipeline(config)
    detail = artifact_path(config, "predictions_detail").read_bytes()
    assert "\u2028".encode() in detail and "\x85".encode() in detail
    summary = artifact_path(config, "summary").read_text(encoding="utf-8")
    assert "Prediction fallback rate: 0.3333 (1 of 3 days)\n" in summary


def test_summary_counts_mape_terms_skipped_on_zero_demand_days(small_config, tmp_path):
    empty_days = ("2021-07-04", "2021-07-10")  # no trip starts or ends on these test days
    trips = tmp_path / "trips.csv"
    with open(small_config.trip_source) as src, open(trips, "w") as dst:
        dst.writelines(line for line in src if not any(day in line for day in empty_days))
    config = _fresh(small_config, tmp_path, trip_source=trips)
    run_pipeline(config)
    assert "\nMAPE terms skipped for zero true demand: gbdt=4, historical_average=4," \
        " linear=4, llm=4\n" in artifact_path(config, "summary").read_text()


def test_config_documents_read_in_every_accepted_form(small_config, tmp_path):
    doc = small_config.to_dict()
    flat = {k: v for k, v in doc.items() if k not in ("backend", "output_dir")}
    flat.update(backend_kind="mock", mock_script="flat.json")
    config = PipelineConfig.from_dict(flat, base_dir=tmp_path)
    assert config.backend_kind == "mock"
    assert config.mock_script == tmp_path / "flat.json"
    assert config.output_dir == tmp_path / "out"
    assert config.backend == BackendConfig()

    nested = dict(flat, backend={"kind": "heuristic", "mock_script": "nested.json",
                                 "retry_backoff_s": 0.5})
    config = PipelineConfig.from_dict(nested, base_dir=tmp_path)
    assert config.backend_kind == "heuristic"
    assert config.mock_script == tmp_path / "nested.json"
    assert config.backend.retry_backoff_s == 0.5

    assert doc["venue"]["lat"] == small_config.venue.center.lat
    keyed = replace(small_config, backend=BackendConfig(api_key="sk-secret"))
    assert "sk-secret" not in json.dumps(keyed.to_dict())
    for stage_def in _STAGE_DEFS.values():
        config_slice = {name: encode(getattr(keyed, name)) for name in stage_def.config}
        assert "sk-secret" not in json.dumps(config_slice)


def _with_field(doc: dict, dotted: str, value) -> dict:
    doc = json.loads(json.dumps(doc))
    *parents, leaf = dotted.split(".")
    inner = doc
    for name in parents:
        inner = inner[name]
    inner[leaf] = value
    return doc


@pytest.mark.parametrize("field, value", [
    ("backend", "heuristic"), ("baseline", "expand_window"), ("gbdt", "fast"),
    ("ablate_models", "llm"),
    # scalar fields, nested ones named by their dotted path
    ("time_bins", "24"), ("temperature", "hot"), ("text_dim", 32.5),
    ("linear_ridge_lambda", "1"), ("history_days", True), ("max_tokens", "256"),
    ("model", 4), ("fallback_budget", False), ("gbdt.n_trees", 200.0),
    ("gbdt.learning_rate", "0.05"), ("baseline.lookback_weeks", True),
    ("backend.timeout_s", None), ("venue.name", 7), ("venue.lat", "40.7"),
    ("ablate_models", ["llm", 1]),
])
def test_config_value_of_the_wrong_json_type_is_an_error(small_config, tmp_path, field, value):
    doc = _with_field(small_config.to_dict(), field, value)
    with pytest.raises(ConfigError, match=re.escape(field)):
        PipelineConfig.from_dict(doc, base_dir=tmp_path)


def test_integer_config_value_reads_where_a_number_is_declared(small_config, tmp_path):
    doc = _with_field(small_config.to_dict(), "temperature", 1)
    doc = _with_field(doc, "gbdt.learning_rate", 1)
    config = PipelineConfig.from_dict(doc, base_dir=tmp_path)
    assert (config.temperature, config.gbdt.learning_rate) == (1, 1)
    assert config.to_dict() == doc


@pytest.mark.parametrize("field", [
    "histroy_days", "gbdt.n_tree", "baseline.lookback", "backend.retry_backof_s",
    "venue.latitude", "venue.center",
])
def test_unknown_config_field_is_an_error(small_config, tmp_path, field):
    doc = _with_field(small_config.to_dict(), field, 7)
    with pytest.raises(ConfigError, match=re.escape(f"unknown config field: {field}")):
        PipelineConfig.from_dict(doc, base_dir=tmp_path)


def test_api_key_in_a_config_document_is_accepted_and_ignored(small_config, tmp_path):
    doc = _with_field(small_config.to_dict(), "backend.api_key", "sk-secret")
    config = PipelineConfig.from_dict(doc, base_dir=tmp_path)
    assert config.backend.api_key is None


def test_removed_extra_predictions_field_is_an_error(small_config, tmp_path):
    doc = dict(small_config.to_dict(), extra_predictions=["other.csv"])
    with pytest.raises(ConfigError, match="extra_predictions"):
        PipelineConfig.from_dict(doc, base_dir=tmp_path)


# --- stat-keyed digests -------------------------------------------------------------

TRIPS_HEADER = (
    "pickup_datetime,dropoff_datetime,pickup_longitude,pickup_latitude,"
    "dropoff_longitude,dropoff_latitude\n"
)
NEAR_PICKUP = "2014-07-25 19:05:00,2014-07-25 19:25:00,-73.95000,40.70000,-73.99000,40.75000\n"
FAR_PICKUP = "2014-07-25 19:05:00,2014-07-25 19:25:00,-73.85000,40.70000,-73.99000,40.75000\n"
FAR_TRIPS = (TRIPS_HEADER + FAR_PICKUP).encode()


def _write_trips(path: Path, row: str) -> None:
    path.write_text(TRIPS_HEADER + row)


def _same_size_edit(path: Path, data: bytes) -> None:
    """Rewrite the file in place with other bytes of the same length, then
    restore its atime and mtime, as a careless tool might."""
    before = os.stat(path)
    assert len(data) == before.st_size and data != path.read_bytes()
    path.write_bytes(data)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns
    )


def _pickups(config) -> int:
    return sum(int(r["outflow"]) for r in csv.DictReader(
        artifact_path(config, "daily_demand").read_text().splitlines()
    ))


def _key_path(config, key: str) -> Path:
    """The file a manifest key names: an artifact's name, or a source's path."""
    return artifact_path(config, key) if key in ARTIFACTS else Path(key)


def _stat_record(config, path: Path):
    keys = {artifact_path(config, name): name for name in ARTIFACTS}
    return load_manifest(config).get("files", {}).get(keys.get(path, str(path)))


def _assert_recorded_digests_are_true(config) -> None:
    manifest = load_manifest(config)
    for entry in manifest["stages"].values():
        for key, digest in {**entry["inputs"], **entry["outputs"]}.items():
            if digest is not None:
                path = _key_path(config, key)
                assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), key
    for key, record in manifest["files"].items():
        path = _key_path(config, key)
        if pipeline._stat(path) == record[:5]:
            assert record[5] == hashlib.sha256(path.read_bytes()).hexdigest(), key


@pytest.fixture
def short_margin(monkeypatch):
    """A racy margin of 50 ms, so that a test can step past it by sleeping."""
    monkeypatch.setattr(pipeline, "_RACY_MARGIN_NS", 50_000_000)
    return lambda: sleep(0.1)


@pytest.fixture
def opens(monkeypatch):
    """Paths opened by mpe.pipeline, in order."""
    seen: list[Path] = []

    def counting_open(file, *args, **kwargs):
        seen.append(Path(file))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(pipeline, "open", counting_open, raising=False)
    return seen


def test_up_to_date_rerun_reads_no_unchanged_trip_file(small_config, tmp_path, short_margin, opens):
    config = _fresh(small_config, tmp_path)
    short_margin()  # the trip file is now older than the racy margin
    run_pipeline(config)
    assert opens.count(config.trip_source) == 2  # hashed once, read once by ingest
    assert _stat_record(config, config.trip_source) is not None

    opens.clear()
    short_margin()  # every output is now older than the margin ...
    assert _ran(run_pipeline(config)) == set()  # ... and this skip records them
    assert config.trip_source not in opens
    manifest = config.output_dir / "manifest.json"
    written = (os.stat(manifest).st_ino, manifest.read_bytes())
    assert _ran(run_pipeline(config)) == set()
    assert (os.stat(manifest).st_ino, manifest.read_bytes()) == written


def _ingest_config(tmp_path) -> PipelineConfig:
    trips = tmp_path / "trips.csv"
    _write_trips(trips, NEAR_PICKUP)
    return _minimal_config(tmp_path)


def test_same_size_edit_with_restored_mtime_reruns_ingest(tmp_path, short_margin):
    config = _ingest_config(tmp_path)
    short_margin()
    run_stage("ingest", config)
    assert _stat_record(config, config.trip_source) is not None
    assert _pickups(config) == 1
    sleep(0.01)  # a timestamp tick later
    _same_size_edit(config.trip_source, FAR_TRIPS)
    assert not run_stage("ingest", config).skipped
    assert _pickups(config) == 0
    _assert_recorded_digests_are_true(config)


def _floored_to_seconds(stat):
    """`pipeline._stat` as a filesystem with one-second timestamps reports it."""
    def coarse(path):
        record = stat(path)
        if record is not None:
            record[3] -= record[3] % 1_000_000_000
            record[4] -= record[4] % 1_000_000_000
        return record
    return coarse


@pytest.mark.parametrize("seconds_granularity", [False, True])
def test_edit_inside_the_racy_window_reruns_ingest(tmp_path, monkeypatch, seconds_granularity):
    if seconds_granularity:
        # Start just after a second begins, so that the write, the run and the
        # edit share one timestamp; only the racy guard then tells them apart.
        monkeypatch.setattr(pipeline, "_stat", _floored_to_seconds(pipeline._stat))
        sleep(1 - time_ns() % 1_000_000_000 / 1e9)
    config = _ingest_config(tmp_path)
    run_stage("ingest", config)
    assert _stat_record(config, config.trip_source) is None
    _same_size_edit(config.trip_source, FAR_TRIPS)
    assert not run_stage("ingest", config).skipped
    assert _pickups(config) == 0


@pytest.mark.parametrize("replace_file", [
    pytest.param(os.replace, id="rename"),
    pytest.param(shutil.copy2, id="copy2"),
])
def test_trip_file_replaced_by_another_of_equal_size_and_mtime_reruns_ingest(
    tmp_path, short_margin, replace_file
):
    config = _ingest_config(tmp_path)
    short_margin()
    run_stage("ingest", config)
    assert _stat_record(config, config.trip_source) is not None
    other = tmp_path / "other.csv"
    _write_trips(other, FAR_PICKUP)
    mtime = os.stat(config.trip_source).st_mtime_ns
    os.utime(other, ns=(mtime, mtime))
    replace_file(other, config.trip_source)
    assert os.stat(config.trip_source).st_mtime_ns == mtime
    assert not run_stage("ingest", config).skipped
    assert _pickups(config) == 0
    _assert_recorded_digests_are_true(config)


def test_copied_output_directory_is_hashed_again(
    small_config, tmp_path, monkeypatch, short_margin
):
    """A copy keeps sizes and mtimes but not inodes or ctimes, so no digest
    recorded for the original is trusted for it, even under the same
    relative paths."""
    original, copied = tmp_path / "original", tmp_path / "copied"
    original.mkdir()
    monkeypatch.chdir(original)
    config = _fresh(small_config, tmp_path, output_dir=Path("out"), history_days=21)
    short_margin()
    run_pipeline(replace(config, history_days=28))
    short_margin()  # every output is now older than the margin ...
    run_pipeline(config)  # ... and is recorded by this run's checks
    decomposition = artifact_path(config, "decomposition")
    assert _stat_record(config, decomposition) is not None
    expected = decomposition.read_bytes()

    shutil.copytree(original / "out", copied / "out", copy_function=shutil.copy2)
    monkeypatch.chdir(copied)
    i = len(expected.rstrip(b"\r\n")) - 1  # the last digit of the last row
    digit = b"%d" % ((int(expected[i:i + 1]) + 1) % 10)
    _same_size_edit(decomposition, expected[:i] + digit + expected[i + 1:])
    assert "decompose" in _ran(run_pipeline(config))
    assert decomposition.read_bytes() == expected
    _assert_recorded_digests_are_true(config)
    assert _ran(run_pipeline(config)) == set()


def test_copied_or_moved_output_directory_skips(
    small_config, tmp_path, short_margin, opens
):
    """Artifacts are keyed by name, so a copy or a move of a complete output
    directory skips every stage. A move keeps each file's inode and ctime,
    so its records are reused and no file is opened."""
    config = _fresh(small_config, tmp_path)
    run_pipeline(config, STAGES)
    short_margin()
    assert _ran(run_pipeline(config, STAGES)) == set()  # records every aged file
    copied = replace(config, output_dir=tmp_path / "copied")
    moved = replace(config, output_dir=tmp_path / "moved")
    shutil.copytree(config.output_dir, copied.output_dir, copy_function=shutil.copy2)
    os.rename(config.output_dir, moved.output_dir)
    for where in (copied, moved):
        assert all(p["would_skip"] for p in plan_pipeline(where, STAGES))
        opens.clear()
        no_replies = ScriptedBackend({})  # any request raises
        assert _ran(run_pipeline(where, STAGES, no_replies)) == set()
        _assert_recorded_digests_are_true(where)
    assert opens == []  # in the moved directory


def test_a_config_named_relatively_or_absolutely_keys_its_sources_alike(
    small_config, tmp_path, monkeypatch
):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    for source in (small_config.trip_source, small_config.event_source):
        shutil.copy(source, dataset / source.name)
    doc = _fresh(small_config, tmp_path).to_dict()
    doc.update(trip_source=small_config.trip_source.name,
               event_source=small_config.event_source.name, output_dir="out")
    (dataset / "config.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    run_pipeline(PipelineConfig.from_file("ds/config.json"), STAGES)
    plan = plan_pipeline(PipelineConfig.from_file(dataset / "config.json"), STAGES)
    assert [p["outcome"] for p in plan] == ["skip"] * 7


@pytest.mark.parametrize("misshapen", [
    pytest.param(lambda record: "x", id="string"),
    pytest.param(lambda record: [], id="list"),
    pytest.param(lambda record: {"trips": record[:5]}, id="short_record"),
    pytest.param(lambda record: {"trips": record + [0]}, id="long_record"),
    pytest.param(lambda record: {"trips": record[:5] + [None]}, id="digest_not_a_string"),
])
def test_misshapen_stat_reads_as_no_record(tmp_path, short_margin, misshapen):
    """Each record below holds the trip file's stat after an edit and its
    digest before it, so only the record's shape keeps it from being trusted."""
    config = _ingest_config(tmp_path)
    short_margin()
    run_stage("ingest", config)
    manifest_path = config.output_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    digest = manifest["files"][str(config.trip_source)][5]
    sleep(0.01)
    _same_size_edit(config.trip_source, FAR_TRIPS)
    files = misshapen(pipeline._stat(config.trip_source) + [digest])
    if isinstance(files, dict):
        files = {str(config.trip_source): files["trips"]}
    manifest["files"] = files
    manifest_path.write_text(json.dumps(manifest))
    assert not run_stage("ingest", config).skipped
    assert _pickups(config) == 0
    _assert_recorded_digests_are_true(config)


def test_manifest_without_a_file_table_skips_and_gains_one(tmp_path, short_margin):
    config = _ingest_config(tmp_path)
    short_margin()
    run_stage("ingest", config)
    manifest_path = config.output_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["files"]
    manifest_path.write_text(json.dumps(manifest))
    assert run_stage("ingest", config).skipped
    assert _stat_record(config, config.trip_source) is not None


def _slow_ingest(monkeypatch, seconds: float, during=lambda: None):
    """Make ingest take `seconds` longer, calling `during` first."""
    ingest = _STAGE_DEFS["ingest"]

    def run(config, backend):
        during()
        sleep(seconds)
        return ingest.run(config, backend)

    monkeypatch.setitem(_STAGE_DEFS, "ingest", replace(ingest, run=run))


@pytest.fixture
def saves(monkeypatch):
    """Paths of the manifests mpe.pipeline saved, in order."""
    seen: list[Path] = []
    save = pipeline.save_manifest

    def counting_save(config, manifest):
        seen.append(config.output_dir / "manifest.json")
        save(config, manifest)

    monkeypatch.setattr(pipeline, "save_manifest", counting_save)
    return seen


def _assert_first_skip_records_trip_file(config, short_margin, opens, saves) -> None:
    """The first skip after the margin records the trip file and saves the
    manifest once; a dry run before it saves nothing, and the next skip
    neither opens a file nor saves."""
    assert _stat_record(config, config.trip_source) is None
    short_margin()
    saves.clear()
    assert plan_pipeline(config, ["ingest"])[0]["would_skip"]
    assert saves == [] and _stat_record(config, config.trip_source) is None
    assert run_stage("ingest", config).skipped
    assert _stat_record(config, config.trip_source) is not None
    assert len(saves) == 1
    manifest = config.output_dir / "manifest.json"
    written = (os.stat(manifest).st_ino, manifest.read_bytes())
    opens.clear()
    assert run_stage("ingest", config).skipped
    assert opens == [] and len(saves) == 1
    assert (os.stat(manifest).st_ino, manifest.read_bytes()) == written


def test_input_leaving_the_racy_window_during_its_stage_is_recorded(
    tmp_path, monkeypatch, short_margin, opens, saves
):
    config = _ingest_config(tmp_path)
    _slow_ingest(monkeypatch, 0.1)
    run_stage("ingest", config)  # the trip file was inside the margin when hashed
    _assert_first_skip_records_trip_file(config, short_margin, opens, saves)


def test_trip_file_written_just_before_a_short_ingest_is_recorded_by_a_skip(
    tmp_path, monkeypatch, opens, saves
):
    # A margin wide enough that the trip file is surely inside it when first hashed.
    monkeypatch.setattr(pipeline, "_RACY_MARGIN_NS", 500_000_000)
    config = _ingest_config(tmp_path)
    run_stage("ingest", config)
    _assert_first_skip_records_trip_file(config, lambda: sleep(0.6), opens, saves)


def test_second_aged_all_skipped_run_opens_no_file(small_config, tmp_path, short_margin, opens):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config, STAGES)
    short_margin()
    assert _ran(run_pipeline(config, STAGES)) == set()
    opens.clear()
    assert _ran(run_pipeline(config, STAGES)) == set()
    assert opens == []


def test_a_walk_hashes_each_file_too_young_to_record_once(small_config, tmp_path, opens):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config, STAGES)
    opens.clear()
    assert _ran(run_pipeline(config, STAGES)) == set()  # inside the racy margin
    assert artifact_path(config, "decomposition") in opens
    assert len(opens) == len(set(opens))


def test_up_to_date_run_reads_the_manifest_once(seven_stage_run, monkeypatch):
    loads = []
    load = pipeline.load_manifest

    def counting_load(config):
        loads.append(config.output_dir)
        return load(config)

    monkeypatch.setattr(pipeline, "load_manifest", counting_load)
    assert _ran(run_pipeline(seven_stage_run, STAGES)) == set()
    assert loads == [seven_stage_run.output_dir]


def test_input_edited_during_its_stage_is_not_recorded(tmp_path, monkeypatch):
    # A margin wide enough that the trip file is surely inside it when first hashed.
    monkeypatch.setattr(pipeline, "_RACY_MARGIN_NS", 500_000_000)
    config = _ingest_config(tmp_path)
    _slow_ingest(monkeypatch, 0.6, lambda: _same_size_edit(config.trip_source, FAR_TRIPS))
    run_stage("ingest", config)
    assert _stat_record(config, config.trip_source) is None
    monkeypatch.undo()
    assert not run_stage("ingest", config).skipped
    assert _pickups(config) == 0


TELEMETRY_FIELDS = ("wall_s", "cpu_s", "max_rss_kb", "children_max_rss_kb")


def test_stage_telemetry_sits_beside_stats_and_no_skip_reads_or_rewrites_it(
    small_config, tmp_path, short_margin
):
    config = _fresh(small_config, tmp_path)
    run_pipeline(config, STAGES)
    entries = load_manifest(config)["stages"]
    assert set(entries) == set(STAGES)
    for stage, entry in entries.items():
        for field in TELEMETRY_FIELDS:
            assert isinstance(entry[field], (int, float)) and entry[field] >= 0, (stage, field)
            assert field not in entry["stats"], (stage, field)
        assert entry["max_rss_kb"] > 0
    short_margin()
    assert _ran(run_pipeline(config, STAGES)) == set()  # records the aged outputs
    manifest = config.output_dir / "manifest.json"
    written = manifest.read_bytes()
    assert _ran(run_pipeline(config, STAGES)) == set()
    assert manifest.read_bytes() == written
    after = load_manifest(config)["stages"]
    assert {s: [e[f] for f in TELEMETRY_FIELDS] for s, e in after.items()} == \
        {s: [e[f] for f in TELEMETRY_FIELDS] for s, e in entries.items()}

    doc = json.loads(written)
    for entry in doc["stages"].values():
        entry.update(wall_s=-1.0, cpu_s=None, max_rss_kb="x")
        del entry["children_max_rss_kb"]
    manifest.write_text(json.dumps(doc))
    assert _ran(run_pipeline(config, STAGES)) == set()
