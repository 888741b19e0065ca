"""Stage-oriented orchestration: ingest -> format_events -> decompose ->
predict -> evaluate -> ablate -> report.

Each stage declares the config fields it reads, the files it reads and the
files it writes (`_STAGE_DEFS`), and records digests of exactly those in
manifest.json; a stage whose declared inputs and outputs are unchanged is
skipped. A recorded digest is reused, without reading the file, while the
file's stat is unchanged (`_FileDigests`). Predictions are one-step-ahead
over the test range from true observed history, never from the model's own
prior outputs.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .baselines import (
    FeaturizerConfig,
    fit_gbdt,
    fit_linear,
    featurize_day,
    predict_gbdt,
    predict_linear,
    save_model,
)
from .config import LLM_MODEL_NAME, PipelineConfig, encode
from .decomposition import (
    DemandDecomposition,
    Flows,
    decompose,
    read_decomposition_csv,
    weekday_baseline,
    write_decomposition_csv,
)
from .errors import (
    ConfigError,
    FallbackBudgetError,
    MalformedReplyError,
    PreconditionError,
    StageError,
)
from .events import (
    DayEvents,
    EventRecord,
    FormattedEvent,
    day_events_index,
    parse_event_records,
)
from .gateway import (
    CachingBackend,
    ChatBackend,
    ChatMessage,
    ChatRequest,
    HttpBackend,
    ScriptedBackend,
    cache_key,
)
from .heuristic import HeuristicBackend
from .ioutil import atomic_write_text, write_csv
from .metrics import (
    AblationRow,
    EvalRecord,
    canonical_grid,
    run_ablation,
    segment_report,
    write_ablation_csv,
    write_plot_csv,
    write_report_csv,
)
from .parsing import (
    PredictionResult,
    failure_record,
    parse_formatted_event,
    parse_prediction,
)
from .prompts import (
    AblationConfig,
    DayContext,
    DemandFeatures,
    EventFeatures,
    HistoryWindow,
    PromptTemplates,
    REPLY_FORM_EVENT,
    REPLY_FORM_PREDICTION,
    build_event_format_prompt,
    build_prediction_prompt,
    render_history_line,
    round_half_up,
)
from .trips import (
    DailyDemand,
    DateRange,
    RejectionNote,
    TripFile,
    aggregate_daily_demand,
    demand_index,
    read_daily_demand_csv,
    write_daily_demand_csv,
)

STAGES = ("ingest", "format_events", "decompose", "predict", "evaluate", "ablate", "report")
CLASSICAL_MODELS = ("historical_average", "linear", "gbdt")

PREDICTION_REMINDER = f"Reminder: reply in exactly this form: {REPLY_FORM_PREDICTION}"
EVENT_REMINDER = f"Reminder: reply in exactly this form: {REPLY_FORM_EVENT}"


def build_backend(config: PipelineConfig) -> ChatBackend:
    """live -> HTTP; cache -> cache over HTTP; mock -> scripted file;
    heuristic -> rule-based responder. Any kind gains the cache overlay when
    cache_dir is set."""
    kind = config.backend_kind
    if kind in ("live", "cache"):
        inner: ChatBackend = HttpBackend(config.backend)
    elif kind == "mock":
        if config.mock_script is None:
            raise ConfigError("backend kind 'mock' requires mock_script")
        inner = ScriptedBackend.from_file(config.mock_script)
    else:
        inner = HeuristicBackend()
    if kind == "cache" and config.cache_dir is None:
        raise ConfigError("backend kind 'cache' requires cache_dir")
    if config.cache_dir is not None:
        return CachingBackend(inner, config.cache_dir)
    return inner


# ---------------------------------------------------------------------------
# Artifacts and manifest
# ---------------------------------------------------------------------------

ARTIFACTS = {
    "daily_demand": "daily_demand.csv",
    "ingest_rejects": "ingest_rejects.jsonl",
    "formatted_events": "formatted_events.json",
    "decomposition": "decomposition.csv",
    "predictions": "predictions.csv",
    "predictions_detail": "predictions.jsonl",
    "parse_failures": "parse_failures.jsonl",
    "report": "report.csv",
    "plot_data": "plot_data.csv",
    "predictions_historical_average": "predictions_historical_average.csv",
    "predictions_linear": "predictions_linear.csv",
    "predictions_gbdt": "predictions_gbdt.csv",
    "model_linear_out": "models/linear_out.json",
    "model_linear_in": "models/linear_in.json",
    "model_gbdt_out": "models/gbdt_out.json",
    "model_gbdt_in": "models/gbdt_in.json",
    "ablation_report": "ablation_report.csv",
    "summary": "summary.txt",
}


def artifact_path(config: PipelineConfig, name: str) -> Path:
    return config.output_dir / ARTIFACTS[name]


# A digest is recorded against a file's stat only when the file's ctime is
# older than the moment of recording by more than this margin, which exceeds
# any local filesystem's timestamp granularity: a write within the same tick
# as a recorded ctime could otherwise leave the whole stat unchanged (git's
# "racy clean" guard, Documentation/technical/racy-git.txt).
_RACY_MARGIN_NS = 2_000_000_000


def _stat(path: Path) -> list[int] | None:
    """The stat fields a recorded digest is keyed by; None when the file does not exist."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return [st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns]


class _FileDigests:
    """SHA-256 of files, reusing the digest that the manifest's file table
    records for a path while the file's stat equals the recorded one.

    A file that is hashed is recorded in the table, as its stat followed by
    its digest, only if its stat did not change while it was read and its
    ctime was outside the racy margin; `added` tells whether any was.
    """

    def __init__(self, manifest: dict):
        files = manifest.get("files")
        self.files = manifest["files"] = files if isinstance(files, dict) else {}
        self.added = False

    def __call__(self, path: Path) -> str | None:
        """The file's SHA-256, or None when it does not exist."""
        key = str(path)
        now = time.time_ns()
        before = _stat(path)
        if before is None:
            return None
        record = self.files.get(key)
        if (isinstance(record, list) and len(record) == 6 and record[:5] == before
                and isinstance(record[5], str)):
            return record[5]
        self.files.pop(key, None)  # stale or misshapen
        sha = hashlib.sha256()
        try:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(chunk)
        except FileNotFoundError:
            return None
        digest = sha.hexdigest()
        if _stat(path) == before and before[4] < now - _RACY_MARGIN_NS:
            self.files[key] = [*before, digest]
            self.added = True
        return digest


def _manifest_path(config: PipelineConfig) -> Path:
    return config.output_dir / "manifest.json"


def load_manifest(config: PipelineConfig) -> dict:
    """The manifest; a missing, corrupt or misshapen one reads as no stages
    recorded, and a stage entry that is not an object as absent. An entry's
    `"stat"` map, which manifests kept before the file table, is dropped."""
    try:
        manifest = json.loads(_manifest_path(config).read_text())
    except (OSError, ValueError):
        manifest = None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
        return {"stages": {}}
    manifest["stages"] = {k: v for k, v in manifest["stages"].items() if isinstance(v, dict)}
    for entry in manifest["stages"].values():
        entry.pop("stat", None)
    return manifest


def save_manifest(config: PipelineConfig, manifest: dict) -> None:
    manifest["backend"] = config.backend_kind
    atomic_write_text(
        _manifest_path(config), json.dumps(manifest, indent=2, sort_keys=True)
    )


class StageResult(NamedTuple):
    stage: str
    skipped: bool
    stats: dict


# ---------------------------------------------------------------------------
# Shared stage helpers
# ---------------------------------------------------------------------------


def _write_jsonl(path: Path, lines: Iterable[str]) -> None:
    """One JSON document per line, each already serialised."""
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def _write_prediction_csv(rows: Iterable[tuple], model_name: str, path: Path) -> None:
    """A predictions CSV; the caller formats the two prediction columns."""
    write_csv(
        path, ["date", "pred_out", "pred_in", "model_name"],
        ([day.isoformat(), pred_out, pred_in, model_name] for day, pred_out, pred_in in rows),
    )


def _load_catalog(config: PipelineConfig) -> list[EventRecord]:
    try:
        text = Path(config.event_source).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read event source {config.event_source}: {exc}") from exc
    return parse_event_records(text)


class _History(NamedTuple):
    """True daily demand, the event calendar and the day decompositions."""

    demand: Mapping[date, DailyDemand]
    calendar: Mapping[date, DayEvents]
    decompositions: Mapping[date, DemandDecomposition]


def _load_history(config: PipelineConfig) -> _History:
    demand = demand_index(read_daily_demand_csv(artifact_path(config, "daily_demand")))
    calendar = day_events_index(_load_catalog(config), config.full_range)
    decompositions = {
        d.date: d for d in read_decomposition_csv(artifact_path(config, "decomposition"))
    }
    return _History(demand, calendar, decompositions)


def _formatted_lookup(config: PipelineConfig) -> dict[tuple[str, str | None], tuple[str, str]]:
    path = artifact_path(config, "formatted_events")
    doc = json.loads(path.read_text())
    return {
        (entry["title"], entry["description"]): (entry["category"], entry["summary"])
        for entry in doc
    }


def _events_for_prompt(
    day_events: DayEvents,
    ablation: AblationConfig,
    formatted: Mapping[tuple[str, str | None], tuple[str, str]] | None,
) -> tuple:
    """Raw records, or FormattedEvents when the ablation needs h'."""
    if ablation.event_features is not EventFeatures.C_T_H_PRIME:
        return day_events.events
    if formatted is None:
        raise StageError("formatted events required for the c_t_h_prime ablation")
    out = []
    for record in day_events.events:
        key = (record.title, record.description)
        if key not in formatted:
            raise StageError(
                f"no formatted entry for event {record.title!r} on {record.date}; "
                "run `format_events` again"
            )
        category, summary = formatted[key]
        out.append(FormattedEvent(category=category, summary=summary, source=record))
    return tuple(out)


def _day_contexts(
    history: _History, first: date, n_targets: int, n: int, events_of: Callable
) -> list[DayContext]:
    """The days from `n` before the first of `n_targets` consecutive targets
    to the day before the last, each with events_of(day) and its
    decomposition; target i's window is the slice [i:i + n]."""
    contexts = []
    for i in range(-n, n_targets - 1):
        day = first + timedelta(days=i)
        if day not in history.decompositions:
            target = max(first, day + timedelta(days=1))
            raise StageError(f"no decomposition for history day {day} (target {target})")
        contexts.append(DayContext(day, events_of(day), history.decompositions[day]))
    return contexts


def _with_reminder(request: ChatRequest, reminder: str) -> ChatRequest:
    """The re-prompt after a malformed reply: the request plus a format reminder."""
    return replace(request, messages=request.messages + (ChatMessage("user", reminder),))


class DayPrediction(NamedTuple):
    result: PredictionResult
    fallback: bool
    failures: tuple[str, ...]
    request_digest: str


def _predict_day(
    window: HistoryWindow,
    lines: Sequence[str],
    target: DayContext,
    history: _History,
    config: PipelineConfig,
    backend: ChatBackend,
    ablation: AblationConfig,
    templates: PromptTemplates,
) -> DayPrediction:
    """Prompt for `target` from its window and the window's rendered lines,
    and parse the reply; a malformed reply triggers one re-prompt with a
    format reminder, then a fallback to the rounded baseline."""
    day = target.date
    if day in history.decompositions:
        baseline = history.decompositions[day].baseline
    else:
        baseline = weekday_baseline(history.demand, history.calendar, day, config.baseline)

    request = build_prediction_prompt(
        window,
        target,
        baseline,
        ablation,
        model=config.model,
        templates=templates,
        description_word_cap=config.max_description_words,
        temperature=config.temperature,
        history_lines=lines,
    )
    if config.max_tokens is not None:
        request = replace(request, max_tokens=config.max_tokens)

    failures: list[str] = []
    for attempt in (request, _with_reminder(request, PREDICTION_REMINDER)):
        digest = cache_key(attempt)
        response = backend.complete(attempt)
        try:
            result = parse_prediction(response.content, day)
            return DayPrediction(result, False, tuple(failures), digest)
        except MalformedReplyError as exc:
            failures.append(failure_record(day, digest, exc.raw, str(exc)))

    fallback = PredictionResult(
        date=day,
        pickup=max(0, round_half_up(baseline.outflow)),
        dropoff=max(0, round_half_up(baseline.inflow)),
        reasoning="fallback: baseline",
        raw_response=response.content,
    )
    return DayPrediction(fallback, True, tuple(failures), digest)


def _run_predictions(
    config: PipelineConfig,
    backend: ChatBackend,
    ablation: AblationConfig,
    history: _History,
    formatted: Mapping[tuple[str, str | None], tuple[str, str]] | None,
    templates: PromptTemplates,
    targets: DateRange,
) -> list[DayPrediction]:
    """One prediction per day of `targets`, in date order.

    Each day from `history_days` before the first target on gets its events
    and its history line once; a target's window is a slice of those.
    """
    n = config.history_days

    def events_of(day: date) -> tuple:
        return _events_for_prompt(history.calendar[day], ablation, formatted)

    contexts = _day_contexts(history, targets.start, targets.n_days, n, events_of)
    lines = [render_history_line(c, ablation, config.max_description_words) for c in contexts]
    target_events = [c.events for c in contexts[n:]] + [events_of(targets.end)]

    def run(i: int) -> DayPrediction:
        return _predict_day(
            HistoryWindow(tuple(contexts[i:i + n])),
            lines[i:i + n],
            DayContext(targets.start + timedelta(days=i), target_events[i]),
            history, config, backend, ablation, templates,
        )

    with concurrent.futures.ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        return list(pool.map(run, range(targets.n_days)))


def predict_next_day(
    demand: Mapping[date, DailyDemand],
    catalog: Sequence[EventRecord],
    target: date,
    config: PipelineConfig,
    backend: ChatBackend,
    formatted: Mapping[tuple[str, str | None], tuple[str, str]] | None = None,
) -> PredictionResult:
    """One-step-ahead prediction for `target` from true prior history.

    Composes baseline estimation, window assembly, prompt rendering, the
    backend call, and reply parsing; a malformed reply triggers one
    re-prompt with a format reminder, then a fallback to the rounded
    baseline. Window-day decompositions are computed causally on the fly,
    so `demand` must also cover at least one day before the window start.
    """
    first = target - timedelta(days=config.history_days)
    for offset in range(config.history_days):
        if first + timedelta(days=offset) not in demand:
            raise ValueError(
                f"insufficient history: need {config.history_days} days before {target}"
            )
    calendar = day_events_index(catalog, DateRange(min(demand), target))
    decompositions = {}
    for offset in range(config.history_days, 0, -1):
        day = target - timedelta(days=offset)
        baseline = weekday_baseline(demand, calendar, day, config.baseline)
        decompositions[day] = decompose(demand[day], baseline)
    history = _History(demand, calendar, decompositions)
    (prediction,) = _run_predictions(
        config, backend, config.ablation, history, formatted, config.templates(),
        DateRange(target, target),
    )
    return prediction.result


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def _stage_ingest(config: PipelineConfig, _backend) -> dict:
    rejects: list[RejectionNote] = []
    try:
        with open(config.trip_source, "rb") as fh:
            trips = TripFile(fh, rejects)
            series = aggregate_daily_demand(trips, config.venue, config.full_range)
    except OSError as exc:
        raise ConfigError(f"cannot read trip source {config.trip_source}: {exc}") from exc
    write_daily_demand_csv(series, artifact_path(config, "daily_demand"))
    _write_jsonl(
        artifact_path(config, "ingest_rejects"),
        (json.dumps({"row": r.row, "reason": r.reason}, sort_keys=True) for r in rejects),
    )
    return {"trips": trips.valid, "rejects": len(rejects), "days": len(series)}


def _stage_format_events(config: PipelineConfig, backend: ChatBackend) -> dict:
    catalog = _load_catalog(config)
    unique: dict[tuple[str, str | None], EventRecord] = {}
    for record in catalog:
        unique.setdefault((record.title, record.description), record)
    templates = config.templates()
    entries = []
    before = _backend_call_count(backend)
    for key in sorted(unique, key=lambda k: (k[0], k[1] or "")):
        record = unique[key]
        request = build_event_format_prompt(
            record,
            model=config.model,
            templates=templates,
            description_word_cap=config.max_description_words,
            temperature=config.temperature,
        )
        for attempt in (request, _with_reminder(request, EVENT_REMINDER)):
            response = backend.complete(attempt)
            try:
                formatted = parse_formatted_event(response.content, record)
                break
            except MalformedReplyError as exc:
                error = exc
        else:
            raise StageError(f"could not format event {record.title!r}: {error}") from error
        entries.append({
            "title": record.title,
            "description": record.description,
            "category": formatted.category,
            "summary": formatted.summary,
        })
    atomic_write_text(
        artifact_path(config, "formatted_events"),
        json.dumps(entries, indent=2, sort_keys=True, ensure_ascii=False),
    )
    stats = {"events": len(catalog), "unique": len(unique)}
    if before is not None:
        stats["backend_calls"] = _backend_call_count(backend) - before
    return stats


def _stage_decompose(config: PipelineConfig, _backend) -> dict:
    demand = demand_index(read_daily_demand_csv(artifact_path(config, "daily_demand")))
    calendar = day_events_index(_load_catalog(config), config.full_range)
    rows = []
    for day in config.full_range.days():
        if day == config.full_range.start:
            continue  # no prior history exists for the very first day
        baseline = weekday_baseline(demand, calendar, day, config.baseline)
        rows.append(decompose(demand[day], baseline))
    write_decomposition_csv(rows, artifact_path(config, "decomposition"))
    return {"days": len(rows)}


def _backend_call_count(backend: ChatBackend) -> int | None:
    """Calls that reached the model: cache misses, or the backend's own count."""
    if isinstance(backend, CachingBackend):
        return backend.misses
    return getattr(backend, "call_count", None)


def _stage_predict(config: PipelineConfig, backend: ChatBackend) -> dict:
    history = _load_history(config)
    formatted = _formatted_lookup(config) if _h_prime(config) else None
    before = _backend_call_count(backend)
    predictions = _run_predictions(
        config, backend, config.ablation, history, formatted, config.templates(),
        config.test_range,
    )

    _write_prediction_csv(
        ((p.result.date, p.result.pickup, p.result.dropoff) for p in predictions),
        LLM_MODEL_NAME,
        artifact_path(config, "predictions"),
    )
    _write_jsonl(artifact_path(config, "predictions_detail"), (
        json.dumps({
            "date": p.result.date.isoformat(),
            "pickup": p.result.pickup,
            "dropoff": p.result.dropoff,
            "reasoning": p.result.reasoning,
            "raw_response": p.result.raw_response,
            "fallback": p.fallback,
            "request_digest": p.request_digest,
        }, sort_keys=True, ensure_ascii=False)
        for p in predictions
    ))
    failure_lines = [line for p in predictions for line in p.failures]
    _write_jsonl(artifact_path(config, "parse_failures"), failure_lines)

    fallbacks = sum(1 for p in predictions if p.fallback)
    rate = fallbacks / len(predictions) if predictions else 0.0
    stats = {
        "days": len(predictions),
        "fallbacks": fallbacks,
        "fallback_rate": rate,
        "parse_failures": len(failure_lines),
    }
    if before is not None:
        stats["backend_calls"] = _backend_call_count(backend) - before
    if rate > config.fallback_budget:
        raise FallbackBudgetError(
            f"fallback rate {rate:.3f} exceeds budget {config.fallback_budget:.3f}"
        )
    return stats


class _ClassicalFit(NamedTuple):
    records: list[EvalRecord]
    models: tuple  # (outflow model, inflow model)


def _fit_classical(
    config: PipelineConfig,
    ablation: AblationConfig,
    history: _History,
    kinds: Sequence[str],
) -> dict[str, _ClassicalFit]:
    """Fit each of `kinds` ("linear", "gbdt") on the train range, predict
    the test range and join with truth. Each feature matrix is built once;
    classical models see raw event records only (see `_classical_ablation`)."""
    demand, decompositions = history.demand, history.decompositions
    feat_config = FeaturizerConfig(
        lag_days=config.history_days,
        time_bins=config.time_bins,
        text_dim=config.text_dim,
        ablation=ablation,
    )

    def features(targets: Sequence[date]) -> np.ndarray:
        n = config.history_days
        contexts = _day_contexts(
            history, targets[0], len(targets), n, lambda day: history.calendar[day].events
        )
        return np.array([
            featurize_day(
                HistoryWindow(tuple(contexts[i:i + n])), history.calendar[target], feat_config
            )
            for i, target in enumerate(targets)
        ])

    train_targets = [
        d for d in config.train_range.days()
        if (d - config.train_range.start).days > config.history_days
    ]
    if len(train_targets) < 2:
        raise StageError("not enough training rows for classical baselines")
    test_targets = list(config.test_range.days())
    X_train, X_test = features(train_targets), features(test_targets)
    residual = ablation.demand_features is DemandFeatures.R_I
    y = [
        decompositions[d].deviation if residual else decompositions[d].actual
        for d in train_targets
    ]
    y_out = np.array([float(f.outflow) for f in y])
    y_in = np.array([float(f.inflow) for f in y])

    fits = {}
    for kind in kinds:
        if kind == "linear":
            fit, params = fit_linear, config.linear_ridge_lambda
        elif kind == "gbdt":
            fit, params = fit_gbdt, config.gbdt
        else:
            raise StageError(f"unknown classical model: {kind}")
        models = (fit(X_train, y_out, params), fit(X_train, y_in, params))
        if kind == "gbdt":  # one call scores every test row
            outs, ins = (predict_gbdt(m, X_test).tolist() for m in models)
        else:
            outs, ins = ([predict_linear(m, x) for x in X_test] for m in models)
        records = []
        for target, pred_out, pred_in in zip(test_targets, outs, ins):
            if residual:
                baseline = decompositions[target].baseline
                pred_out += baseline.outflow
                pred_in += baseline.inflow
            records.append(EvalRecord(
                target, demand[target], Flows(max(0.0, pred_out), max(0.0, pred_in))
            ))
        fits[kind] = _ClassicalFit(records, models)
    return fits


def _classical_ablation(ablation: AblationConfig) -> AblationConfig:
    """Classical models cannot consume h'; downgrade to raw descriptions."""
    if ablation.event_features is EventFeatures.C_T_H_PRIME:
        return AblationConfig(EventFeatures.C_T_H, ablation.demand_features)
    return ablation


def _read_prediction_csv(path: Path) -> list[tuple[date, Flows]]:
    with open(path, newline="") as fh:
        return [
            (date.fromisoformat(row["date"]),
             Flows(float(row["pred_out"]), float(row["pred_in"])))
            for row in csv.DictReader(fh)
        ]


def _stage_evaluate(config: PipelineConfig, _backend) -> dict:
    history = _load_history(config)
    demand, calendar = history.demand, history.calendar

    llm_records = [
        EvalRecord(d, demand[d], pred)
        for d, pred in _read_prediction_csv(artifact_path(config, "predictions"))
    ]
    reports = [segment_report(llm_records, calendar, LLM_MODEL_NAME, config.ablation)]

    classical_ablation = _classical_ablation(config.ablation)
    fits = _fit_classical(config, classical_ablation, history, ("linear", "gbdt"))
    for model_kind, fit in fits.items():
        for flow, model in zip(("out", "in"), fit.models):
            save_model(model, artifact_path(config, f"model_{model_kind}_{flow}"))
    by_model = {kind: fit.records for kind, fit in fits.items()}
    by_model["historical_average"] = [
        EvalRecord(d, demand[d], history.decompositions[d].baseline)
        for d in config.test_range.days()
    ]
    for model_kind in CLASSICAL_MODELS:
        records = by_model[model_kind]
        reports.append(segment_report(records, calendar, model_kind, classical_ablation))
        _write_prediction_csv(
            ((r.date, f"{r.pred.outflow:.6f}", f"{r.pred.inflow:.6f}") for r in records),
            model_kind,
            artifact_path(config, f"predictions_{model_kind}"),
        )

    write_report_csv(reports, artifact_path(config, "report"))
    write_plot_csv(llm_records, calendar, artifact_path(config, "plot_data"))
    return {
        "models": len(reports),
        "mape_excluded": {r.model_name: r.all_days.mape_excluded for r in reports},
    }


def _stage_ablate(config: PipelineConfig, backend: ChatBackend) -> dict:
    history = _load_history(config)
    formatted = _formatted_lookup(config)
    templates = config.templates()

    def llm_runner(ablation: AblationConfig) -> list[EvalRecord]:
        predictions = _run_predictions(
            config, backend, ablation, history, formatted, templates, config.test_range
        )
        return [
            EvalRecord(p.result.date, history.demand[p.result.date],
                       Flows(float(p.result.pickup), float(p.result.dropoff)))
            for p in predictions
        ]

    def gbdt_runner(ablation: AblationConfig) -> list[EvalRecord] | None:
        if ablation.event_features is EventFeatures.C_T_H_PRIME:
            return None  # not applicable for classical baselines
        return _fit_classical(config, ablation, history, ("gbdt",))["gbdt"].records

    rows: list[AblationRow] = []
    for model_name in config.ablate_models:
        if model_name == LLM_MODEL_NAME:
            grid, runner = canonical_grid(EventFeatures.C_T_H_PRIME), llm_runner
        elif model_name == "gbdt":
            grid, runner = canonical_grid(EventFeatures.C_T_H), gbdt_runner
        else:
            raise ConfigError(f"unknown ablate model: {model_name}")
        rows.extend(run_ablation(grid, runner, history.calendar, model_name))
    write_ablation_csv(rows, artifact_path(config, "ablation_report"))
    return {"models": list(config.ablate_models), "configs": len(rows)}


def _stage_report(config: PipelineConfig, _backend) -> dict:
    lines = [
        "Travel demand prediction summary", "=" * 34, "",
        f"Venue: {config.venue.name}",
        f"Test range: {config.test_range.start} .. {config.test_range.end}"
        f" ({config.test_range.n_days} days)",
        f"Ablation: {config.ablation.name}",
        "",
        "Model performance (pooled pickups + dropoffs):",
    ]
    models = set()
    with open(artifact_path(config, "report"), newline="") as fh:
        for row in csv.DictReader(fh):
            models.add(row["model"])
            if row["segment"] not in ("all", "event", "non_event"):
                continue
            lines.append(
                f"  {row['model']:<20} {row['ablation']:<16} {row['segment']:<10}"
                f" n={row['n']:<5} rmse={row['rmse']:<11} mae={row['mae']:<11}"
                f" mape={row['mape'] or 'n/a':<9} r2={row['r2'] or 'n/a'}"
            )
    with open(artifact_path(config, "predictions_detail")) as fh:
        fallbacks = [json.loads(line)["fallback"] for line in fh]
    rate = sum(fallbacks) / len(fallbacks) if fallbacks else 0.0
    lines += [
        "",
        f"Prediction fallback rate: {rate:.4f} ({sum(fallbacks)} of {len(fallbacks)} days)",
    ]
    # Every model is scored on every test day, so each skips the same MAPE terms.
    demand = demand_index(read_daily_demand_csv(artifact_path(config, "daily_demand")))
    zeros = sum(
        (demand[d].outflow == 0) + (demand[d].inflow == 0) for d in config.test_range.days()
    )
    if zeros:
        lines.append(
            "MAPE terms skipped for zero true demand: "
            + ", ".join(f"{m}={zeros}" for m in sorted(models))
        )
    ablation_path = artifact_path(config, "ablation_report")
    if ablation_path.exists():
        lines += ["", "Ablation grid (event-day rows):"]
        with open(ablation_path, newline="") as fh:
            for row in csv.DictReader(fh):
                if row["segment"] == "all" and row["n"] == "":
                    lines.append(
                        f"  {row['model']:<10} {row['ablation']:<18} not applicable"
                    )
                elif row["segment"] == "event":
                    lines.append(
                        f"  {row['model']:<10} {row['ablation']:<18}"
                        f" rmse={row['rmse']:<11} mae={row['mae']:<11} mape={row['mape']}"
                    )
    atomic_write_text(artifact_path(config, "summary"), "\n".join(lines) + "\n")
    return {"lines": len(lines)}


# ---------------------------------------------------------------------------
# Stage framework
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageDef:
    """What a stage reads and writes; the skip check compares nothing else.

    `config` names the PipelineConfig fields the stage reads. Path fields
    are not among them: the files they name are read, and a file's digest
    is keyed by its path. `reads` lists files that must exist, as artifact
    names of earlier stages or as paths; `reads_if_present` lists files
    whose absence is itself an input. `writes` names the artifacts it writes.
    """

    run: Callable[[PipelineConfig, ChatBackend | None], dict]
    config: tuple[str, ...]
    reads: Callable[[PipelineConfig], list[str | Path]]
    writes: tuple[str, ...]
    reads_if_present: Callable[[PipelineConfig], list[str | Path]] = lambda c: []

    @property
    def needs_backend(self) -> bool:
        return "backend_kind" in self.config


# Backend identity and prompt wording; `to_dict` leaves out `api_key`.
_LLM_FIELDS = ("backend_kind", "backend", "model", "temperature", "max_description_words")
_RANGES = ("train_range", "test_range")


def _mock_script(config: PipelineConfig) -> list[Path]:
    if config.backend_kind == "mock" and config.mock_script is not None:
        return [config.mock_script]
    return []


def _template(name: str) -> Callable[[PipelineConfig], list[Path]]:
    def files(config: PipelineConfig) -> list[Path]:
        return [] if config.template_dir is None else [config.template_dir / f"{name}.txt"]
    return files


def _h_prime(config: PipelineConfig) -> list[str]:
    if config.ablation.event_features is EventFeatures.C_T_H_PRIME:
        return ["formatted_events"]
    return []


_STAGE_DEFS: dict[str, StageDef] = {
    "ingest": StageDef(
        run=_stage_ingest,
        config=("venue", *_RANGES),
        reads=lambda c: [c.trip_source],
        writes=("daily_demand", "ingest_rejects"),
    ),
    "format_events": StageDef(
        run=_stage_format_events,
        config=_LLM_FIELDS,
        reads=lambda c: [c.event_source, *_mock_script(c)],
        reads_if_present=_template("event_format"),
        writes=("formatted_events",),
    ),
    "decompose": StageDef(
        run=_stage_decompose,
        config=("baseline", *_RANGES),
        reads=lambda c: [c.event_source, "daily_demand"],
        writes=("decomposition",),
    ),
    "predict": StageDef(
        run=_stage_predict,
        config=(*_LLM_FIELDS, *_RANGES, "history_days", "baseline", "ablation",
                "max_tokens", "fallback_budget"),
        reads=lambda c: [
            c.event_source, *_mock_script(c), "daily_demand", "decomposition", *_h_prime(c),
        ],
        reads_if_present=_template("prediction"),
        writes=("predictions", "predictions_detail", "parse_failures"),
    ),
    "evaluate": StageDef(
        run=_stage_evaluate,
        config=(*_RANGES, "history_days", "ablation", "linear_ridge_lambda", "gbdt",
                "time_bins", "text_dim"),
        reads=lambda c: [
            c.event_source, "daily_demand", "decomposition", "predictions",
        ],
        writes=(
            "report", "plot_data", "predictions_historical_average", "predictions_linear",
            "predictions_gbdt", "model_linear_out", "model_linear_in", "model_gbdt_out",
            "model_gbdt_in",
        ),
    ),
    "ablate": StageDef(
        run=_stage_ablate,
        config=(*_LLM_FIELDS, *_RANGES, "history_days", "baseline", "max_tokens",
                "ablate_models", "gbdt", "time_bins", "text_dim"),
        reads=lambda c: [
            c.event_source, *_mock_script(c), "daily_demand", "decomposition", "formatted_events",
        ],
        reads_if_present=_template("prediction"),
        writes=("ablation_report",),
    ),
    "report": StageDef(
        run=_stage_report,
        config=("venue", "test_range", "ablation"),
        reads=lambda c: ["report", "predictions_detail", "daily_demand"],
        reads_if_present=lambda c: ["ablation_report"],
        writes=("summary",),
    ),
}

_PRODUCERS = {name: stage for stage, d in _STAGE_DEFS.items() for name in d.writes}


def _stage_def(stage: str) -> StageDef:
    if stage not in _STAGE_DEFS:
        raise ConfigError(f"unknown stage: {stage}")
    return _STAGE_DEFS[stage]


def _input_digests(
    stage: str, config: PipelineConfig, digest: _FileDigests
) -> dict[str, str | None]:
    """Digests of everything the stage reads; a required file must exist."""
    stage_def = _STAGE_DEFS[stage]
    digests: dict[str, str | None] = {}
    for item in stage_def.reads(config):
        path = artifact_path(config, item) if isinstance(item, str) else Path(item)
        digests[str(path)] = digest(path)
        if digests[str(path)] is not None:
            continue
        if isinstance(item, str):
            producer = _PRODUCERS[item]
            raise PreconditionError(
                f"{stage}: missing {path.name}; run `{producer}` first",
                required_stage=producer,
            )
        raise ConfigError(f"{stage}: source file not found: {path}")
    for item in stage_def.reads_if_present(config):
        path = artifact_path(config, item) if isinstance(item, str) else Path(item)
        digests[str(path)] = digest(path)
    return digests


def _output_digests(
    stage: str, config: PipelineConfig, digest: _FileDigests
) -> dict[str, str | None]:
    return {
        str(artifact_path(config, name)): digest(artifact_path(config, name))
        for name in _STAGE_DEFS[stage].writes
    }


def _check(stage: str, config: PipelineConfig) -> tuple[dict, _FileDigests, dict, bool]:
    """The skip check: the manifest, its file digests, the stage's state (its
    config slice, inputs and outputs, as the manifest records them) and
    whether the stage's entry matches that state."""
    manifest = load_manifest(config)
    digest = _FileDigests(manifest)
    config_slice = json.dumps(
        {name: encode(getattr(config, name)) for name in _STAGE_DEFS[stage].config},
        sort_keys=True, separators=(",", ":"),
    )
    state = {
        "config_slice": hashlib.sha256(config_slice.encode("utf-8")).hexdigest(),
        "inputs": _input_digests(stage, config, digest),
        "outputs": _output_digests(stage, config, digest),
    }
    entry = manifest["stages"].get(stage)
    return manifest, digest, state, entry is not None and all(
        entry.get(key) == value for key, value in state.items()
    )


def plan_stage(stage: str, config: PipelineConfig) -> dict:
    """Dry-run view: whether the stage would be skipped, and its files."""
    stage_def = _stage_def(stage)
    try:
        _, _, state, up_to_date = _check(stage, config)
        blocked = []
    except (ConfigError, PreconditionError) as exc:
        state, up_to_date, blocked = {"inputs": {}}, False, [str(exc)]
    return {
        "stage": stage,
        "inputs": sorted(state["inputs"]),
        "outputs": [str(artifact_path(config, n)) for n in stage_def.writes],
        "would_skip": up_to_date,
        "blocked": blocked,
    }


def run_stage(
    stage: str,
    config: PipelineConfig,
    backend: ChatBackend | None = None,
) -> StageResult:
    """Run one stage, or skip it when its declared inputs and outputs are
    unchanged. A skip saves the manifest only when its check recorded a file."""
    stage_def = _stage_def(stage)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    manifest, digest, state, up_to_date = _check(stage, config)
    if up_to_date:
        if digest.added:
            save_manifest(config, manifest)
        return StageResult(stage, True, manifest["stages"][stage].get("stats", {}))

    if stage_def.needs_backend and backend is None:
        backend = build_backend(config)
    stats = stage_def.run(config, backend)
    manifest["stages"][stage] = {
        **state,
        "outputs": _output_digests(stage, config, digest),
        "stats": stats,
        "completed_at": datetime.now(timezone.utc).isoformat(),
    }
    save_manifest(config, manifest)
    return StageResult(stage, False, stats)


DEFAULT_RUN_STAGES = ("ingest", "format_events", "decompose", "predict", "evaluate", "report")


def run_pipeline(
    config: PipelineConfig,
    stages: Sequence[str] = DEFAULT_RUN_STAGES,
    backend: ChatBackend | None = None,
) -> list[StageResult]:
    """Run stages in order. A given backend is shared; otherwise each stage
    that runs builds its own, so a run whose stages all skip needs none."""
    return [run_stage(stage, config, backend) for stage in stages]
