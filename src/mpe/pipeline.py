"""Stage-oriented orchestration: ingest -> format_events -> decompose ->
predict -> evaluate -> ablate -> report.

Each stage declares the config fields it reads, the files it reads and the
files it writes (`_STAGE_DEFS`), and records digests of exactly those in
manifest.json, an artifact by name and a source by path; one walk (`_walk`)
skips, for the run and its dry-run plan alike, a stage whose declared inputs
and outputs are unchanged. A recorded digest is reused, without reading the
file, while its stat is unchanged (`_FileDigests`). Predictions are one-step-ahead
over the test range from true observed history, never from the model's own
prior outputs.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, replace
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
from .forking import fork_map
from .gateway import (
    CachingBackend,
    ChatBackend,
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    ScriptedBackend,
)
from .heuristic import HeuristicBackend
from .ioutil import atomic_write_text, read_csv, read_text, write_csv
from .metrics import (
    AblationRow,
    EvalRecord,
    canonical_grid,
    segment_report,
    write_ablation_csv,
    write_plot_csv,
    write_report_csv,
)
from .parsing import (
    PredictionResult,
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
    """live -> HTTP behind the response store, under cache_dir or else
    <output_dir>/responses; mock -> scripted file; heuristic -> rule-based
    responder. These two are behind the store only when cache_dir is set."""
    store = config.cache_dir
    if config.backend_kind == "live":
        inner: ChatBackend = HttpBackend(config.backend)
        store = store or config.output_dir / "responses"
    elif config.backend_kind == "mock":
        if config.mock_script is None:
            raise ConfigError("backend kind 'mock' requires mock_script")
        inner = ScriptedBackend.from_file(config.mock_script)
    else:
        inner = HeuristicBackend()
    return inner if store is None else CachingBackend(inner, store)


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
    records under a file's key while the file's stat equals the recorded one.

    A file that is hashed is recorded in the table, as its stat followed by
    its digest, only if its stat did not change while it was read and its
    ctime was outside the racy margin; `added` tells whether any was. A
    racy file's record is kept for this walk only, in `racy`.
    """

    def __init__(self, manifest: dict):
        files = manifest.get("files")
        self.files = manifest["files"] = files if isinstance(files, dict) else {}
        self.racy: dict[str, list] = {}
        self.added = False

    def __call__(self, key: str, path: Path) -> str | None:
        """The SHA-256 of the file at `path`, or None when it does not exist."""
        now = time.time_ns()
        before = _stat(path)
        if before is None:
            return None
        record = self.files.get(key, self.racy.get(key))
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
        if _stat(path) == before:
            recorded = before[4] < now - _RACY_MARGIN_NS
            (self.files if recorded else self.racy)[key] = [*before, digest]
            self.added |= recorded
        return digest


def _manifest_path(config: PipelineConfig) -> Path:
    return config.output_dir / "manifest.json"


def load_manifest(config: PipelineConfig) -> dict:
    """The manifest; a missing, corrupt or misshapen one reads as no stages
    recorded, and a stage entry that is not an object as absent."""
    try:
        manifest = json.loads(read_text(_manifest_path(config)))
    except (OSError, ValueError):
        manifest = None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("stages"), dict):
        return {"stages": {}}
    manifest["stages"] = {k: v for k, v in manifest["stages"].items() if isinstance(v, dict)}
    return manifest


def save_manifest(config: PipelineConfig, manifest: dict) -> None:
    """Write the manifest atomically; no manifest reads as no stage recorded."""
    manifest["backend"] = config.backend_kind
    atomic_write_text(_manifest_path(config), json.dumps(manifest, indent=2, sort_keys=True))


class StageResult(NamedTuple):
    stage: str
    skipped: bool
    stats: dict


# ---------------------------------------------------------------------------
# Shared stage helpers
# ---------------------------------------------------------------------------


def _write_jsonl(path: Path, docs: Iterable[dict]) -> None:
    """One JSON document per line, keys sorted, non-ASCII kept as is."""
    lines = (json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n" for doc in docs)
    atomic_write_text(path, "".join(lines))


def _write_prediction_csv(rows: Iterable[tuple], model_name: str, path: Path) -> None:
    """A predictions CSV; the caller formats the two prediction columns."""
    write_csv(
        path, ["date", "pred_out", "pred_in", "model_name"],
        ([day.isoformat(), pred_out, pred_in, model_name] for day, pred_out, pred_in in rows),
    )


def _load_catalog(config: PipelineConfig) -> list[EventRecord]:
    try:
        text = read_text(config.event_source)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read event source {config.event_source}: {exc}") from exc
    return parse_event_records(text)


class _History(NamedTuple):
    """The event calendar and the day decompositions, which hold true demand."""

    calendar: Mapping[date, DayEvents]
    decompositions: Mapping[date, DemandDecomposition]


def _load_history(config: PipelineConfig) -> _History:
    calendar = day_events_index(_load_catalog(config), config.full_range)
    decompositions = {
        d.date: d for d in read_decomposition_csv(artifact_path(config, "decomposition"))
    }
    return _History(calendar, decompositions)


def _formatted_lookup(config: PipelineConfig) -> dict[tuple[str, str | None], tuple[str, str]]:
    doc = json.loads(read_text(artifact_path(config, "formatted_events")))
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


class _Reply(NamedTuple):
    value: object | None  # the parsed reply; None when both replies were malformed
    response: ChatResponse  # the last response
    digest: str  # the last request's cache key
    failures: tuple[tuple[str, MalformedReplyError], ...]  # (digest, error) per malformed reply


def _ask(
    backend: ChatBackend, request: ChatRequest, reminder: str, parse: Callable[[str], object]
) -> _Reply:
    """Ask, and re-ask once with a format reminder when the reply does not parse."""
    failures = []
    reprompt = replace(request, messages=request.messages + (ChatMessage("user", reminder),))
    for attempt in (request, reprompt):
        digest = attempt.digest
        response = backend.complete(attempt)
        try:
            return _Reply(parse(response.content), response, digest, tuple(failures))
        except MalformedReplyError as exc:
            failures.append((digest, exc))
    return _Reply(None, response, digest, tuple(failures))


def _map(config: PipelineConfig, backend: ChatBackend, fn: Callable, items: Iterable) -> list:
    """`fn` over `items`; results and first failure in item order. Threads
    overlap only a backend that waits; else, or below two, here in series."""
    if config.concurrency < 2 or not getattr(backend, "waits", ChatBackend.waits):
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        return list(pool.map(fn, items))


class DayPrediction(NamedTuple):
    result: PredictionResult
    fallback: bool
    failures: tuple[dict, ...]  # parse_failures.jsonl documents
    request_digest: str


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

    def predict_day(i: int) -> DayPrediction:
        day = targets.start + timedelta(days=i)
        baseline = history.decompositions[day].baseline
        request = build_prediction_prompt(
            HistoryWindow(tuple(contexts[i:i + n])),
            DayContext(day, target_events[i]),
            baseline,
            ablation,
            model=config.model,
            templates=templates,
            description_word_cap=config.max_description_words,
            temperature=config.temperature,
            history_lines=lines[i:i + n],
        )
        if config.max_tokens is not None:
            request = replace(request, max_tokens=config.max_tokens)
        reply = _ask(backend, request, PREDICTION_REMINDER,
                     lambda text: parse_prediction(text, day))
        failures = tuple({"date": day.isoformat(), "request_digest": d, "reason": str(exc),
                          "raw_reply": exc.raw} for d, exc in reply.failures)
        if reply.value is not None:
            return DayPrediction(reply.value, False, failures, reply.digest)
        fallback = PredictionResult(
            date=day,
            pickup=max(0, round_half_up(baseline.outflow)),
            dropoff=max(0, round_half_up(baseline.inflow)),
            reasoning="fallback: baseline",
            raw_response=reply.response.content,
        )
        return DayPrediction(fallback, True, failures, reply.digest)

    return _map(config, backend, predict_day, range(targets.n_days))


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def _stage_ingest(config: PipelineConfig, _backend) -> dict:
    rejects: list[RejectionNote] = []
    try:
        with open(config.trip_source, "rb") as fh:
            trips = TripFile(fh, rejects, config.concurrency)
            series = aggregate_daily_demand(trips, config.venue, config.full_range)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trip source {config.trip_source}: {exc}") from exc
    write_daily_demand_csv(series, artifact_path(config, "daily_demand"))
    rejected = ({"row": r.row, "reason": r.reason} for r in rejects)
    _write_jsonl(artifact_path(config, "ingest_rejects"), rejected)
    return {"trips": trips.valid, "rejects": len(rejects), "days": len(series)}


def _stage_format_events(config: PipelineConfig, backend: ChatBackend) -> dict:
    catalog = _load_catalog(config)
    unique: dict[tuple[str, str | None], EventRecord] = {}
    for record in catalog:
        unique.setdefault((record.title, record.description), record)
    templates = config.templates()

    def format_event(record: EventRecord) -> dict:
        request = build_event_format_prompt(
            record,
            model=config.model,
            templates=templates,
            description_word_cap=config.max_description_words,
            temperature=config.temperature,
        )
        reply = _ask(backend, request, EVENT_REMINDER,
                     lambda text: parse_formatted_event(text, record))
        if reply.value is None:
            error = reply.failures[-1][1]
            raise StageError(f"could not format event {record.title!r}: {error}") from error
        return {
            "title": record.title,
            "description": record.description,
            "category": reply.value.category,
            "summary": reply.value.summary,
        }

    records = [unique[k] for k in sorted(unique, key=lambda k: (k[0], k[1] or ""))]
    entries = _map(config, backend, format_event, records)
    atomic_write_text(
        artifact_path(config, "formatted_events"),
        json.dumps(entries, indent=2, sort_keys=True, ensure_ascii=False),
    )
    return {"events": len(catalog), "unique": len(unique)}


def _stage_decompose(config: PipelineConfig, _backend) -> dict:
    demand = demand_index(read_daily_demand_csv(artifact_path(config, "daily_demand")))
    calendar = day_events_index(_load_catalog(config), config.full_range)
    days = list(config.full_range.days())[1:]  # no prior history exists for the very first day
    rows = [decompose(demand[d], weekday_baseline(demand, calendar, d, config.baseline))
            for d in days]
    write_decomposition_csv(rows, artifact_path(config, "decomposition"))
    return {"days": len(rows)}


def _backend_call_count(backend: ChatBackend) -> int | None:
    """Calls that reached the model: the `call_count` of the backend an
    overlay wraps, or else of the backend itself."""
    return getattr(getattr(backend, "inner", backend), "call_count", None)


def _stage_predict(config: PipelineConfig, backend: ChatBackend) -> dict:
    history = _load_history(config)
    formatted = _formatted_lookup(config) if _h_prime(config) else None
    predictions = _run_predictions(
        config, backend, config.ablation, history, formatted, config.templates(),
        config.test_range,
    )

    _write_prediction_csv(
        ((p.result.date, p.result.pickup, p.result.dropoff) for p in predictions),
        LLM_MODEL_NAME,
        artifact_path(config, "predictions"),
    )
    _write_jsonl(artifact_path(config, "predictions_detail"), ({
        "date": p.result.date.isoformat(),
        "pickup": p.result.pickup,
        "dropoff": p.result.dropoff,
        "reasoning": p.result.reasoning,
        "raw_response": p.result.raw_response,
        "fallback": p.fallback,
        "request_digest": p.request_digest,
    } for p in predictions))
    failures = [doc for p in predictions for doc in p.failures]
    _write_jsonl(artifact_path(config, "parse_failures"), failures)

    fallbacks = sum(1 for p in predictions if p.fallback)
    rate = fallbacks / len(predictions) if predictions else 0.0
    if rate > config.fallback_budget:
        raise FallbackBudgetError(
            f"fallback rate {rate:.3f} exceeds budget {config.fallback_budget:.3f}"
        )
    return {
        "days": len(predictions),
        "fallbacks": fallbacks,
        "fallback_rate": rate,
        "parse_failures": len(failures),
    }


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
    decompositions = history.decompositions
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
    # The GBDTs fit before the ridge: a solve leaves OpenBLAS threads
    # spinning for a while, and they would take CPU from the GBDT workers.
    gbdt_models = _fit_gbdts(config, X_train, (y_out, y_in)) if "gbdt" in kinds else ()
    for kind in kinds:
        if kind == "gbdt":  # one call scores every test row
            models = gbdt_models
            outs, ins = (predict_gbdt(m, X_test).tolist() for m in models)
        else:
            lam = config.linear_ridge_lambda
            models = (fit_linear(X_train, y_out, lam), fit_linear(X_train, y_in, lam))
            outs, ins = ([predict_linear(m, x) for x in X_test] for m in models)
        records = []
        for target, pred_out, pred_in in zip(test_targets, outs, ins):
            if residual:
                baseline = decompositions[target].baseline
                pred_out += baseline.outflow
                pred_in += baseline.inflow
            records.append(EvalRecord(
                target, decompositions[target].actual,
                Flows(max(0.0, pred_out), max(0.0, pred_in)),
            ))
        fits[kind] = _ClassicalFit(records, models)
    return fits


def _fit_gbdts(config: PipelineConfig, X: np.ndarray, targets: Sequence[np.ndarray]) -> tuple:
    """`fit_gbdt` of `X` on each of `targets`, in order, side by side on
    fork workers bounded by `concurrency` (see `fork_map`)."""
    return tuple(fork_map(fit_gbdt, [(X, y, config.gbdt) for y in targets], config.concurrency))


def _classical_ablation(ablation: AblationConfig) -> AblationConfig:
    """Classical models cannot consume h'; downgrade to raw descriptions."""
    if ablation.event_features is EventFeatures.C_T_H_PRIME:
        return AblationConfig(EventFeatures.C_T_H, ablation.demand_features)
    return ablation


def _read_prediction_csv(path: Path) -> list[tuple[date, Flows]]:
    return [
        (date.fromisoformat(row["date"]),
         Flows(float(row["pred_out"]), float(row["pred_in"])))
        for row in read_csv(path)
    ]


def _stage_evaluate(config: PipelineConfig, _backend) -> dict:
    history = _load_history(config)
    calendar, decompositions = history.calendar, history.decompositions

    llm_records = [
        EvalRecord(d, decompositions[d].actual, pred)
        for d, pred in _read_prediction_csv(artifact_path(config, "predictions"))
    ]
    reports = [segment_report(llm_records, calendar, LLM_MODEL_NAME, config.ablation)]

    classical_ablation = _classical_ablation(config.ablation)
    fits = _fit_classical(config, classical_ablation, history, ("linear", "gbdt"))
    fits["historical_average"] = _ClassicalFit([  # no model to save
        EvalRecord(d, decompositions[d].actual, decompositions[d].baseline)
        for d in config.test_range.days()
    ], ())
    for model_kind in CLASSICAL_MODELS:
        records, models = fits[model_kind]
        for flow, model in zip(("out", "in"), models):
            save_model(model, artifact_path(config, f"model_{model_kind}_{flow}"))
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
            EvalRecord(p.result.date, history.decompositions[p.result.date].actual,
                       Flows(float(p.result.pickup), float(p.result.dropoff)))
            for p in predictions
        ]

    def gbdt_runner(ablation: AblationConfig) -> list[EvalRecord] | None:
        if ablation.event_features is EventFeatures.C_T_H_PRIME:
            return None  # not applicable for classical baselines
        return _fit_classical(config, ablation, history, ("gbdt",))["gbdt"].records

    models = {LLM_MODEL_NAME: (EventFeatures.C_T_H_PRIME, llm_runner),
              "gbdt": (EventFeatures.C_T_H, gbdt_runner)}
    rows: list[AblationRow] = []
    for model_name in config.ablate_models:
        full_event, runner = models[model_name]  # PipelineConfig admits no other name
        for ablation in canonical_grid(full_event):
            records = runner(ablation)  # None: not applicable for this model
            report = None if records is None else segment_report(
                records, history.calendar, model_name, ablation)
            rows.append(AblationRow(model_name, ablation, report))
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
    for row in read_csv(artifact_path(config, "report")):
        models.add(row["model"])
        if row["segment"] not in ("all", "event", "non_event"):
            continue
        lines.append(
            f"  {row['model']:<20} {row['ablation']:<16} {row['segment']:<10}"
            f" n={row['n']:<5} rmse={row['rmse']:<11} mae={row['mae']:<11}"
            f" mape={row['mape'] or 'n/a':<9} r2={row['r2'] or 'n/a'}"
        )
    # One document a line, split on "\n" alone: a reply may hold U+2028 or U+0085.
    detail = read_text(artifact_path(config, "predictions_detail")).split("\n")
    fallbacks = [json.loads(line)["fallback"] for line in detail if line]
    rate = sum(fallbacks) / len(fallbacks) if fallbacks else 0.0
    lines += [
        "",
        f"Prediction fallback rate: {rate:.4f} ({sum(fallbacks)} of {len(fallbacks)} days)",
    ]
    # Every model is scored on every test day, so each skips the same MAPE terms.
    zeros = sum(
        (d.actual.outflow == 0) + (d.actual.inflow == 0)
        for d in read_decomposition_csv(artifact_path(config, "decomposition"))
        if d.date in config.test_range
    )
    if zeros:
        lines.append(
            "MAPE terms skipped for zero true demand: "
            + ", ".join(f"{m}={zeros}" for m in sorted(models))
        )
    ablation_path = artifact_path(config, "ablation_report")
    if ablation_path.exists():
        lines += ["", "Ablation grid (event-day rows):"]
        for row in read_csv(ablation_path):
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
    are not among them: the files they name are read, and a source file's
    digest is keyed by its path. `reads` lists files that must exist, as artifact
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
            c.event_source, *_mock_script(c), "decomposition", *_h_prime(c),
        ],
        reads_if_present=_template("prediction"),
        writes=("predictions", "predictions_detail", "parse_failures"),
    ),
    "evaluate": StageDef(
        run=_stage_evaluate,
        config=(*_RANGES, "history_days", "ablation", "linear_ridge_lambda", "gbdt",
                "time_bins", "text_dim"),
        reads=lambda c: [
            c.event_source, "decomposition", "predictions",
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
            c.event_source, *_mock_script(c), "decomposition", "formatted_events",
        ],
        reads_if_present=_template("prediction"),
        writes=("ablation_report",),
    ),
    "report": StageDef(
        run=_stage_report,
        config=("venue", "test_range", "ablation"),
        reads=lambda c: ["report", "predictions_detail", "decomposition"],
        reads_if_present=lambda c: ["ablation_report"],
        writes=("summary",),
    ),
}

_PRODUCERS = {name: stage for stage, d in _STAGE_DEFS.items() for name in d.writes}


def _key_path(config: PipelineConfig, item: str | Path) -> tuple[str, Path]:
    """The manifest key and path of a `reads` or `writes` item: an artifact's
    name, so a copied or moved output directory keeps its keys, or a source's path."""
    return (item, artifact_path(config, item)) if isinstance(item, str) else (str(item), item)


def _digests(config: PipelineConfig, items: Iterable, digest: _FileDigests) -> dict:
    return {key: digest(key, path) for key, path in (_key_path(config, i) for i in items)}


def _check(
    stage: str, config: PipelineConfig, manifest: dict, digest: _FileDigests
) -> tuple[dict, bool]:
    """The skip check: the stage's state (its config slice, inputs and
    outputs, as the manifest records them) and whether the stage's entry in
    `manifest` matches that state. A required input must exist."""
    stage_def = _STAGE_DEFS[stage]
    config_slice = json.dumps(
        {name: encode(getattr(config, name)) for name in stage_def.config},
        sort_keys=True, separators=(",", ":"),
    )
    inputs: dict[str, str | None] = {}
    for item in stage_def.reads(config):
        key, path = _key_path(config, item)
        inputs[key] = digest(key, path)
        if inputs[key] is not None:
            continue
        if isinstance(item, str):
            producer = _PRODUCERS[item]
            raise PreconditionError(
                f"{stage}: missing {path.name}; run `{producer}` first",
                required_stage=producer,
            )
        raise ConfigError(f"{stage}: source file not found: {path}")
    inputs.update(_digests(config, stage_def.reads_if_present(config), digest))
    state = {
        "config_slice": hashlib.sha256(config_slice.encode("utf-8")).hexdigest(),
        "inputs": inputs,
        "outputs": _digests(config, stage_def.writes, digest),
    }
    entry = manifest["stages"].get(stage)
    return state, entry is not None and all(entry.get(key) == value for key, value in state.items())


def _walk(
    config: PipelineConfig, stages: Sequence[str], manifest: dict, digest: _FileDigests,
    planning: bool = False,
) -> Iterator[tuple]:
    """Check every name, then yield (stage, outcome, detail) per stage: "skip"
    (up to date) or "run" with the checked state; "blocked" with the error;
    "not reached", as is each stage after a blocked one. A run resumes the
    walk once the stage has run, so the next check sees its outputs. A plan
    (`planning`) runs nothing, so a stage that reads an artifact of a stage
    planned to run is to run, unchecked (state None)."""
    for stage in stages:
        if stage not in _STAGE_DEFS:
            raise ConfigError(f"unknown stage: {stage}")
    pending: set[str] = set()  # artifacts of the stages planned to run
    blocked = False
    for stage in stages:
        stage_def = _STAGE_DEFS[stage]
        if blocked:
            outcome, detail = "not reached", None
        elif pending and not pending.isdisjoint(
                [*stage_def.reads(config), *stage_def.reads_if_present(config)]):
            outcome, detail = "run", None
        else:
            try:
                detail, up_to_date = _check(stage, config, manifest, digest)
                outcome = "skip" if up_to_date else "run"
            except (ConfigError, PreconditionError) as exc:
                outcome, detail, blocked = "blocked", exc, True
        if planning and outcome == "run":
            pending.update(stage_def.writes)
        yield stage, outcome, detail


def plan_pipeline(config: PipelineConfig, stages: Sequence[str]) -> list[dict]:
    """Dry-run view of `run_pipeline(config, stages)`: per stage, its `_walk`
    outcome, whether it would skip, what blocks it, whether the run reaches
    it, and the files it writes. The manifest is read once; nothing is saved."""
    manifest = load_manifest(config)
    return [{
        "stage": stage,
        "outcome": outcome,
        "outputs": [str(artifact_path(config, n)) for n in _STAGE_DEFS[stage].writes],
        "would_skip": outcome == "skip",
        "blocked": [str(detail)] if outcome == "blocked" else [],
        "reached": outcome != "not reached",
    } for stage, outcome, detail in _walk(
        config, stages, manifest, _FileDigests(manifest), planning=True)]


def _telemetry(wall: float, cpu: float, children) -> dict:
    """Wall and CPU seconds since the given readings, to the microsecond and with
    waited-for children's CPU, and the peak RSS of this process and of them."""
    now = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = now.ru_utime - children.ru_utime + now.ru_stime - children.ru_stime
    return {
        "wall_s": round(time.perf_counter() - wall, 6),
        "cpu_s": round(time.process_time() - cpu + child_cpu, 6),
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_max_rss_kb": now.ru_maxrss,
    }


def run_stage(
    stage: str,
    config: PipelineConfig,
    backend: ChatBackend | None = None,
) -> StageResult:
    """Run one stage as `run_pipeline` runs it."""
    return run_pipeline(config, (stage,), backend)[0]


DEFAULT_RUN_STAGES = ("ingest", "format_events", "decompose", "predict", "evaluate", "report")


def run_pipeline(
    config: PipelineConfig,
    stages: Sequence[str] = DEFAULT_RUN_STAGES,
    backend: ChatBackend | None = None,
) -> list[StageResult]:
    """Run stages in order, each skipped when its declared inputs and outputs
    are unchanged; the first blocked stage raises. The manifest is read once;
    it is saved after each stage that runs and each skip whose check recorded
    a file. A given backend is shared and is the caller's to close; otherwise
    each stage that runs and needs one builds its own and closes it, so a run
    whose stages all skip needs none."""
    manifest = load_manifest(config)
    digest = _FileDigests(manifest)
    results = []
    for stage, outcome, detail in _walk(config, stages, manifest, digest):
        stage_def = _STAGE_DEFS[stage]
        if outcome == "blocked":
            raise detail
        if outcome == "run":
            started = (time.perf_counter(), time.process_time(),
                       resource.getrusage(resource.RUSAGE_CHILDREN))
            built = stage_def.needs_backend and backend is None
            stage_backend = build_backend(config) if built else backend
            try:
                before = _backend_call_count(stage_backend) if stage_def.needs_backend else None
                stats = stage_def.run(config, stage_backend)
                if before is not None:
                    stats["backend_calls"] = _backend_call_count(stage_backend) - before
            finally:
                if built:
                    stage_backend.close()
            manifest["stages"][stage] = {
                **detail,
                "outputs": _digests(config, stage_def.writes, digest),
                "stats": stats,
                **_telemetry(*started),
                "completed_at": datetime.now(timezone.utc).isoformat(),
            }
        if digest.added or outcome == "run":
            save_manifest(config, manifest)
            digest.added = False
        skipped = outcome == "skip"
        results.append(StageResult(stage, skipped, manifest["stages"][stage].get("stats", {})))
    return results
