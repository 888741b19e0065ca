"""Stage-oriented orchestration: ingest -> format_events -> decompose ->
predict -> evaluate -> ablate -> report.

Each stage reads declared inputs, writes declared outputs under the output
directory, and records digests in manifest.json; re-running a stage whose
inputs and outputs are unchanged is a no-op. Predictions are one-step-ahead
over the test range from true observed history, never from the model's own
prior outputs.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .baselines import (
    FeaturizerConfig,
    GbdtParams,
    fit_gbdt,
    fit_linear,
    featurize_day,
    predict_gbdt,
    predict_linear,
    save_model,
)
from .decomposition import (
    BaselineConfig,
    DemandDecomposition,
    Fallback,
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
    BackendConfig,
    CachingBackend,
    ChatBackend,
    ChatMessage,
    ChatRequest,
    HttpBackend,
    ScriptedBackend,
    cache_key,
    with_cache,
)
from .geo import GeoPoint, bounding_box
from .heuristic import HeuristicBackend
from .ioutil import atomic_write_text, atomic_writer
from .metrics import (
    AblationRow,
    EvalRecord,
    canonical_grid,
    run_ablation,
    segment_report,
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
    DEFAULT_TEMPLATES,
    DemandFeatures,
    EventFeatures,
    HistoryWindow,
    PromptTemplates,
    REPLY_FORM_EVENT,
    REPLY_FORM_PREDICTION,
    build_event_format_prompt,
    build_prediction_prompt,
    load_templates,
    round_half_up,
)
from .trips import (
    DailyDemand,
    DateRange,
    RejectionNote,
    VenueConfig,
    aggregate_daily_demand,
    demand_index,
    iter_trip_rows,
    read_daily_demand_csv,
    trip_record,
    write_daily_demand_csv,
)

STAGES = ("ingest", "format_events", "decompose", "predict", "evaluate", "ablate", "report")
BACKEND_KINDS = ("live", "mock", "cache", "heuristic")
LLM_MODEL_NAME = "llm"

PREDICTION_REMINDER = f"Reminder: reply in exactly this form: {REPLY_FORM_PREDICTION}"
EVENT_REMINDER = f"Reminder: reply in exactly this form: {REPLY_FORM_EVENT}"


@dataclass(frozen=True)
class PipelineConfig:
    venue: VenueConfig
    trip_source: Path
    event_source: Path
    train_range: DateRange
    test_range: DateRange
    output_dir: Path
    history_days: int = 28
    baseline: BaselineConfig = BaselineConfig()
    model: str = "gpt-4"
    temperature: float = 0.0
    max_tokens: int | None = None
    backend_kind: str = "mock"
    backend: BackendConfig = BackendConfig()
    mock_script: Path | None = None
    cache_dir: Path | None = None
    ablation: AblationConfig = AblationConfig()
    concurrency: int = 4
    fallback_budget: float = 1.0
    max_description_words: int = 500
    template_dir: Path | None = None
    linear_ridge_lambda: float = 1.0
    gbdt: GbdtParams = GbdtParams()
    time_bins: int = 24
    text_dim: int = 32
    ablate_models: tuple[str, ...] = (LLM_MODEL_NAME,)
    extra_predictions: tuple[Path, ...] = ()

    def __post_init__(self):
        if self.history_days < 1:
            raise ConfigError("history_days must be positive")
        if self.train_range.end >= self.test_range.start:
            raise ConfigError("train_range must end before test_range begins")
        if self.backend_kind not in BACKEND_KINDS:
            raise ConfigError(f"backend kind must be one of {BACKEND_KINDS}")
        if self.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        if not (0.0 <= self.fallback_budget <= 1.0):
            raise ConfigError("fallback_budget must be in [0, 1]")

    @property
    def full_range(self) -> DateRange:
        return DateRange(self.train_range.start, self.test_range.end)

    def templates(self) -> PromptTemplates:
        if self.template_dir is None:
            return DEFAULT_TEMPLATES
        return load_templates(self.template_dir)

    def to_dict(self) -> dict:
        return {
            "venue": {
                "name": self.venue.name,
                "lat": self.venue.center.lat,
                "lon": self.venue.center.lon,
                "radius_m": self.venue.radius_m,
                "timezone": self.venue.timezone,
            },
            "trip_source": str(self.trip_source),
            "event_source": str(self.event_source),
            "train_range": [self.train_range.start.isoformat(), self.train_range.end.isoformat()],
            "test_range": [self.test_range.start.isoformat(), self.test_range.end.isoformat()],
            "output_dir": str(self.output_dir),
            "history_days": self.history_days,
            "baseline": {
                "lookback_weeks": self.baseline.lookback_weeks,
                "min_samples": self.baseline.min_samples,
                "fallback": self.baseline.fallback.value,
            },
            "model": self.model,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "backend_kind": self.backend_kind,
            "backend": {
                "base_url": self.backend.base_url,
                "timeout_s": self.backend.timeout_s,
                "max_retries": self.backend.max_retries,
                "retry_backoff_s": self.backend.retry_backoff_s,
            },
            "mock_script": str(self.mock_script) if self.mock_script else None,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "ablation": self.ablation.name,
            "concurrency": self.concurrency,
            "fallback_budget": self.fallback_budget,
            "max_description_words": self.max_description_words,
            "template_dir": str(self.template_dir) if self.template_dir else None,
            "linear_ridge_lambda": self.linear_ridge_lambda,
            "gbdt": {
                "n_trees": self.gbdt.n_trees,
                "max_depth": self.gbdt.max_depth,
                "learning_rate": self.gbdt.learning_rate,
                "min_leaf": self.gbdt.min_leaf,
            },
            "time_bins": self.time_bins,
            "text_dim": self.text_dim,
            "ablate_models": list(self.ablate_models),
            "extra_predictions": [str(p) for p in self.extra_predictions],
        }

    @classmethod
    def from_dict(cls, doc: dict, base_dir: Path | None = None) -> "PipelineConfig":
        def path_of(value, required_name=None):
            if value is None:
                if required_name:
                    raise ConfigError(f"config missing required path: {required_name}")
                return None
            p = Path(value)
            if base_dir is not None and not p.is_absolute():
                p = base_dir / p
            return p

        try:
            venue_doc = doc["venue"]
            venue = VenueConfig(
                name=venue_doc["name"],
                center=GeoPoint(venue_doc["lat"], venue_doc["lon"]),
                radius_m=venue_doc.get("radius_m", 220.0),
                timezone=venue_doc.get("timezone", "America/New_York"),
            )
            baseline_doc = doc.get("baseline", {})
            baseline = BaselineConfig(
                lookback_weeks=baseline_doc.get("lookback_weeks", 8),
                min_samples=baseline_doc.get("min_samples", 2),
                fallback=Fallback(baseline_doc.get("fallback", "expand_window")),
            )
            backend_doc = doc.get("backend", {})
            kind = backend_doc.get("kind", doc.get("backend_kind", "mock"))
            backend = BackendConfig(
                base_url=backend_doc.get("base_url", "https://api.openai.com"),
                timeout_s=backend_doc.get("timeout_s", 60.0),
                max_retries=backend_doc.get("max_retries", 3),
                retry_backoff_s=backend_doc.get("retry_backoff_s", 2.0),
            )
            gbdt_doc = doc.get("gbdt", {})
            gbdt = GbdtParams(
                n_trees=gbdt_doc.get("n_trees", 200),
                max_depth=gbdt_doc.get("max_depth", 3),
                learning_rate=gbdt_doc.get("learning_rate", 0.05),
                min_leaf=gbdt_doc.get("min_leaf", 5),
            )
            return cls(
                venue=venue,
                trip_source=path_of(doc.get("trip_source"), "trip_source"),
                event_source=path_of(doc.get("event_source"), "event_source"),
                train_range=DateRange(
                    date.fromisoformat(doc["train_range"][0]),
                    date.fromisoformat(doc["train_range"][1]),
                ),
                test_range=DateRange(
                    date.fromisoformat(doc["test_range"][0]),
                    date.fromisoformat(doc["test_range"][1]),
                ),
                output_dir=path_of(doc.get("output_dir", "out")),
                history_days=doc.get("history_days", 28),
                baseline=baseline,
                model=doc.get("model", "gpt-4"),
                temperature=doc.get("temperature", 0.0),
                max_tokens=doc.get("max_tokens"),
                backend_kind=kind,
                backend=backend,
                mock_script=path_of(backend_doc.get("mock_script", doc.get("mock_script"))),
                cache_dir=path_of(doc.get("cache_dir")),
                ablation=AblationConfig.parse(doc.get("ablation", "c_t_h_prime/r_i")),
                concurrency=doc.get("concurrency", 4),
                fallback_budget=doc.get("fallback_budget", 1.0),
                max_description_words=doc.get("max_description_words", 500),
                template_dir=path_of(doc.get("template_dir")),
                linear_ridge_lambda=doc.get("linear_ridge_lambda", 1.0),
                gbdt=gbdt,
                time_bins=doc.get("time_bins", 24),
                text_dim=doc.get("text_dim", 32),
                ablate_models=tuple(doc.get("ablate_models", [LLM_MODEL_NAME])),
                extra_predictions=tuple(
                    path_of(p) for p in doc.get("extra_predictions", [])
                ),
            )
        except ConfigError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid pipeline config: {exc}") from exc

    @classmethod
    def from_file(cls, path: Path | str) -> "PipelineConfig":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc, base_dir=path.parent)


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
        return with_cache(inner, config.cache_dir)
    return inner


# ---------------------------------------------------------------------------
# Artifacts and manifest
# ---------------------------------------------------------------------------

ARTIFACTS = {
    "daily_demand": ("ingest", "daily_demand.csv"),
    "ingest_rejects": ("ingest", "ingest_rejects.jsonl"),
    "formatted_events": ("format_events", "formatted_events.json"),
    "decomposition": ("decompose", "decomposition.csv"),
    "predictions": ("predict", "predictions.csv"),
    "predictions_detail": ("predict", "predictions.jsonl"),
    "parse_failures": ("predict", "parse_failures.jsonl"),
    "report": ("evaluate", "report.csv"),
    "plot_data": ("evaluate", "plot_data.csv"),
    "ablation_report": ("ablate", "ablation_report.csv"),
    "summary": ("report", "summary.txt"),
}


def artifact_path(config: PipelineConfig, name: str) -> Path:
    return config.output_dir / ARTIFACTS[name][1]


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_digest(config: PipelineConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def template_digest(config: PipelineConfig) -> str:
    templates = config.templates()
    blob = templates.event_format + "\x00" + templates.prediction
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _manifest_path(config: PipelineConfig) -> Path:
    return config.output_dir / "manifest.json"


def load_manifest(config: PipelineConfig) -> dict:
    path = _manifest_path(config)
    if not path.exists():
        return {"stages": {}}
    try:
        return json.loads(path.read_text())
    except ValueError:
        return {"stages": {}}


def save_manifest(config: PipelineConfig, manifest: dict) -> None:
    manifest["config_digest"] = config_digest(config)
    manifest["template_digest"] = template_digest(config)
    manifest["backend"] = config.backend_kind
    atomic_write_text(
        _manifest_path(config), json.dumps(manifest, indent=2, sort_keys=True)
    )


class StageResult(NamedTuple):
    stage: str
    skipped: bool
    outputs: tuple[str, ...]
    stats: dict


# ---------------------------------------------------------------------------
# Shared stage helpers
# ---------------------------------------------------------------------------


def _load_catalog(config: PipelineConfig) -> list[EventRecord]:
    try:
        text = Path(config.event_source).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read event source {config.event_source}: {exc}") from exc
    return parse_event_records(text)


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


class DayPrediction(NamedTuple):
    result: PredictionResult
    fallback: bool
    failures: tuple[str, ...]
    request_digest: str


def _predict_day(
    target: date,
    demand: Mapping[date, DailyDemand],
    calendar: Mapping[date, DayEvents],
    decompositions: Mapping[date, DemandDecomposition],
    config: PipelineConfig,
    backend: ChatBackend,
    ablation: AblationConfig,
    formatted: Mapping[tuple[str, str | None], tuple[str, str]] | None,
) -> DayPrediction:
    templates = config.templates()
    days = []
    for offset in range(config.history_days, 0, -1):
        day = target - timedelta(days=offset)
        if day not in decompositions:
            raise StageError(f"no decomposition for history day {day} (target {target})")
        day_events = calendar.get(day, DayEvents(day))
        days.append(DayContext(
            date=day,
            events=_events_for_prompt(day_events, ablation, formatted),
            decomposition=decompositions[day],
        ))
    window = HistoryWindow(tuple(days))

    if target in decompositions:
        baseline = decompositions[target].baseline
    else:
        baseline = weekday_baseline(demand, calendar, target, config.baseline)

    target_events = calendar.get(target, DayEvents(target))
    target_context = DayContext(
        date=target,
        events=_events_for_prompt(target_events, ablation, formatted),
        decomposition=None,
    )
    request = build_prediction_prompt(
        window,
        target_context,
        baseline,
        ablation,
        model=config.model,
        templates=templates,
        description_word_cap=config.max_description_words,
        temperature=config.temperature,
    )
    if config.max_tokens is not None:
        request = ChatRequest(
            model=request.model,
            messages=request.messages,
            temperature=request.temperature,
            max_tokens=config.max_tokens,
        )
    digest = cache_key(request)

    failures: list[str] = []
    response = backend.complete(request)
    try:
        result = parse_prediction(response.content, target)
        return DayPrediction(result, False, tuple(failures), digest)
    except MalformedReplyError as exc:
        failures.append(failure_record(target, digest, exc.raw, str(exc)))

    retry = ChatRequest(
        model=request.model,
        messages=request.messages + (ChatMessage("user", PREDICTION_REMINDER),),
        temperature=request.temperature,
        max_tokens=request.max_tokens,
    )
    retry_digest = cache_key(retry)
    response = backend.complete(retry)
    try:
        result = parse_prediction(response.content, target)
        return DayPrediction(result, False, tuple(failures), retry_digest)
    except MalformedReplyError as exc:
        failures.append(failure_record(target, retry_digest, exc.raw, str(exc)))

    fallback = PredictionResult(
        date=target,
        pickup=max(0, round_half_up(baseline.outflow)),
        dropoff=max(0, round_half_up(baseline.inflow)),
        reasoning="fallback: baseline",
        raw_response=response.content,
    )
    return DayPrediction(fallback, True, tuple(failures), retry_digest)


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
    return _predict_day(
        target, demand, calendar, decompositions, config, backend,
        config.ablation, formatted,
    ).result


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------


def _stage_ingest(config: PipelineConfig, _backend) -> dict:
    venue = config.venue
    box = bounding_box(venue.center, venue.radius_m)
    rejects: list[RejectionNote] = []
    valid = 0

    def near_venue(rows):
        # Only a row with an end inside the box can count; the exact
        # haversine in aggregate_daily_demand decides each one that does.
        nonlocal valid
        for row in rows:
            valid += 1
            _, _, plat, plon, dlat, dlon = row
            if box.contains(plat, plon) or box.contains(dlat, dlon):
                yield trip_record(row)

    try:
        with open(config.trip_source, newline="") as fh:
            series = aggregate_daily_demand(
                near_venue(iter_trip_rows(fh, rejects)), venue, config.full_range
            )
    except OSError as exc:
        raise ConfigError(f"cannot read trip source {config.trip_source}: {exc}") from exc
    write_daily_demand_csv(series, artifact_path(config, "daily_demand"))
    reject_lines = [
        json.dumps({"row": r.row, "reason": r.reason}, sort_keys=True) for r in rejects
    ]
    atomic_write_text(
        artifact_path(config, "ingest_rejects"),
        "".join(line + "\n" for line in reject_lines),
    )
    return {"trips": valid, "rejects": len(rejects), "days": len(series)}


def _stage_format_events(config: PipelineConfig, backend: ChatBackend) -> dict:
    catalog = _load_catalog(config)
    unique: dict[tuple[str, str | None], EventRecord] = {}
    for record in catalog:
        unique.setdefault((record.title, record.description), record)
    templates = config.templates()
    entries = []
    calls = 0
    for key in sorted(unique, key=lambda k: (k[0], k[1] or "")):
        record = unique[key]
        request = build_event_format_prompt(
            record,
            model=config.model,
            templates=templates,
            description_word_cap=config.max_description_words,
            temperature=config.temperature,
        )
        calls += 1
        response = backend.complete(request)
        try:
            formatted = parse_formatted_event(response.content, record)
        except MalformedReplyError:
            retry = ChatRequest(
                model=request.model,
                messages=request.messages + (ChatMessage("user", EVENT_REMINDER),),
                temperature=request.temperature,
            )
            calls += 1
            response = backend.complete(retry)
            try:
                formatted = parse_formatted_event(response.content, record)
            except MalformedReplyError as exc:
                raise StageError(
                    f"could not format event {record.title!r}: {exc}"
                ) from exc
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
    return {"events": len(catalog), "unique": len(unique), "backend_calls": calls}


def _stage_decompose(config: PipelineConfig, _backend) -> dict:
    series = read_daily_demand_csv(artifact_path(config, "daily_demand"))
    demand = demand_index(series)
    catalog = _load_catalog(config)
    calendar = day_events_index(catalog, config.full_range)
    rows = []
    for day in config.full_range.days():
        if day == config.full_range.start:
            continue  # no prior history exists for the very first day
        baseline = weekday_baseline(demand, calendar, day, config.baseline)
        rows.append(decompose(demand[day], baseline))
    write_decomposition_csv(rows, artifact_path(config, "decomposition"))
    return {"days": len(rows)}


def _backend_call_count(backend: ChatBackend) -> int | None:
    if isinstance(backend, CachingBackend):
        return backend.misses
    return getattr(backend, "call_count", None)


def _run_predictions(
    config: PipelineConfig,
    backend: ChatBackend,
    ablation: AblationConfig,
    demand: Mapping[date, DailyDemand],
    calendar: Mapping[date, DayEvents],
    decompositions: Mapping[date, DemandDecomposition],
    formatted: Mapping[tuple[str, str | None], tuple[str, str]] | None,
) -> list[DayPrediction]:
    targets = list(config.test_range.days())

    def run(target: date) -> DayPrediction:
        return _predict_day(
            target, demand, calendar, decompositions, config, backend, ablation, formatted
        )

    if config.concurrency == 1:
        return [run(t) for t in targets]
    with concurrent.futures.ThreadPoolExecutor(max_workers=config.concurrency) as pool:
        return list(pool.map(run, targets))


def _stage_predict(config: PipelineConfig, backend: ChatBackend) -> dict:
    series = read_daily_demand_csv(artifact_path(config, "daily_demand"))
    demand = demand_index(series)
    catalog = _load_catalog(config)
    calendar = day_events_index(catalog, config.full_range)
    decompositions = {d.date: d for d in read_decomposition_csv(artifact_path(config, "decomposition"))}
    formatted = (
        _formatted_lookup(config)
        if config.ablation.event_features is EventFeatures.C_T_H_PRIME
        else None
    )
    before = _backend_call_count(backend)
    predictions = _run_predictions(
        config, backend, config.ablation, demand, calendar, decompositions, formatted
    )
    after = _backend_call_count(backend)

    with atomic_writer(artifact_path(config, "predictions"), newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "pred_out", "pred_in", "model_name"])
        for p in predictions:
            writer.writerow([
                p.result.date.isoformat(), p.result.pickup, p.result.dropoff, LLM_MODEL_NAME,
            ])
    detail_lines = []
    failure_lines = []
    for p in predictions:
        detail_lines.append(json.dumps({
            "date": p.result.date.isoformat(),
            "pickup": p.result.pickup,
            "dropoff": p.result.dropoff,
            "reasoning": p.result.reasoning,
            "raw_response": p.result.raw_response,
            "fallback": p.fallback,
            "request_digest": p.request_digest,
        }, sort_keys=True, ensure_ascii=False))
        failure_lines.extend(p.failures)
    atomic_write_text(
        artifact_path(config, "predictions_detail"),
        "".join(line + "\n" for line in detail_lines),
    )
    atomic_write_text(
        artifact_path(config, "parse_failures"),
        "".join(line + "\n" for line in failure_lines),
    )

    fallbacks = sum(1 for p in predictions if p.fallback)
    rate = fallbacks / len(predictions) if predictions else 0.0
    stats = {
        "days": len(predictions),
        "fallbacks": fallbacks,
        "fallback_rate": rate,
        "parse_failures": len(failure_lines),
    }
    if before is not None and after is not None:
        stats["backend_calls"] = after - before
    if rate > config.fallback_budget:
        raise FallbackBudgetError(
            f"fallback rate {rate:.3f} exceeds budget {config.fallback_budget:.3f}"
        )
    return stats


def _classical_feature_rows(
    config: PipelineConfig,
    targets: Sequence[date],
    calendar: Mapping[date, DayEvents],
    decompositions: Mapping[date, DemandDecomposition],
    ablation: AblationConfig,
    formatted: Mapping[tuple[str, str | None], tuple[str, str]] | None,
):
    """Feature matrix plus per-flow targets for the classical models."""
    import numpy as np

    feat_config = FeaturizerConfig(
        lag_days=config.history_days,
        time_bins=config.time_bins,
        text_dim=config.text_dim,
        ablation=ablation,
    )
    rows, y_out, y_in, kept = [], [], [], []
    for target in targets:
        days = []
        ok = True
        for offset in range(config.history_days, 0, -1):
            day = target - timedelta(days=offset)
            if day not in decompositions:
                ok = False
                break
            days.append(DayContext(
                date=day,
                events=calendar.get(day, DayEvents(day)).events,
                decomposition=decompositions[day],
            ))
        if not ok:
            continue
        window = HistoryWindow(tuple(days))
        target_events = calendar.get(target, DayEvents(target))
        target_formatted = None
        if ablation.event_features is EventFeatures.C_T_H_PRIME:
            target_formatted = _events_for_prompt(target_events, ablation, formatted)
        rows.append(featurize_day(window, target_events, feat_config, target_formatted))
        kept.append(target)
        if target in decompositions:
            dec = decompositions[target]
            if ablation.demand_features is DemandFeatures.R_I:
                y_out.append(dec.deviation.outflow)
                y_in.append(dec.deviation.inflow)
            else:
                y_out.append(float(dec.actual.outflow))
                y_in.append(float(dec.actual.inflow))
        else:
            y_out.append(float("nan"))
            y_in.append(float("nan"))
    X = np.array(rows) if rows else np.empty((0, 0))
    return X, np.array(y_out), np.array(y_in), kept


def _classical_records(
    config: PipelineConfig,
    model_kind: str,
    ablation: AblationConfig,
    demand: Mapping[date, DailyDemand],
    calendar: Mapping[date, DayEvents],
    decompositions: Mapping[date, DemandDecomposition],
    formatted=None,
    save_dir: Path | None = None,
) -> list[EvalRecord]:
    """Train on the train range, predict the test range, join with truth."""
    train_targets = [
        d for d in config.train_range.days()
        if (d - config.train_range.start).days > config.history_days
    ]
    test_targets = list(config.test_range.days())

    if model_kind == "historical_average":
        records = []
        for target in test_targets:
            baseline = decompositions[target].baseline
            records.append(EvalRecord(target, demand[target], baseline))
        return records

    X_train, y_out, y_in, _ = _classical_feature_rows(
        config, train_targets, calendar, decompositions, ablation, formatted
    )
    if X_train.shape[0] < 2:
        raise StageError("not enough training rows for classical baselines")
    X_test, _, _, kept = _classical_feature_rows(
        config, test_targets, calendar, decompositions, ablation, formatted
    )

    if model_kind == "linear":
        model_out = fit_linear(X_train, y_out, config.linear_ridge_lambda)
        model_in = fit_linear(X_train, y_in, config.linear_ridge_lambda)
        predict = predict_linear
        models = (model_out, model_in)
    elif model_kind == "gbdt":
        model_out = fit_gbdt(X_train, y_out, config.gbdt)
        model_in = fit_gbdt(X_train, y_in, config.gbdt)
        predict = predict_gbdt
        models = (model_out, model_in)
    else:
        raise StageError(f"unknown classical model: {model_kind}")

    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)
        save_model(models[0], save_dir / f"{model_kind}_out.json")
        save_model(models[1], save_dir / f"{model_kind}_in.json")

    records = []
    for target, x in zip(kept, X_test):
        pred_out = predict(models[0], x)
        pred_in = predict(models[1], x)
        if ablation.demand_features is DemandFeatures.R_I:
            baseline = decompositions[target].baseline
            pred_out += baseline.outflow
            pred_in += baseline.inflow
        records.append(EvalRecord(
            target, demand[target], Flows(max(0.0, pred_out), max(0.0, pred_in))
        ))
    return records


def _classical_ablation(config: PipelineConfig, ablation: AblationConfig) -> AblationConfig:
    """Classical models cannot consume h'; downgrade to raw descriptions."""
    if ablation.event_features is EventFeatures.C_T_H_PRIME:
        return AblationConfig(EventFeatures.C_T_H, ablation.demand_features)
    return ablation


def _read_prediction_csv(path: Path) -> dict[str, list[tuple[date, Flows]]]:
    by_model: dict[str, list[tuple[date, Flows]]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            by_model.setdefault(row["model_name"], []).append(
                (date.fromisoformat(row["date"]),
                 Flows(float(row["pred_out"]), float(row["pred_in"])))
            )
    return by_model


def _write_prediction_csv(records: Sequence[EvalRecord], model_name: str, path: Path) -> None:
    with atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "pred_out", "pred_in", "model_name"])
        for rec in records:
            writer.writerow([
                rec.date.isoformat(),
                f"{rec.pred.outflow:.6f}",
                f"{rec.pred.inflow:.6f}",
                model_name,
            ])


def _stage_evaluate(config: PipelineConfig, _backend) -> dict:
    series = read_daily_demand_csv(artifact_path(config, "daily_demand"))
    demand = demand_index(series)
    catalog = _load_catalog(config)
    calendar = day_events_index(catalog, config.full_range)
    decompositions = {
        d.date: d for d in read_decomposition_csv(artifact_path(config, "decomposition"))
    }

    reports = []
    llm_records = []
    for model_name, rows in sorted(_read_prediction_csv(artifact_path(config, "predictions")).items()):
        records = [EvalRecord(d, demand[d], pred) for d, pred in rows]
        reports.append(segment_report(records, calendar, model_name, config.ablation))
        if model_name == LLM_MODEL_NAME:
            llm_records = records

    classical_ablation = _classical_ablation(config, config.ablation)
    models_dir = config.output_dir / "models"
    for model_kind in ("historical_average", "linear", "gbdt"):
        records = _classical_records(
            config, model_kind, classical_ablation, demand, calendar, decompositions,
            save_dir=models_dir if model_kind != "historical_average" else None,
        )
        reports.append(segment_report(records, calendar, model_kind, classical_ablation))
        _write_prediction_csv(
            records, model_kind, config.output_dir / f"predictions_{model_kind}.csv"
        )

    for extra in config.extra_predictions:
        if not Path(extra).exists():
            raise ConfigError(f"extra prediction file not found: {extra}")
        for model_name, rows in sorted(_read_prediction_csv(Path(extra)).items()):
            records = [EvalRecord(d, demand[d], pred) for d, pred in rows]
            reports.append(segment_report(records, calendar, model_name, config.ablation))

    write_report_csv(reports, artifact_path(config, "report"))
    if llm_records:
        write_plot_csv(llm_records, calendar, artifact_path(config, "plot_data"))
    return {
        "models": len(reports),
        "mape_excluded": {r.model_name: r.all_days.mape_excluded for r in reports},
    }


def _stage_ablate(config: PipelineConfig, backend: ChatBackend) -> dict:
    series = read_daily_demand_csv(artifact_path(config, "daily_demand"))
    demand = demand_index(series)
    catalog = _load_catalog(config)
    calendar = day_events_index(catalog, config.full_range)
    decompositions = {
        d.date: d for d in read_decomposition_csv(artifact_path(config, "decomposition"))
    }
    formatted = _formatted_lookup(config)

    all_rows: list[AblationRow] = []
    row_models: list[str] = []
    for model_name in config.ablate_models:
        if model_name == LLM_MODEL_NAME:
            grid = canonical_grid(EventFeatures.C_T_H_PRIME)

            def llm_runner(ablation: AblationConfig):
                fmt = (
                    formatted
                    if ablation.event_features is EventFeatures.C_T_H_PRIME
                    else None
                )
                predictions = _run_predictions(
                    config, backend, ablation, demand, calendar, decompositions, fmt
                )
                return [
                    EvalRecord(
                        p.result.date,
                        demand[p.result.date],
                        Flows(float(p.result.pickup), float(p.result.dropoff)),
                    )
                    for p in predictions
                ]

            rows = run_ablation(grid, llm_runner, calendar, LLM_MODEL_NAME)
        elif model_name == "gbdt":
            grid = canonical_grid(EventFeatures.C_T_H)

            def gbdt_runner(ablation: AblationConfig):
                if ablation.event_features is EventFeatures.C_T_H_PRIME:
                    return None  # not applicable for classical baselines
                return _classical_records(
                    config, "gbdt", ablation, demand, calendar, decompositions
                )

            rows = run_ablation(grid, gbdt_runner, calendar, "gbdt")
        else:
            raise ConfigError(f"unknown ablate model: {model_name}")
        all_rows.extend(rows)
        row_models.extend([model_name] * len(rows))

    path = artifact_path(config, "ablation_report")
    with atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "ablation", "segment", "n", "rmse", "mae", "mape", "r2"])
        for model_name, row in zip(row_models, all_rows):
            if row.report is None:
                writer.writerow([model_name, row.ablation.name, "all", "", "", "", "", ""])
                continue
            for segment, metrics in (
                ("all", row.report.all_days),
                ("event", row.report.event_days),
                ("non_event", row.report.non_event_days),
            ):
                if metrics is None:
                    continue
                writer.writerow([
                    model_name, row.ablation.name, segment, metrics.n,
                    f"{metrics.rmse:.6f}", f"{metrics.mae:.6f}",
                    "" if metrics.mape is None else f"{metrics.mape:.6f}",
                    "" if metrics.r2 is None else f"{metrics.r2:.6f}",
                ])
    return {"models": list(config.ablate_models), "configs": len(all_rows)}


def _stage_report(config: PipelineConfig, _backend) -> dict:
    lines = ["Travel demand prediction summary", "=" * 34, ""]
    lines.append(f"Venue: {config.venue.name}")
    lines.append(
        f"Test range: {config.test_range.start} .. {config.test_range.end}"
        f" ({config.test_range.n_days} days)"
    )
    lines.append(f"Ablation: {config.ablation.name}")
    lines.append("")
    lines.append("Model performance (pooled pickups + dropoffs):")
    with open(artifact_path(config, "report"), newline="") as fh:
        for row in csv.DictReader(fh):
            if row["segment"] not in ("all", "event", "non_event"):
                continue
            mape = row["mape"] or "n/a"
            r2 = row["r2"] or "n/a"
            lines.append(
                f"  {row['model']:<20} {row['ablation']:<16} {row['segment']:<10}"
                f" n={row['n']:<5} rmse={row['rmse']:<11} mae={row['mae']:<11}"
                f" mape={mape:<9} r2={r2}"
            )
    manifest = load_manifest(config)
    predict_stats = manifest.get("stages", {}).get("predict", {}).get("stats", {})
    if predict_stats:
        lines.append("")
        lines.append(
            f"Prediction fallback rate: {predict_stats.get('fallback_rate', 0.0):.4f}"
            f" ({predict_stats.get('fallbacks', 0)} of {predict_stats.get('days', 0)} days)"
        )
    excluded = (
        manifest.get("stages", {}).get("evaluate", {}).get("stats", {})
        .get("mape_excluded", {})
    )
    skipped = {m: n for m, n in sorted(excluded.items()) if n}
    if skipped:
        lines.append(
            "MAPE terms skipped for zero true demand: "
            + ", ".join(f"{m}={n}" for m, n in skipped.items())
        )
    ablation_path = artifact_path(config, "ablation_report")
    if ablation_path.exists():
        lines.append("")
        lines.append("Ablation grid (event-day rows):")
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
    run: Callable[[PipelineConfig, ChatBackend | None], dict]
    sources: Callable[[PipelineConfig], list[Path]]
    artifacts_in: Callable[[PipelineConfig], list[str]]
    artifacts_out: Callable[[PipelineConfig], list[str]]
    needs_backend: bool = False


def _predict_inputs(config: PipelineConfig) -> list[str]:
    names = ["daily_demand", "decomposition"]
    if config.ablation.event_features is EventFeatures.C_T_H_PRIME:
        names.append("formatted_events")
    return names


_STAGE_DEFS: dict[str, StageDef] = {
    "ingest": StageDef(
        run=_stage_ingest,
        sources=lambda c: [Path(c.trip_source)],
        artifacts_in=lambda c: [],
        artifacts_out=lambda c: ["daily_demand", "ingest_rejects"],
    ),
    "format_events": StageDef(
        run=_stage_format_events,
        sources=lambda c: [Path(c.event_source)],
        artifacts_in=lambda c: [],
        artifacts_out=lambda c: ["formatted_events"],
        needs_backend=True,
    ),
    "decompose": StageDef(
        run=_stage_decompose,
        sources=lambda c: [Path(c.event_source)],
        artifacts_in=lambda c: ["daily_demand"],
        artifacts_out=lambda c: ["decomposition"],
    ),
    "predict": StageDef(
        run=_stage_predict,
        sources=lambda c: [Path(c.event_source)],
        artifacts_in=_predict_inputs,
        artifacts_out=lambda c: ["predictions", "predictions_detail", "parse_failures"],
        needs_backend=True,
    ),
    "evaluate": StageDef(
        run=_stage_evaluate,
        sources=lambda c: [Path(c.event_source)] + [Path(p) for p in c.extra_predictions],
        artifacts_in=lambda c: ["daily_demand", "decomposition", "predictions"],
        artifacts_out=lambda c: ["report", "plot_data"],
    ),
    "ablate": StageDef(
        run=_stage_ablate,
        sources=lambda c: [Path(c.event_source)],
        artifacts_in=lambda c: ["daily_demand", "decomposition", "formatted_events"],
        artifacts_out=lambda c: ["ablation_report"],
        needs_backend=True,
    ),
    "report": StageDef(
        run=_stage_report,
        sources=lambda c: [],
        artifacts_in=lambda c: ["report"],
        artifacts_out=lambda c: ["summary"],
    ),
}


def _check_inputs(stage: str, config: PipelineConfig) -> dict[str, str]:
    """Verify sources and prerequisite artifacts; return their digests."""
    stage_def = _STAGE_DEFS[stage]
    digests: dict[str, str] = {}
    for source in stage_def.sources(config):
        if not source.exists():
            raise ConfigError(f"{stage}: source file not found: {source}")
        digests[str(source)] = _sha256_file(source)
    for name in stage_def.artifacts_in(config):
        path = artifact_path(config, name)
        if not path.exists():
            producer = ARTIFACTS[name][0]
            raise PreconditionError(
                f"{stage}: missing {path.name}; run `{producer}` first",
                required_stage=producer,
            )
        digests[str(path)] = _sha256_file(path)
    return digests


def plan_stage(stage: str, config: PipelineConfig) -> dict:
    """Dry-run view: whether the stage would be skipped, and its files."""
    if stage not in _STAGE_DEFS:
        raise ConfigError(f"unknown stage: {stage}")
    stage_def = _STAGE_DEFS[stage]
    entry = load_manifest(config).get("stages", {}).get(stage)
    would_skip = False
    missing = []
    try:
        digests = _check_inputs(stage, config)
    except (ConfigError, PreconditionError) as exc:
        digests = None
        missing.append(str(exc))
    if digests is not None and entry is not None:
        would_skip = _can_skip(entry, digests, stage, config)
    return {
        "stage": stage,
        "inputs": sorted(digests) if digests else [],
        "outputs": [str(artifact_path(config, n)) for n in stage_def.artifacts_out(config)],
        "would_skip": would_skip,
        "blocked": missing,
    }


def _can_skip(entry: dict, input_digests: dict[str, str], stage: str, config: PipelineConfig) -> bool:
    if entry.get("config_digest") != config_digest(config):
        return False
    if entry.get("inputs") != input_digests:
        return False
    outputs = entry.get("outputs", {})
    stage_def = _STAGE_DEFS[stage]
    expected = {str(artifact_path(config, n)) for n in stage_def.artifacts_out(config)}
    if set(outputs) != expected:
        return False
    for path_str, digest in outputs.items():
        path = Path(path_str)
        if not path.exists() or _sha256_file(path) != digest:
            return False
    return True


def run_stage(
    stage: str,
    config: PipelineConfig,
    backend: ChatBackend | None = None,
) -> StageResult:
    """Run one stage (or skip it when inputs and outputs are unchanged)."""
    if stage not in _STAGE_DEFS:
        raise ConfigError(f"unknown stage: {stage}")
    stage_def = _STAGE_DEFS[stage]
    config.output_dir.mkdir(parents=True, exist_ok=True)
    input_digests = _check_inputs(stage, config)
    manifest = load_manifest(config)
    entry = manifest.get("stages", {}).get(stage)
    out_names = stage_def.artifacts_out(config)
    if entry is not None and _can_skip(entry, input_digests, stage, config):
        return StageResult(stage, True, tuple(out_names), entry.get("stats", {}))

    if stage_def.needs_backend and backend is None:
        backend = build_backend(config)
    stats = stage_def.run(config, backend)

    output_digests = {
        str(artifact_path(config, n)): _sha256_file(artifact_path(config, n))
        for n in out_names
    }
    manifest.setdefault("stages", {})[stage] = {
        "config_digest": config_digest(config),
        "inputs": input_digests,
        "outputs": output_digests,
        "stats": stats,
        "completed_at": datetime.now(timezone.utc).isoformat(),
    }
    save_manifest(config, manifest)
    return StageResult(stage, False, tuple(out_names), stats)


DEFAULT_RUN_STAGES = ("ingest", "format_events", "decompose", "predict", "evaluate", "report")


def run_pipeline(
    config: PipelineConfig,
    stages: Sequence[str] = DEFAULT_RUN_STAGES,
    backend: ChatBackend | None = None,
) -> list[StageResult]:
    """Run stages in order, sharing one backend instance."""
    if backend is None and any(_STAGE_DEFS[s].needs_backend for s in stages):
        backend = build_backend(config)
    return [run_stage(stage, config, backend) for stage in stages]
