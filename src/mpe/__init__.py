"""Daily travel-demand prediction for event venues.

Pipeline: ingest trips -> catalog events -> decompose demand into a regular
weekday baseline and event deviations -> prompt a chat model for next-day
predictions with reasoning -> evaluate against classical baselines over an
ablation grid. Offline-reproducible via scripted mock backends and a
content-addressed response cache.
"""

__version__ = "0.1.0"

from .decomposition import (
    BaselineConfig,
    DemandDecomposition,
    Fallback,
    Flows,
    decompose,
    recompose,
    weekday_baseline,
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
    ChatBackend,
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HttpBackend,
    ScriptedBackend,
    cache_key,
)
from .geo import GeoPoint, haversine_m
from .metrics import (
    EvalRecord,
    Metrics,
    MetricsReport,
    canonical_grid,
    compute_metrics,
    segment_report,
)
from .parsing import (
    PredictionResult,
    parse_formatted_event,
    parse_prediction,
    render_prediction_reply,
)
from .prompts import (
    AblationConfig,
    DayContext,
    DemandFeatures,
    EventFeatures,
    HistoryWindow,
    build_event_format_prompt,
    build_prediction_prompt,
    render_history_line,
)
from .trips import (
    DailyDemand,
    DateRange,
    TripRecord,
    VenueConfig,
    aggregate_daily_demand,
    parse_trip_records,
)
