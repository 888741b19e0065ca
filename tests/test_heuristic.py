"""The rule-based stand-in backend: format replies and prediction math."""

import sys
import threading

import pytest

from mpe import heuristic
from mpe.errors import MissingScriptError
from mpe.gateway import ChatMessage, ChatRequest
from mpe.heuristic import HeuristicBackend, infer_category
from mpe.parsing import parse_formatted_event, parse_prediction
from mpe.prompts import (
    AblationConfig,
    DayContext,
    DemandFeatures,
    EventFeatures,
    HistoryWindow,
    build_event_format_prompt,
    build_prediction_prompt,
)

from conftest import SNAPSHOT_DIR, YieldingCallCount
from prompt_fixtures import (
    NO_DESCRIPTION_EVENT,
    TARGET_BASELINE,
    TARGET_DATE,
    build_snapshot_target,
    build_snapshot_window,
)


def _predict(ablation: AblationConfig):
    backend = HeuristicBackend()
    request = build_prediction_prompt(
        build_snapshot_window(ablation),
        build_snapshot_target(ablation),
        TARGET_BASELINE,
        ablation,
    )
    reply = backend.complete(request).content
    return parse_prediction(reply, TARGET_DATE)


def test_category_inference():
    assert infer_category("Hawks vs. Comets") == "Basketball Game"
    assert infer_category("Aurora Vale Live in Concert") == "Pop Concert"
    assert infer_category("Dino Quest Family Spectacular") == "Family Show"
    assert infer_category("Max Corby Comedy Night") == "Comedy Show"
    assert infer_category("Annual General Meeting") == "Live Event"


def test_format_reply_parses():
    backend = HeuristicBackend()
    request = build_event_format_prompt(NO_DESCRIPTION_EVENT)
    reply = backend.complete(request).content
    formatted = parse_formatted_event(reply, NO_DESCRIPTION_EVENT)
    assert formatted.category == "Basketball Game"
    assert "Brooklyn Nets vs. Dallas Mavericks" in formatted.summary


def test_na_prediction_returns_baseline():
    result = _predict(AblationConfig(EventFeatures.NA, DemandFeatures.R_I))
    assert (result.pickup, result.dropoff) == (331, 207)


def test_full_features_add_matched_deviation():
    # the window's only Pop Music Concert day carries deviation +231/+146
    result = _predict(AblationConfig())
    assert (result.pickup, result.dropoff) == (331 + 231, 207 + 146)
    assert "1 history days" in result.reasoning or "history days" in result.reasoning


def test_count_only_prediction_uses_count_matches():
    # under c, the single-event days (basketball +180/+110, concert +231/+146)
    # pool into one average deviation
    result = _predict(AblationConfig(EventFeatures.C, DemandFeatures.R_I))
    expected_out = 331 + round((180 + 231) / 2)
    expected_in = 207 + round((110 + 146) / 2)
    assert (result.pickup, result.dropoff) == (expected_out, expected_in)


def test_o_mode_prediction_is_reasonable():
    result = _predict(AblationConfig(EventFeatures.C_T_H_PRIME, DemandFeatures.O))
    # raw-demand mode estimates the Friday base (~331) plus the concert lift
    assert 480 <= result.pickup <= 640
    assert 300 <= result.dropoff <= 420


def test_unknown_prompt_is_refused():
    backend = HeuristicBackend()
    request = ChatRequest(model="gpt-4", messages=(ChatMessage("user", "what is up"),))
    with pytest.raises(MissingScriptError):
        backend.complete(request)


def test_deterministic_replies():
    ablation = AblationConfig()
    first = _predict(ablation)
    second = _predict(ablation)
    assert first == second


class _YieldingCounterBackend(YieldingCallCount, HeuristicBackend):
    pass


def test_call_count_exact_under_concurrent_calls():
    backend = _YieldingCounterBackend()
    request = build_event_format_prompt(NO_DESCRIPTION_EVENT)
    n_threads, calls_each = 8, 100
    start = threading.Barrier(n_threads)

    def worker():
        start.wait(timeout=10)
        for _ in range(calls_each):
            backend.complete(request)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert backend.call_count == n_threads * calls_each


def _clear_memos():
    """Empty every memo the heuristic module keeps, so the next parse is fresh."""
    for value in vars(heuristic).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def test_replies_to_golden_prompts_equal_fresh_uncached_parses():
    requests = [
        ChatRequest("gpt-4", (ChatMessage("user", path.read_text()),))
        for path in sorted(SNAPSHOT_DIR.glob("*.txt"))
    ]
    assert len(requests) == 5
    fresh = []
    for request in requests:
        _clear_memos()
        fresh.append(HeuristicBackend().complete(request))
    backend = HeuristicBackend()
    for order in (requests, requests[::-1], requests):  # later passes hit warm memos
        replies = {request: backend.complete(request) for request in order}
        assert [replies[request] for request in requests] == fresh


def test_memoised_replies_hold_under_concurrent_calls():
    # Windows one day apart share all but one history line, as in the pipeline.
    ablation = AblationConfig()
    window = build_snapshot_window(ablation)
    span = window.t // 2
    requests = [
        build_prediction_prompt(
            HistoryWindow(window.days[k:k + span]),
            DayContext(window.days[k + span].date, build_snapshot_target(ablation).events),
            TARGET_BASELINE,
            ablation,
        )
        for k in range(window.t - span)
    ]
    _clear_memos()
    expected = [HeuristicBackend().complete(request) for request in requests]
    backend = HeuristicBackend()
    n_threads = 8
    start = threading.Barrier(n_threads)
    mismatches = []

    def worker(shift):
        start.wait(timeout=10)
        for _ in range(5):
            for i in range(len(requests)):
                j = (i + shift) % len(requests)
                if backend.complete(requests[j]) != expected[j]:
                    mismatches.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _clear_memos()
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert backend.call_count == n_threads * 5 * len(requests)
