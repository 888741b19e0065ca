"""Prompt renderer: golden snapshots, monotonicity, causality, rounding."""

import os
import re
from datetime import date, time, timedelta

import pytest

from mpe.decomposition import Flows, decompose
from mpe.errors import ConfigError
from mpe.events import EventRecord, FormattedEvent
from mpe.prompts import (
    AblationConfig,
    DayContext,
    DemandFeatures,
    EventFeatures,
    HistoryWindow,
    PromptTemplates,
    TRUNCATION_MARKER,
    build_event_format_prompt,
    build_prediction_prompt,
    load_templates,
    render_history_line,
    round_half_up,
    truncate_words,
)
from mpe.trips import DailyDemand

from conftest import SNAPSHOT_DIR
from oracles import word_tokens
from prompt_fixtures import (
    NO_DESCRIPTION_EVENT,
    TARGET_BASELINE,
    TARGET_DATE,
    WITH_DESCRIPTION_EVENT,
    build_snapshot_target,
    build_snapshot_window,
)

UPDATE = os.environ.get("MPE_UPDATE_SNAPSHOTS") == "1"


def _prediction_prompt(ablation: AblationConfig) -> str:
    window = build_snapshot_window(ablation)
    target = build_snapshot_target(ablation)
    request = build_prediction_prompt(window, target, TARGET_BASELINE, ablation)
    return request.messages[0].content


def _check_snapshot(name: str, content: str):
    path = SNAPSHOT_DIR / name
    if UPDATE:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        pytest.skip(f"snapshot {name} updated")
    assert path.exists(), f"snapshot {name} missing; run with MPE_UPDATE_SNAPSHOTS=1"
    assert content == path.read_text(), f"snapshot {name} drifted"


SNAPSHOT_CASES = [
    ("prediction_c_t_h_prime_r_i.txt", AblationConfig()),
    ("prediction_na_r_i.txt", AblationConfig(EventFeatures.NA, DemandFeatures.R_I)),
    ("prediction_c_t_o.txt", AblationConfig(EventFeatures.C_T, DemandFeatures.O)),
]


@pytest.mark.parametrize("name,ablation", SNAPSHOT_CASES)
def test_prediction_snapshots(name, ablation):
    _check_snapshot(name, _prediction_prompt(ablation))


def test_event_format_snapshot_no_description():
    request = build_event_format_prompt(NO_DESCRIPTION_EVENT)
    _check_snapshot("event_format_no_description.txt", request.messages[0].content)


def test_event_format_snapshot_with_description():
    request = build_event_format_prompt(WITH_DESCRIPTION_EVENT)
    _check_snapshot("event_format_with_description.txt", request.messages[0].content)


def test_event_format_prompt_contains_title_and_form():
    content = build_event_format_prompt(NO_DESCRIPTION_EVENT).messages[0].content
    assert "Brooklyn Nets vs. Dallas Mavericks" in content
    assert "[Category] <short label> [Summary] <one or two sentences>" in content
    assert build_event_format_prompt(NO_DESCRIPTION_EVENT).temperature == 0.0


def test_window_of_28_days_renders_28_history_lines():
    content = _prediction_prompt(AblationConfig())
    history = content.split("History:\n")[1].split("\n\nNext day:")[0]
    assert len(history.splitlines()) == 28


def test_na_prompt_has_zero_event_tokens():
    tokens = word_tokens(_prediction_prompt(
        AblationConfig(EventFeatures.NA, DemandFeatures.R_I)
    ))
    assert "event" not in tokens and "events" not in tokens


def test_event_token_sets_are_monotone():
    levels = [EventFeatures.NA, EventFeatures.C, EventFeatures.C_T, EventFeatures.C_T_H]
    prompts = [
        word_tokens(_prediction_prompt(AblationConfig(level, DemandFeatures.R_I)))
        for level in levels
    ]
    for smaller, larger in zip(prompts, prompts[1:]):
        assert smaller <= larger
    c_t = word_tokens(_prediction_prompt(AblationConfig(EventFeatures.C_T, DemandFeatures.R_I)))
    h_prime = word_tokens(_prediction_prompt(AblationConfig()))
    assert c_t <= h_prime


def test_no_future_dates_in_prompt():
    content = _prediction_prompt(AblationConfig())
    for found in re.findall(r"\d{4}-\d{2}-\d{2}", content):
        assert date.fromisoformat(found) <= TARGET_DATE


def test_rendering_is_byte_deterministic():
    ablation = AblationConfig()
    assert _prediction_prompt(ablation) == _prediction_prompt(ablation)
    first = build_event_format_prompt(WITH_DESCRIPTION_EVENT)
    second = build_event_format_prompt(WITH_DESCRIPTION_EVENT)
    assert first == second


def test_demand_o_prompt_has_no_baseline_text():
    content = _prediction_prompt(AblationConfig(EventFeatures.C_T, DemandFeatures.O))
    assert "baseline" not in content
    assert "deviation" not in content
    assert "Expected demand" not in content
    assert "demand out" in content


def test_r_i_prompt_shows_target_baseline_rounded():
    content = _prediction_prompt(AblationConfig())
    assert "Expected demand for a regular Friday if no event occurs: out 331 in 207" in content


def test_na_r_i_baseline_line_avoids_event_wording():
    content = _prediction_prompt(AblationConfig(EventFeatures.NA, DemandFeatures.R_I))
    assert "Expected demand for a regular Friday: out 331 in 207" in content


# --- history line rendering -------------------------------------------------


def _non_event_day():
    day = date(2014, 7, 11)  # Friday
    actual = DailyDemand(day, 331, 207)
    return DayContext(
        date=day, events=(), decomposition=decompose(actual, Flows(331.0, 207.0))
    )


def _event_day(level: EventFeatures):
    day = date(2014, 7, 24)
    actual = DailyDemand(day, 562, 353)
    record = EventRecord("Aurora Vale Live in Concert", "A big show.",
                         day, time(19, 30), time(22, 30))
    events: tuple = (record,)
    if level is EventFeatures.C_T_H_PRIME:
        events = (FormattedEvent("Pop Music Concert", "A big arena show.", record),)
    return DayContext(
        date=day, events=events, decomposition=decompose(actual, Flows(331.0, 207.0))
    )


def test_history_line_non_event_r_i():
    line = render_history_line(_non_event_day(), AblationConfig())
    assert "no event" in line
    assert "deviation out +0 in +0" in line


def test_history_line_shows_signed_deviation():
    line = render_history_line(_event_day(EventFeatures.C_T_H_PRIME), AblationConfig())
    assert "+231" in line and "+146" in line


def test_history_line_c_t_has_times_but_no_description():
    line = render_history_line(
        _event_day(EventFeatures.C_T),
        AblationConfig(EventFeatures.C_T, DemandFeatures.R_I),
    )
    assert "[time] 19:30-22:30" in line
    assert "A big show" not in line and "[description]" not in line


def test_history_line_requires_decomposition():
    day = DayContext(date=date(2014, 7, 25), events=(), decomposition=None)
    with pytest.raises(ValueError):
        render_history_line(day, AblationConfig())


def test_h_prime_requires_formatted_events():
    with pytest.raises(ValueError):
        render_history_line(_event_day(EventFeatures.C_T), AblationConfig())


# --- construction and validation ---------------------------------------------


def test_window_must_be_consecutive():
    good = build_snapshot_window(AblationConfig())
    with pytest.raises(ValueError):
        HistoryWindow(good.days[:5] + good.days[6:])


def test_target_must_follow_window():
    ablation = AblationConfig()
    window = build_snapshot_window(ablation)
    bad_target = DayContext(date=TARGET_DATE + timedelta(days=1), events=())
    with pytest.raises(ValueError):
        build_prediction_prompt(window, bad_target, TARGET_BASELINE, ablation)


def test_target_must_not_have_decomposition():
    ablation = AblationConfig()
    window = build_snapshot_window(ablation)
    actual = DailyDemand(TARGET_DATE, 1, 1)
    bad_target = DayContext(
        date=TARGET_DATE, events=(), decomposition=decompose(actual, Flows(0.0, 0.0))
    )
    with pytest.raises(ValueError):
        build_prediction_prompt(window, bad_target, TARGET_BASELINE, ablation)


def test_ablation_name_round_trip():
    for level in EventFeatures:
        for demand in DemandFeatures:
            config = AblationConfig(level, demand)
            assert AblationConfig.parse(config.name) == config
    assert AblationConfig.parse("c_t") == AblationConfig(EventFeatures.C_T, DemandFeatures.R_I)
    with pytest.raises(ValueError):
        AblationConfig.parse("bogus")


def test_round_half_up():
    assert round_half_up(331.5) == 332
    assert round_half_up(331.4) == 331
    assert round_half_up(-0.5) == 0
    assert round_half_up(-1.5) == -1
    assert round_half_up(2.0) == 2


def test_description_truncation():
    text = " ".join(f"w{i}" for i in range(600))
    capped = truncate_words(text, 500)
    assert capped.endswith(TRUNCATION_MARKER)
    assert len(capped.split()) == 501
    short = " ".join(f"w{i}" for i in range(400))
    assert truncate_words(short, 500) == short


def test_long_description_truncated_in_prompt():
    event = EventRecord(
        "Marathon Reading", " ".join(f"word{i}" for i in range(1200)),
        date(2014, 7, 1), time(10, 0), time(12, 0),
    )
    content = build_event_format_prompt(event).messages[0].content
    assert TRUNCATION_MARKER in content
    assert "word1100" not in content
    assert "word499" in content


def test_template_that_is_not_utf8_is_a_config_error(tmp_path):
    (tmp_path / "prediction.txt").write_bytes("Café {history}".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read template"):
        load_templates(tmp_path)


@pytest.mark.parametrize("text, message", [
    ("Day {target_date}: {bogus.attr}", r"unknown placeholder \{bogus\}"),
    ("Day {target_date", "not a format string"),
], ids=["unknown-placeholder", "unbalanced-brace"])
def test_template_with_a_bad_placeholder_is_a_config_error(tmp_path, text, message):
    (tmp_path / "prediction.txt").write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_templates(tmp_path)


def test_template_overrides(tmp_path):
    (tmp_path / "event_format.txt").write_text("EVENT {title} / {description}")
    templates = load_templates(tmp_path)
    content = build_event_format_prompt(
        NO_DESCRIPTION_EVENT, templates=templates
    ).messages[0].content
    assert content == "EVENT Brooklyn Nets vs. Dallas Mavericks / not available"
    assert templates.prediction == PromptTemplates().prediction
