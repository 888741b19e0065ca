"""Reply parsers: tagged extraction, tolerance, and totality."""

import random
from datetime import date, time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe.errors import MalformedReplyError
from mpe.events import EventRecord
from mpe.parsing import (
    PredictionResult,
    parse_formatted_event,
    parse_prediction,
    render_prediction_reply,
)

from oracles import parse_formatted_reply_regex

DAY = date(2014, 7, 25)
SOURCE = EventRecord(
    "Brooklyn Nets vs. Dallas Mavericks", None, date(2015, 5, 1), time(19, 30), time(22, 30)
)

NBA_REPLY = (
    "[Category] NBA Basketball Game [Summary] A popular match between the "
    "Brooklyn Nets and Dallas Mavericks."
)
CONCERT_REPLY = (
    "[pickup] 562 [dropoff] 353 [reasoning] The event is a popular pop music "
    "concert by Katy Perry, which is likely to attract a large crowd."
)
ALLSTAR_REPLY = (
    "[pickup] 850 [dropoff] 600 [reasoning] First, we note that the event is "
    "an NBA All-Star Event, which is likely to draw a large crowd."
)


def test_formatted_event_example():
    formatted = parse_formatted_event(NBA_REPLY, SOURCE)
    assert formatted.category == "NBA Basketball Game"
    assert formatted.summary == "A popular match between the Brooklyn Nets and Dallas Mavericks."
    assert formatted.source is SOURCE


def test_formatted_event_missing_tags():
    with pytest.raises(MalformedReplyError) as info:
        parse_formatted_event("Here is a summary with no tags.", SOURCE)
    assert info.value.raw == "Here is a summary with no tags."


def test_formatted_event_empty_sections():
    with pytest.raises(MalformedReplyError):
        parse_formatted_event("[Category] [Summary] something", SOURCE)
    with pytest.raises(MalformedReplyError):
        parse_formatted_event("[Category] Concert [Summary]   ", SOURCE)


def test_formatted_event_whitespace_variants_match_reference_regex():
    rng = random.Random(31)
    base_cat = "NBA Basketball Game"
    base_summ = "A popular match."
    for _ in range(100):
        sep1 = "".join(rng.choices([" ", "\n", "\t"], k=rng.randrange(0, 4)))
        sep2 = "".join(rng.choices([" ", "\n", "\t"], k=rng.randrange(0, 4)))
        casing = rng.choice(["[Category]", "[category]", "[CATEGORY]", "[ Category ]"])
        s_casing = rng.choice(["[Summary]", "[summary]", "[SUMMARY]", "[ summary ]"])
        reply = f"{casing}{sep1}{base_cat}{sep2}{s_casing}{sep1}{base_summ}"
        got = parse_formatted_event(reply, SOURCE)
        oracle = parse_formatted_reply_regex(reply)
        assert oracle is not None
        assert (got.category, got.summary) == oracle


def test_prediction_paper_examples():
    result = parse_prediction(CONCERT_REPLY, DAY)
    assert (result.pickup, result.dropoff) == (562, 353)
    assert result.reasoning.startswith("The event is a popular pop music concert")
    assert result.raw_response == CONCERT_REPLY

    result = parse_prediction(ALLSTAR_REPLY, date(2015, 2, 14))
    assert (result.pickup, result.dropoff) == (850, 600)


def test_prediction_negative_is_malformed():
    with pytest.raises(MalformedReplyError, match="negative"):
        parse_prediction("[pickup] -5 [dropoff] 10", DAY)


def test_prediction_missing_tags():
    with pytest.raises(MalformedReplyError):
        parse_prediction("no tags at all", DAY)
    with pytest.raises(MalformedReplyError):
        parse_prediction("[pickup] 100 but nothing else", DAY)
    with pytest.raises(MalformedReplyError):
        parse_prediction("[pickup] ??? [dropoff] 10", DAY)


def test_prediction_comma_grouped_integers():
    result = parse_prediction("[pickup] 1,024 [dropoff] 2,311", DAY)
    assert (result.pickup, result.dropoff) == (1024, 2311)


def test_prediction_case_insensitive_and_whitespace_tolerant():
    result = parse_prediction("[ PICKUP ]\n 42 [ dropoff ]\t7 [ Reasoning ] ok", DAY)
    assert (result.pickup, result.dropoff) == (42, 7)
    assert result.reasoning == "ok"


def test_prediction_without_reasoning_tag_uses_full_reply():
    reply = "[pickup] 10 [dropoff] 20 trust me"
    assert parse_prediction(reply, DAY).reasoning == reply


def test_first_match_semantics():
    reply = "[pickup] 5 [dropoff] 6 [reasoning] later [pickup] 99 [dropoff] 98"
    result = parse_prediction(reply, DAY)
    assert (result.pickup, result.dropoff) == (5, 6)
    assert result.reasoning == "later [pickup] 99 [dropoff] 98"

    formatted = parse_formatted_event(
        "[Category] First [Summary] one [Category] Second", SOURCE
    )
    assert formatted.category == "First"
    assert formatted.summary == "one [Category] Second"


def test_prediction_prose_between_tag_and_number():
    result = parse_prediction("[pickup] approximately 562 [dropoff] около 353", DAY)
    assert (result.pickup, result.dropoff) == (562, 353)


@given(
    pickup=st.integers(min_value=0, max_value=10**6),
    dropoff=st.integers(min_value=0, max_value=10**6),
    reasoning=st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=200
    ).map(str.strip).filter(bool),
)
@settings(max_examples=200)
def test_round_trip_preserves_fields(pickup, dropoff, reasoning):
    reply = render_prediction_reply(pickup, dropoff, reasoning)
    result = parse_prediction(reply, DAY)
    assert result.pickup == pickup
    assert result.dropoff == dropoff
    assert result.reasoning == reasoning


def test_parsers_are_total_on_noise():
    rng = random.Random(8)
    for _ in range(2000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 120)))
        text = blob.decode("utf-8", errors="replace")
        for parser in (
            lambda t: parse_prediction(t, DAY),
            lambda t: parse_formatted_event(t, SOURCE),
        ):
            try:
                parser(text)
            except MalformedReplyError:
                pass  # the only permitted failure mode


def test_prediction_result_validation():
    with pytest.raises(ValueError):
        PredictionResult(DAY, -1, 0, "r", "raw")
