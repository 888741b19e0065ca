"""Strict extraction of structured outputs from free-form LLM replies.

Tags are scanned case-insensitively with first-match semantics; anything
that cannot be extracted raises MalformedReplyError carrying the raw text,
so callers can log, re-prompt, or fall back. The parsers are total: any
input yields either a value or that typed error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date

from .errors import MalformedReplyError
from .events import EventRecord, FormattedEvent

_CATEGORY_TAG = re.compile(r"\[\s*category\s*\]", re.IGNORECASE)
_SUMMARY_TAG = re.compile(r"\[\s*summary\s*\]", re.IGNORECASE)
_PICKUP_TAG = re.compile(r"\[\s*pickup\s*\]", re.IGNORECASE)
_DROPOFF_TAG = re.compile(r"\[\s*dropoff\s*\]", re.IGNORECASE)
_REASONING_TAG = re.compile(r"\[\s*reasoning\s*\]", re.IGNORECASE)
_ANY_PREDICTION_TAG = re.compile(r"\[\s*(?:pickup|dropoff|reasoning)\s*\]", re.IGNORECASE)
_INTEGER = re.compile(r"[-+]?\d[\d,]*")


@dataclass(frozen=True)
class PredictionResult:
    """A parsed demand prediction plus the verbatim reply for audit."""

    date: date
    pickup: int
    dropoff: int
    reasoning: str
    raw_response: str

    def __post_init__(self):
        if self.pickup < 0 or self.dropoff < 0:
            raise ValueError("predicted demand must be non-negative")


def parse_formatted_event(reply: str, source: EventRecord) -> FormattedEvent:
    """Extract the first `[Category] ... [Summary] ...` pair from a reply."""
    cat_match = _CATEGORY_TAG.search(reply)
    if not cat_match:
        raise MalformedReplyError("no [Category] tag in reply", raw=reply)
    summ_match = _SUMMARY_TAG.search(reply, cat_match.end())
    if not summ_match:
        raise MalformedReplyError("no [Summary] tag after [Category]", raw=reply)
    category = reply[cat_match.end():summ_match.start()].strip()
    summary = reply[summ_match.end():].strip()
    if not category:
        raise MalformedReplyError("empty category section", raw=reply)
    if not summary:
        raise MalformedReplyError("empty summary section", raw=reply)
    return FormattedEvent(category=category, summary=summary, source=source)


def _first_int_after(tag: re.Pattern, reply: str, name: str) -> int:
    tag_match = tag.search(reply)
    if not tag_match:
        raise MalformedReplyError(f"no [{name}] tag in reply", raw=reply)
    # The value must appear before the next recognized tag, so a missing
    # number is reported instead of silently borrowing a later tag's value.
    next_tag = _ANY_PREDICTION_TAG.search(reply, tag_match.end())
    end = next_tag.start() if next_tag else len(reply)
    num_match = _INTEGER.search(reply, tag_match.end(), end)
    if not num_match:
        raise MalformedReplyError(f"no integer after [{name}] tag", raw=reply)
    value = int(num_match.group().replace(",", ""))
    if value < 0:
        raise MalformedReplyError(f"negative demand after [{name}]: {value}", raw=reply)
    return value


def parse_prediction(reply: str, day: date) -> PredictionResult:
    """Extract pickup/dropoff integers and the reasoning text.

    The first integer after the first [pickup] tag and after the first
    [dropoff] tag are taken; comma-grouped digits are accepted; negative
    values are rejected. Reasoning is everything after the first
    [reasoning] tag, or the whole reply when the tag is absent.
    """
    pickup = _first_int_after(_PICKUP_TAG, reply, "pickup")
    dropoff = _first_int_after(_DROPOFF_TAG, reply, "dropoff")
    reasoning_match = _REASONING_TAG.search(reply)
    reasoning = reply[reasoning_match.end():].strip() if reasoning_match else reply.strip()
    return PredictionResult(
        date=day, pickup=pickup, dropoff=dropoff, reasoning=reasoning, raw_response=reply
    )


def render_prediction_reply(pickup: int, dropoff: int, reasoning: str) -> str:
    """Canonical reply form; parse_prediction round-trips it exactly."""
    return f"[pickup] {pickup} [dropoff] {dropoff} [reasoning] {reasoning}"

