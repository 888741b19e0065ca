"""Deterministic rule-based backend that stands in for the chat model.

It recognizes the two prompt families this package renders and answers them
from the prompt text alone: event-format prompts get a keyword-derived
category and a one-line summary; prediction prompts get the target baseline
plus the mean deviation of history days with a matching event signature.
Pure function of the prompt, so runs are exactly reproducible offline.
"""

from __future__ import annotations

import functools
import re
import threading

from .errors import MissingScriptError
from .gateway import ChatBackend, ChatRequest, ChatResponse, TokenUsage
from .parsing import render_prediction_reply
from .prompts import round_half_up

VERSION = 1  # raise it when a reply changes, so no response store serves an old one
_HISTORY_RI = re.compile(
    r"^(\d{4}-\d{2}-\d{2}) \((\w+)\) \| baseline out (\d+) in (\d+)"
    r" \| deviation out ([+-]\d+) in ([+-]\d+)(.*)$"
)
_HISTORY_O = re.compile(
    r"^(\d{4}-\d{2}-\d{2}) \((\w+)\) \| demand out (\d+) in (\d+)(.*)$"
)
_TARGET_BASELINE = re.compile(
    r"^Expected demand for a regular (\w+)(?: if no event occurs)?:"
    r" out (\d+) in (\d+)$"
)
_NEXT_DAY = re.compile(r"^Next day: \d{4}-\d{2}-\d{2} \((\w+)\)$")
_SCHEDULED = re.compile(r"^Scheduled: (.*)$")
_EVENT_COUNT = re.compile(r"^(\d+) events?\b")
_CATEGORY_LABELS = re.compile(r"\[Category\]\s*(.*?)\s*(?=\[Summary\]|\[Category\]|$)")

_CATEGORY_RULES = (
    (" vs. ", "Basketball Game"),
    (" vs ", "Basketball Game"),
    ("basketball", "Basketball Game"),
    ("concert", "Pop Concert"),
    ("family", "Family Show"),
    ("comedy", "Comedy Show"),
)


def infer_category(text: str) -> str:
    lowered = f" {text.lower()} "
    for keyword, label in _CATEGORY_RULES:
        if keyword in lowered:
            return label
    return "Live Event"


def _event_signature(block: str) -> tuple[int, frozenset[str]]:
    """(event count, category labels) from a rendered event block."""
    block = block.strip()
    if not block or block == "no event":
        return 0, frozenset()
    count_match = _EVENT_COUNT.match(block)
    count = int(count_match.group(1)) if count_match else 1
    labels = {label.strip() for label in _CATEGORY_LABELS.findall(block)}
    if not labels and "[description]" in block:
        labels = {
            infer_category(part)
            for part in block.split("[description]")[1:]
        }
    return count, frozenset(label for label in labels if label)


class _HistoryDay:
    __slots__ = ("weekday", "out_a", "in_a", "signature", "has_events")

    def __init__(self, weekday, out_a, in_a, signature):
        self.weekday = weekday
        self.out_a = out_a    # deviation under r_i, raw demand under o
        self.in_a = in_a
        self.signature = signature
        self.has_events = signature[0] > 0


# The windows of consecutive targets share all but one history line, so a
# few hundred recent lines cover every reuse while keeping memory bounded.
@functools.lru_cache(maxsize=256)
def _history_day(line: str) -> _HistoryDay | None:
    """The history day a prompt line renders, or None for any other line."""
    m = _HISTORY_RI.match(line)
    if m:
        return _HistoryDay(
            m.group(2), int(m.group(5)), int(m.group(6)),
            _event_signature(m.group(7).lstrip(" |")),
        )
    m = _HISTORY_O.match(line)
    if m:
        return _HistoryDay(
            m.group(2), int(m.group(3)), int(m.group(4)),
            _event_signature(m.group(5).lstrip(" |")),
        )
    return None


def _mean(pairs):
    n = len(pairs)
    return sum(p[0] for p in pairs) / n, sum(p[1] for p in pairs) / n


class HeuristicBackend(ChatBackend):
    """Answers this package's prompts with deterministic rules."""

    namespace = f"heuristic-{VERSION}"
    waits = False

    def __init__(self):
        self.call_count = 0
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> ChatResponse:
        with self._lock:
            self.call_count += 1
        text = request.text()
        if text.startswith("Format the following public event record."):
            reply = self._format_event(text)
        elif text.startswith("Task: predict the daily taxi travel demand"):
            reply = self._predict(text)
        else:
            raise MissingScriptError(
                f"heuristic backend does not recognize this prompt: {text[:60]!r}"
            )
        return ChatResponse(
            content=reply,
            finish_reason="stop",
            usage=TokenUsage(len(text.split()), len(reply.split())),
        )

    @staticmethod
    def _format_event(text: str) -> str:
        title = ""
        description = ""
        for line in text.splitlines():
            if line.startswith("Title: "):
                title = line[len("Title: "):]
            elif line.startswith("Description: "):
                description = line[len("Description: "):]
        category = infer_category(f"{title} {description}")
        summary = f"{title} at the venue, expected to draw a typical {category.lower()} crowd."
        return f"[Category] {category} [Summary] {summary}"

    def _predict(self, text: str) -> str:
        lines = text.splitlines()
        history: list[_HistoryDay] = []
        target_weekday = None
        baseline = None
        scheduled = None
        for line in lines:
            day = _history_day(line)
            if day is not None:
                history.append(day)
                continue
            m = _NEXT_DAY.match(line)
            if m:
                target_weekday = m.group(1)
                continue
            m = _TARGET_BASELINE.match(line)
            if m:
                target_weekday = target_weekday or m.group(1)
                baseline = (int(m.group(2)), int(m.group(3)))
                continue
            m = _SCHEDULED.match(line)
            if m:
                scheduled = _event_signature(m.group(1))
        if baseline is not None:
            return self._predict_from_deviations(history, baseline, scheduled)
        return self._predict_from_raw(history, target_weekday, scheduled)

    @staticmethod
    def _matched_days(history, scheduled):
        count, labels = scheduled
        if labels:
            exact = [d for d in history if d.signature[1] == labels]
            if exact:
                return exact, "same event type"
            overlap = [d for d in history if d.signature[1] & labels]
            if overlap:
                return overlap, "a related event type"
        same_count = [d for d in history if d.signature[0] == count]
        if same_count:
            return same_count, "the same event count"
        any_event = [d for d in history if d.has_events]
        return any_event, "any event day"

    def _predict_from_deviations(self, history, baseline, scheduled) -> str:
        if scheduled is None or scheduled[0] == 0:
            reason = (
                "No event information suggests a surge, so the regular baseline "
                "for this weekday is the best estimate."
            )
            return render_prediction_reply(baseline[0], baseline[1], reason)
        matches, how = self._matched_days(history, scheduled)
        if matches:
            dev_out, dev_in = _mean([(d.out_a, d.in_a) for d in matches])
            reason = (
                f"Found {len(matches)} history days with {how}; their average "
                f"deviation ({dev_out:.1f} pickups, {dev_in:.1f} dropoffs) is "
                "added to the regular baseline."
            )
        else:
            dev_out = dev_in = 0.0
            reason = (
                "No comparable event days in the window; staying at the "
                "regular baseline."
            )
        pickup = max(0, round_half_up(baseline[0] + dev_out))
        dropoff = max(0, round_half_up(baseline[1] + dev_in))
        return render_prediction_reply(pickup, dropoff, reason)

    def _predict_from_raw(self, history, target_weekday, scheduled) -> str:
        def base_for(weekday):
            quiet = [d for d in history if not d.has_events and d.weekday == weekday]
            if not quiet:
                quiet = [d for d in history if not d.has_events]
            if not quiet:
                quiet = history
            return _mean([(d.out_a, d.in_a) for d in quiet])

        base_out, base_in = base_for(target_weekday)
        if scheduled is None or scheduled[0] == 0:
            reason = (
                "Estimated the regular demand from comparable quiet days in "
                "the window."
            )
            return render_prediction_reply(
                max(0, round_half_up(base_out)), max(0, round_half_up(base_in)), reason
            )
        matches, how = self._matched_days(history, scheduled)
        lift_out = lift_in = 0.0
        if matches:
            lifts = []
            for d in matches:
                b_out, b_in = base_for(d.weekday)
                lifts.append((d.out_a - b_out, d.in_a - b_in))
            lift_out, lift_in = _mean(lifts)
            reason = (
                f"Estimated the regular demand from quiet days, then added the "
                f"average lift of {len(matches)} days with {how}."
            )
        else:
            reason = (
                "Estimated the regular demand from quiet days; no comparable "
                "event days to learn a lift from."
            )
        pickup = max(0, round_half_up(base_out + lift_out))
        dropoff = max(0, round_half_up(base_in + lift_in))
        return render_prediction_reply(pickup, dropoff, reason)
