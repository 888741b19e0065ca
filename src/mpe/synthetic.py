"""Deterministic synthetic venue dataset with planted event effects.

Generates a weekday-dependent base demand plus additive per-category event
effects and small integer noise, then materializes it as a trip CSV (one
row per trip, with decoys outside the radius and a few malformed rows), an
event catalog JSON, and a ground-truth CSV for oracle checks. Everything
derives from one seeded generator, so equal seeds give identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path

import numpy as np

from .config import encode
from .events import EventRecord, serialize_event_records
from .geo import GeoPoint
from .trips import DateRange, VenueConfig

SYNTH_VENUE = VenueConfig(
    name="Riverside Arena",
    center=GeoPoint(40.70000, -73.95000),
    radius_m=220.0,
    timezone="America/New_York",
)

# Mon..Sun planted base demand (outflow, inflow).
BASE_OUT = [52, 50, 51, 54, 60, 68, 62]
BASE_IN = [33, 32, 33, 35, 39, 44, 40]

NOISE_SD = 4.0
EFFECT_JITTER_SD = 3.0

TEAMS = ["Hawks", "Comets", "Pilots", "Mariners", "Foxes", "Giants", "Rockets", "Owls"]
ARTISTS = ["Aurora Vale", "The Night Larks", "Miro Quartet", "Silver Harbor",
           "Lena Park", "Glass Antlers", "Rosetta Sky", "Juniper Wilde"]
SHOWS = ["Ocean Wonders", "Dino Quest", "Circus Lumina", "Ice Dreams"]
COMEDIANS = ["Max Corby", "Tessa Lin", "Rudy Alvarez", "Pia Novak"]

DESCRIPTION_WORDS = (
    "the tour brings a full production with new staging lights and a live band "
    "fans can expect classic hits alongside material from the latest release "
    "doors open one hour before the show and seating is general admission "
    "special guests join on select dates with local openers starting the night"
).split()


@dataclass(frozen=True)
class CategorySpec:
    name: str
    effect_out: float
    effect_in: float
    start: time
    end: time


CATEGORIES = {
    "basketball": CategorySpec("basketball", 50.0, 32.0, time(19, 30), time(22, 0)),
    "pop_concert": CategorySpec("pop_concert", 85.0, 55.0, time(20, 0), time(23, 0)),
    "family_show": CategorySpec("family_show", 32.0, 21.0, time(13, 0), time(16, 0)),
    "comedy": CategorySpec("comedy", 18.0, 11.0, time(20, 0), time(22, 30)),
}


@dataclass(frozen=True)
class TruthDay:
    """Planted ground truth for one day."""

    date: date
    outflow: int
    inflow: int
    base_out: int
    base_in: int
    categories: tuple[str, ...]


@dataclass(frozen=True)
class SyntheticDataset:
    venue: VenueConfig
    truth: tuple[TruthDay, ...]
    events: tuple[EventRecord, ...]


def _medium_description(rng) -> str:
    n = int(rng.integers(30, 70))
    idx = rng.integers(0, len(DESCRIPTION_WORDS), size=n)
    return " ".join(DESCRIPTION_WORDS[i] for i in idx)


def _long_description(rng, words: int = 600) -> str:
    idx = rng.integers(0, len(DESCRIPTION_WORDS), size=words)
    return " ".join(DESCRIPTION_WORDS[i] for i in idx)


def _day_events(day: date, rng) -> list[tuple[str, EventRecord]]:
    """Draw the day's events: (category name, record) pairs."""
    weekday = day.weekday()
    out: list[tuple[str, EventRecord]] = []
    if weekday in (1, 4, 5) and rng.random() < 0.40:
        a, b = rng.choice(len(TEAMS), size=2, replace=False)
        spec = CATEGORIES["basketball"]
        title = f"{TEAMS[a]} vs. {TEAMS[b]}"
        out.append((spec.name, EventRecord(title, None, day, spec.start, spec.end)))
    elif rng.random() < 0.12:
        spec = CATEGORIES["pop_concert"]
        artist = ARTISTS[int(rng.integers(0, len(ARTISTS)))]
        description = _medium_description(rng) if rng.random() < 0.4 else None
        title = f"{artist} Live in Concert"
        out.append((spec.name, EventRecord(title, description, day, spec.start, spec.end)))
    elif weekday in (5, 6) and rng.random() < 0.18:
        spec = CATEGORIES["family_show"]
        show = SHOWS[int(rng.integers(0, len(SHOWS)))]
        description = _medium_description(rng) if rng.random() < 0.5 else None
        title = f"{show} Family Spectacular"
        out.append((spec.name, EventRecord(title, description, day, spec.start, spec.end)))
        if rng.random() < 0.5:  # evening showing of the same production
            out.append((
                spec.name,
                EventRecord(title, description, day, time(17, 0), time(20, 0)),
            ))
    elif weekday == 3 and rng.random() < 0.15:
        spec = CATEGORIES["comedy"]
        comedian = COMEDIANS[int(rng.integers(0, len(COMEDIANS)))]
        title = f"{comedian} Comedy Night"
        out.append((spec.name, EventRecord(title, None, day, spec.start, spec.end)))
    return out


def build_dataset(date_range: DateRange, seed: int = 20140701) -> SyntheticDataset:
    """Plant per-day demand: weekday base + category effects + noise."""
    rng = np.random.default_rng(seed)
    truth: list[TruthDay] = []
    events: list[EventRecord] = []
    long_description_used = False
    for day in date_range.days():
        day_events = _day_events(day, rng)
        # One deterministic oversized description to exercise truncation.
        if not long_description_used and day_events and day_events[0][0] == "pop_concert":
            category, record = day_events[0]
            record = EventRecord(
                record.title, _long_description(rng), day, record.start_time, record.end_time
            )
            day_events[0] = (category, record)
            long_description_used = True
        effect_out = 0.0
        effect_in = 0.0
        for category, record in day_events:
            spec = CATEGORIES[category]
            effect_out += spec.effect_out + rng.normal(0, EFFECT_JITTER_SD)
            effect_in += spec.effect_in + rng.normal(0, EFFECT_JITTER_SD)
            events.append(record)
        base_out = BASE_OUT[day.weekday()]
        base_in = BASE_IN[day.weekday()]
        outflow = max(0, round(base_out + effect_out + rng.normal(0, NOISE_SD)))
        inflow = max(0, round(base_in + effect_in + rng.normal(0, NOISE_SD)))
        truth.append(TruthDay(
            date=day,
            outflow=int(outflow),
            inflow=int(inflow),
            base_out=base_out,
            base_in=base_in,
            categories=tuple(c for c, _ in day_events),
        ))
    return SyntheticDataset(SYNTH_VENUE, tuple(truth), tuple(events))


def _point_in_radius(rng, center: GeoPoint, radius_m: float) -> tuple[float, float]:
    angle = rng.random() * 2 * math.pi
    dist = radius_m * 0.9 * math.sqrt(rng.random())
    dlat = dist * math.cos(angle) / 111_320.0
    dlon = dist * math.sin(angle) / (111_320.0 * math.cos(math.radians(center.lat)))
    return round(center.lat + dlat, 6), round(center.lon + dlon, 6)


def _point_outside(rng, center: GeoPoint) -> tuple[float, float]:
    angle = rng.random() * 2 * math.pi
    dist = 2000.0 + rng.random() * 3000.0  # 2-5 km ring, far outside the radius
    dlat = dist * math.cos(angle) / 111_320.0
    dlon = dist * math.sin(angle) / (111_320.0 * math.cos(math.radians(center.lat)))
    return round(center.lat + dlat, 6), round(center.lon + dlon, 6)


def write_trips_csv(dataset: SyntheticDataset, path, seed: int = 913) -> None:
    """Materialize the truth as trips: one in-radius endpoint per counted trip,
    plus out-of-radius decoys and three malformed rows that parsers must
    reject without affecting counts."""
    rng = np.random.default_rng(seed)
    center = dataset.venue.center
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "pickup_datetime", "dropoff_datetime",
            "pickup_longitude", "pickup_latitude",
            "dropoff_longitude", "dropoff_latitude",
        ])

        def write_trip(pickup_dt, dropoff_dt, p, d):
            writer.writerow([
                pickup_dt.strftime("%Y-%m-%d %H:%M:%S"),
                dropoff_dt.strftime("%Y-%m-%d %H:%M:%S"),
                f"{p[1]:.6f}", f"{p[0]:.6f}", f"{d[1]:.6f}", f"{d[0]:.6f}",
            ])

        for day in dataset.truth:
            midnight = datetime.combine(day.date, time(0, 0))
            for _ in range(day.outflow):
                pickup_dt = midnight + timedelta(minutes=int(rng.integers(360, 1430)))
                duration = timedelta(minutes=int(rng.integers(5, 41)))
                write_trip(
                    pickup_dt, pickup_dt + duration,
                    _point_in_radius(rng, center, dataset.venue.radius_m),
                    _point_outside(rng, center),
                )
            for _ in range(day.inflow):
                dropoff_dt = midnight + timedelta(minutes=int(rng.integers(360, 1430)))
                duration = timedelta(minutes=int(rng.integers(5, 41)))
                write_trip(
                    dropoff_dt - duration, dropoff_dt,
                    _point_outside(rng, center),
                    _point_in_radius(rng, center, dataset.venue.radius_m),
                )
            for _ in range(8):  # decoys entirely outside the radius
                pickup_dt = midnight + timedelta(minutes=int(rng.integers(360, 1430)))
                write_trip(
                    pickup_dt, pickup_dt + timedelta(minutes=20),
                    _point_outside(rng, center),
                    _point_outside(rng, center),
                )

        first = datetime.combine(dataset.truth[0].date, time(12, 0))
        writer.writerow(["not-a-timestamp", "2014-01-01 12:00:00",
                         "-73.95", "40.70", "-73.95", "40.70"])
        writer.writerow([first.strftime("%Y-%m-%d %H:%M:%S"),
                         first.strftime("%Y-%m-%d %H:%M:%S"),
                         "0.0", "0.0", "-73.95", "40.70"])
        writer.writerow([first.strftime("%Y-%m-%d %H:%M:%S"),
                         (first + timedelta(hours=13)).strftime("%Y-%m-%d %H:%M:%S"),
                         "-73.95", "40.70", "-73.95", "40.70"])


def write_truth_csv(dataset: SyntheticDataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "outflow", "inflow", "base_out", "base_in", "categories"])
        for day in dataset.truth:
            writer.writerow([
                day.date.isoformat(), day.outflow, day.inflow,
                day.base_out, day.base_in, "|".join(day.categories),
            ])


def generate_files(
    out_dir: Path | str,
    date_range: DateRange,
    train_end: date,
    seed: int = 20140701,
    history_days: int = 28,
) -> dict:
    """Write trips.csv, events.json, truth.csv, and a ready pipeline config.

    config.json refers to its siblings by filename only, so the dataset
    directory is relocatable; the returned dict carries absolute paths and
    can be fed to PipelineConfig.from_dict directly.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = build_dataset(date_range, seed=seed)
    write_trips_csv(dataset, out_dir / "trips.csv", seed=seed + 1)
    (out_dir / "events.json").write_text(serialize_event_records(dataset.events), encoding="utf-8")
    write_truth_csv(dataset, out_dir / "truth.csv")
    config = {
        "venue": encode(dataset.venue),
        "trip_source": "trips.csv",
        "event_source": "events.json",
        "train_range": [date_range.start.isoformat(), train_end.isoformat()],
        "test_range": [
            (train_end + timedelta(days=1)).isoformat(),
            date_range.end.isoformat(),
        ],
        "history_days": history_days,
        "output_dir": "out",
        "cache_dir": "cache",
        "backend": {"kind": "heuristic"},
        "ablation": "c_t_h_prime/r_i",
    }
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    resolved = dict(config)
    base = out_dir.resolve()
    for key in ("trip_source", "event_source", "output_dir", "cache_dir"):
        resolved[key] = str(base / config[key])
    return resolved
