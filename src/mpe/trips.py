"""Taxi trip parsing and aggregation into a dense daily demand series.

The trip CSV contract: a header row with at least the six required columns
(`pickup_datetime, dropoff_datetime, pickup_longitude, pickup_latitude,
dropoff_longitude, dropoff_latitude`), timestamps `YYYY-MM-DD HH:MM:SS` in
venue-local time. Extra columns are ignored; column order is free.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO
from zoneinfo import ZoneInfo

from .errors import SchemaError
from .geo import GeoPoint, bounding_box, haversine_deg_m
from .ioutil import atomic_writer

REQUIRED_COLUMNS = (
    "pickup_datetime",
    "dropoff_datetime",
    "pickup_longitude",
    "pickup_latitude",
    "dropoff_longitude",
    "dropoff_latitude",
)

# Plausibility bound: anything longer is treated as a data error.
MAX_TRIP_DURATION = timedelta(hours=12)


class TripRecord(NamedTuple):
    """One validated taxi trip, in the field order iter_trip_rows yields."""

    pickup_time: datetime
    dropoff_time: datetime
    pickup_lat: float
    pickup_lon: float
    dropoff_lat: float
    dropoff_lon: float


@dataclass(frozen=True)
class VenueConfig:
    """Event venue: center point, capture radius, and local timezone."""

    name: str
    center: GeoPoint
    radius_m: float = 220.0
    timezone: str = "America/New_York"

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError("radius_m must be positive")
        ZoneInfo(self.timezone)  # raises for unknown IANA names


@dataclass(frozen=True)
class DailyDemand:
    """Outflow (in-radius pickups) and inflow (in-radius dropoffs) for a day."""

    date: date
    outflow: int
    inflow: int

    def __post_init__(self):
        if self.outflow < 0 or self.inflow < 0:
            raise ValueError("demand counts must be non-negative")
        if not isinstance(self.outflow, int) or not isinstance(self.inflow, int):
            raise ValueError("demand counts must be integers")


@dataclass(frozen=True)
class DateRange:
    """Inclusive calendar interval."""

    start: date
    end: date

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"empty date range: {self.start} > {self.end}")

    def __contains__(self, d: date) -> bool:
        return self.start <= d <= self.end

    def days(self) -> Iterator[date]:
        d = self.start
        while d <= self.end:
            yield d
            d += timedelta(days=1)

    @property
    def n_days(self) -> int:
        return (self.end - self.start).days + 1


class RejectionNote(NamedTuple):
    row: int  # 1-based data row index (header excluded)
    reason: str


def _parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw.strip())
    if ts.tzinfo is not None:
        raise ValueError("timestamps must be naive venue-local")
    return ts


def iter_trip_rows(
    source: TextIO | Iterable[str],
    rejects: list[RejectionNote],
) -> Iterator[tuple]:
    """Validate the trip CSV row by row, in input order.

    Yields each well-formed row as a plain tuple in TripRecord's field
    order, building no object per row, and appends a RejectionNote with
    its 1-based data-row number and a reason to `rejects` for each
    malformed one. Blank lines are skipped and not numbered; a short row
    reads its missing fields as empty; when a column name repeats, its last
    occurrence is used. A header missing any required column is fatal
    (SchemaError, raised on first iteration).
    """
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise SchemaError("trip CSV has no header row")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"trip CSV header missing columns: {', '.join(missing)}")
    index = {name: i for i, name in enumerate(header)}
    ipt, idt, iplon, iplat, idlon, idlat = (index[c] for c in REQUIRED_COLUMNS)
    width = max(ipt, idt, iplon, iplat, idlon, idlat) + 1

    i = 0
    for row in reader:
        if not row:
            continue
        i += 1
        if len(row) < width:
            row += [None] * (width - len(row))
        try:
            pickup_time = _parse_timestamp(row[ipt] or "")
            dropoff_time = _parse_timestamp(row[idt] or "")
        except (ValueError, TypeError):
            rejects.append(RejectionNote(i, "bad timestamp"))
            continue
        try:
            plon = float(row[iplon])
            plat = float(row[iplat])
            dlon = float(row[idlon])
            dlat = float(row[idlat])
        except (ValueError, TypeError):
            rejects.append(RejectionNote(i, "bad coordinate"))
            continue
        if (plat == 0.0 and plon == 0.0) or (dlat == 0.0 and dlon == 0.0):
            rejects.append(RejectionNote(i, "null-island sentinel"))
            continue
        # GeoPoint's ranges, checked without building two per row.
        if not (
            -90.0 <= plat <= 90.0 and -180.0 <= plon <= 180.0
            and -90.0 <= dlat <= 90.0 and -180.0 <= dlon <= 180.0
        ):
            rejects.append(RejectionNote(i, "coordinate out of range"))
            continue
        if dropoff_time < pickup_time:
            rejects.append(RejectionNote(i, "dropoff before pickup"))
            continue
        if dropoff_time - pickup_time > MAX_TRIP_DURATION:
            rejects.append(RejectionNote(i, "trip longer than 12 hours"))
            continue
        yield pickup_time, dropoff_time, plat, plon, dlat, dlon


def parse_trip_records(
    source: TextIO | Iterable[str],
) -> tuple[list[TripRecord], list[RejectionNote]]:
    """Parse the whole trip CSV into TripRecords (see iter_trip_rows)."""
    rejects: list[RejectionNote] = []
    records = list(map(TripRecord._make, iter_trip_rows(source, rejects)))
    return records, rejects


def aggregate_daily_demand(
    trips: Iterable[tuple],
    venue: VenueConfig,
    date_range: DateRange,
) -> list[DailyDemand]:
    """Aggregate trips into one DailyDemand per calendar day in the range.

    `trips` holds TripRecords or plain tuples in their field order, such as
    iter_trip_rows yields. A trip increments the outflow of its pickup date
    when the pickup point is within the venue radius, and the inflow of its
    dropoff date when the dropoff point is; a trip inside the radius at both
    ends counts once in each flow. Only an end inside the venue's bounding
    box can be within the radius, and the exact haversine_m distance,
    taken on the bare coordinates, decides each such end. Days with no qualifying trips emit (0, 0). Timestamps are
    venue-local by the CSV contract, so date attribution is direct.
    """
    center, radius_m = venue.center, venue.radius_m
    clat, clon = center.lat, center.lon
    lat_min, lat_max, lon_min, lon_max = bounding_box(center, radius_m)
    outflow: dict[date, int] = {d: 0 for d in date_range.days()}
    inflow: dict[date, int] = {d: 0 for d in date_range.days()}
    for pickup_time, dropoff_time, plat, plon, dlat, dlon in trips:
        if lat_min <= plat <= lat_max and lon_min <= plon <= lon_max:
            pd = pickup_time.date()
            if pd in outflow and haversine_deg_m(plat, plon, clat, clon) <= radius_m:
                outflow[pd] += 1
        if lat_min <= dlat <= lat_max and lon_min <= dlon <= lon_max:
            dd = dropoff_time.date()
            if dd in inflow and haversine_deg_m(dlat, dlon, clat, clon) <= radius_m:
                inflow[dd] += 1
    return [DailyDemand(d, outflow[d], inflow[d]) for d in date_range.days()]


def write_daily_demand_csv(series: Sequence[DailyDemand], path) -> None:
    with atomic_writer(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "outflow", "inflow"])
        for row in series:
            writer.writerow([row.date.isoformat(), row.outflow, row.inflow])


def read_daily_demand_csv(path) -> list[DailyDemand]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            DailyDemand(date.fromisoformat(r["date"]), int(r["outflow"]), int(r["inflow"]))
            for r in reader
        ]


def demand_index(series: Sequence[DailyDemand]) -> Mapping[date, DailyDemand]:
    return {row.date: row for row in series}
