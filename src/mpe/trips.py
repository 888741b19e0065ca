"""Taxi trip parsing and aggregation into a dense daily demand series.

The trip CSV contract: a header row with at least the six required columns
(`pickup_datetime, dropoff_datetime, pickup_longitude, pickup_latitude,
dropoff_longitude, dropoff_latitude`), timestamps `YYYY-MM-DD HH:MM:SS` in
venue-local time. Extra columns are ignored; column order is free.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import os
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO
from zoneinfo import ZoneInfo

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SchemaError
from .forking import fork_map, fork_workers
from .geo import GeoPoint, bounding_box, haversine_deg_m, haversine_deg_m_array
from .ioutil import read_csv, write_csv

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


def _column_indexes(header: list[str] | None) -> tuple[int, ...]:
    """Indexes of REQUIRED_COLUMNS in `header`, the last occurrence of a
    repeated name winning; SchemaError when there is no header or it lacks
    a required column."""
    if header is None:
        raise SchemaError("trip CSV has no header row")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise SchemaError(f"trip CSV header missing columns: {', '.join(missing)}")
    index = {name: i for i, name in enumerate(header)}
    return tuple(index[c] for c in REQUIRED_COLUMNS)


def iter_trip_rows(
    source: TextIO | Iterable[str],
    rejects: list[RejectionNote],
    row_numbers: Iterable[int] | None = None,
) -> Iterator[tuple]:
    """Validate the trip CSV row by row, in input order.

    Yields each well-formed row as a plain tuple in TripRecord's field
    order, building no object per row, and appends a RejectionNote with
    its 1-based data-row number and a reason to `rejects` for each
    malformed one. Blank lines are skipped and not numbered; a short row
    reads its missing fields as empty; when a column name repeats, its last
    occurrence is used. A header missing any required column is fatal
    (SchemaError, raised on first iteration). `row_numbers`, when given,
    supplies the number of each non-blank row in turn in place of 1, 2, 3...
    """
    reader = csv.reader(source)
    ipt, idt, iplon, iplat, idlon, idlat = _column_indexes(next(reader, None))
    width = max(ipt, idt, iplon, iplat, idlon, idlat) + 1

    numbers = itertools.count(1) if row_numbers is None else row_numbers
    for i, row in zip(numbers, filter(None, reader)):
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


# --- columnar ingest ----------------------------------------------------------------

# Most bytes ingest reads from the trip file at a time.
BLOCK_SIZE = 256 * 1024

# Most tuples _DayCounts.add_rows holds at a time.
_ROW_BATCH = 4096

# Relative half-width of the band around radius_m in which the numpy
# haversine does not decide an end; haversine_deg_m decides it instead.
_RADIUS_BAND = 1e-9

# The certified timestamp, "YYYY-MM-DD HH:MM:SS": 19 bytes, 14 of them digits.
_STAMP = b"0000-00-00 00:00:00"
_STAMP_DIGITS = [i for i, c in enumerate(_STAMP) if c == ord("0")]
_STAMP_SEPS = [i for i, c in enumerate(_STAMP) if c != ord("0")]
_STAMP_SEP_BYTES = np.frombuffer(_STAMP, np.uint8)[_STAMP_SEPS]
# Calendar tables: by year 0-9999, then by leap (0 or 1) and month 0-13.
# Months 0 and 13 (13 stands for any month above 12) have no days.
_YEARS = np.arange(10_000)
_LEAP = ((_YEARS % 4 == 0) & ((_YEARS % 100 != 0) | (_YEARS % 400 == 0))).astype(np.int32)
_DAYS_BEFORE_YEAR = ((_YEARS - 1) * 365 + (_YEARS - 1) // 4 - (_YEARS - 1) // 100
                     + (_YEARS - 1) // 400).astype(np.int32)
_DAYS_IN_MONTH = np.array([[0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0]] * 2)
_DAYS_IN_MONTH[1, 2] = 29
_DAYS_BEFORE_MONTH = np.cumsum(_DAYS_IN_MONTH, axis=1) - _DAYS_IN_MONTH
_DAY_S = 86_400
_MAX_TRIP_S = int(MAX_TRIP_DURATION.total_seconds())


def _stamp_seconds(buf: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(seconds, ok) for the fields buf[start:stop]: ok where a field is a
    "YYYY-MM-DD HH:MM:SS" timestamp with a valid date and time, as
    `datetime.fromisoformat` reads it, and seconds counted from day 0 of
    the proleptic Gregorian calendar, so seconds // 86400 is the date's
    ordinal."""
    if len(buf) < len(_STAMP):
        return start, np.zeros(len(start), bool)
    # Each field's first 19 bytes, one column per field: a field that starts
    # closer than that to the end is too short, and reads the block's end.
    windows = sliding_window_view(buf, len(_STAMP))
    raw = windows[np.minimum(start, len(buf) - len(_STAMP))].T
    digits = raw[_STAMP_DIGITS] - 48  # uint8: a byte below "0" wraps above 9
    ok = (stop - start == len(_STAMP)) & (digits.max(0) <= 9)
    ok &= (raw[_STAMP_SEPS] == _STAMP_SEP_BYTES[:, None]).all(0)
    pairs = digits[0::2].astype(np.int32) * 10 + digits[1::2]
    century, year, month, day, hour, minute, second = pairs
    year = np.minimum(century * 100 + year, 9999)  # above only where a digit is not
    leap = _LEAP[year]
    month = np.minimum(month, 13)
    ok &= (year >= 1) & (day >= 1) & (day <= _DAYS_IN_MONTH[leap, month])
    ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
    ordinal = _DAYS_BEFORE_YEAR[year] + _DAYS_BEFORE_MONTH[leap, month] + day
    return ordinal.astype(np.int64) * _DAY_S + (hour * 3600 + minute * 60 + second), ok


def _line_tails(buf: np.ndarray, starts: np.ndarray, lines: np.ndarray, cut: np.ndarray):
    """Lines `lines` of `buf`, which start at `starts`, each from byte `cut`
    on, as str; one empty str follows a final newline."""
    spans = np.zeros((len(starts), 2), np.int64)  # bytes to skip, then to keep
    spans[:, 0] = np.diff(starts, append=len(buf))
    spans[lines, 1] = spans[lines, 0] - (cut - starts[lines])
    spans[lines, 0] -= spans[lines, 1]
    keep = np.repeat(np.tile([False, True], len(starts)), spans.ravel())
    return buf[keep].tobytes().decode("ascii").split("\n")


def _parse_coordinates(lines: list[str], usecols: list[int]) -> np.ndarray | None:
    """Columns `usecols` of the CSV `lines` as floats, or None when a field
    is no number. numpy's text reader converts each field with
    PyOS_string_to_double, the routine behind `float`, and skips blank lines."""
    try:
        return np.loadtxt(lines, delimiter=",", usecols=usecols, comments=None, ndmin=2)
    except ValueError:
        return None


class _DayCounts:
    """Outflow and inflow per day of a date range at one venue.

    An end counts when it lies in the venue's bounding box, on a day of the
    range, and within radius_m by haversine_deg_m on its bare coordinates.
    """

    def __init__(self, venue: VenueConfig, date_range: DateRange):
        self.clat, self.clon = venue.center.lat, venue.center.lon
        self.radius_m = venue.radius_m
        self.box = bounding_box(venue.center, venue.radius_m)
        self.first = date_range.start.toordinal()
        self.flows = np.zeros((2, date_range.n_days), np.int64)  # outflow, inflow

    def add_rows(self, trips: Iterable[tuple]) -> int:
        """Count tuples in TripRecord's field order, _ROW_BATCH at a time
        through add_columns; returns how many."""
        n, trips = 0, iter(trips)
        while batch := list(itertools.islice(trips, _ROW_BATCH)):
            n += len(batch)
            pickup, dropoff, plat, plon, dlat, dlon = zip(*batch)
            days = np.array([[t.toordinal() for t in pickup], [t.toordinal() for t in dropoff]])
            self.add_columns(days, np.array([plat, dlat], float), np.array([plon, dlon], float))
        return n

    def add_columns(self, days, lats, lons) -> None:
        """Count trips given as arrays: day ordinals, latitudes and longitudes
        of their pickups (index 0) and dropoffs (index 1).

        numpy's haversine decides every end outside the band of relative
        width _RADIUS_BAND around radius_m, where its last bits cannot turn
        the decision; haversine_deg_m decides the ends inside it.
        """
        lat_min, lat_max, lon_min, lon_max = self.box
        n_days = self.flows.shape[1]
        for flow, day, lat, lon in zip(self.flows, days, lats, lons):
            i = day - self.first
            keep = (lat >= lat_min) & (lat <= lat_max) & (lon >= lon_min) & (lon <= lon_max)
            keep &= (i >= 0) & (i < n_days)
            i, lat, lon = i[keep], lat[keep], lon[keep]
            dist = haversine_deg_m_array(lat, lon, self.clat, self.clon)
            near = np.abs(dist - self.radius_m) <= self.radius_m * _RADIUS_BAND
            flow += np.bincount(i[(dist <= self.radius_m) & ~near], minlength=n_days)
            for k, a, b in zip(i[near].tolist(), lat[near].tolist(), lon[near].tolist()):
                if haversine_deg_m(a, b, self.clat, self.clon) <= self.radius_m:
                    flow[k] += 1

    def series(self, date_range: DateRange) -> list[DailyDemand]:
        outflow, inflow = self.flows.tolist()
        return list(map(DailyDemand, date_range.days(), outflow, inflow))


def _line_start(fd: int, pos: int) -> int:
    """The first line start at or after byte `pos` of file `fd`, or its size."""
    at = pos - 1
    while chunk := os.pread(fd, BLOCK_SIZE, at):
        if (newline := chunk.find(b"\n")) >= 0:
            return at + newline + 1
        at += len(chunk)
    return at


class TripFile:
    """A trip CSV opened in binary mode, which aggregate_daily_demand reads
    in blocks of at most BLOCK_SIZE bytes, on up to `workers` fork workers.

    Canonical rows are checked, parsed and counted as numpy arrays; every
    other row goes through iter_trip_rows in file order with its row number.
    `rejects` and `valid` end as iter_trip_rows over the file read as UTF-8
    text leaves them: its rejects, and the number of rows it yields.
    """

    def __init__(self, fh: BinaryIO, rejects: list[RejectionNote], workers: int = 1):
        self.fh = fh
        self.rejects = rejects
        self.valid = 0
        self.workers = workers
        self.switch: int | None = None  # where _block met a quote or a bare CR

    def __getstate__(self) -> dict:
        return {**self.__dict__, "fh": None}  # a fork worker reads by descriptor

    def count_into(self, counts: _DayCounts) -> None:
        """Count the file into `counts`, here or on fork workers (a range of
        _ranges each, merged in file order). The first range that met a quote
        or a bare CR hands the rest to _read_rest; later ones are dropped."""
        head = self.fh.readline()
        line = head.removesuffix(b"\n").removesuffix(b"\r")
        if b'"' in line or b"\r" in line:
            return self._read_rest(counts, 0, 0)
        self._header = head.decode("utf-8")
        header = next(csv.reader([self._header]), None) if head else None
        self._columns = _column_indexes(header)
        self._commas = len(header) - 1
        ranges = self._ranges(len(head))
        if len(ranges) < 2:
            row = self._count_range(counts, len(head), float("inf"), lambda _, n: self.fh.read(n))
        else:
            row, calls = 0, [(counts, self.fh.fileno(), *r) for r in ranges]
            for part, flows, rows, error in fork_map(self._part, calls, len(calls)):
                if error is not None:
                    raise error
                counts.flows += flows
                self.valid += part.valid
                self.rejects += (RejectionNote(r.row + row, r.reason) for r in part.rejects)
                row += rows
                self.switch = part.switch
                if self.switch is not None:
                    break
        if self.switch is not None:
            self._read_rest(counts, self.switch, row)

    def _ranges(self, start: int) -> list[tuple[int, int]]:
        """Byte ranges covering the file from `start` on, each but the last
        ending on a newline: as many as fork_workers(workers) allows, at most
        one per BLOCK_SIZE bytes of the file, and none with no descriptor."""
        try:
            fd = self.fh.fileno()
        except io.UnsupportedOperation:
            return []
        size = os.fstat(fd).st_size
        n = min(fork_workers(self.workers), size // BLOCK_SIZE)
        cuts = [_line_start(fd, start + (size - start) * k // n) for k in range(1, n)]
        return [(a, b) for a, b in zip([start, *cuts], [*cuts, size]) if a < b]

    def _part(self, counts: _DayCounts, fd: int, start: int, stop: int) -> tuple:
        """A fork worker's _count_range on copies of this file and `counts`,
        by os.pread on `fd` (it shares the parent's file offset): the copies'
        state, rows numbered, and the UnicodeDecodeError that stopped it."""
        part, counts = copy.copy(self), copy.copy(counts)
        part.rejects, part.valid, counts.flows = [], 0, np.zeros_like(counts.flows)
        try:
            rows = part._count_range(counts, start, stop, lambda pos, n: os.pread(fd, n, pos))
        except UnicodeDecodeError as exc:
            return part, counts.flows, 0, exc
        return part, counts.flows, rows, None

    def _count_range(self, counts: _DayCounts, start: int, stop: float, read) -> int:
        """Count the lines from byte `start` to `stop` of the file, which
        `read(pos, n)` reads, numbering rows from 1, until a line with a quote
        or bare CR sets `switch`. Returns the rows numbered."""
        pos, offset, row, carry = start, start, 0, b""
        while self.switch is None:
            chunk = read(pos, min(BLOCK_SIZE, stop - pos))
            pos += len(chunk)
            data = carry + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            if cut:
                row = self._block(counts, memoryview(data)[:cut], offset, row)
                offset += cut
            carry = data[cut:]
            if not chunk:
                break
        return row

    def _read_rest(self, counts: _DayCounts, pos: int, row: int) -> None:
        """Read the file from byte `pos` on as csv.reader reads it, numbering
        its rows from `row` + 1."""
        self.fh.seek(pos)
        text = io.TextIOWrapper(self.fh, encoding="utf-8", newline="")
        try:
            source = itertools.chain([self._header], text) if pos else text
            rows = iter_trip_rows(source, self.rejects, itertools.count(row + 1))
            self.valid += counts.add_rows(rows)
        finally:
            text.detach()

    def _block(self, counts: _DayCounts, block: memoryview, offset: int, row: int) -> int:
        """Count the lines of `block`, which starts at byte `offset` after
        `row` numbered rows. Returns the rows numbered by its end, or before
        a line with a quote or a bare CR, whose offset it puts in `switch`."""
        buf = np.frombuffer(block, np.uint8)
        # Every byte a coordinate field may not hold (all but 0-9 - .): the
        # delimiters, the timestamps' separators and every special byte.
        at = np.flatnonzero((buf - 48 > 9) & (buf != ord("-")) & (buf != ord(".")))
        code = buf[at]
        if buf[-1] != ord("\n"):  # a last line with no newline ends the file
            at, code = np.append(at, len(buf)), np.append(code, ord("\n"))
        delim = np.flatnonzero((code == ord(",")) | (code == ord("\n")))  # into `at`
        newline = np.flatnonzero(code[delim] == ord("\n"))  # into `delim`
        ends = at[delim[newline]]
        starts = np.concatenate(([0], ends[:-1] + 1))
        crlf = (ends > starts) & (buf[ends - 1] == ord("\r"))
        stops = ends - crlf
        # A quote or a bare CR stops the block reader, and the rest of the
        # file goes to _read_rest, since csv quoting and CR line breaks can
        # span lines; a line with a byte >= 0x80 goes to iter_trip_rows alone.
        special = (code == ord('"')) | (code == ord("\r")) | (code >= 0x80)
        special[delim[newline[crlf]] - 1] = False  # the CR of a CRLF
        marks = at[special]
        marked = np.searchsorted(ends, marks)
        switch = marked[buf[marks] < 0x80]
        if len(switch):
            cut = starts[switch[0]]
            if cut:
                row = self._block(counts, block[:cut], offset, row)
            self.switch = offset + cut
            return row

        nonempty = stops > starts
        numbers = row + np.cumsum(nonempty)
        certified = nonempty.copy()
        certified[marked] = False
        lines, cut, pickup_s, dropoff_s = self._certify(
            buf, at, delim, newline, stops, crlf, certified
        )
        counted = np.zeros(len(ends), bool)
        if len(lines):
            text = _line_tails(buf, starts, lines, cut)
            counted[lines[self._count_parsed(counts, text, pickup_s, dropoff_s)]] = True

        slow = np.flatnonzero(nonempty & ~counted)
        if len(slow):
            text = [str(block[starts[j]:ends[j] + 1], "utf-8") for j in slow.tolist()]
            rows = iter_trip_rows([self._header, *text], self.rejects, numbers[slow].tolist())
            self.valid += counts.add_rows(rows)
        return int(numbers[-1])

    def _certify(self, buf, at, delim, newline, stops, crlf, certified):
        """The `certified` lines that hold one field per header column, two
        canonical timestamps and four coordinate fields of 0-9 - . only;
        with where their first coordinate column starts and their
        timestamps' seconds (see _stamp_seconds)."""
        # Field f of a line lies between its delimiters first + f and
        # first + f + 1, counted from a virtual one at 0 before the block.
        first = np.concatenate(([0], newline[:-1] + 1))
        last = self._commas
        lines = np.flatnonzero(certified & (newline - first == last))
        first, stops, crlf = first[lines], stops[lines], crlf[lines]
        pos = np.concatenate(([-1], at[delim]))
        rank = np.concatenate(([-1], delim))  # the delimiters' indexes in `at`

        def field(f):
            """Start and stop of field f, and the bytes in it that `at` lists."""
            left, right = first + f, first + f + 1
            cr = crlf if f == last else 0
            return pos[left] + 1, pos[right] - cr, rank[right] - rank[left] - 1 - cr

        ipt, idt, *coordinates = self._columns
        (p_start, p_stop, _), (d_start, d_stop, _) = field(ipt), field(idt)
        # Both timestamps of every line in one pass: pickups, then dropoffs.
        seconds, ok = _stamp_seconds(
            buf, np.concatenate((p_start, d_start)), np.concatenate((p_stop, d_stop))
        )
        pickup_s, dropoff_s = seconds.reshape(2, -1)
        ok = ok.reshape(2, -1).all(0)
        for f in coordinates:
            start, stop, others = field(f)
            ok &= (stop > start) & (others == 0)
        cut = field(min(coordinates))[0]
        return lines[ok], cut[ok], pickup_s[ok], dropoff_s[ok]

    def _count_parsed(self, counts, text: list[str], pickup_s, dropoff_s) -> np.ndarray:
        """Parse the coordinates of certified lines, `text` holding each from
        its first coordinate column on, and count the rows that pass every
        check of iter_trip_rows; returns their mask, all False when loadtxt
        cannot parse `text`."""
        coordinates = self._columns[2:]
        coords = _parse_coordinates(text, [c - min(coordinates) for c in coordinates])
        if coords is None or coords.shape != (len(pickup_s), 4):
            return np.zeros(len(pickup_s), bool)
        plon, plat, dlon, dlat = coords.T
        valid = ~(((plat == 0.0) & (plon == 0.0)) | ((dlat == 0.0) & (dlon == 0.0)))
        valid &= (plat >= -90.0) & (plat <= 90.0) & (plon >= -180.0) & (plon <= 180.0)
        valid &= (dlat >= -90.0) & (dlat <= 90.0) & (dlon >= -180.0) & (dlon <= 180.0)
        valid &= (dropoff_s >= pickup_s) & (dropoff_s - pickup_s <= _MAX_TRIP_S)
        counts.add_columns(
            (pickup_s[valid] // _DAY_S, dropoff_s[valid] // _DAY_S),
            (plat[valid], dlat[valid]),
            (plon[valid], dlon[valid]),
        )
        self.valid += int(np.count_nonzero(valid))
        return valid


def aggregate_daily_demand(
    trips: Iterable[tuple] | TripFile,
    venue: VenueConfig,
    date_range: DateRange,
) -> list[DailyDemand]:
    """Aggregate trips into one DailyDemand per calendar day in the range.

    `trips` is a TripFile, read here block by block, or holds TripRecords
    or plain tuples in their field order, such as iter_trip_rows yields. A
    trip increments the outflow of its pickup date when the pickup point is
    within the venue radius, and the inflow of its dropoff date when the
    dropoff point is; a trip inside the radius at both ends counts once in
    each flow. Only an end inside the venue's bounding box can be within
    the radius, and the exact haversine_deg_m distance, taken on the bare
    coordinates, decides each such end. Days with no qualifying trips emit
    (0, 0). Timestamps are venue-local by the CSV contract, so date
    attribution is direct.
    """
    counts = _DayCounts(venue, date_range)
    if isinstance(trips, TripFile):
        trips.count_into(counts)
    else:
        counts.add_rows(trips)
    return counts.series(date_range)


def write_daily_demand_csv(series: Sequence[DailyDemand], path) -> None:
    write_csv(
        path, ["date", "outflow", "inflow"],
        ([row.date.isoformat(), row.outflow, row.inflow] for row in series),
    )


def read_daily_demand_csv(path) -> list[DailyDemand]:
    return [
        DailyDemand(date.fromisoformat(r["date"]), int(r["outflow"]), int(r["inflow"]))
        for r in read_csv(path)
    ]


def demand_index(series: Sequence[DailyDemand]) -> Mapping[date, DailyDemand]:
    return {row.date: row for row in series}
