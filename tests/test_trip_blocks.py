"""Block-wise trip ingest (TripFile) against the row-by-row reader.

`aggregate_daily_demand` over a `TripFile` must leave the same series,
rejects and valid-row count as `aggregate_daily_demand(iter_trip_rows(...))`
over the same bytes opened in text mode, and as the DictReader reference,
whatever the block size.
"""

import contextlib
import io
import itertools
import math
import os
import struct
import tracemalloc
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe import trips
from mpe.errors import SchemaError
from mpe.geo import GeoPoint, haversine_deg_m
from mpe.trips import (
    REQUIRED_COLUMNS,
    DateRange,
    TripFile,
    VenueConfig,
    aggregate_daily_demand,
    iter_trip_rows,
)

from oracles import destination_point, reference_parse_trip_records

VENUE = VenueConfig("Barclays Center", GeoPoint(40.68265, -73.97469), 220.0)
RANGE = DateRange(date(2014, 7, 25), date(2014, 7, 26))
HEADER = ",".join(REQUIRED_COLUMNS)


def _text(data: bytes):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def block_ingest(data: bytes, venue=VENUE, date_range=RANGE):
    rejects = []
    source = TripFile(io.BytesIO(data), rejects)
    series = aggregate_daily_demand(source, venue, date_range)
    return series, rejects, source.valid


def row_ingest(data: bytes, venue=VENUE, date_range=RANGE):
    rejects = []
    rows = list(iter_trip_rows(_text(data), rejects))
    return aggregate_daily_demand(rows, venue, date_range), rejects, len(rows)


def reference_ingest(data: bytes, venue=VENUE, date_range=RANGE):
    records, rejects = reference_parse_trip_records(_text(data))
    return aggregate_daily_demand(records, venue, date_range), rejects, len(records)


def _outcome(ingest, data):
    try:
        return ingest(data)
    except SchemaError as exc:
        return "SchemaError", str(exc)


def assert_same_ingest(data: bytes):
    expected = _outcome(row_ingest, data)
    assert _outcome(block_ingest, data) == expected
    assert _outcome(reference_ingest, data) == expected
    return expected


@contextlib.contextmanager
def block_size(n):
    saved, trips.BLOCK_SIZE = trips.BLOCK_SIZE, n
    try:
        yield
    finally:
        trips.BLOCK_SIZE = saved


# --- generated files ----------------------------------------------------------------

_STAMPS = [
    "2014-07-25 00:00:00", "2014-07-25 12:00:00", "2014-07-25 12:00:01",
    "2014-07-25 19:05:00", "2014-07-26 06:59:59", "2014-07-24 23:59:59",
    "2016-02-29 10:00:00", "2015-02-29 10:00:00", "2000-02-29 10:00:00",
    "1900-02-29 10:00:00", "2014-04-31 10:00:00", "2014-13-01 10:00:00",
    "2014-00-10 10:00:00", "2014-07-00 10:00:00", "2014-07-25 24:00:00",
    "2014-07-25 23:60:00", "2014-07-25 23:59:60", "0000-07-25 10:00:00",
    "0001-01-01 00:00:00", "9999-12-31 23:59:59", "2014-07-25T19:05:00",
    "2014-07-25 19:05:00.5", " 2014-07-25 19:05:00", "2014-07-25 19:05:00 ",
    "2014-07-25 19:05", "2014-07-25", "2014-07-25 19:05:00+00:00", "2014/07/25 19:05:00",
    "", "x",
]
_LATS = ["40.68265", "40.6827", "40.682", "40.684", "40.682650000000001", "90", "95"]
_LONS = ["-73.97469", "-73.9747", "-73.975", "-73.97469000000001", "-180", "-181"]
_ODD_COORDINATES = [
    "", "-", ".", ".5", "5.", "-0.0", "0", "0.0", "1-2", "--1", "1..2", "nan", "inf",
    "1e1", " 40.68", "40.68 ", "+40.68", "4_0",
]
_EXTRAS = ["", "CMT", "x y", "café", "a\x00b", "#", '"quoted, comma"', '"two\nlines"', '"']
_EXTRA_NAMES = ["vendor", "fare", "pickup_latitude", "dropoff_datetime", "note"]


@st.composite
def _coordinate(draw, pool):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(_ODD_COORDINATES))
    return draw(st.sampled_from(pool))


@st.composite
def _trip_file(draw):
    header = list(draw(st.permutations(REQUIRED_COLUMNS)))
    for extra in draw(st.lists(st.sampled_from(_EXTRA_NAMES), max_size=3)):
        header.insert(draw(st.integers(0, len(header))), extra)
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(header)))
    pools = {
        "pickup_datetime": st.sampled_from(_STAMPS),
        "dropoff_datetime": st.sampled_from(_STAMPS),
        "pickup_latitude": _coordinate(_LATS), "dropoff_latitude": _coordinate(_LATS),
        "pickup_longitude": _coordinate(_LONS), "dropoff_longitude": _coordinate(_LONS),
    }
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        row = [draw(pools.get(name, st.sampled_from(_EXTRAS))) for name in header]
        if kind == 1:  # short or long
            width = max(1, len(row) + draw(st.integers(-3, 2)))
            row = (row + ["9"] * 3)[:width]
        lines.append(",".join(row))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])  # no final newline
    return text.encode()


@settings(max_examples=400, deadline=None)
@given(_trip_file(), st.sampled_from([1, 2, 3, 7, 40, 97, 1 << 18]))
def test_block_ingest_matches_row_reader_on_generated_files(data, size):
    with block_size(size):
        assert_same_ingest(data)


_GOOD = "2014-07-25 19:05:00,2014-07-25 19:30:00,-73.97469,40.68265,-73.9747,40.6827"
CASES = {
    "empty": "",
    "header_only": HEADER,
    "blank_header": "\n" + HEADER + "\n" + _GOOD + "\n",
    "quoted_header": HEADER.replace("pickup_datetime", '"pickup_datetime"') + "\n"
    + _GOOD + "\n",
    "bare_cr_header": HEADER + "\r" + _GOOD + "\n" + _GOOD + "\n",
    "no_final_newline": HEADER + "\n" + _GOOD + "\n" + _GOOD,
    "final_cr_no_newline": HEADER + "\n" + _GOOD + "\r",
    "crlf_blank_and_whitespace": (HEADER + "\n\n" + _GOOD + "\n \n" + _GOOD + "\n")
    .replace("\n", "\r\n"),
    "quote_spans_lines": HEADER + ",note\n" + _GOOD + ',"a\nb"\n' + _GOOD + ",x\n"
    + "bogus\n" + _GOOD + ",y\n",
    "bare_cr_midfile": HEADER + "\n" + _GOOD + "\n" + "bogus\n" + _GOOD + "\r" + _GOOD
    + "\n" + "x\n",
    "twelve_hours": HEADER + "\n"
    + "2014-07-25 00:00:00,2014-07-25 12:00:00,-73.97469,40.68265,-73.9747,40.6827\n"
    + "2014-07-25 00:00:00,2014-07-25 12:00:01,-73.97469,40.68265,-73.9747,40.6827\n"
    + "2014-07-25 12:00:00,2014-07-25 11:59:59,-73.97469,40.68265,-73.9747,40.6827\n",
    "null_island_and_range": HEADER + "\n"
    + "2014-07-25 10:00:00,2014-07-25 11:00:00,0,0,-73.9747,40.6827\n"
    + "2014-07-25 10:00:00,2014-07-25 11:00:00,-0.0,0.0,-73.9747,40.6827\n"
    + "2014-07-25 10:00:00,2014-07-25 11:00:00,-73.97469,90.0000001,-73.9747,40.6827\n"
    + "2014-07-25 10:00:00,2014-07-25 11:00:00,-180.5,40.68265,-73.9747,40.6827\n",
    "odd_coordinates": HEADER + "\n" + "".join(
        f"2014-07-25 10:00:00,2014-07-25 11:00:00,{c},40.68265,-73.9747,40.6827\n"
        for c in ["", "-", ".", ".5", "5.", "-0.0", "1-2", "-73.974690000000001", "-73.97469"]
    ),
    "every_stamp": HEADER + "\n" + "".join(
        f"{a},{b},-73.97469,40.68265,-73.9747,40.6827\n"
        for s in _STAMPS for a, b in [(s, s), ("2014-07-25 10:00:00", s)]
    ),
    "non_ascii_extra_column": HEADER + ",note\n" + _GOOD + ",café\n" + _GOOD + ",ok\n",
    "repeated_header_names": HEADER + ",pickup_latitude\n" + _GOOD + ",95\n" + _GOOD
    + ",40.68265\n",
}


@pytest.mark.parametrize("size", [1, 5, 64, 1 << 18])
@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_block_ingest_matches_row_reader_on_edge_cases(text, size):
    with block_size(size):
        assert_same_ingest(text.encode())


def test_edge_cases_exercise_rejects_and_counts():
    outcomes = [assert_same_ingest(t.encode()) for t in CASES.values()]
    reasons = {r.reason for o in outcomes if o[0] != "SchemaError" for r in o[1]}
    assert reasons == {
        "bad timestamp", "bad coordinate", "null-island sentinel", "coordinate out of range",
        "dropoff before pickup", "trip longer than 12 hours",
    }
    assert sum(o[2] for o in outcomes if o[0] != "SchemaError") >= 20
    assert sum(d.outflow for o in outcomes if o[0] != "SchemaError" for d in o[0]) >= 10


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_canonical_rows_never_reach_the_row_path(monkeypatch, eol):
    monkeypatch.setattr(trips, "iter_trip_rows", None)  # any call would fail
    extras = ["CMT", "", "a\tb", "#", "x\x00y", "\x0c", "1e5"]
    data = "fare," + HEADER + ",note" + eol + "".join(
        f"{i},{_GOOD},{extras[i % len(extras)]}{eol}" for i in range(3000)
    ) + eol
    with block_size(4096):
        series, rejects, valid = block_ingest(data.encode())
    assert (rejects, valid) == ([], 3000)
    assert (series[0].outflow, series[0].inflow) == (3000, 3000)


def test_undecodable_line_raises_as_in_text_mode():
    data = (HEADER + "\n" + _GOOD + ",\xff\n").encode("latin-1")
    with pytest.raises(UnicodeDecodeError):
        row_ingest(data)
    with pytest.raises(UnicodeDecodeError):
        block_ingest(data)


def test_rows_after_a_quote_keep_their_numbers():
    bad = "2014-07-25T10:00:00.5,x,1,2,3,4"
    data = HEADER + ",note\n" + "\n".join(
        [_GOOD + ",a", bad + ",b", _GOOD + ',"c', 'd"', bad + ",e", "", bad + ",f"]
    ) + "\n"
    with block_size(64):
        _, rejects, valid = assert_same_ingest(data.encode())
    assert [r.row for r in rejects] == [2, 4, 5]
    assert valid == 2


# --- forked ranges ---------------------------------------------------------------------

FORK_BLOCK = 256  # bytes; every case but the short one spans over ten blocks
_BEFORE = "2014-07-25 10:00:00,2014-07-25 09:00:00,-73.97469,40.68265,-73.9747,40.6827"


def _fork_lines(n=60, every=5, extra=""):
    """n data lines of HEADER's columns plus `extra`, every `every`-th one
    rejected, so that each range holds rejects."""
    return [(_BEFORE if i % every == 1 else _GOOD) + extra for i in range(n)]


def _with_line(lines, at, line):
    lines = list(lines)
    lines[int(len(lines) * at)] = line
    return lines


FORK_CASES = {
    "quote_in_a_later_range": HEADER + ",note\n" + "\n".join(_with_line(
        _fork_lines(extra=",x"), 0.8, _GOOD + ',"a\nb",'
    )) + "\n",
    "bare_cr_in_a_later_range": HEADER + "\n" + "\n".join(_with_line(
        _fork_lines(), 0.8, _GOOD + "\r" + _BEFORE
    )) + "\n",
    "crlf_and_blank_lines": HEADER + "\r\n" + "".join(
        line + "\r\n" + "\r\n" * (i % 3) + "\n" * (i % 2) for i, line in enumerate(_fork_lines())
    ),
    "rejects_in_every_range": HEADER + "\n" + "\n".join(_fork_lines(every=2)) + "\n",
    "no_final_newline": HEADER + "\n" + "\n".join(_fork_lines()),
    "shorter_than_one_block": HEADER + "\n" + _GOOD + "\n",
}


@pytest.fixture
def fork_pools(pools, monkeypatch):
    """`pools`, with three CPUs usable whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    return pools


def file_ingest(path, workers):
    rejects = []
    with open(path, "rb") as fh:
        source = TripFile(fh, rejects, workers)
        series = aggregate_daily_demand(source, VENUE, RANGE)
    return series, rejects, source.valid


def _forks(data: bytes, workers: int) -> list:
    """The pools a forked ingest of `data` on `workers` makes: one of that
    many workers, or none below two workers or two blocks."""
    return [(workers,)] if workers > 1 and len(data) >= 2 * FORK_BLOCK else []


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("text", FORK_CASES.values(), ids=FORK_CASES.keys())
def test_forked_ranges_match_the_serial_reader(fork_pools, tmp_path, text, workers):
    data = text.encode()
    path = tmp_path / "trips.csv"
    path.write_bytes(data)
    with block_size(FORK_BLOCK):
        expected = assert_same_ingest(data)
        assert file_ingest(path, workers) == expected
    assert fork_pools == _forks(data, workers)
    assert expected[2] > 0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ranges_cover_the_data_and_end_on_newlines(fork_pools, tmp_path, workers):
    data = FORK_CASES["crlf_and_blank_lines"].encode()
    path = tmp_path / "trips.csv"
    path.write_bytes(data)
    with block_size(FORK_BLOCK), open(path, "rb") as fh:
        start = len(fh.readline())
        ranges = TripFile(fh, [], workers)._ranges(start)
    assert len(ranges) == workers
    assert [a for a, _ in ranges] == [start] + [b for _, b in ranges[:-1]]
    assert ranges[-1][1] == len(data)
    assert all(data[b - 1:b] == b"\n" for _, b in ranges[:-1])


def test_fork_cases_put_rejects_and_switches_in_later_ranges():
    for name, text in FORK_CASES.items():
        if name == "shorter_than_one_block":
            continue
        data = text.encode()
        with block_size(FORK_BLOCK):
            _, rejects, _ = block_ingest(data)
        rows = [r.row for r in rejects]
        last = max(rows)
        assert min(rows) < last / 3 and any(last / 3 < r < 2 * last / 3 for r in rows), name
        for mark in (b'"', b"\r" + _BEFORE.encode()):  # a quote, a bare CR
            if mark in data:
                assert data.index(mark) > 2 * len(data) / 3, name


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("quote_first", [False, True], ids=["alone", "after_a_quote"])
def test_non_utf8_byte_in_a_later_range_raises_as_the_serial_reader(
    fork_pools, tmp_path, workers, quote_first
):
    lines = _with_line(_fork_lines(extra=",x"), 0.8, _GOOD + ",\xff")
    if quote_first:
        lines = _with_line(lines, 0.1, _GOOD + ',"q"')
    data = (HEADER + ",note\n" + "\n".join(lines) + "\n").encode("latin-1")
    path = tmp_path / "trips.csv"
    path.write_bytes(data)
    with block_size(FORK_BLOCK):
        with pytest.raises(UnicodeDecodeError) as serial:
            block_ingest(data)
        with pytest.raises(UnicodeDecodeError) as forked:
            file_ingest(path, workers)
    assert str(forked.value) == str(serial.value)
    assert fork_pools == _forks(data, workers)


# --- coordinates: numpy's reader against float ---------------------------------------

def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_every_short_coordinate_parses_as_float_or_goes_to_the_scalar_path(monkeypatch):
    """Every field of up to 4 bytes over 0-9 - . that loadtxt accepts, it
    parses bit for bit as float does; every field float refuses, it refuses."""
    fields = [
        "".join(p) for n in range(1, 5) for p in itertools.product("0123456789-.", repeat=n)
    ]
    numbers, others = [], []
    for field in fields:
        try:
            numbers.append((field, float(field)))
        except ValueError:
            others.append(field)
    assert len(numbers) > 2000 and len(others) > 5000

    for field in others:
        assert trips._parse_coordinates([f"{field},1,2,3"], [0, 1, 2, 3]) is None, field

    # Every number goes through the block reader as a pickup longitude; the
    # reader's call of _parse_coordinates is recorded.
    parsed = []
    parse = trips._parse_coordinates

    def spy(text, usecols):
        result = parse(text, usecols)
        parsed.append(result)
        return result

    monkeypatch.setattr(trips, "_parse_coordinates", spy)
    data = HEADER + "\n" + "".join(
        f"2014-07-25 10:00:00,2014-07-25 11:00:00,{field},40.7,-73.9,40.7\n"
        for field, _ in numbers
    )
    block_ingest(data.encode())
    column = np.concatenate([p[:, 0] for p in parsed])
    assert [_bits(x) for x in column.tolist()] == [_bits(v) for _, v in numbers]


def test_empty_coordinate_is_not_certified(monkeypatch):
    monkeypatch.setattr(trips, "_parse_coordinates", None)  # any call would fail
    data = HEADER + "\n2014-07-25 10:00:00,2014-07-25 11:00:00,,40.7,-73.9,40.7\n"
    _, rejects, valid = block_ingest(data.encode())
    assert [r.reason for r in rejects] == ["bad coordinate"] and valid == 0


# --- the radius band -------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    st.floats(-60, 60), st.floats(-170, 170), st.floats(1.0, 5000.0),
    st.floats(0, 2 * math.pi), st.integers(-3, 3),
)
def test_ends_next_to_the_radius_get_the_scalar_decision(lat0, lon0, radius, bearing, ulps):
    venue = VenueConfig("v", GeoPoint(lat0, lon0), radius)
    lat, lon = destination_point(lat0, lon0, bearing, radius)
    for _ in range(abs(ulps)):
        lat = math.nextafter(lat, math.copysign(math.inf, ulps))
    inside = haversine_deg_m(lat, lon, lat0, lon0) <= radius
    row = f"2014-07-25 10:00:00,2014-07-25 11:00:00,{lon!r},{lat!r},{lon!r},{lat!r}\n"
    series, rejects, valid = block_ingest((HEADER + "\n" + row).encode(), venue)
    assert (rejects, valid) == ([], 1)
    assert (series[0].outflow, series[0].inflow) == (inside, inside)


def test_band_routes_near_ties_to_the_scalar_haversine(monkeypatch):
    calls = []
    scalar = trips.haversine_deg_m

    def counting(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(trips, "haversine_deg_m", counting)
    lat0, lon0 = VENUE.center.lat, VENUE.center.lon
    rows = []
    for k in range(40):
        lat, lon = destination_point(lat0, lon0, k * 0.157, VENUE.radius_m)
        rows.append(f"2014-07-25 10:00:00,2014-07-25 11:00:00,{lon!r},{lat!r},-73.9,40.8\n")
    rows.append("2014-07-25 10:00:00,2014-07-25 11:00:00,-73.97469,40.68265,-73.9,40.8\n")
    series, _, valid = block_ingest((HEADER + "\n" + "".join(rows)).encode())
    assert valid == 41
    assert len(calls) == 40  # the band holds the 40 ends on the circle, not the center
    inside = sum(scalar(*args) <= VENUE.radius_m for args in calls)
    assert 0 < inside < 40
    assert series[0].outflow == 1 + inside


# --- memory ----------------------------------------------------------------------------

def test_block_ingest_memory_is_flat_in_file_size():
    row = "2014-07-25 19:05:00,2014-07-25 19:30:00,-73.974690,40.682650,-73.990100,40.750200\r\n"
    data = (HEADER + "\r\n" + row * 100_000).encode()  # 8.6 MB
    tracemalloc.start()
    try:
        _, rejects, valid = block_ingest(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rejects, valid) == ([], 100_000)
    assert peak < 16 * trips.BLOCK_SIZE, peak  # 4 MB, under half the file
