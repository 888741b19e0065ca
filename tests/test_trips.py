"""Trip CSV parsing and daily aggregation against brute-force counts."""

import io
import json
import math
import random
import shutil
import tomllib
import tracemalloc
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe.errors import SchemaError
from mpe.geo import GeoPoint, bounding_box
from mpe.pipeline import PipelineConfig, artifact_path, run_stage
from mpe.trips import (
    REQUIRED_COLUMNS,
    DailyDemand,
    DateRange,
    TripRecord,
    VenueConfig,
    aggregate_daily_demand,
    demand_index,
    iter_trip_rows,
    parse_trip_records,
    read_daily_demand_csv,
    write_daily_demand_csv,
)

from oracles import (
    brute_force_daily_counts,
    destination_point,
    reference_parse_trip_records,
)

HEADER = (
    "pickup_datetime,dropoff_datetime,pickup_longitude,pickup_latitude,"
    "dropoff_longitude,dropoff_latitude\n"
)
VENUE = VenueConfig("Barclays Center", GeoPoint(40.68265, -73.97469), 220.0)


def parse(text: str):
    return parse_trip_records(io.StringIO(text))


def test_example_row_field_mapping():
    row = "2014-07-25 19:05:00,2014-07-25 19:30:00,-73.975,40.683,-73.990,40.750\n"
    records, rejects = parse(HEADER + row)
    assert rejects == []
    (trip,) = records
    assert trip.pickup_time == datetime(2014, 7, 25, 19, 5)
    assert trip.dropoff_time == datetime(2014, 7, 25, 19, 30)
    assert (trip.pickup_lat, trip.pickup_lon) == (40.683, -73.975)
    assert (trip.dropoff_lat, trip.dropoff_lon) == (40.750, -73.990)


def test_null_island_rejected():
    row = "2014-07-25 19:05:00,2014-07-25 19:30:00,0.0,0.0,-73.990,40.750\n"
    records, rejects = parse(HEADER + row)
    assert records == []
    assert rejects[0].row == 1
    assert rejects[0].reason == "null-island sentinel"


def test_header_only_file():
    records, rejects = parse(HEADER)
    assert records == [] and rejects == []


def test_missing_columns_fatal():
    with pytest.raises(SchemaError):
        parse("pickup_datetime,dropoff_datetime\n")


def test_rejects_carry_row_numbers_and_order_is_kept():
    rows = (
        "2014-07-25 10:00:00,2014-07-25 10:10:00,-73.975,40.683,-73.990,40.750\n"
        "bogus,2014-07-25 10:10:00,-73.975,40.683,-73.990,40.750\n"
        "2014-07-25 11:00:00,2014-07-25 11:10:00,oops,40.683,-73.990,40.750\n"
        "2014-07-25 12:00:00,2014-07-25 12:10:00,-73.975,94.0,-73.990,40.750\n"
        "2014-07-25 13:00:00,2014-07-25 12:00:00,-73.975,40.683,-73.990,40.750\n"
        "2014-07-25 09:00:00,2014-07-25 22:30:00,-73.975,40.683,-73.990,40.750\n"
        "2014-07-25 14:00:00,2014-07-25 14:20:00,-73.975,40.683,-73.990,40.750\n"
    )
    records, rejects = parse(HEADER + rows)
    assert [r.pickup_time.hour for r in records] == [10, 14]
    assert [(r.row, r.reason) for r in rejects] == [
        (2, "bad timestamp"),
        (3, "bad coordinate"),
        (4, "coordinate out of range"),
        (5, "dropoff before pickup"),
        (6, "trip longer than 12 hours"),
    ]


def test_twelve_hour_trip_boundary_kept():
    row = "2014-07-25 09:00:00,2014-07-25 21:00:00,-73.975,40.683,-73.990,40.750\n"
    records, rejects = parse(HEADER + row)
    assert len(records) == 1 and rejects == []


def test_duplicate_rows_both_count():
    row = "2014-07-25 19:05:00,2014-07-25 19:30:00,-73.97469,40.68265,-73.990,40.750\n"
    records, _ = parse(HEADER + row + row)
    series = aggregate_daily_demand(records, VENUE, DateRange(date(2014, 7, 25), date(2014, 7, 25)))
    assert series[0].outflow == 2


def _trip(pickup_dt, dropoff_dt, p_in_radius, d_in_radius):
    near = (40.68265, -73.97469)
    far = (40.75, -73.99)
    return TripRecord(
        pickup_dt, dropoff_dt,
        *(near if p_in_radius else far),
        *(near if d_in_radius else far),
    )


def test_three_synthetic_trips_one_day():
    day = datetime(2014, 7, 25, 12, 0)
    trips = [
        _trip(day, day + timedelta(minutes=10), True, False),
        _trip(day, day + timedelta(minutes=10), True, True),
        _trip(day, day + timedelta(minutes=10), False, False),
    ]
    # brute force over the fixture: 2 pickups in radius, 1 dropoff in radius
    (demand,) = aggregate_daily_demand(
        trips, VENUE, DateRange(date(2014, 7, 25), date(2014, 7, 25))
    )
    assert (demand.outflow, demand.inflow) == (2, 1)


def test_trip_inside_at_both_ends_counts_in_each_flow():
    day = datetime(2014, 7, 25, 12, 0)
    trips = [_trip(day, day + timedelta(minutes=5), True, True)]
    (demand,) = aggregate_daily_demand(
        trips, VENUE, DateRange(date(2014, 7, 25), date(2014, 7, 25))
    )
    assert (demand.outflow, demand.inflow) == (1, 1)


def test_dense_calendar_zero_days_present():
    day = datetime(2014, 7, 25, 12, 0)
    trips = [_trip(day, day + timedelta(minutes=5), True, True)]
    series = aggregate_daily_demand(
        trips, VENUE, DateRange(date(2014, 7, 24), date(2014, 7, 26))
    )
    assert [(d.date.day, d.outflow, d.inflow) for d in series] == [
        (24, 0, 0), (25, 1, 1), (26, 0, 0),
    ]


def test_empty_date_range_is_an_error():
    with pytest.raises(ValueError):
        DateRange(date(2014, 7, 26), date(2014, 7, 25))


def _random_times(rng, start, days):
    offset = timedelta(
        days=rng.randrange(days), hours=rng.randrange(24), minutes=rng.randrange(60)
    )
    pickup_dt = datetime.combine(start, datetime.min.time()) + offset
    return pickup_dt, pickup_dt + timedelta(minutes=rng.randrange(5, 120))


def _random_trips(rng, n, start, days):
    trips = []
    for _ in range(n):
        trips.append(TripRecord(
            *_random_times(rng, start, days),
            40.68265 + rng.uniform(-0.01, 0.01), -73.97469 + rng.uniform(-0.01, 0.01),
            40.68265 + rng.uniform(-0.01, 0.01), -73.97469 + rng.uniform(-0.01, 0.01),
        ))
    return trips


def _trips_around(rng, n, start, days, venue):
    """Trips whose ends lie up to 1.5 radii from the venue in any direction,
    longitudes wrapped into [-180, 180)."""
    trips = []
    for _ in range(n):
        ends = [
            destination_point(
                venue.center.lat, venue.center.lon,
                rng.uniform(0, 2 * math.pi), venue.radius_m * rng.uniform(0, 1.5),
            )
            for _ in range(2)
        ]
        trips.append(TripRecord(*_random_times(rng, start, days), *ends[0], *ends[1]))
    return trips


# Venues where bounding_box has no longitude bound.
UNBOUNDED_BOX_VENUES = (
    VenueConfig("Date Line Dome", GeoPoint(-16.5, 179.999), 500.0, "Pacific/Fiji"),
    VenueConfig("Pole Station", GeoPoint(89.999, 30.0), 500.0, "UTC"),
)


def test_aggregation_matches_brute_force_on_random_trips():
    rng = random.Random(1234)
    start = date(2014, 7, 1)
    date_range = DateRange(start, start + timedelta(days=13))
    cases = [(VENUE, _random_trips(rng, 1000, start, 14))]
    for venue in UNBOUNDED_BOX_VENUES:
        assert bounding_box(venue.center, venue.radius_m).lon_min == -math.inf
        cases.append((venue, _trips_around(rng, 1000, start, 14, venue)))
    for venue, trips in cases:
        series = aggregate_daily_demand(trips, venue, date_range)
        expected = brute_force_daily_counts(
            trips, venue.center.lat, venue.center.lon, venue.radius_m,
            date_range.start, date_range.end,
        )
        for row in series:
            assert [row.outflow, row.inflow] == expected[row.date]
        total_out = sum(r.outflow for r in series)
        assert total_out == sum(v[0] for v in expected.values())
        assert 0 < total_out < len(trips)


def test_tuples_count_the_same_in_batches_of_any_size(monkeypatch):
    rng = random.Random(4321)
    start = date(2014, 7, 1)
    date_range = DateRange(start, start + timedelta(days=13))
    trips = _random_trips(rng, 1000, start, 14)
    whole = aggregate_daily_demand(trips, VENUE, date_range)
    expected = brute_force_daily_counts(
        trips, VENUE.center.lat, VENUE.center.lon, VENUE.radius_m, date_range.start, date_range.end
    )
    assert [[row.outflow, row.inflow] for row in whole] == list(expected.values())
    monkeypatch.setattr("mpe.trips._ROW_BATCH", 7)  # 143 batches, the last one short
    assert aggregate_daily_demand(iter(trips), VENUE, date_range) == whole


def test_shrinking_radius_never_increases_counts():
    rng = random.Random(77)
    start = date(2014, 7, 1)
    trips = _random_trips(rng, 300, start, 7)
    date_range = DateRange(start, start + timedelta(days=6))
    wide = aggregate_daily_demand(
        trips, VenueConfig(VENUE.name, VENUE.center, 2000.0, VENUE.timezone), date_range
    )
    for radius in (800.0, 400.0, 150.0, 50.0):
        narrow = aggregate_daily_demand(
            trips,
            VenueConfig(VENUE.name, VENUE.center, radius, VENUE.timezone),
            date_range,
        )
        for w, n in zip(wide, narrow):
            assert n.outflow <= w.outflow and n.inflow <= w.inflow
        wide = narrow


def test_parse_then_aggregate_is_deterministic(small_dataset_dir):
    path = small_dataset_dir / "trips.csv"
    results = []
    for _ in range(2):
        with open(path, newline="") as fh:
            records, rejects = parse_trip_records(fh)
        series = aggregate_daily_demand(
            records, VENUE, DateRange(date(2021, 1, 4), date(2021, 1, 20))
        )
        results.append((tuple(series), tuple(rejects)))
    assert results[0] == results[1]


def test_aggregation_is_independent_of_trip_order():
    rng = random.Random(21)
    start = date(2014, 7, 1)
    trips = _random_trips(rng, 400, start, 7)
    date_range = DateRange(start, start + timedelta(days=6))
    baseline = aggregate_daily_demand(trips, VENUE, date_range)
    shuffled = trips[:]
    rng.shuffle(shuffled)
    assert aggregate_daily_demand(shuffled, VENUE, date_range) == baseline


def test_daily_demand_csv_round_trip(tmp_path):
    series = [
        DailyDemand(date(2014, 7, 25), 555, 354),
        DailyDemand(date(2014, 7, 26), 0, 0),
    ]
    path = tmp_path / "demand.csv"
    write_daily_demand_csv(series, path)
    assert read_daily_demand_csv(path) == series
    assert demand_index(series)[date(2014, 7, 25)].outflow == 555


def test_invalid_daily_demand():
    with pytest.raises(ValueError):
        DailyDemand(date(2014, 7, 25), -1, 0)


def test_venue_config_validation():
    with pytest.raises(ValueError):
        VenueConfig("x", GeoPoint(0, 1), radius_m=0.0)
    with pytest.raises(Exception):
        VenueConfig("x", GeoPoint(0, 1), timezone="Mars/Olympus")


# --- parser equivalence with the DictReader reference ----------------------------


def _outcome(parser, text):
    try:
        return parser(io.StringIO(text, newline=""))
    except SchemaError as exc:
        return "SchemaError", str(exc)


def assert_matches_reference(text):
    expected = _outcome(reference_parse_trip_records, text)
    assert _outcome(parse_trip_records, text) == expected
    return expected


GOOD = "2014-07-25 19:05:00,2014-07-25 19:30:00,-73.975,40.683,-73.990,40.750"
EQUIVALENCE_CASES = {
    "empty_file": "",
    "blank_header_line": "\n" + HEADER + GOOD + "\n",
    "blank_lines_not_numbered": HEADER + GOOD + "\n\n" + "bogus\n\n\n" + GOOD + "\n\n"
    + "2014-07-25 19:05:00,2014-07-25 19:30:00,x,40.683,-73.990,40.750\n",
    "whitespace_line": HEADER + " \n" + GOOD + "\n",
    "short_rows": HEADER + "2014-07-25 19:05:00\n"
    + "2014-07-25 19:05:00,2014-07-25 19:30:00,-73.975\n"
    + "2014-07-25 19:05:00,2014-07-25 19:30:00,-73.975,40.683,-73.990\n" + GOOD + "\n",
    "extra_trailing_fields": HEADER + GOOD + ",7,extra,,\n" + GOOD + ",\n",
    "duplicate_header_last_wins": HEADER.rstrip("\n") + ",pickup_latitude\n"
    + GOOD + ",95.0\n" + GOOD + ",40.69\n" + GOOD + "\n",
    "duplicate_required_column_first": "pickup_latitude," + HEADER
    + "95.0," + GOOD + "\n" + "x," + GOOD + "\n",
    "reordered_and_extra_columns": "vendor,dropoff_latitude,pickup_latitude,"
    "dropoff_datetime,fare,pickup_longitude,dropoff_longitude,pickup_datetime\n"
    "CMT,40.750,40.683,2014-07-25 19:30:00,9.5,-73.975,-73.990,2014-07-25 19:05:00\n"
    "VTS,40.750,40.683,2014-07-25 19:30:00,,-73.975,-73.990,2014-07-25 20:05:00\n",
    "special_floats": HEADER
    + "2014-07-25 19:05:00,2014-07-25 19:30:00,nan,40.683,-73.990,40.750\n"
    + "2014-07-25 19:05:00,2014-07-25 19:30:00,-73.975,inf,-73.990,40.750\n"
    + "2014-07-25 19:05:00,2014-07-25 19:30:00,-73.975,-Infinity,-73.990,40.750\n"
    + "2014-07-25 19:05:00,2014-07-25 19:30:00, -73.975 , 40.7 ,-73.990,40.750\n"
    + "2014-07-25 19:05:00,2014-07-25 19:30:00,-0.0,0,-73.990,40.750\n"
    + "2014-07-25 19:05:00,2014-07-25 19:30:00,1e1,-90,180,90.0\n"
    + "2014-07-25 19:05:00,2014-07-25 19:30:00,-180.0000001,40.683,-73.990,40.750\n",
    "iso_timestamp_variants": HEADER + "".join(
        f"{a},{b},-73.975,40.683,-73.990,40.750\n"
        for a, b in [
            ("2014-07-25T19:05:00", "2014-07-25T19:30"),
            ("2014-07-25 19:05", "2014-07-25 19:30:00.250000"),
            ("2014-07-25", "2014-07-25 11:59:59"),
            ("2014-07-25", "2014-07-25 12:00:01"),
            ("20140725T190500", " 2014-07-25 19:30:00 "),
            ("2014-07-25 19:05:00+00:00", "2014-07-25 19:30:00"),
            ("2014-07-25 19:05:00", "2014-07-25 19:30:00Z"),
            ("2014-07-25 24:00:00", "2014-07-26 01:00:00"),
            ("", "2014-07-25 19:30:00"),
        ]
    ),
    "crlf_file": (HEADER + GOOD + "\n\n" + "bogus\n" + GOOD + "\n").replace("\n", "\r\n"),
}


@pytest.mark.parametrize("text", EQUIVALENCE_CASES.values(), ids=EQUIVALENCE_CASES.keys())
def test_parser_matches_dictreader_reference(text):
    assert_matches_reference(text)


def test_reference_cases_exercise_every_outcome():
    outcomes = [assert_matches_reference(t) for t in EQUIVALENCE_CASES.values()]
    reasons = {r.reason for o in outcomes if o[0] != "SchemaError" for r in o[1]}
    assert reasons == {
        "bad timestamp", "bad coordinate", "null-island sentinel", "coordinate out of range",
        "dropoff before pickup", "trip longer than 12 hours",
    }
    assert sum(o[0] == "SchemaError" for o in outcomes) == 2
    assert sum(len(o[0]) for o in outcomes if o[0] != "SchemaError") >= 15


def test_declared_python_floor_reads_basic_format_timestamps():
    """Trip timestamps go through `datetime.fromisoformat`, which reads the
    basic format (20140725T190500) only from Python 3.11 on; under 3.10 the
    same CSV gives other rejects and other counts."""
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["requires-python"] == ">=3.11"
    assert "Python ≥ 3.11." in (root / "README.md").read_text(encoding="utf-8")
    rejects = []
    row = "20140725T190500,2014-07-25T19:30,-73.975,40.683,-73.990,40.750\n"
    rows = list(iter_trip_rows(io.StringIO(HEADER + row), rejects))
    assert rejects == []
    assert rows[0][:2] == (datetime(2014, 7, 25, 19, 5), datetime(2014, 7, 25, 19, 30))


def test_crlf_file_matches_reference(tmp_path):
    path = tmp_path / "trips.csv"
    path.write_bytes(EQUIVALENCE_CASES["crlf_file"].encode())
    with open(path, newline="") as fh:
        got = parse_trip_records(fh)
    with open(path, newline="") as fh:
        assert got == reference_parse_trip_records(fh)
    assert [(r.row, r.reason) for r in got[1]] == [(2, "bad timestamp")]


_FIELDS = st.sampled_from([
    "2014-07-25 19:05:00", "2014-07-25 19:30:00", "2014-07-26 08:00:00",
    "2014-07-25T19:05", " 2014-07-25 19:05:00 ", "2014-07-25 19:05:00+01:00", "bogus",
    "", " ", "40.683", "-73.975", " 40.7 ", "0", "-0.0", "nan", "inf", "-inf", "95",
    "-181", "180", "1e-3",
])
_COLUMNS = st.lists(
    st.sampled_from(REQUIRED_COLUMNS + ("vendor", "fare")), min_size=0, max_size=4
)


@st.composite
def _trip_csv(draw):
    header = list(draw(st.permutations(REQUIRED_COLUMNS)))
    for extra in draw(_COLUMNS):
        header.insert(draw(st.integers(0, len(header))), extra)
    if draw(st.booleans()):
        header.remove(draw(st.sampled_from(header)))  # sometimes a column goes missing
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        width = len(header) + draw(st.integers(-3, 2))
        lines.append(",".join(draw(_FIELDS) for _ in range(max(width, 1))))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


@settings(max_examples=300, deadline=None)
@given(_trip_csv())
def test_parser_matches_reference_on_generated_files(text):
    assert_matches_reference(text)


# --- the ingest stage -------------------------------------------------------------

INGEST_RANGE = DateRange(date(2014, 7, 1), date(2014, 7, 14))


def _ingest_config(tmp_path, venue):
    return PipelineConfig(
        venue=venue,
        trip_source=tmp_path / "trips.csv",
        event_source=tmp_path / "events.json",
        train_range=DateRange(INGEST_RANGE.start, date(2014, 7, 10)),
        test_range=DateRange(date(2014, 7, 11), INGEST_RANGE.end),
        output_dir=tmp_path / "out",
        backend_kind="heuristic",
    )


def _write_trips(path, venue, n, seed, near_share):
    """n trips in INGEST_RANGE; near_share of the ends lie within 1.3 radii of
    the venue, the rest 2-20 km out; about 1% of rows are malformed."""
    rng = random.Random(seed)
    with open(path, "w", newline="") as fh:
        fh.write(HEADER)
        for _ in range(n):
            pickup = datetime(2014, 7, 1) + timedelta(minutes=rng.randrange(14 * 1440 - 60))
            dropoff = pickup + timedelta(minutes=rng.randrange(1, 60))
            ends = []
            for _ in range(2):
                near = rng.random() < near_share
                dist = venue.radius_m * rng.uniform(0, 1.3) if near else rng.uniform(2e3, 2e4)
                ends.append(destination_point(
                    venue.center.lat, venue.center.lon, rng.uniform(0, 2 * math.pi), dist
                ))
            (plat, plon), (dlat, dlon) = ends
            if rng.random() < 0.01:
                plat = rng.choice([95.0, 0.0, float("nan")])
            fh.write(f"{pickup},{dropoff},{plon!r},{plat!r},{dlon!r},{dlat!r}\r\n")


def _reference_ingest(path, venue):
    with open(path, newline="") as fh:
        records, rejects = reference_parse_trip_records(fh)
    counts = brute_force_daily_counts(
        records, venue.center.lat, venue.center.lon, venue.radius_m,
        INGEST_RANGE.start, INGEST_RANGE.end,
    )
    return len(records), rejects, counts


def _assert_stage_matches_reference(tmp_path, venue):
    config = _ingest_config(tmp_path, venue)
    result = run_stage("ingest", config)
    n_valid, rejects, counts = _reference_ingest(config.trip_source, venue)
    assert result.stats == {"trips": n_valid, "rejects": len(rejects), "days": 14}
    series = read_daily_demand_csv(artifact_path(config, "daily_demand"))
    assert {d.date: [d.outflow, d.inflow] for d in series} == counts
    lines = artifact_path(config, "ingest_rejects").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"row": r.row, "reason": r.reason} for r in rejects
    ]
    return counts


def test_ingest_stage_matches_reference_parse_and_brute_force(tmp_path):
    _write_trips(tmp_path / "trips.csv", VENUE, 3000, seed=5, near_share=0.3)
    counts = _assert_stage_matches_reference(tmp_path, VENUE)
    assert sum(c[0] + c[1] for c in counts.values()) > 500


def test_antimeridian_venue_counts_trips_across_180(tmp_path):
    venue = VenueConfig("Date Line Dome", GeoPoint(-16.5, 179.999), 500.0, "Pacific/Fiji")
    _write_trips(tmp_path / "trips.csv", venue, 400, seed=6, near_share=0.5)
    text = (tmp_path / "trips.csv").read_text()
    assert ",-179.99" in text  # some ends lie past the antimeridian
    counts = _assert_stage_matches_reference(tmp_path, venue)
    assert sum(c[0] + c[1] for c in counts.values()) > 100


def _ingest_peak_bytes(tmp_path, n):
    tmp_path.mkdir()
    _write_trips(tmp_path / "trips.csv", VENUE, n, seed=n, near_share=0.02)
    config = _ingest_config(tmp_path, VENUE)
    tracemalloc.start()
    try:
        run_stage("ingest", config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ingest_memory_does_not_grow_with_rows(tmp_path):
    small = _ingest_peak_bytes(tmp_path / "n", 10_000)
    large = _ingest_peak_bytes(tmp_path / "4n", 40_000)
    assert large < 1.5 * small, (small, large)


# --- layer micro-benchmark ----------------------------------------------------------


def ingest_stage(config):
    return run_stage("ingest", config).stats["trips"]


def reference_parse_and_aggregate(config):
    with open(config.trip_source, newline="") as fh:
        records, _ = reference_parse_trip_records(fh)
    aggregate_daily_demand(records, config.venue, config.full_range)
    return len(records)


def pytest_generate_tests(metafunc):
    """Time the reference parser only under --benchmark-only."""
    if "ingest_run" in metafunc.fixturenames:
        runs = [ingest_stage]
        if metafunc.config.getoption("benchmark_only", False):
            runs.append(reference_parse_and_aggregate)
        metafunc.parametrize("ingest_run", runs, ids=lambda run: run.__name__)


def test_ingest_benchmark(benchmark, ingest_run, tmp_path):
    _write_trips(tmp_path / "trips.csv", VENUE, 50_000, seed=50, near_share=0.05)
    config = _ingest_config(tmp_path, VENUE)

    def fresh_output():  # so no round is skipped as up to date
        shutil.rmtree(config.output_dir, ignore_errors=True)
        return (config,), {}

    benchmark.group = "ingest, 50k decoy-heavy rows"
    trips = benchmark.pedantic(ingest_run, setup=fresh_output, rounds=3, iterations=1)
    assert 49_000 < trips < 50_000
