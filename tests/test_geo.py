"""Great-circle distance against an independent formulation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpe.geo import EARTH_RADIUS_M, GeoPoint, bounding_box, haversine_deg_m

from oracles import destination_point, haversine_atan2, haversine_m

BARCLAYS = GeoPoint(40.68265, -73.97469)
BARCLAYS_EAST = GeoPoint(40.68265, -73.97209)
# frozen from the oracle: haversine_atan2(40.68265, -73.97469, 40.68265, -73.97209)
BARCLAYS_PAIR_M = 219.24


def test_identical_points_zero():
    assert haversine_m(BARCLAYS, BARCLAYS) == 0.0


def test_half_great_circle():
    got = haversine_m(GeoPoint(0, 0), GeoPoint(0, 180))
    assert got == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)


def test_venue_scale_distance_matches_oracle():
    got = haversine_m(BARCLAYS, BARCLAYS_EAST)
    oracle = haversine_atan2(
        BARCLAYS.lat, BARCLAYS.lon, BARCLAYS_EAST.lat, BARCLAYS_EAST.lon
    )
    assert got == pytest.approx(oracle, rel=0.005)
    assert got == pytest.approx(BARCLAYS_PAIR_M, rel=0.005)


def test_agrees_with_oracle_on_random_pairs():
    rng = random.Random(4213)
    for _ in range(1000):
        a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
        got = haversine_m(a, b)
        oracle = haversine_atan2(a.lat, a.lon, b.lat, b.lon)
        assert got == pytest.approx(oracle, rel=0.005, abs=1e-6)


def test_symmetry():
    rng = random.Random(7)
    for _ in range(200):
        a = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180))
        assert haversine_m(a, b) == haversine_m(b, a)


def test_triangle_inequality():
    rng = random.Random(99)
    for _ in range(300):
        pts = [GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(3)]
        ab = haversine_m(pts[0], pts[1])
        bc = haversine_m(pts[1], pts[2])
        ac = haversine_m(pts[0], pts[2])
        assert ac <= ab + bc + 1e-6 * max(1.0, ac)


def test_out_of_range_construction_fails():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, -180.5)
    with pytest.raises(ValueError):
        GeoPoint(-90.0001, 10.0)


# --- the venue bounding box ----------------------------------------------------------

_LATS = st.one_of(st.floats(-89.9, 89.9), st.sampled_from([-89.9, -60.0, 0.0, 45.0, 89.9]))
_LONS = st.one_of(st.floats(-179.9, 179.9), st.sampled_from([-179.9, 0.0, 179.9]))
_LOG_RADII = st.one_of(st.floats(0.0, math.log10(2e7)), st.sampled_from([0.0, math.log10(2e7)]))
# Bearings toward the circle's extreme latitudes and tangent meridians, and
# distances at or just inside the radius, are where rounding could matter.
_BEARINGS = st.one_of(st.floats(0.0, 2 * math.pi), st.sampled_from([0.0, 0.5, 1.0, 1.5]).map(
    lambda turns: turns * math.pi))
_FRACTIONS = st.one_of(st.floats(0.0, 1.0), st.floats(1.0 - 1e-9, 1.0 + 1e-12))


@settings(max_examples=1000, deadline=None)
@given(_LATS, _LONS, _LATS, _LONS)
def test_bare_coordinate_haversine_is_bit_identical(lat, lon, clat, clon):
    center = GeoPoint(clat, clon)
    got = haversine_deg_m(lat, lon, clat, clon)
    assert got.hex() == haversine_m(GeoPoint(lat, lon), center).hex()


@settings(max_examples=1000, deadline=None)
@given(_LATS, _LONS, _LOG_RADII, _BEARINGS, _FRACTIONS)
def test_bounding_box_holds_every_point_within_radius(lat, lon, log_r, bearing, frac):
    center = GeoPoint(lat, lon)
    radius = 10.0 ** log_r
    box = bounding_box(center, radius)
    plat, plon = destination_point(lat, lon, bearing, radius * frac)
    if haversine_m(GeoPoint(plat, plon), center) <= radius:
        assert box.lat_min <= plat <= box.lat_max and box.lon_min <= plon <= box.lon_max


def test_bounding_box_holds_circle_edges_on_a_dense_sweep():
    rng = random.Random(2718)
    inside = 0
    for _ in range(20_000):
        lat = rng.choice([rng.uniform(-89.9, 89.9), rng.choice([-89.9, 0.0, 89.9])])
        lon = rng.choice([rng.uniform(-179.9, 179.9), -179.9, 179.9])
        radius = 10.0 ** rng.uniform(0.0, math.log10(2e7))
        center = GeoPoint(lat, lon)
        box = bounding_box(center, radius)
        bearing = rng.choice([0.0, 0.5, 1.0, 1.5]) * math.pi + rng.uniform(-1e-6, 1e-6)
        plat, plon = destination_point(lat, lon, bearing, radius)
        if haversine_m(GeoPoint(plat, plon), center) <= radius:
            inside += 1
            assert box.lat_min <= plat <= box.lat_max, (lat, lon, radius, plat, plon, box)
            assert box.lon_min <= plon <= box.lon_max, (lat, lon, radius, plat, plon, box)
    assert inside > 5_000


def test_bounding_box_is_tight_at_venue_scale():
    box = bounding_box(BARCLAYS, 220.0)
    assert box.lat_max - box.lat_min == pytest.approx(2 * 220.0 / 111_195.0, rel=1e-4)
    west, east = GeoPoint(BARCLAYS.lat, box.lon_min), GeoPoint(BARCLAYS.lat, box.lon_max)
    assert haversine_m(west, east) == pytest.approx(440.0, rel=1e-3)
    assert BARCLAYS.lon + 0.01 > box.lon_max
    assert BARCLAYS.lat + 0.01 > box.lat_max


@pytest.mark.parametrize("center", [GeoPoint(89.999, 10.0), GeoPoint(-16.5, 179.999),
                                    GeoPoint(0.0, -179.9999)])
def test_bounding_box_drops_longitude_bound_at_pole_or_antimeridian(center):
    box = bounding_box(center, 500.0)
    assert (box.lon_min, box.lon_max) == (-math.inf, math.inf)
    assert box.lat_min < center.lat < box.lat_max
