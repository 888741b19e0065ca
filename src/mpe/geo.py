"""Geographic points and great-circle distance for the venue radius filter."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class GeoPoint:
    """WGS-84 coordinate in degrees; construction validates the ranges."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range [-90, 90]: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range [-180, 180]: {self.lon}")


def haversine_deg_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters, on a sphere of radius 6,371,000 m,
    from (lat1, lon1) to (lat2, lon2) in degrees."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    # Clamp guards rounding slightly above 1 near antipodal points.
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def haversine_deg_m_array(lat1, lon1, lat2: float, lon2: float) -> np.ndarray:
    """haversine_deg_m from arrays of points (lat1, lon1) to one point.

    The same formula in numpy. numpy's sin, cos and arcsin are not the C
    library's, so a distance may differ from haversine_deg_m's in its last
    few bits: a caller that needs the exact decision refines near-ties with
    the scalar function.
    """
    phi1 = np.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = np.radians(lat2 - lat1)
    dlam = np.radians(lon2 - lon1)
    h = np.sin(dphi / 2) ** 2 + np.cos(phi1) * math.cos(phi2) * np.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


class BoundingBox(NamedTuple):
    """Closed latitude/longitude ranges in degrees; infinite when unbounded."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float


# Widening of the angular radius: far above the rounding error of
# haversine_deg_m, far below any radius a venue uses.
_BOX_MARGIN_REL = 1e-6
_BOX_MARGIN_RAD = 1e-9


def bounding_box(center: GeoPoint, radius_m: float) -> BoundingBox:
    """A box holding every point whose haversine_deg_m to `center` is <= radius_m.

    With angular radius d = radius_m / R, a point on the circle lies within
    d of the center's latitude, and within asin(sin d / cos lat0) of its
    longitude (the circle's tangent meridians). The radius is widened by a
    small margin so rounding cannot put an in-radius point outside. The
    longitude bound is dropped when the circle reaches a pole or the range
    crosses +/-180 degrees, since haversine_deg_m does not wrap longitudes.
    """
    d = radius_m / EARTH_RADIUS_M * (1.0 + _BOX_MARGIN_REL) + _BOX_MARGIN_RAD
    dlat = math.degrees(d)
    lat_min, lat_max = center.lat - dlat, center.lat + dlat
    unbounded = BoundingBox(lat_min, lat_max, -math.inf, math.inf)
    if lat_max >= 90.0 or lat_min <= -90.0:
        return unbounded
    x = math.sin(d) / math.cos(math.radians(center.lat))
    if x >= 1.0:
        return unbounded
    dlon = math.degrees(math.asin(x))
    lon_min, lon_max = center.lon - dlon, center.lon + dlon
    if lon_min < -180.0 or lon_max > 180.0:
        return unbounded
    return BoundingBox(lat_min, lat_max, lon_min, lon_max)
