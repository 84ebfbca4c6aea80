"""Great-circle distance on a spherical Earth.

A point enters the formula prepared, so a query that measures many pairs of
the same points converts each point once.
"""

from __future__ import annotations

import math

from ..errors import ValidationError

# IUGG mean Earth radius in meters.
EARTH_RADIUS_M = 6371008.8

Prepared = tuple  # (lat, lon, radians(lat), radians(lon), cos(radians(lat)))


def prepare_point(lat: float, lon: float) -> Prepared:
    """A (latitude, longitude) point in degrees in prepared form.

    Never raises: a point ``prepared_distance`` must reject keeps None in
    place of its radians and cosine, so the rejection waits for a distance.
    """
    if not (-90.0 <= lat <= 90.0 and math.isfinite(lon)):
        return (lat, lon, None, None, None)
    rlat = math.radians(lat)
    return (lat, lon, rlat, math.radians(lon), math.cos(rlat))


def prepared_distance(a: Prepared, b: Prepared) -> float:
    """Distance in meters between two prepared points.

    Both latitudes are checked, ``a``'s first, before either longitude.
    """
    lat1, lon1, rlat1, rlon1, cos1 = a
    lat2, lon2, rlat2, rlon2, cos2 = b
    if cos1 is None or cos2 is None:
        for lat in (lat1, lat2):
            if not -90.0 <= lat <= 90.0:
                raise ValidationError(f"latitude {lat} out of range [-90, 90]")
        raise ValidationError(f"longitude {lon1 if cos1 is None else lon2} is not finite")
    if lat1 == lat2 and lon1 == lon2:
        return 0.0
    sin_dlat = math.sin((rlat2 - rlat1) / 2.0)
    sin_dlon = math.sin((rlon2 - rlon1) / 2.0)
    h = sin_dlat * sin_dlat + cos1 * cos2 * sin_dlon * sin_dlon
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def haversine_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Distance in meters between two (latitude, longitude) points in degrees.

    Symmetric, non-negative, and zero exactly for identical coordinates.
    Latitudes must lie in [-90, 90] and longitudes must be finite; any
    finite longitude is taken as given, so 540 is 180.
    """
    return prepared_distance(prepare_point(*a), prepare_point(*b))
