"""Synthetic tower/sensor network dataset generator.

Models a cluster of instrumented weather towers: each tower node carries an
integer ``Tower`` number plus ``Lat``/``Long`` coordinates, and every attached
sensor node is linked to exactly one tower via a ``HAS_SENSOR`` relationship.
The default configuration produces 13 towers (numbered 0..12), 121 attached
sensors, and one unattached spare sensor, for 135 nodes, 121 relationships,
and 11 distinct property keys in total.

Tower 4 (the last tower when there are fewer) sits exactly at ``_CENTER``;
the rest are placed pseudo-randomly within ``_RADIUS_MILES`` of it.
Generation is fully deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ..cypher.ast import value_type
from ..errors import ValidationError
from .dataset import DatasetFile, NodeEntry, RelationshipEntry

# (SensorType, CamelCase stem of names like "WindSpeed-T03", Unit), in the
# order a tower's sensor slots take them.
_SENSOR_TYPES = (
    ("temperature", "Temperature", "C"),
    ("humidity", "Humidity", "%"),
    ("wind speed", "WindSpeed", "m/s"),
    ("precipitation", "Precipitation", "mm"),
    ("barometric pressure", "Pressure", "hPa"),
    ("soil conditions", "SoilMoisture", "VWC"),
    ("network conditions", "NetworkStatus", "dBm"),
)

_CENTER = (32.58088351, -106.7533307)
_RADIUS_MILES = 1.5
_ANCHOR_TOWER = 4
_SPARE_SENSORS = 1
_METERS_PER_MILE = 1609.344
_METERS_PER_DEGREE_LAT = 111320.0


@value_type
class GeneratorConfig(NamedTuple):
    tower_count: int = 13
    attached_sensors: int = 121
    seed: int = 42

    @classmethod
    def from_dict(cls, raw: object) -> "GeneratorConfig":
        """Build a config from parsed JSON: an object whose values are integers."""
        if not isinstance(raw, dict):
            raise ValidationError("generator config must be a JSON object")
        unknown = raw.keys() - set(cls._fields)
        if unknown:
            raise ValidationError(f"unknown generator config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if type(value) is not int:
                raise ValidationError(f"generator config {key!r} must be an integer, got {value!r}")
        return cls(**raw)


class _Rng:
    """Small deterministic PRNG (xorshift64*), stable across platforms."""

    def __init__(self, seed: int):
        self._state = (seed ^ 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF or 1

    def _next(self) -> int:
        x = self._state
        x ^= (x >> 12) & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x << 25)) & 0xFFFFFFFFFFFFFFFF
        x ^= (x >> 27) & 0xFFFFFFFFFFFFFFFF
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

    def random(self) -> float:
        return (self._next() >> 11) / float(1 << 53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        return lo + self._next() % (hi - lo + 1)


def _sensor_counts(tower_count: int, attached: int) -> list[int]:
    """Spread sensors over towers; the first ``attached % towers`` get one extra."""
    base, rem = divmod(attached, tower_count)
    return [base + (1 if i < rem else 0) for i in range(tower_count)]


def generate_msa_fixture(config: GeneratorConfig | None = None) -> DatasetFile:
    """Generate the tower/sensor dataset for ``config`` (defaults shown above).

    Tower nodes come first in the file (so tower N gets node id N on load),
    followed by each tower's sensors in tower order, then spare sensors.
    """
    cfg = config or GeneratorConfig()
    if cfg.tower_count < 1:
        raise ValidationError("tower_count must be at least 1")
    if cfg.attached_sensors < 0:
        raise ValidationError("attached_sensors must be non-negative")
    anchor = min(_ANCHOR_TOWER, cfg.tower_count - 1)

    rng = _Rng(cfg.seed)
    dataset = DatasetFile()
    center_lat, center_long = _CENTER
    radius_m = _RADIUS_MILES * _METERS_PER_MILE

    for tower in range(cfg.tower_count):
        if tower == anchor:
            lat, long = center_lat, center_long
        else:
            # Uniform over the disc around the center.
            dist = radius_m * math.sqrt(rng.random())
            bearing = 2.0 * math.pi * rng.random()
            lat = round(center_lat + dist * math.cos(bearing) / _METERS_PER_DEGREE_LAT, 8)
            long = round(
                center_long
                + dist * math.sin(bearing) / (_METERS_PER_DEGREE_LAT * math.cos(math.radians(center_lat))),
                8,
            )
        dataset.nodes.append(
            NodeEntry(
                labels=["Tower"],
                properties={
                    "Height": round(rng.uniform(15.0, 45.0), 2),
                    "InstallDate": f"20{rng.randint(21, 23)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                    "Lat": lat,
                    "Long": long,
                    "Name": f"MSA-T{tower:02d}",
                    "Status": "active",
                    "Tower": tower,
                },
            )
        )

    counts = _sensor_counts(cfg.tower_count, cfg.attached_sensors)
    sensor_id = 1000
    for tower, count in enumerate(counts):
        for slot in range(count):
            sensor_type, stem, unit = _SENSOR_TYPES[slot % len(_SENSOR_TYPES)]
            occurrence = slot // len(_SENSOR_TYPES) + 1
            dataset.nodes.append(
                NodeEntry(
                    labels=["Sensor"],
                    properties={
                        "InstallDate": f"20{rng.randint(21, 24)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                        "Model": f"MSA-{stem[:4].upper()}{rng.randint(100, 999)}",
                        "Name": f"{stem}{occurrence if occurrence > 1 else ''}-T{tower:02d}",
                        "SensorId": sensor_id,
                        "SensorType": sensor_type,
                        "Status": "active",
                        "Unit": unit,
                    },
                )
            )
            node_index = len(dataset.nodes) - 1
            dataset.relationships.append(RelationshipEntry(tower, "HAS_SENSOR", node_index, {}))
            sensor_id += 1

    for spare in range(_SPARE_SENSORS):
        sensor_type, stem, unit = _SENSOR_TYPES[spare % len(_SENSOR_TYPES)]
        dataset.nodes.append(
            NodeEntry(
                labels=["Sensor"],
                properties={
                    "InstallDate": f"20{rng.randint(21, 24)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                    "Model": f"MSA-{stem[:4].upper()}{rng.randint(100, 999)}",
                    "Name": f"Spare{spare + 1}-X{rng.randint(10, 99)}",
                    "SensorId": sensor_id,
                    "SensorType": sensor_type,
                    "Status": "spare",
                    "Unit": unit,
                },
            )
        )
        sensor_id += 1

    return dataset
