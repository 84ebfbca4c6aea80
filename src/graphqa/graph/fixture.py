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

The draw order is part of the output. Every drawn value comes from one
xorshift64* stream, in this order, and a change to the order changes every
generated byte after it:

- each tower, in number order: its distance and bearing from the center
  (none for the anchor), then its height, install year, month and day;
- each attached sensor, in file order: install year, month and day, then
  model number;
- each spare sensor: the same four, then its name suffix.

Each value is drawn where it is formatted, in one pass. Text that no draw
changes (a slot's sensor type, model prefix, name stem and unit; a tower's
``-Tnn`` suffix) is made once. The generator feeds each node and
relationship straight into the graph builder of ``dataset.py``, which checks
it as it checks a parsed line and stores it; the build runs with the cyclic
garbage collector paused, as a load does. ``serialize_dataset`` writes the
graph's lines through one encoder, as ``Transcript.dumps`` does.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from functools import partial
from typing import NamedTuple

from ..datafiles import _checked, value_type
from ..errors import ValidationError
from .dataset import _build
from .store import PropertyGraph

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
        try:
            return cls(**_checked(raw, dict.fromkeys(cls._fields, (int,)), "generator config"))
        except TypeError as exc:
            raise ValidationError(str(exc)) from exc


_MASK = 0xFFFFFFFFFFFFFFFF
_UNIT = 1.0 / (1 << 53)  # (draw >> 11) * _UNIT: a draw's top 53 bits as a float in [0, 1)

# Text pieces of the drawn fields: "20YY-" (towers draw 2021..2023, sensors
# 2021..2024), "MM-" and "DD" (days 1..28).
_YEARS = ("2021-", "2022-", "2023-", "2024-")
_MONTHS = tuple(f"{month:02d}-" for month in range(1, 13))
_DAYS = tuple(f"{day:02d}" for day in range(1, 29))


def _xorshift64star(seed: int) -> Iterator[int]:
    """The outputs of a small deterministic PRNG (xorshift64*), stable across
    platforms. The state stays below 2**64, so only the left shift and the
    product need the mask."""
    x = (seed ^ 0x9E3779B97F4A7C15) & _MASK or 1
    while True:
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        yield (x * 0x2545F4914F6CDD1D) & _MASK


def _sensor_counts(tower_count: int, attached: int) -> list[int]:
    """Spread sensors over towers; the first ``attached % towers`` get one extra."""
    base, rem = divmod(attached, tower_count)
    return [base + (1 if i < rem else 0) for i in range(tower_count)]


def _slot_text(slot: int) -> tuple[str, str, str, str]:
    """(SensorType, Model prefix, Name stem, Unit) of a tower's sensor ``slot``."""
    sensor_type, stem, unit = _SENSOR_TYPES[slot % len(_SENSOR_TYPES)]
    occurrence = slot // len(_SENSOR_TYPES) + 1
    return sensor_type, f"MSA-{stem[:4].upper()}", f"{stem}{occurrence if occurrence > 1 else ''}", unit


def generate_msa_fixture(config: GeneratorConfig | None = None) -> PropertyGraph:
    """Generate the tower/sensor graph for ``config`` (defaults shown above).

    Tower nodes come first (so tower N has node id N), followed by each
    tower's sensors in tower order, then spare sensors.
    """
    cfg = config or GeneratorConfig()
    if cfg.tower_count < 1:
        raise ValidationError("tower_count must be at least 1")
    if cfg.attached_sensors < 0:
        raise ValidationError("attached_sensors must be non-negative")
    return _build(partial(_generate, cfg))


_TOWER = ("Tower",)
_SENSOR = ("Sensor",)


def _generate(cfg: GeneratorConfig, node: Callable, relationship: Callable) -> None:
    """Pass every node and relationship of ``cfg``'s dataset to the builder's sinks, in file order."""
    anchor = min(_ANCHOR_TOWER, cfg.tower_count - 1)
    draw = _xorshift64star(cfg.seed).__next__
    center_lat, center_long = _CENTER
    radius_m = _RADIUS_MILES * _METERS_PER_MILE

    for tower in range(cfg.tower_count):
        if tower == anchor:
            lat, long = center_lat, center_long
        else:
            # Uniform over the disc around the center.
            dist = radius_m * math.sqrt((draw() >> 11) * _UNIT)
            bearing = 2.0 * math.pi * ((draw() >> 11) * _UNIT)
            lat = round(center_lat + dist * math.cos(bearing) / _METERS_PER_DEGREE_LAT, 8)
            long = round(
                center_long
                + dist * math.sin(bearing) / (_METERS_PER_DEGREE_LAT * math.cos(math.radians(center_lat))),
                8,
            )
        node(
            _TOWER,
            {
                "Height": round(15.0 + 30.0 * ((draw() >> 11) * _UNIT), 2),
                "InstallDate": _YEARS[draw() % 3] + _MONTHS[draw() % 12] + _DAYS[draw() % 28],
                "Lat": lat,
                "Long": long,
                "Name": f"MSA-T{tower:02d}",
                "Status": "active",
                "Tower": tower,
            },
        )

    counts = _sensor_counts(cfg.tower_count, cfg.attached_sensors)
    slots = [_slot_text(slot) for slot in range(counts[0])]  # the first tower has the most
    node_id = cfg.tower_count
    sensor_id = 1000
    for tower, count in enumerate(counts):
        suffix = f"-T{tower:02d}"
        for sensor_type, model_prefix, name_stem, unit in slots[:count]:
            node(
                _SENSOR,
                {
                    "InstallDate": _YEARS[draw() % 4] + _MONTHS[draw() % 12] + _DAYS[draw() % 28],
                    "Model": model_prefix + str(100 + draw() % 900),
                    "Name": name_stem + suffix,
                    "SensorId": sensor_id,
                    "SensorType": sensor_type,
                    "Status": "active",
                    "Unit": unit,
                },
            )
            relationship(tower, "HAS_SENSOR", node_id, {})
            node_id += 1
            sensor_id += 1

    for spare in range(_SPARE_SENSORS):
        sensor_type, model_prefix, _, unit = _slot_text(spare)
        node(
            _SENSOR,
            {
                "InstallDate": _YEARS[draw() % 4] + _MONTHS[draw() % 12] + _DAYS[draw() % 28],
                "Model": model_prefix + str(100 + draw() % 900),
                "Name": f"Spare{spare + 1}-X{10 + draw() % 90}",
                "SensorId": sensor_id,
                "SensorType": sensor_type,
                "Status": "spare",
                "Unit": unit,
            },
        )
        sensor_id += 1
