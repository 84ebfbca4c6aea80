import hashlib
import math
import random

import pytest

from graphqa.cypher.geo import EARTH_RADIUS_M, haversine_distance
from graphqa.errors import ValidationError


def test_identity_is_exactly_zero():
    p = (32.58088351, -106.7533307)
    assert haversine_distance(p, p) == 0.0


def test_symmetry_random_pairs():
    rng = random.Random(5)
    for _ in range(200):
        a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        assert haversine_distance(a, b) == haversine_distance(b, a)
        assert haversine_distance(a, b) >= 0.0


def test_one_degree_of_longitude_at_equator():
    # Arc length of 1 degree on the sphere: R * pi / 180.
    expected = EARTH_RADIUS_M * math.pi / 180.0
    assert haversine_distance((0.0, 0.0), (0.0, 1.0)) == pytest.approx(expected, rel=1e-12)


def test_antipodal_distance_is_half_circumference():
    assert haversine_distance((0.0, 0.0), (0.0, 180.0)) == pytest.approx(
        math.pi * EARTH_RADIUS_M, rel=1e-12
    )


def test_triangle_inequality_random_triples():
    rng = random.Random(13)
    for _ in range(300):
        points = [(rng.uniform(-89, 89), rng.uniform(-179, 179)) for _ in range(3)]
        ab = haversine_distance(points[0], points[1])
        bc = haversine_distance(points[1], points[2])
        ac = haversine_distance(points[0], points[2])
        assert ac <= ab + bc + 1e-6 * max(1.0, ac)


def test_latitude_out_of_range_rejected():
    with pytest.raises(ValidationError):
        haversine_distance((91.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValidationError):
        haversine_distance((0.0, 0.0), (-90.5, 0.0))


@pytest.mark.parametrize("lon", [math.inf, -math.inf, math.nan])
def test_non_finite_longitude_rejected(lon):
    for a, b in [((0.0, lon), (0.0, 0.0)), ((0.0, 0.0), (0.0, lon)), ((0.0, lon), (0.0, lon))]:
        with pytest.raises(ValidationError, match=f"longitude {lon} is not finite"):
            haversine_distance(a, b)
    # Both latitudes are checked, the first point's first, before any longitude.
    with pytest.raises(ValidationError, match="latitude 95.0 out of range"):
        haversine_distance((95.0, lon), (0.0, lon))
    with pytest.raises(ValidationError, match="latitude 95.0 out of range"):
        haversine_distance((0.0, lon), (95.0, 0.0))
    with pytest.raises(ValidationError, match="latitude 95.0 out of range"):
        haversine_distance((95.0, 0.0), (-95.0, lon))


def test_fixture_closest_pair_matches_brute_force_oracle(fixture_graph, corpus):
    towers = {
        n.properties["Tower"]: (n.properties["Lat"], n.properties["Long"])
        for n in fixture_graph.nodes_with_label("Tower")
    }
    best = min(
        ((haversine_distance(towers[a], towers[b]), a, b) for a in towers for b in towers if a < b),
    )
    spec = next(s for s in corpus if s.id == "closest-towers")
    assert spec.expected_values == [str(best[1]), str(best[2])]


# SHA-256 of haversine_distance's outcomes on the pairs below, as computed
# with the formula written out per call (before points were prepared once).
FROZEN_DISTANCE_DIGEST = "16fcbcee1a2dd90e5a5a562824b751bd9a7ac41eeca4f82d8497e7a675a89981"


def _digest_pairs():
    rng = random.Random(20261018)
    special_lats = [90.0, -90.0, 90, -90, 0.0, -0.0, 0, 45.5, -45.5, 89.999999, -89.999999]
    special_lons = [180.0, -180.0, 540.0, -540.0, 180, -540, 0.0, -0.0, 0, 179.999999, 360.0]
    for _ in range(4_000):
        yield (rng.uniform(-90, 90), rng.uniform(-180, 180)), (rng.uniform(-90, 90), rng.uniform(-180, 180))
    for _ in range(2_000):
        yield (rng.uniform(-90, 90), rng.uniform(-540, 540)), (rng.uniform(-90, 90), rng.uniform(-540, 540))
    for _ in range(1_500):
        yield (rng.choice(special_lats), rng.choice(special_lons)), (rng.choice(special_lats), rng.choice(special_lons))
    for _ in range(1_000):  # identical points, as equal tuples and as one tuple
        a = (rng.choice([rng.uniform(-90, 90), rng.choice(special_lats)]), rng.uniform(-540, 540))
        yield a, (a[0], a[1]) if rng.random() < 0.5 else a
    for _ in range(1_000):  # antipodes
        lat, lon = rng.uniform(-90, 90), rng.uniform(-180, 180)
        yield (lat, lon), (-lat, lon + 180.0)
    for _ in range(1_000):  # integer coordinates, alone and mixed with floats
        a = (rng.randint(-90, 90), rng.randint(-540, 540))
        b = (rng.randint(-90, 90), float(rng.randint(-540, 540)))
        yield (a, b) if rng.random() < 0.5 else (b, a)
    for _ in range(500):  # near neighbours, as in a closest-pair query
        lat, lon = rng.uniform(-90, 90), rng.uniform(-180, 180)
        yield (lat, lon), (max(-90.0, min(90.0, lat + rng.uniform(-1e-6, 1e-6))), lon + rng.uniform(-1e-6, 1e-6))
    for _ in range(200):  # a latitude out of range in the first point, the second or both
        bad = rng.choice([90.5, -91.0, 1e9, -90.0001, 180])
        good = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        yield rng.choice([((bad, 0.0), good), (good, (bad, 0.0)), ((bad, 1.0), (-bad, 2.0))])


def test_distances_match_frozen_digest():
    digest = hashlib.sha256()
    count = 0
    for a, b in _digest_pairs():
        count += 1
        try:
            outcome = haversine_distance(a, b).hex()
        except ValidationError as exc:
            outcome = f"ValidationError: {exc}"
        digest.update(f"{a!r} {b!r} {outcome}\n".encode("utf-8"))
    assert count == 11_200
    assert digest.hexdigest() == FROZEN_DISTANCE_DIGEST
