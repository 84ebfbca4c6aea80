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
