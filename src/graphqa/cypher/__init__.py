from .executor import execute
from .geo import haversine_distance
from .parser import parse_query
from .records import canonicalize_query, serialize_records

__all__ = [
    "canonicalize_query",
    "execute",
    "haversine_distance",
    "parse_query",
    "serialize_records",
]
