"""The value contract of AST nodes and ``Point``: structural equality by
node type (and by a literal's value type), ``source_text`` left out of
equality and hash, immutability, and the ``Name(field=value, ...)`` repr that
the frozen parse-outcome digest hashes."""

import copy
import pickle

import pytest

from graphqa.cypher.ast import (
    Binary,
    EdgePattern,
    FunctionCall,
    Literal,
    MapLiteral,
    MatchClause,
    NodePattern,
    OrderItem,
    PathPattern,
    PropertyAccess,
    Query,
    ReturnItem,
    Unary,
    Variable,
)
from graphqa.cypher.parser import parse_query
from graphqa.cypher.records import Point

TOWER = NodePattern("t", ("Tower",), (("Tower", Literal(4)),))
SENSOR = NodePattern("s", ("Sensor",))
EDGE = EdgePattern("r", "HAS_SENSOR", "right")
PATH = PathPattern((TOWER, SENSOR), (EDGE,))
MATCH = MatchClause((PATH,))
ITEM = ReturnItem(PropertyAccess("s", "Name"), "name", source_text="s.Name")
ORDER = OrderItem(Variable("name"), False, source_text="name")
QUERY = Query((MATCH,), Binary(">", PropertyAccess("t", "Lat"), Literal(1.5)), True, (ITEM,), (ORDER,), 3)

REPRS = [
    (Literal("x"), "Literal(value='x')"),
    (Variable("n"), "Variable(name='n')"),
    (PropertyAccess("t", "Lat"), "PropertyAccess(variable='t', key='Lat')"),
    (Unary("NOT", Literal(True)), "Unary(op='NOT', operand=Literal(value=True))"),
    (Binary("+", Literal(1), Literal(None)), "Binary(op='+', left=Literal(value=1), right=Literal(value=None))"),
    (MapLiteral((("a", Literal(2.0)),)), "MapLiteral(entries=(('a', Literal(value=2.0)),))"),
    (FunctionCall("count", (), star=True), "FunctionCall(name='count', args=(), star=True)"),
    (SENSOR, "NodePattern(variable='s', labels=('Sensor',), properties=())"),
    (EDGE, "EdgePattern(variable='r', rel_type='HAS_SENSOR', direction='right', properties=())"),
    (
        PathPattern((SENSOR,), ()),
        "PathPattern(nodes=(NodePattern(variable='s', labels=('Sensor',), properties=()),), edges=())",
    ),
    (MatchClause(()), "MatchClause(paths=())"),
    (ITEM, "ReturnItem(expr=PropertyAccess(variable='s', key='Name'), alias='name', source_text='s.Name')"),
    (ORDER, "OrderItem(expr=Variable(name='name'), ascending=False, source_text='name')"),
    (
        Query((), None, False, (ReturnItem(Literal(1), None),)),
        "Query(matches=(), where=None, distinct=False, "
        "items=(ReturnItem(expr=Literal(value=1), alias=None, source_text=''),), order_by=(), limit=None)",
    ),
]


@pytest.mark.parametrize("node, text", REPRS, ids=[type(node).__name__ for node, _ in REPRS])
def test_repr_names_every_field_in_order(node, text):
    assert repr(node) == text


def test_source_text_is_left_out_of_equality_and_hash():
    other_item = ReturnItem(PropertyAccess("s", "Name"), "name", source_text="s .Name")
    other_order = OrderItem(Variable("name"), False)
    assert other_item == ITEM and hash(other_item) == hash(ITEM)
    assert other_order == ORDER and hash(other_order) == hash(ORDER)
    assert ReturnItem(PropertyAccess("s", "Name"), None, source_text="s.Name") != ITEM
    assert OrderItem(Variable("name"), True, source_text="name") != ORDER


def test_nodes_of_different_types_with_equal_fields_differ():
    assert Variable("x") != Literal("x")
    assert Literal("x") != Variable("x")
    assert Literal(1) != 1 and Literal(1) != (1,)


@pytest.mark.parametrize("value", [PropertyAccess("t", "Lat"), EDGE, ITEM, Point(1.5, -2.0)], ids=type)
def test_values_never_equal_a_plain_tuple_of_their_fields(value):
    fields = tuple(value)
    assert value != fields and fields != value
    assert not value == fields and not fields == value
    assert len({value, fields}) == 2


@pytest.mark.parametrize("a, b", [(True, 1), (1, 1.0), (True, 1.0), (False, 0), (0, 0.0), (False, 0.0)])
def test_literals_of_equal_value_but_different_type_differ(a, b):
    assert Literal(a) != Literal(b) and hash(Literal(a)) != hash(Literal(b))
    assert MapLiteral((("k", Literal(a)),)) != MapLiteral((("k", Literal(b)),))
    assert NodePattern("t", (), (("x", Literal(a)),)) != NodePattern("t", (), (("x", Literal(b)),))
    assert Literal(a) == Literal(a) and Literal(b) == Literal(b)


def test_queries_whose_literals_differ_in_type_differ():
    # The two match different nodes: true is not 1, and 1 is not 1.0.
    assert parse_query("MATCH (t {x: true}) RETURN 1") != parse_query("MATCH (t {x: 1}) RETURN 1.0")
    assert parse_query("MATCH (t) WHERE t.x = 1 RETURN t") != parse_query("MATCH (t) WHERE t.x = 1.0 RETURN t")


def test_hash_agrees_with_equality():
    rebuilt = Query(
        (MatchClause((PathPattern((TOWER, SENSOR), (EdgePattern("r", "HAS_SENSOR", "right"),)),)),),
        Binary(">", PropertyAccess("t", "Lat"), Literal(1.5)),
        True,
        (ReturnItem(PropertyAccess("s", "Name"), "name"),),
        (OrderItem(Variable("name"), False),),
        3,
    )
    assert rebuilt == QUERY and hash(rebuilt) == hash(QUERY)
    assert len({rebuilt, QUERY, Literal(1), Literal(1), Variable("n")}) == 3
    assert Query(QUERY.matches, QUERY.where, QUERY.distinct, QUERY.items, QUERY.order_by) != QUERY


@pytest.mark.parametrize(
    "node, field",
    [(Literal(1), "value"), (QUERY, "limit"), (ITEM, "source_text"), (EDGE, "direction"), (Point(1.5, -2.0), "latitude")],
)
def test_fields_cannot_be_assigned(node, field):
    before = repr(node)
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    with pytest.raises(AttributeError):
        delattr(node, field)
    assert repr(node) == before


def test_copies_and_pickles_are_equal_values():
    for node in (QUERY, ITEM, ORDER, Literal(None), Point(1.5, -2.0)):
        for clone in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert clone == node and repr(clone) == repr(node)
