"""Complex values, their JSON image, types, and schema syntax."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wraplab import objects as ob


def sv(*pairs):
    return ob.SetVal(pairs)


def test_setval_dedups_by_value_keeping_first_origin():
    s = sv((5, ob.StrVal("x")), (2, ob.StrVal("x")), (3, ob.StrVal("y")))
    assert ob.to_jsonable(s) == ["x", "y"]
    assert len(s) == 2


def test_setval_orders_by_origin_then_text():
    s = sv((2, ob.StrVal("b")), (1, ob.StrVal("z")), (2, ob.StrVal("a")))
    assert ob.to_jsonable(s) == ["z", "a", "b"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["a", "b", "ab", "\""]))))
def test_setval_order_is_origin_then_json_text(pairs):
    s = sv(*[(k, ob.StrVal(x)) for k, x in pairs])
    best: dict = {}
    for k, x in pairs:
        best[x] = min(k, best.get(x, k))
    expect = sorted(
        ((k, ob.StrVal(x)) for x, k in best.items()),
        key=lambda kv: (kv[0], ob.json_text(kv[1])),
    )
    assert list(s.keyed) == expect


def test_setval_equality_is_set_like():
    a = sv((1, ob.StrVal("x")), (2, ob.StrVal("y")))
    b = sv((9, ob.StrVal("y")), (0, ob.StrVal("x")))
    assert a == b
    assert hash(a) == hash(b)
    assert a != sv((1, ob.StrVal("x")))


def test_jsonable_nesting():
    rec = ob.RecordVal((sv((0, ob.StrVal("a"))), sv()))
    outer = sv((0, rec))
    assert ob.to_jsonable(outer) == [[["a"], []]]
    assert ob.json_text(outer) == '[[["a"], []]]'


def test_type_rendering():
    t = ob.TSet(ob.TRecord((ob.TSet(ob.TStr()), ob.TSet(ob.TStr()))))
    assert ob.type_to_text(t) == "SetOf(RecordOf(SetOf(Str), SetOf(Str)))"


def test_schema_text_round_trip():
    text = "set(p1, record(set(p2, str), set(p3, str)))"
    schema = ob.parse_schema(text)
    assert ob.schema_to_text(schema) == text
    assert ob.schema_predicates(schema) == ["p1", "p2", "p3"]


def test_schema_anonymous_set():
    schema = ob.parse_schema("set(_, str)")
    assert isinstance(schema, ob.SetSchema)
    assert schema.pred is None
    assert ob.schema_to_text(schema) == "set(_, str)"


@pytest.mark.parametrize("text", ["", "set(p)", "record(str)", "set(p, )", "p"])
def test_bad_schema_rejected(text):
    with pytest.raises(ob.SchemaSyntaxError):
        ob.parse_schema(text)
