"""Complex values, their JSON image, types, and schema syntax."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wraplab import objects as ob


def test_setval_dedups_by_value_keeping_the_first():
    s = ob.SetVal(["x", "x", "y"])
    assert ob.to_jsonable(s) == ["x", "y"]
    assert len(s) == 2
    # equal sets listed in different orders: the record that came first stays
    first, second = (ob.SetVal(["a", "b"]),), (ob.SetVal(["b", "a"]),)
    assert first == second
    assert ob.to_jsonable(ob.SetVal([first, second])) == [[["a", "b"]]]
    assert ob.to_jsonable(ob.SetVal([second, first])) == [[["b", "a"]]]


def test_setval_lists_values_in_first_occurrence_order():
    # not in text order: "b" is listed before "a" because it came first
    s = ob.SetVal(["b", "z", "a", "z", "b"])
    assert ob.to_jsonable(s) == ["b", "z", "a"]
    assert ob.json_text(s) == '["b", "z", "a"]'


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "ab", "\""])))
def test_setval_order_is_first_occurrence(values):
    s = ob.SetVal(values)
    assert list(s) == [v for i, v in enumerate(values) if v not in values[:i]]
    assert len(s) == len(set(values))
    assert all(v in s for v in values)


def test_setval_equality_is_set_like():
    a = ob.SetVal(["x", "y"])
    b = ob.SetVal(["y", "x", "y"])
    assert a == b
    assert hash(a) == hash(b)
    assert a != ob.SetVal(["x"])
    assert a != ["x", "y"]


VALUES = st.recursive(
    st.sampled_from(["", "a", "b"]),
    lambda inner: st.tuples(inner, inner)
    | st.lists(inner, max_size=3).map(ob.SetVal)
    | st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(VALUES, VALUES)
def test_equal_agrees_with_value_equality(a, b):
    assert ob.equal(a, b) == (a == b)
    assert ob.equal(a, a) and ob.equal(b, b)


def test_equal_compares_values_deeper_than_the_recursion_limit():
    a, b = "x", "x"
    for i in range(5000):  # each level a new object on both sides
        a, b = ob.SetVal([(f"{i}", a)]), ob.SetVal([(f"{i}", b)])
    assert ob.equal(a, b)
    assert not ob.equal(a, ob.SetVal([("4999", ob.SetVal([("4998", "y")]))]))


def test_jsonable_nesting():
    rec = (ob.SetVal(["a"]), ob.SetVal())
    outer = ob.SetVal([rec])
    assert ob.to_jsonable(outer) == [[["a"], []]]
    assert ob.json_text(outer) == '[[["a"], []]]'


def test_type_rendering():
    leaf = ob.SetSchema(None, ob.StrSchema())
    t = ob.SetSchema(None, ob.RecordSchema((leaf, leaf)))
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


def test_a_newline_inside_a_schema_is_whitespace():
    assert ob.parse_schema("set(p,\n str)") == ob.parse_schema("set(p, str)")
    text = "set(\r\n  rows,\n  record(set(k, str),\n\tset(v, str))\n)\n"
    assert ob.schema_to_text(ob.parse_schema(text)) == (
        "set(rows, record(set(k, str), set(v, str)))"
    )


@pytest.mark.parametrize("text, reason, at", [
    ("set(p, str) x", "trailing input", 12),
    ("set(p, rec)", "expected 'str' or 'record'", 7),
    ("set(p,\n  rec)", "expected 'str' or 'record'", 9),
])
def test_schema_faults_keep_their_offset(text, reason, at):
    with pytest.raises(ob.SchemaSyntaxError) as info:
        ob.parse_schema(text)
    assert (info.value.reason, info.value.pos) == (reason, at)


def test_value_equality_holds_deeper_than_the_recursion_limit():
    def nested(leaf: str):
        v = leaf
        for _ in range(327):
            v = ob.SetVal([("y", v)])
        return v

    a, b, c = nested("x"), nested("x"), nested("z")
    assert a == b and not a != b
    assert a != c and not a == c
    assert len(ob.SetVal([a, b, c])) == 2  # equal values collapse
