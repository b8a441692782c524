"""Complex-object values, their types, and output schemas.

Wrapper runs produce nested sets, records and strings, as plain values: a
string is a ``str``, a record is a ``tuple`` of its entries, and a set is
a ``SetVal``.  A SetVal compares and hashes as a set (order-free,
duplicate-free) and lists its distinct values in the order they first
occur; JSON output writes records and sets as arrays, each set in that
order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .pathrange import TextError


class SetVal:
    """A set of values that lists its distinct values in the order they
    first occur; equality and hashing ignore that order.

    Both engines build one from the values of distinct nodes in ascending
    id (document) order: rpn's walker returns its nodes sorted and without
    repeats, and elog.to_complex_object sorts each anchor's members.  So
    equal values collapse to the one at the first node that has it, and a
    set lists its values in the document order of those nodes.
    """

    __slots__ = ("_order", "_values")

    def __init__(self, values=()):
        order = dict.fromkeys(values)
        self._order = tuple(order)
        self._values = frozenset(order)

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, value) -> bool:
        return value in self._values

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetVal):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"SetVal({list(self._order)!r})"


Value = object  # str | tuple | SetVal


def to_jsonable(value: Value):
    """The value as nested lists of strings, as json_text writes it; read
    back from that text, so no nesting depth recurses in Python."""
    return json.loads(json_text(value))


def json_text(value: Value) -> str:
    # tuples are arrays already; a SetVal is written as the list of its values
    return json.dumps(value, ensure_ascii=False, default=list)


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class TStr:
    pass


@dataclass(frozen=True)
class TSet:
    elem: object


@dataclass(frozen=True)
class TRecord:
    entries: tuple


RpnType = object  # TStr | TSet | TRecord


def type_to_text(t: RpnType) -> str:
    if isinstance(t, TStr):
        return "Str"
    if isinstance(t, TSet):
        return f"SetOf({type_to_text(t.elem)})"
    if isinstance(t, TRecord):
        return f"RecordOf({', '.join(type_to_text(e) for e in t.entries)})"
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# output schemas: the type tree with a predicate attached to each set

@dataclass(frozen=True)
class StrSchema:
    pass


@dataclass(frozen=True)
class SetSchema:
    pred: str | None  # None: render a singleton around the current anchor
    elem: object  # StrSchema | RecordSchema


@dataclass(frozen=True)
class RecordSchema:
    entries: tuple  # of SetSchema


ObjectSchema = object  # SetSchema at the top level


def schema_predicates(schema) -> list[str]:
    """Predicates in schema order (record entries left to right)."""
    out: list[str] = []

    def walk(node) -> None:
        if isinstance(node, SetSchema):
            if node.pred is not None:
                out.append(node.pred)
            walk(node.elem)
        elif isinstance(node, RecordSchema):
            for e in node.entries:
                walk(e)

    walk(schema)
    return out


def schema_to_text(schema) -> str:
    if isinstance(schema, StrSchema):
        return "str"
    if isinstance(schema, SetSchema):
        pred = schema.pred if schema.pred is not None else "_"
        return f"set({pred}, {schema_to_text(schema.elem)})"
    if isinstance(schema, RecordSchema):
        return "record(" + ", ".join(schema_to_text(e) for e in schema.entries) + ")"
    raise TypeError(f"not a schema: {schema!r}")


class SchemaSyntaxError(TextError):
    pass


# a predicate name, in rules, directives and schemas alike: as p, a-b, p#1, p'
PREDICATE = re.compile(r"[a-z#][a-z0-9_#-]*'*")

_NAME = re.compile(r"[^\s,()]*")  # read as a name, then checked


def parse_schema(text: str) -> ObjectSchema:
    pos = 0
    n = len(text)

    def ws() -> None:
        nonlocal pos
        while pos < n and text[pos] in " \t":
            pos += 1

    def expect(s: str) -> None:
        nonlocal pos
        ws()
        if not text.startswith(s, pos):
            raise SchemaSyntaxError(f"expected {s!r}", pos)
        pos += len(s)

    def pred() -> str | None:  # None for '_'
        nonlocal pos
        ws()
        name = _NAME.match(text, pos).group()
        if name != "_" and not PREDICATE.fullmatch(name):
            raise SchemaSyntaxError(f"bad predicate name {name!r}")
        pos += len(name)
        return None if name == "_" else name

    def parse_set():
        expect("set")
        expect("(")
        name = pred()
        expect(",")
        elem = parse_elem()
        expect(")")
        return SetSchema(name, elem)

    def parse_elem():
        nonlocal pos
        ws()
        if text.startswith("str", pos):
            pos += 3
            return StrSchema()
        if text.startswith("record", pos):
            expect("record")
            expect("(")
            entries = [parse_set()]
            ws()
            while pos < n and text[pos] == ",":
                pos += 1
                entries.append(parse_set())
            expect(")")
            return RecordSchema(tuple(entries))
        raise SchemaSyntaxError("expected 'str' or 'record'", pos)

    node = parse_set()
    ws()
    if pos != n:
        raise SchemaSyntaxError("trailing input", pos)
    return node
