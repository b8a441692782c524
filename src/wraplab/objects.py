"""Complex-object values and output schemas, whose shapes are their types.

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


def equal(a: Value, b: Value) -> bool:
    """Whether two values are equal, in one loop over an explicit stack, so
    no nesting depth recurses in Python: each distinct sub-value of both is
    numbered bottom-up in one shared table, a string by itself, a record by
    the tuple of its entries' numbers and a set by the frozenset of its
    members' numbers."""
    table, number = {}, {}  # key -> number, id(sub-value) -> number
    stack = [(a, False), (b, False)]
    while stack:
        v, ready = stack.pop()
        if id(v) in number:
            continue
        if isinstance(v, str):
            key = v
        elif not ready:  # its members first
            stack.append((v, True))
            stack += ((x, False) for x in v)
            continue
        else:
            kind = tuple if isinstance(v, tuple) else frozenset
            key = kind(number[id(x)] for x in v)
        number[id(v)] = table.setdefault(key, len(table))
    return number[id(a)] == number[id(b)]


# ---------------------------------------------------------------------------
# output schemas: a tree of sets, records and strings with a predicate
# attached to each set.  A statement's type is the same tree with no
# predicates, written SetOf(...), RecordOf(...) and Str.

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


def _preorder(node):
    """The tree's nodes in text order, each set and record followed later
    by the ")" that closes it and each record entry but the last by ", ";
    one loop over an explicit stack, so no depth recurses in Python."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SetSchema):
            stack += (")", node.elem)
        elif isinstance(node, RecordSchema):
            stack.append(")")
            for e in reversed(node.entries[1:]):
                stack += (e, ", ")
            stack.append(node.entries[0])
        elif not isinstance(node, (StrSchema, str)):
            raise TypeError(f"not a schema node: {node!r}")


def _text(node, leaf: str, set_open: str, record_open: str) -> str:
    """The tree as text: leaf for each StrSchema, set_open with the set's
    predicate, or _, formatted in, and record_open for each record."""
    return "".join(
        set_open.format(n.pred or "_") if isinstance(n, SetSchema)
        else record_open if isinstance(n, RecordSchema)
        else leaf if isinstance(n, StrSchema)
        else n
        for n in _preorder(node)
    )


def schema_to_text(schema: SetSchema) -> str:
    return _text(schema, "str", "set({}, ", "record(")


def type_to_text(t: SetSchema) -> str:
    """A statement's type, a schema with no predicates, as SetOf(...),
    RecordOf(...) and Str."""
    return _text(t, "Str", "SetOf(", "RecordOf(")


def schema_predicates(schema: SetSchema) -> list[str]:
    """Predicates in schema order (record entries left to right)."""
    return [
        n.pred for n in _preorder(schema)
        if isinstance(n, SetSchema) and n.pred is not None
    ]


class SchemaSyntaxError(TextError):
    pass


# a predicate name, in rules, directives and schemas alike: as p, a-b, p#1, p'
PREDICATE = re.compile(r"[a-z#][a-z0-9_#-]*'*")

_NAME = re.compile(r"[^\s,()]*")  # read as a name, then checked


def parse_schema(text: str) -> SetSchema:
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
