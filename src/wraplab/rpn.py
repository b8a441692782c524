"""Path-expression wrapper statements.

A statement is a chain of path atoms ending in ``txt`` or in a record of
further statements.  Each path atom navigates with a regular path, selects
positions with a range, and filters with conditions; crucially the range is
applied to the navigation result BEFORE the conditions are checked.  The
condition-chain dialect (vf) shares this AST and concrete syntax but
restricts paths to ``t``/``->t`` steps, forbids nesting conditions inside
conditions, applies conditions before ranges, and may mark conditions with
a leading ``!``.

Both dialects evaluate through one walker, ``_walk``: it takes the
condition semantics, the order (range then filter, or filter then range)
and whether cut marks stop the filter scan.  ``eval_rpn`` here and the hel
module's ``eval_vf`` and ``eval_cut`` only choose those three.

Statements translate to datalog programs whose derived atoms reproduce the
evaluator's output; the last predicate of every chain carries a schema
position, the earlier ones are auxiliary, and condition predicates are
universal dom-rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import elog
from . import objects as ob
from .doctree import DocTree
from .pathrange import (
    Atom,
    Concat,
    Range,
    Star,
    StarRange,
    Wildcard,
    apply_range,
    parse_path,
    parse_range,
    path_to_text,
    range_to_text,
    scan,
    split_top,
    subelem,
)


class RpnSyntaxError(Exception):
    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"at {pos}: {message}"
        super().__init__(message)
        self.pos = pos


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class TxtEq:
    s: str
    cut: bool = False


@dataclass(frozen=True)
class CondChain:
    patom: "Patom"
    rest: object  # CondChain | TxtEq
    cut: bool = False


@dataclass(frozen=True)
class Patom:
    path: object
    range: Range = StarRange()
    conds: tuple = ()


@dataclass(frozen=True)
class Txt:
    pass


@dataclass(frozen=True)
class Record:
    entries: tuple  # of statements, n >= 2


@dataclass(frozen=True)
class Chain:
    patom: Patom
    rest: object  # Chain | Txt | Record


def tag_path(tag: str):
    return Wildcard() if tag == "_" else Atom(tag)


def _descendant(tag: str):
    return Concat((Star(Wildcard()), tag_path(tag)))


def is_descendant_path(path) -> bool:
    return (
        isinstance(path, Concat)
        and len(path.items) == 2
        and path.items[0] == Star(Wildcard())
        and isinstance(path.items[1], (Atom, Wildcard))
    )


# ---------------------------------------------------------------------------
# concrete syntax

_TAG_START = set("abcdefghijklmnopqrstuvwxyz#_")
_TAG_CHARS = set("abcdefghijklmnopqrstuvwxyz0123456789#_-")


class _StmtParser:
    """Both dialects; "rpn" allows regex paths and nested conditions,
    "vhel" allows ->steps and cut marks instead."""

    def __init__(self, text: str, dialect: str):
        self.text = text
        self.pos = 0
        self.vf = dialect == "vhel"

    # -- low level ----------------------------------------------------------

    def error(self, message: str):
        raise RpnSyntaxError(message, self.pos)

    def ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self, k: int = 1) -> str:
        self.ws()
        return self.text[self.pos : self.pos + k]

    def eat(self, s: str):
        if self.peek(len(s)) != s:
            self.error(f"expected {s!r}")
        self.pos += len(s)

    def at_word(self, w: str) -> bool:
        if self.peek(len(w)) != w:
            return False
        nxt = self.text[self.pos + len(w) : self.pos + len(w) + 1]
        return nxt not in _TAG_CHARS

    def tag(self) -> str:
        self.ws()
        start = self.pos
        if self.pos >= len(self.text) or self.text[self.pos] not in _TAG_START:
            self.error("expected a tag")
        self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos] in _TAG_CHARS:
            if self.text[self.pos] == "-" and self.text[self.pos + 1 : self.pos + 2] == ">":
                break  # an arrow step, not a hyphenated tag
            self.pos += 1
        return self.text[start : self.pos]

    def string(self) -> str:
        self.ws()
        if self.peek() != '"':
            self.error("expected a string")
        start = self.pos
        i = self.pos + 1
        while i < len(self.text):
            if self.text[i] == "\\":
                i += 2
                continue
            if self.text[i] == '"':
                raw = self.text[start : i + 1]
                try:
                    value = json.loads(raw)
                except ValueError:
                    self.error(f"bad string literal {raw}")
                self.pos = i + 1
                return value
            i += 1
        self.error("unterminated string")

    def balanced(self, open_c: str, close_c: str) -> str:
        """Consume a balanced group (cursor on open_c), return the inside."""
        self.eat(open_c)
        start = self.pos - 1
        for i, c, depth in scan(self.text, start):
            if depth == 0 and i > start:  # the bracket that closes the group
                if c == close_c:
                    self.pos = i + 1
                    return self.text[start + 1 : i]
                break
        self.error(f"missing {close_c!r}")

    # -- grammar --------------------------------------------------------------

    def statement(self):
        node = self._statement_inner()
        self.ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return node

    def _statement_inner(self):
        patoms = []
        while True:
            self.ws()
            if self.at_word("txt"):
                self.pos += 3
                return self._fold(patoms, Txt())
            if self.peek() == "(" and self._group_is_record():
                return self._fold(patoms, self._record())
            axis = "child"
            if self.peek(2) == "->":
                if not self.vf:
                    self.error("'->' steps belong to the condition-chain dialect")
                self.eat("->")
                axis = "descendant"
            elif patoms:
                self.eat(".")
                if self.at_word("txt"):
                    self.pos += 3
                    return self._fold(patoms, Txt())
                if self.peek() == "(" and self._group_is_record():
                    return self._fold(patoms, self._record())
                if self.peek(2) == "->":
                    self.error("write '->' in place of '.', not after it")
            patoms.append(self._patom(axis))

    def _fold(self, patoms, terminal):
        node = terminal
        for pa in reversed(patoms):
            node = Chain(pa, node)
        return node

    def _group_is_record(self) -> bool:
        """A parenthesized group is a record iff it has a separating '#'
        directly inside it; '#' immediately followed by a tag character is
        a tag."""
        start = self.pos
        for i, c, depth in scan(self.text, start):
            if depth == 0 and i > start:
                return False
            if c == "#" and depth == 1 and self.text[i + 1 : i + 2] not in _TAG_CHARS:
                return True
        return False

    def _record(self):
        entries = split_entries(self.balanced("(", ")"))
        if len(entries) < 2:
            self.error("a record needs at least two '#'-separated entries")
        dialect = "vhel" if self.vf else "rpn"
        return Record(
            tuple(_StmtParser(e, dialect).statement() for e in entries)
        )

    def _patom(self, axis: str) -> Patom:
        self.ws()
        if self.peek() == "(":
            if self.vf:
                self.error("regex paths belong to the path-expression dialect")
            inside = self.balanced("(", ")")
            path = parse_path(inside)
        else:
            t = self.tag()
            path = _descendant(t) if axis == "descendant" else tag_path(t)
        rng: Range = StarRange()
        if self.peek() == "[":
            rng = parse_range(self.balanced("[", "]").strip())
        conds: tuple = ()
        if self.peek() == "{":
            conds = self._conds()
        return Patom(path, rng, conds)

    def _conds(self) -> tuple:
        inside = self.balanced("{", "}")
        dialect = "vhel" if self.vf else "rpn"
        sub = _StmtParser(inside, dialect)
        conds = [sub._cond()]
        sub.ws()
        while sub.pos < len(sub.text):
            if not sub.at_word("and"):
                sub.error("expected 'and' between conditions")
            sub.pos += 3
            conds.append(sub._cond())
            sub.ws()
        return tuple(conds)

    def _cond(self):
        cut = False
        if self.peek() == "!":
            if not self.vf:
                self.error("cut marks belong to the condition-chain dialect")
            self.eat("!")
            cut = True
        patoms = []

        def fold():
            self.eat("=")
            node = TxtEq(self.string(), cut and not patoms)
            for k, pa in enumerate(reversed(patoms)):
                node = CondChain(pa, node, cut and k == len(patoms) - 1)
            return node

        while True:
            self.ws()
            if self.at_word("txt"):
                self.pos += 3
                return fold()
            axis = "child"
            if self.peek(2) == "->":
                if not self.vf:
                    self.error("'->' steps belong to the condition-chain dialect")
                self.eat("->")
                axis = "descendant"
            elif patoms:
                self.eat(".")
                if self.at_word("txt"):
                    self.pos += 3
                    return fold()
                if self.peek(2) == "->":
                    self.error("write '->' in place of '.', not after it")
            patoms.append(self._patom_cond(axis))

    def _patom_cond(self, axis: str) -> Patom:
        pa = self._patom(axis)
        if self.vf and pa.conds:
            self.error("conditions may not nest inside conditions here")
        return pa


def split_entries(inside: str) -> list[str]:
    """A record body's entries: '#' separates them outside brackets and
    literals, unless a tag character follows ('#text' is a tag)."""
    return split_top(inside, "#", _TAG_CHARS)


def parse_statement(text: str, dialect: str = "rpn"):
    if dialect not in ("rpn", "vhel"):
        raise ValueError(f"unknown dialect {dialect!r}")
    if not text.strip():
        raise RpnSyntaxError("empty statement")
    return _StmtParser(text, dialect).statement()


def parse_rpn(text: str):
    return parse_statement(text, "rpn")


def _patom_text(pa: Patom, vf: bool, axis_prefix: bool) -> str:
    if isinstance(pa.path, (Atom, Wildcard)):
        s = pa.path.tag if isinstance(pa.path, Atom) else "_"
        sep = "." if axis_prefix else ""
    elif vf and is_descendant_path(pa.path):
        tail = pa.path.items[1]
        s = tail.tag if isinstance(tail, Atom) else "_"
        sep = "->"
    elif not vf:
        s = "(" + path_to_text(pa.path) + ")"
        sep = "." if axis_prefix else ""
    else:
        raise ValueError(f"path {pa.path!r} has no condition-chain syntax")
    if not axis_prefix and sep == ".":
        sep = ""
    out = sep + s
    if pa.range != StarRange():
        out += f"[{range_to_text(pa.range)}]"
    elif vf and pa.conds:
        out += "[*]"  # the condition-chain dialect spells out filtered stars
    if pa.conds:
        out += "{" + " and ".join(_cond_text(c, vf) for c in pa.conds) + "}"
    return out


def _cond_text(c, vf: bool) -> str:
    parts = []
    cut = getattr(c, "cut", False)
    first = True
    while isinstance(c, CondChain):
        parts.append(_patom_text(c.patom, vf, axis_prefix=not first))
        first = False
        c = c.rest
    sep = "" if first else "."
    parts.append(f"{sep}txt = {json.dumps(c.s, ensure_ascii=False)}")
    return ("!" if cut else "") + "".join(parts)


def statement_to_text(stmt, dialect: str = "rpn") -> str:
    vf = dialect == "vhel"
    parts = []
    first = True
    while isinstance(stmt, Chain):
        parts.append(_patom_text(stmt.patom, vf, axis_prefix=not first))
        first = False
        stmt = stmt.rest
    sep = "" if first else "."
    if isinstance(stmt, Txt):
        parts.append(sep + "txt")
    elif isinstance(stmt, Record):
        inner = " # ".join(statement_to_text(e, dialect) for e in stmt.entries)
        # record parens attach directly to the last patom in vf syntax
        parts.append(("" if vf else sep) + "(" + inner + ")")
    else:
        raise TypeError(f"not a statement: {stmt!r}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# types


def typecheck(stmt) -> ob.Type:
    """Total; conditions contribute nothing."""
    while isinstance(stmt, Chain):
        stmt = stmt.rest
    if isinstance(stmt, Txt):
        return ob.TSet(ob.TStr())
    if isinstance(stmt, Record):
        return ob.TSet(ob.TRecord(tuple(typecheck(e) for e in stmt.entries)))
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# evaluation


def _cond_holds(tree: DocTree, v: int, cond) -> bool:
    if isinstance(cond, TxtEq):
        return tree.txt_equals(v, cond.s)
    pa = cond.patom
    hits = apply_range(subelem(tree, v, pa.path), pa.range)
    return any(
        all(_cond_holds(tree, w, c) for c in pa.conds)
        and _cond_holds(tree, w, cond.rest)
        for w in hits
    )


def eval_rpn(stmt, tree: DocTree, v: int | None = None):
    """The range selects among the path matches first; conditions filter
    the selected nodes afterwards."""
    return _evaluate(stmt, tree, v, _cond_holds, range_first=True, cut=False)


def _evaluate(
    stmt, tree: DocTree, v: int | None, holds, range_first: bool, cut: bool
):
    """The value of stmt at v (default: the root) under the given order
    and condition semantics; every evaluator entry point lands here."""
    best: dict = {}
    _walk(stmt, tree, tree.root() if v is None else v, holds, range_first, cut, best)
    return ob.SetVal([(key, value) for value, key in best.items()])


def _walk(stmt, tree: DocTree, v: int, holds, range_first: bool, cut: bool, best: dict):
    """Put each value stmt yields at v into best, under its smallest key.

    range_first applies a chain step's range to the navigated nodes and
    then checks holds(tree, w, cond) on the selected ones; otherwise the
    conditions filter first and the range selects among the survivors.
    With cut, a node failing a '!'-marked condition ends the filter scan.
    A record opens one output set per entry."""
    if isinstance(stmt, Chain):
        pa = stmt.patom
        hits = subelem(tree, v, pa.path)
        if range_first:
            kept = (
                w for w in apply_range(hits, pa.range)
                if all(holds(tree, w, c) for c in pa.conds)
            )
        else:
            keep = []
            for w in hits:
                if cut:  # all run: a marked one may fail after another did
                    held = [holds(tree, w, c) for c in pa.conds]
                    if all(held):
                        keep.append(w)
                    if not all(ok for ok, c in zip(held, pa.conds) if c.cut):
                        break
                elif all(holds(tree, w, c) for c in pa.conds):
                    keep.append(w)
            kept = apply_range(keep, pa.range)
        for w in kept:
            _walk(stmt.rest, tree, w, holds, range_first, cut, best)
        return
    if isinstance(stmt, Txt):
        value = ob.StrVal(tree.txt(v))
    elif isinstance(stmt, Record):
        value = ob.RecordVal(tuple(
            _evaluate(e, tree, v, holds, range_first, cut) for e in stmt.entries
        ))
    else:
        raise TypeError(f"not a statement: {stmt!r}")
    old = best.get(value)
    if old is None or v < old:
        best[value] = v


# ---------------------------------------------------------------------------
# translation


class _Translator:
    def __init__(self, lift_ranges: bool):
        # lifted ranges run after conditions (rule level), embedded ranges
        # run inside the navigation step (before conditions)
        self.lift = lift_ranges
        self.rules: list = []
        self.chain_preds: list[str] = []
        self.cond_count = 0

    def new_chain_pred(self) -> str:
        name = f"p{len(self.chain_preds) + 1}"
        self.chain_preds.append(name)
        return name

    def new_cond_pred(self) -> str:
        self.cond_count += 1
        return f"c{self.cond_count}"

    def statement(self, stmt, ctx: str):
        last = None
        while isinstance(stmt, Chain):
            pa = stmt.patom
            pred = self.new_chain_pred()
            refs = tuple(elog.Ref(self.cond(c), "X") for c in pa.conds)
            if self.lift and pa.range != StarRange():
                step_rng: Range = StarRange()
                rule_rng: Range | None = pa.range
            else:
                step_rng, rule_rng = pa.range, None
            self.rules.append(
                elog.ChainRule(
                    pred, "X0", "X", ctx, pa.path, step_rng, (), refs, rule_rng
                )
            )
            ctx = pred
            last = pred
            stmt = stmt.rest
        if isinstance(stmt, Txt):
            return ob.SetSchema(last, ob.StrSchema())
        entries = tuple(self.statement(e, ctx) for e in stmt.entries)
        return ob.SetSchema(last, ob.RecordSchema(entries))

    def cond(self, cond) -> str:
        """One universal predicate whose image is the set of nodes
        satisfying the condition."""
        pred = self.new_cond_pred()
        if isinstance(cond, TxtEq):
            conds: tuple = (elog.ContainsStr("X", cond.s),)
            refs: tuple = ()
        else:
            pa = cond.patom
            refs = tuple(elog.Ref(self.cond(c), "Y") for c in pa.conds)
            if isinstance(cond.rest, TxtEq):
                conds = (
                    elog.Contains("X", "Y", pa.path, pa.range),
                    elog.ContainsStr("Y", cond.rest.s),
                )
            else:
                conds = (elog.Contains("X", "Y", pa.path, pa.range),)
                refs = refs + (elog.Ref(self.cond(cond.rest), "Y"),)
        self.rules.append(elog.DomRule(pred, "X0", "X", conds, refs))
        return pred


def _translate(stmt, lift_ranges: bool):
    tr = _Translator(lift_ranges)
    schema = tr.statement(stmt, "root")
    keep = set(ob.schema_predicates(schema))
    aux = frozenset(p for p in tr.chain_preds if p not in keep)
    record_order = tuple(ob.schema_predicates(schema))
    program = elog.ElogProgram(tuple(tr.rules), aux, record_order, schema)
    elog.validate_program(program)
    return program, schema, aux


def translate_rpn(stmt):
    """Datalog program whose rendered object equals eval_rpn's result."""
    return _translate(stmt, lift_ranges=False)
