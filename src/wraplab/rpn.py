"""Path-expression wrapper statements.

A statement is a chain of path atoms ending in ``.txt`` or in a record of
further statements.  Each path atom navigates with a regular path, selects
positions with a range, and filters with conditions; crucially the range is
applied to the navigation result BEFORE the conditions are checked.  The
condition-chain dialect (vf, ``.vhel``) shares this AST and concrete syntax
but restricts paths to ``t``/``->t`` steps, forbids nesting conditions
inside conditions, applies conditions before ranges, and may mark
conditions with a leading ``!``.  The variable dialect (``.hel``) has the
vf steps, no condition blocks and no cut marks; its brackets may bind an
index variable (``[i]``, ``[i:range]``), which the hel module erases.

A statement and each of its conditions are one node, ``Chain``: a tuple
of path atoms, possibly empty, and an end, ``Txt`` or a ``Record`` for a
statement and a ``TxtEq`` text test for a condition, which may carry a
cut mark.  One parse loop serves all three dialects.  It reads record
entries, condition blocks and regex path groups in place, so an error
offset counts from the start of the statement, and it takes tags and
keywords by ``pathrange.TAG``, in any case.  One renderer and one walker,
``_follow``, serve statements and conditions alike, each a loop over the
path atoms.  The walker carries the set of reached nodes from step to
step, so a step navigates from each node once; it takes the condition
semantics, the order (range then filter, or filter then range) and
whether cut marks stop the filter scan.  ``eval_rpn`` here and the hel
module's ``eval_vf`` and ``eval_cut`` only choose those three.  The
path-expression condition search, ``_cond_holds``, keeps the links it
waits on in an explicit stack.

Statements translate to datalog programs whose derived atoms reproduce the
evaluator's output; the last predicate of every chain carries a schema
position, the earlier ones are auxiliary, and each condition link is a
universal dom-rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from . import elog
from . import objects as ob
from .doctree import DocTree
from .pathrange import (
    STRING,
    TAG,
    Atom,
    Concat,
    Range,
    RawRegex,
    Star,
    StarRange,
    TextError,
    Wildcard,
    apply_range,
    group_end,
    parse_range,
    path_to_text,
    range_to_text,
    read_path,
    scan,
    subelem,
)


class RpnSyntaxError(TextError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class TxtEq:
    s: str


@dataclass(frozen=True)
class Patom:
    path: object
    range: Range = StarRange()
    conds: tuple = ()
    var: str | None = None  # an index variable, in the variable dialect only


@dataclass(frozen=True)
class Txt:
    pass


@dataclass(frozen=True)
class Record:
    entries: tuple  # of statements, n >= 2


@dataclass(frozen=True)
class Chain:
    """A statement, ending in Txt or a Record, or a condition, ending in
    a TxtEq; cut marks a condition's first link."""

    patoms: tuple  # of Patom, in text order, possibly none
    end: object
    cut: bool = False


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

_RESERVED = {"txt", "where", "and", "last", "regex"}  # in the variable dialect


class _StmtParser:
    """All three dialects; "rpn" allows regex paths and nested conditions,
    "vhel" allows ->steps and cut marks instead, and "hel" allows ->steps
    and index variables, with no condition blocks or cut marks, reserved
    words that are not tags, and at least one path atom per chain."""

    def __init__(self, text: str, dialect: str):
        self.text = text
        self.pos = 0
        self.dialect = dialect
        self.vf = dialect != "rpn"
        self.hel = dialect == "hel"

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
        """Whether the next tag, in any case, is the keyword w."""
        self.ws()
        m = TAG.match(self.text, self.pos)
        return m is not None and m.group().lower() == w

    def tag(self) -> str:
        if self.peek() == "_":
            self.pos += 1
            return "_"
        m = TAG.match(self.text, self.pos)
        if m is None:
            self.error("expected a tag")
        self.pos = m.end()
        return m.group().lower()

    def string(self) -> str:
        if self.peek() != '"':
            self.error("expected a string")
        m = STRING.match(self.text, self.pos)
        if m is None:
            self.error("unterminated string")
        try:
            value = json.loads(m.group())
        except ValueError:
            self.error("bad string literal")
        self.pos = m.end()
        return value

    # -- grammar --------------------------------------------------------------

    def statement(self):
        node = self._chain(cond=False)
        self.ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return node

    def _chain(self, cond: bool):
        """A statement, or with cond a condition: path atoms up to '.txt',
        which a condition follows with '= "..."', or up to a record, which
        only a statement may end in.  A record follows the last path atom
        directly, or outside the variable dialect also after a '.'; there
        a chain of no path atoms, 'txt' or a record alone, is legal too.
        A condition's '!' marks its first link."""
        cut = cond and not self.hel and self.peek() == "!"
        if cut:
            if not self.vf:
                self.error("cut marks belong to the condition-chain dialect")
            self.pos += 1
        patoms = []
        end = None if self.hel else (self._txt_end(cond) or self._record_end(cond))
        while end is None:
            axis = "child"
            if self.peek(2) == "->":
                if not self.vf:
                    self.error("'->' steps belong to the condition-chain dialect")
                self.eat("->")
                axis = "descendant"
            elif patoms:
                self.eat(".")
                end = self._txt_end(cond)
                if end is None and not self.hel:
                    end = self._record_end(cond)
                if end is not None:
                    break
                if self.peek(2) == "->":
                    self.error("write '->' in place of '.', not after it")
            pa = self._patom(axis)
            if cond and self.vf and pa.conds:
                self.error("conditions may not nest inside conditions here")
            patoms.append(pa)
            end = self._record_end(cond)
        return Chain(tuple(patoms), end, cut)

    def _txt_end(self, cond: bool):
        """Txt, or with cond a text test, if the cursor is on 'txt'."""
        if not self.at_word("txt"):
            return None
        self.pos += 3
        if not cond:
            return Txt()
        self.eat("=")
        return TxtEq(self.string())

    def _record_end(self, cond: bool):
        """A statement's record if the cursor is on one: a parenthesized
        group with a separating '#' directly inside it, one that starts no
        '#'-name."""
        if cond or self.peek() != "(":
            return None
        for i, c, depth in scan(self.text, self.pos):
            if depth == 0 and i > self.pos:
                return None
            if c == "#" and depth == 1 and TAG.match(self.text, i) is None:
                return self._record()
        return None

    def _record(self):
        self.eat("(")
        entries = [self._chain(cond=False)]
        while self.peek() == "#" and TAG.match(self.text, self.pos) is None:
            self.pos += 1
            entries.append(self._chain(cond=False))
        self.eat(")")
        return Record(tuple(entries))

    def _patom(self, axis: str) -> Patom:
        if self.peek() == "(" and not self.hel:
            if self.vf:
                self.error("regex paths belong to the path-expression dialect")
            path, self.pos = read_path(self.text, self.pos + 1)
            if self.text[self.pos : self.pos + 1] != ")":
                self.error("expected ')'")
            self.pos += 1
        else:
            t = self.tag()
            if self.hel and t in _RESERVED:
                self.error(f"{t!r} is reserved")
            path = _descendant(t) if axis == "descendant" else tag_path(t)
        var = None
        rng: Range = StarRange()
        if self.peek() == "[":
            at, end = self.pos, group_end(self.text, self.pos)
            if end < 0:
                self.error("missing ']'")
            inside = self.text[self.pos + 1 : end - 1].strip()
            self.pos = end
            try:
                if self.hel:
                    var, rng = self._var_range(inside)
                else:
                    rng = parse_range(inside)
            except TextError as e:
                if e.pos is None:  # a range fault: its place is the '['
                    e.pos = at
                raise
        conds: tuple = ()
        if not self.hel and self.peek() == "{":
            self.pos += 1
            conds = self.conditions()
            self.eat("}")
        return Patom(path, rng, conds, var)

    def _var_range(self, inside: str) -> tuple:
        """A variable dialect bracket: [i], [i:range] or [range], read as
        (variable or None, range); 'regex:', in any case, starts a range."""
        head, sep, tail = inside.partition(":")
        head = head.strip()
        if sep and head.lower() != "regex":
            if not _is_var(head):
                self.error(f"bad index variable {head!r}")
            return head, parse_range(tail.strip())
        if _is_var(inside):
            return inside, StarRange()
        return None, parse_range(inside)

    def conditions(self) -> tuple:
        """Conditions joined by 'and', as in a condition block or a where
        clause."""
        conds = [self._chain(cond=True)]
        while self.at_word("and"):
            self.pos += 3
            conds.append(self._chain(cond=True))
        return tuple(conds)


def _is_var(s: str) -> bool:
    return s.isidentifier() and s.lower() not in _RESERVED


def parse_statement(text: str, dialect: str = "rpn"):
    if dialect not in ("rpn", "vhel"):
        raise ValueError(f"unknown dialect {dialect!r}")
    if not text.strip():
        raise RpnSyntaxError("empty statement")
    return _StmtParser(text, dialect).statement()


def parse_rpn(text: str):
    return parse_statement(text, "rpn")


def _patom_text(pa: Patom, dialect: str, axis_prefix: bool) -> str:
    vf = dialect == "vhel"
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
    out = sep + s
    if pa.var is not None:
        rng = "" if pa.range == StarRange() else ":" + range_to_text(pa.range)
        out += f"[{pa.var}{rng}]"
    elif pa.range != StarRange():
        out += f"[{range_to_text(pa.range)}]"
    elif vf and pa.conds:
        out += "[*]"  # the condition-chain dialect spells out filtered stars
    if pa.conds:
        out += "{" + " and ".join(statement_to_text(c, dialect) for c in pa.conds) + "}"
    return out


def statement_to_text(stmt: Chain, dialect: str = "rpn") -> str:
    """The text of a statement, or of a condition: both are chains of path
    atoms, one ending in txt or a record and the other in a text test."""
    parts = ["!"] if stmt.cut else []
    for i, pa in enumerate(stmt.patoms):
        parts.append(_patom_text(pa, dialect, axis_prefix=i > 0))
    sep, end = "." if stmt.patoms else "", stmt.end
    if isinstance(end, Txt):
        parts.append(sep + "txt")
    elif isinstance(end, TxtEq):
        parts.append(f"{sep}txt = {json.dumps(end.s, ensure_ascii=False)}")
    elif isinstance(end, Record):
        inner = " # ".join(statement_to_text(e, dialect) for e in end.entries)
        # record parens attach directly to the last patom in vf syntax
        parts.append(("" if dialect == "vhel" else sep) + "(" + inner + ")")
    else:
        raise TypeError(f"not a statement: {stmt!r}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# types


def typecheck(stmt: Chain) -> ob.RpnType:
    """Total; conditions contribute nothing."""
    if isinstance(stmt.end, Txt):
        return ob.TSet(ob.TStr())
    if isinstance(stmt.end, Record):
        return ob.TSet(ob.TRecord(tuple(typecheck(e) for e in stmt.end.entries)))
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# evaluation


def _cond_holds(tree: DocTree, v: int, cond: Chain, memo: dict) -> bool:
    """Whether cond holds at v: some node its first link keeps at v passes
    the link's own conditions and the later links.

    A goal is a link of a condition at a node, and memo keeps each goal's
    answer for one evaluation.  A goal's search tries the nodes its link
    keeps in document order, and at each the link's conditions, then the
    next link, left to right; it stops at the first witness.  Searches
    wait on an explicit stack, one frame per undecided goal, so a
    condition of any length is searched in a loop."""
    stack: list = []  # frames [goal key, subgoals, candidates, candidate, subgoal]
    c, i, w = cond, 0, v  # the goal to decide
    while True:
        if i == len(c.patoms):
            held = tree.txt_equals(w, c.end.s)
        else:
            key = (id(c), i, w)
            held = memo.get(key)
            if held is None:  # search it: open a frame
                pa = c.patoms[i]
                goals = [(d, 0) for d in pa.conds] + [(c, i + 1)]
                hits = apply_range(subelem(tree, w, pa.path), pa.range)
                stack.append([key, goals, hits, 0, 0])
        # hand the answer to the frames it decides, until one needs a goal
        while stack:
            frame = stack[-1]
            key, goals, hits, j, k = frame
            if held is not None:
                j, k = (j, k + 1) if held else (j + 1, 0)
            if j < len(hits) and k < len(goals):
                frame[3], frame[4] = j, k
                (c, i), w = goals[k], hits[j]
                break
            held = memo[key] = j < len(hits)
            stack.pop()
        else:
            return held


def eval_rpn(stmt, tree: DocTree, v: int | None = None):
    """The range selects among the path matches first; conditions filter
    the selected nodes afterwards."""
    holds = partial(_cond_holds, memo={})
    return _evaluate(stmt, tree, v, holds, range_first=True, cut=False)


def _evaluate(
    stmt, tree: DocTree, v: int | None, holds, range_first: bool, cut: bool
):
    """The value of stmt at v (default: the root) under the given order
    and condition semantics; every evaluator entry point lands here.  A
    record evaluates its entries at each node its chain ends on."""
    start = tree.root() if v is None else v
    nodes, end = _follow(stmt, tree, [start], holds, range_first, cut), stmt.end
    if isinstance(end, Txt):
        return ob.SetVal([tree.txt(w) for w in nodes])
    if isinstance(end, Record):
        return ob.SetVal([
            tuple(_evaluate(e, tree, w, holds, range_first, cut) for e in end.entries)
            for w in nodes
        ])
    raise TypeError(f"not a statement: {end!r}")


def _follow(chain, tree: DocTree, nodes: list, holds, range_first: bool, cut: bool):
    """The nodes a statement's or a condition's path atoms reach from nodes.

    Each step maps the node list, which has no repeats and is in document
    order, to the nodes its patom keeps from any of them, so a step
    navigates from each node once however many paths reach it.  It
    navigates them deepest first into one map, so that a node's walk
    takes over the hits of a node nested in it (see subelem), and then
    scans them in document order.
    range_first applies the patom's range to a node's navigated nodes and
    then checks holds(tree, w, cond) on the selected ones; otherwise the
    conditions filter first and the range selects among the survivors.
    With cut, a node failing a '!'-marked condition ends the filter scan."""
    for pa in chain.patoms:
        if len(nodes) == 1:  # nothing to share, and no map to pay for
            navigated = [subelem(tree, nodes[0], pa.path)]
        else:
            done: dict = {}
            for v in reversed(nodes):
                done[v] = subelem(tree, v, pa.path, done)
            navigated = [done[v] for v in nodes]
        reached = []
        for hits in navigated:
            if not pa.conds:  # either order keeps the same nodes
                reached += apply_range(hits, pa.range)
            elif range_first:
                reached += (
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
                reached += apply_range(keep, pa.range)
        nodes = reached if len(nodes) == 1 else sorted(set(reached))
    return nodes


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

    def statement(self, stmt: Chain, ctx: str):
        last = None
        for pa in stmt.patoms:
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
            ctx = last = pred
        if isinstance(stmt.end, Txt):
            return ob.SetSchema(last, ob.StrSchema())
        entries = tuple(self.statement(e, ctx) for e in stmt.end.entries)
        return ob.SetSchema(last, ob.RecordSchema(entries))

    def cond(self, cond: Chain) -> str:
        """One universal predicate per link, whose image is the set of
        nodes satisfying the condition from that link on; returns the
        first link's.  Names go out in text order, a link's before its
        nested conditions'; the nested rules come first, then the links'
        from the last link back."""
        s = cond.end.s
        if not cond.patoms:
            pred = self.new_cond_pred()
            test = (elog.ContainsStr("X", s),)
            self.rules.append(elog.DomRule(pred, "X0", "X", test, ()))
            return pred
        links = []
        for i, pa in enumerate(cond.patoms):
            if isinstance(pa.range, RawRegex):
                # a dom rule applies it at every node, where the walker
                # applies it only at the nodes the statement reaches, and
                # it can raise
                text = statement_to_text(
                    Chain(cond.patoms[i:], cond.end), "vhel" if self.lift else "rpn"
                )
                raise ValueError(
                    f"condition {text!r}: a regex range in a condition has no "
                    "datalog counterpart"
                )
            pred = self.new_cond_pred()
            refs = tuple(elog.Ref(self.cond(c), "Y") for c in pa.conds)
            links.append((pred, pa, refs))
        nxt = None
        for pred, pa, refs in reversed(links):
            conds = (elog.Contains("X", "Y", pa.path, pa.range),)
            if nxt is None:
                conds += (elog.ContainsStr("Y", s),)
            else:
                refs += (elog.Ref(nxt, "Y"),)
            self.rules.append(elog.DomRule(pred, "X0", "X", conds, refs))
            nxt = pred
        return nxt


def _translate(stmt, lift_ranges: bool):
    tr = _Translator(lift_ranges)
    schema = tr.statement(stmt, "root")
    keep = set(ob.schema_predicates(schema))
    aux = frozenset(p for p in tr.chain_preds if p not in keep)
    program = elog.ElogProgram(tuple(tr.rules), aux, schema)
    elog.validate_program(program)
    return program, schema, aux


def translate_rpn(stmt):
    """Datalog program whose rendered object equals eval_rpn's result."""
    return _translate(stmt, lift_ranges=False)
