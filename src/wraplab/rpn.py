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
``_Walker``, serve statements and conditions alike, each a loop over the
path atoms.  The walker works on frontiers: a step maps the nodes the
last one reached, all at once, to what it keeps from each, a condition
is decided once for all the nodes it is asked at, and a record entry is
evaluated once at all the nodes its chain reached.  It takes the
condition semantics, with the order (range then filter, or filter then
range), and whether cut marks stop the filter scan.  ``eval_rpn`` here
and the hel module's ``eval_vf`` and ``eval_cut`` only choose those.

Statements translate to datalog programs whose derived atoms reproduce the
evaluator's output; the last predicate of every chain carries a schema
position, the earlier ones are auxiliary, and each condition link is a
universal dom-rule.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from . import elog
from . import objects as ob
from .doctree import DocTree
from .pathrange import (
    STRING,
    TAG,
    Atom,
    Concat,
    Range,
    RangeError,
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
    walk,
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
                nxt = self.peek()
                if not cond and (nxt == "" or nxt == "(" and self.vf):
                    self.error("expected '.txt' or a record of at least two entries")
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
        raise ValueError(f"path {path_to_text(pa.path)!r} has no condition-chain syntax")
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
    atoms, one ending in txt or a record and the other in a text test.
    ValueError for what .vhel cannot read: a nested condition, a regex path."""
    if dialect == "vhel" and isinstance(stmt.end, TxtEq) and _nests(stmt):
        # quote the innermost condition that nests one: it stays short
        while inner := [c for pa in stmt.patoms for c in pa.conds if _nests(c)]:
            stmt = inner[0]
        raise ValueError(
            f"condition {statement_to_text(stmt)!r} nests a condition: "
            ".vhel conditions do not nest"
        )
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


def _nests(cond: Chain) -> bool:
    return any(pa.conds for pa in cond.patoms)


# ---------------------------------------------------------------------------
# types


def typecheck(stmt: Chain) -> ob.SetSchema:
    """The statement's output schema with no predicates.  Total;
    conditions contribute nothing."""
    if isinstance(stmt.end, Txt):
        return ob.SetSchema(None, ob.StrSchema())
    if isinstance(stmt.end, Record):
        entries = tuple(typecheck(e) for e in stmt.end.entries)
        return ob.SetSchema(None, ob.RecordSchema(entries))
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# evaluation


def eval_rpn(stmt, tree: DocTree, v: int | None = None):
    """The range selects among the path matches first; conditions filter
    the selected nodes afterwards."""
    return _evaluate(stmt, tree, v)


def _evaluate(stmt, tree: DocTree, v: int | None, wide=None, cut: bool = False):
    """The value of stmt at v (default: the root); every evaluator entry
    point lands here.  With wide None, the path-expression semantics.
    Otherwise conditions filter before the range selects, and they have
    the single-value semantics, where wide(v, n) is the answer of a
    condition whose chain reaches n > 1 nodes from v: the error, or a
    warning to give where the answer is asked.  With cut, a node failing a
    '!'-marked condition ends the filter scan."""
    start = tree.root() if v is None else v
    (value,), heard = _Walker(tree, wide, cut).values(stmt, [start])
    for warning in heard.get(start, ()):
        warnings.warn(warning)
    if isinstance(value, Exception):
        raise value
    return value


class _Walker:
    """One evaluation, set at a time: a step maps a list of nodes, in
    document order and without repeats, to what it keeps from each.

    A step walks from all its nodes at once (pathrange.walk), decides each
    of its conditions once, at all the nodes it is asked at, and then scans
    each node's hits in document order as the scan from that node alone
    does.  A cut scan may end early, so it starts from empty answers and
    decides each where it is first asked.  Where a scan would raise, the
    error is kept as the node's outcome, so each origin of a chain gets the
    first error of its own scan, and the statement raises only the error
    the scan from its start raises first.  A condition's answer at a node
    is True, False, or such an error.  The warnings of lenient answers go
    with the outcomes that ask them, so the statement gives those its scan
    gives, in that order."""

    def __init__(self, tree: DocTree, wide, cut: bool):
        self.tree, self.wide, self.cut = tree, wide, cut
        self.decide = self._witness if wide is None else self._single
        self.warns: dict = {}  # (id(condition), node) -> its answer's warnings

    def values(self, stmt, origins: list) -> tuple:
        """stmt's value at each of origins: a SetVal, or the error the
        evaluation from that origin raises first.  A record evaluates each
        entry once, at all the nodes the origins reach.  And by origin, its
        scan's warnings."""
        (reached, heard), end = self.follow(stmt, origins), stmt.end
        if isinstance(end, Txt):
            txt = self.tree.txt
            return [
                r if isinstance(r, Exception) else ob.SetVal([txt(w) for w in r])
                for r in reached
            ], heard
        if not isinstance(end, Record):
            raise TypeError(f"not a statement: {end!r}")
        nodes, columns, said = _union(reached), [], []
        for e in end.entries:  # a loop: one frame per level of nested records
            col, h = self.values(e, nodes)
            columns.append(dict(zip(nodes, col)))
            said.append(h)
        entries = list(zip(columns, said)) if any(said) else ()
        out = []
        for v, r in zip(origins, reached):
            if not isinstance(r, Exception):
                rows = [tuple(col[w] for col in columns) for w in r]
                errors = [x for row in rows for x in row if isinstance(x, Exception)]
                if entries:  # the scan asks them row by row
                    asked = ((c[w], h.get(w, ())) for w in r for c, h in entries)
                    _hear(heard, v, asked)
                r = errors[0] if errors else ob.SetVal(rows)
            out.append(r)
        return out, heard

    def follow(self, chain, origins: list) -> tuple:
        """For each of origins, the nodes chain's path atoms reach from it,
        in document order, or the error its scan raises first; and by
        origin, its scan's warnings."""
        reached, nodes, heard = [[v] for v in origins], origins, {}
        for pa in chain.patoms:
            if not nodes:
                break
            kept, said = self._step(pa, nodes)
            by = dict(zip(nodes, kept)) if said or len(reached) > 1 else None
            for v, r in zip(origins, reached) if said else ():
                if not isinstance(r, Exception):
                    _hear(heard, v, ((by[u], said[u]) for u in r))
            if len(reached) == 1:  # its nodes are all of them
                reached = [_merge(kept)]
            else:
                reached = [
                    r if isinstance(r, Exception)
                    else by[r[0]] if len(r) == 1
                    else _merge([by[u] for u in r])
                    for r in reached
                ]
            nodes = _union(reached)
        return reached, heard

    def _step(self, pa: Patom, nodes: list) -> tuple:
        """What pa keeps from each of nodes, or the error the scan of the
        node's hits raises first; and by node, its scan's warnings, or None
        where no answer warns."""
        hits, rng, conds = _navigate(self.tree, nodes, pa.path), pa.range, pa.conds
        if not conds:  # either order keeps the same nodes
            return [_select(h, rng) for h in hits], None
        if self.wide is None:  # the range, then the conditions
            hits = [_select(h, rng) for h in hits]
        if self.cut:  # the scan decides each answer where it first asks
            answers = [{} for _ in conds]
        else:
            answers = self._conditions(conds, _union(hits))[0]
        said = {u: [] for u in nodes} if self.warns or self.cut else {}
        kept = [self._keep(h, conds, answers, said.get(u)) for u, h in zip(nodes, hits)]
        if self.wide is not None:
            kept = [_select(k, rng) for k in kept]
        return kept, said if self.warns else None

    def _conditions(self, conds: tuple, nodes: list) -> tuple:
        """Each condition's answers, decided at the nodes where the ones
        before it held, as all() asks them; and the nodes where all held."""
        answers = []
        for c in conds:
            held = self.decide(c, nodes)
            answers.append(held)
            nodes = [w for w in nodes if held[w] is True]
        return answers, nodes

    def _keep(self, hits, conds: tuple, answers: list, heard=None):
        """The hits at which every condition holds, or the first error
        asked, or hits' own.  The conditions are asked in turn up to the
        first that fails, or with cut all of them, up to the first hit that
        fails a '!'-marked one.  An answer not in answers is decided where
        it is first asked, at that hit alone.  Their warnings go on heard."""
        if isinstance(hits, Exception):
            return hits
        keep, warns, cut, stop = [], self.warns, self.cut, False
        for w in hits:
            held_all = True
            for c, held in zip(conds, answers):
                a = held.get(w)
                if a is None:
                    a = held[w] = self.decide(c, [w])[w]
                if heard is not None:
                    heard += warns.get((id(c), w), ())
                if a is not True:
                    if a is not False:
                        return a
                    if not cut:  # all() asks no further
                        break
                    held_all, stop = False, stop or c.cut
            else:
                if held_all:
                    keep.append(w)
                if stop:
                    break
        return keep

    def _witness(self, cond: Chain, nodes: list) -> dict:
        """The path-expression semantics: cond holds at a node when some
        node its first link keeps there passes the link's conditions and
        the later links.  A forward pass decides each link's conditions at
        every node the link keeps from the nodes before it; a backward pass
        gives each node the answer of the first node its link keeps, in
        document order, whose answer is not False: True, or the error the
        search from it raises.  A range error at the node is its answer."""
        links = []
        for pa in cond.patoms:
            hits = _navigate(self.tree, nodes, pa.path)
            picked = [_select(h, pa.range) for h in hits]
            answers, passed = self._conditions(pa.conds, _union(picked))
            links.append((nodes, picked, answers))
            nodes = passed
        s, equals = cond.end.s, self.tree.txt_equals
        held = {w: equals(w, s) for w in nodes}
        for nodes, picked, answers in reversed(links):
            after, held = held, {}
            for u, hits in zip(nodes, picked):
                if isinstance(hits, Exception):
                    held[u] = hits
                    continue
                a = False
                for w in hits:
                    for b in answers:
                        a = b[w]
                        if a is not True:
                            break
                    else:
                        a = after[w]
                    if a is not False:
                        break
                held[u] = a
        return held

    def _single(self, cond: Chain, nodes: list) -> dict:
        """The single-value semantics: cond's chain, followed from a node as
        a statement's is, should reach at most one node, whose text must
        equal the string.  Reaching more answers wide's error, or with its
        warning whether one of them has the text, after the chain's own."""
        s, equals, held = cond.end.s, self.tree.txt_equals, {}
        reached, heard = self.follow(cond, nodes)
        for v, r in zip(nodes, reached):
            if isinstance(r, Exception):
                held[v] = r
            elif len(r) > 1:
                a = self.wide(v, len(r))
                if isinstance(a, Warning):
                    heard.setdefault(v, []).append(a)
                    a = any(equals(u, s) for u in r)
                held[v] = a
            else:
                held[v] = bool(r) and equals(r[0], s)
        self.warns.update(((id(cond), v), h) for v, h in heard.items() if h)
        return held


def _navigate(tree: DocTree, nodes: list, path) -> list:
    """Each node's hits: subelem's for one node, one walk for more."""
    if len(nodes) == 1:
        return [subelem(tree, nodes[0], path)]
    return walk(tree, nodes, path)


def _select(hits, rng: Range):
    """apply_range, or the error it raises, or hits if they are an error."""
    if isinstance(hits, Exception):
        return hits
    try:
        return apply_range(hits, rng)
    except RangeError as e:
        return e


def _merge(parts: list):
    """The union of node lists in document order, or the first error."""
    for p in parts:
        if isinstance(p, Exception):
            return p
    return parts[0] if len(parts) == 1 else sorted(set().union(*parts))


def _hear(heard: dict, v: int, parts) -> None:
    """Add to v's warnings those of (outcome, warnings) parts, taken in
    scan order up to and with the first whose outcome is an error."""
    said = heard.setdefault(v, [])
    for outcome, warns in parts:
        said += warns
        if isinstance(outcome, Exception):
            return


def _union(outcomes: list) -> list:
    """The union of the node lists among outcomes, in document order."""
    return _merge([r for r in outcomes if not isinstance(r, Exception)])


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
