"""Binary datalog over document trees.

A program is a set of rules of two shapes.  The chain rule

    p(X0, X) :- p0(_, X0), subelem[pi][rho](X0, X), conds, refs.

navigates from every node X0 in the parent predicate's image to the
range-selected path matches X and keeps the pairs whose conditions and
references are satisfiable.  The dom rule

    p(X0, X) :- dom(X0, X), conds, refs.

constrains only X, leaving the first argument universally free; predicates
defined solely by dom rules are kept as node sets and never materialized as
pairs.

Evaluation is a least fixpoint, run component by component over the
predicate dependency graph, dependencies first.  A program is analysed once
per program object: its rules by head, its components, and the order each
rule body's atoms are solved in, which depends only on which variables the
rule's shape binds (a body with no such order is rejected at load time).
Each rule body is planned once per evaluation, and a chain rule checks the
conditions on the parent alone once per parent, before navigating from it,
rather than at every target; only a ``regex:`` step or rule range, which
can raise whatever the parent, navigates from every parent and leaves them
in the body.  Each rule is applied once per parent, when the parent is
derived, and derives its satisfied targets as one set: they go into the
head's relation, which keeps each parent's targets as one set (Pairs),
and the new ones into its image in one pass.  A target whose body fails
waits on the reference atoms it found false and is tried again only when
one of them is derived, as in Dowling and Gallier's linear Horn-SAT.  A nonrecursive component is thus a single pass.
A trailing rule range ``[rho]`` selects among each parent's derived targets
in document order and forces the whole program to be nonrecursive.

A dom rule is evaluated one of two ways.  When it lies outside a
recursive component, has no range regex, and its body is solved as checks
on X, then ``contains[pi][rho](X, Y)``, then atoms that never mention X,
``pathrange.holders`` derives the nodes whose range-selected matches
include a Y satisfying those atoms for the whole document at once, for a
finite path or the ``*`` range; the checks on X and the rule range then
select from that image in document order.  Every other dom rule runs its
body at each node of the document.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from collections.abc import Set
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

from . import objects as ob
from .doctree import DocTree
from .pathrange import (
    STRING,
    TAG,
    RawRegex,
    Range,
    StarRange,
    TextError,
    apply_range,
    compile_path,
    holders,
    is_finite,
    parse_path,
    parse_range,
    path_to_text,
    range_to_text,
    walk,
)

BUILTINS = ("root", "dom")


class ElogError(Exception):
    pass


class ElogSyntaxError(TextError, ElogError):
    pass


class UnsafeRule(ElogError):
    pass


class UnknownPredicate(ElogError):
    pass


class NotStratified(ElogError):
    pass


class UngroundedProgram(ElogError):
    pass


class HasRuleRanges(ElogError):
    pass


class AuxCycle(ElogError):
    pass


class SchemaMismatch(ElogError):
    pass


# ---------------------------------------------------------------------------
# conditions


@dataclass(frozen=True)
class Contains:
    """contains[pi][rho](x, y): y is a range-selected path match below x."""

    x: str
    y: str
    path: object
    rng: Range


@dataclass(frozen=True)
class ContainsStr:
    """contains_s(x, s): the text below x concatenates to exactly s."""

    x: str
    s: str


@dataclass(frozen=True)
class FirstChild:
    x: str
    y: str  # y is the first child of x


@dataclass(frozen=True)
class NextSibling:
    x: str
    y: str  # y immediately follows x under the same parent


@dataclass(frozen=True)
class LastSibling:
    x: str


@dataclass(frozen=True)
class Label:
    x: str
    tag: str


@dataclass(frozen=True)
class Root:
    x: str


@dataclass(frozen=True)
class Ref:
    """p(_, x): x lies in the predicate's image (existential first arg)."""

    pred: str
    var: str


# ---------------------------------------------------------------------------
# rules and programs


@dataclass(frozen=True)
class ChainRule:
    head: str
    v0var: str
    xvar: str
    parent: str  # "root" | "dom" | pattern predicate
    path: object
    rng: Range
    conds: tuple = ()
    refs: tuple = ()
    rule_range: Range | None = None


@dataclass(frozen=True)
class DomRule:
    head: str
    v0var: str
    xvar: str
    conds: tuple = ()
    refs: tuple = ()
    rule_range: Range | None = None


class _Analysis(NamedTuple):
    """What validation, evaluation and aux elimination need of a program,
    derived once: each head's (rule, orientation) pairs in program order,
    the heads in order of first definition, the dependency graph's
    components, dependencies first, as (preds, recursive) pairs, and each
    head's parent predicates (see AtomStore)."""

    rules: dict
    heads: tuple
    components: tuple
    parents: dict


@dataclass(frozen=True)
class ElogProgram:
    rules: tuple
    aux: frozenset = frozenset()
    schema: object = None

    @cached_property
    def _analysis(self) -> _Analysis:
        return _analyse(self)

    def head_preds(self) -> list[str]:
        return list(self._analysis.heads)

    def universal_preds(self) -> frozenset:
        return frozenset(
            p for p, rs in self._analysis.rules.items()
            if all(isinstance(r, DomRule) for r, _ in rs)
        )

    def has_rule_ranges(self) -> bool:
        return any(r.rule_range is not None for r in self.rules)


def _sccs(nodes, edges) -> list:
    """Tarjan, with an explicit stack in place of recursion; returns
    components in reverse topological order."""
    adj: dict = {n: [] for n in nodes}
    for a, b in edges:
        adj[a].append(b)
    index: dict = {}
    low: dict = {}
    on: set = set()
    stack: list = []
    comps: list = []
    work: list = []  # (node, its unvisited successors), the call stack

    def push(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on.add(v)
        work.append((v, iter(adj[v])))

    for n in nodes:
        if n in index:
            continue
        push(n)
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    push(w)
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(frozenset(comp))
    return comps


def _cond_vars(c) -> tuple:
    if isinstance(c, (Contains, FirstChild, NextSibling)):
        return (c.x, c.y)
    if isinstance(c, Ref):
        return (c.var,)
    return (c.x,)


def _binds(c, bound: set) -> str | None:
    """The variable atom c can enumerate when some of its variables are
    unbound, or None."""
    if isinstance(c, (Label, Root)):
        return c.x
    if isinstance(c, Ref):
        return c.var
    if isinstance(c, (FirstChild, NextSibling)) and c.y in bound:
        return c.x
    if isinstance(c, (Contains, FirstChild, NextSibling)) and c.x in bound:
        return c.y
    return None


def _orient(rule, heads) -> list:
    """Raise the rule's first fault, given the program's head predicates;
    else return the order its body is solved in, as (atom, var) steps:
    again and again the first atom whose variables are all bound, checked
    (var None), else the first that can enumerate an unbound variable var.
    Only which variables are bound decides, and the rule's shape fixes
    those, so the order is the same at every target."""
    where = f"rule for {rule.head!r}"
    if rule.head in BUILTINS:
        raise UnsafeRule(f"{where}: builtin predicates cannot be defined")
    if isinstance(rule, ChainRule):
        if rule.parent not in BUILTINS and rule.parent not in heads:
            raise UnknownPredicate(f"{where}: no rules for parent {rule.parent!r}")
    for ref in rule.refs:
        if ref.pred in BUILTINS:
            raise UnknownPredicate(
                f"{where}: builtin {ref.pred!r} cannot be referenced"
            )
        if ref.pred not in heads:
            raise UnknownPredicate(f"{where}: no rules for {ref.pred!r}")
    atoms = [(c, _cond_vars(c)) for c in rule.conds + rule.refs]
    used = {v for _, vs in atoms for v in vs}
    if isinstance(rule, DomRule) and rule.v0var in used:
        raise UnsafeRule(
            f"{where}: the first argument of a dom rule is free and "
            "cannot appear in conditions"
        )
    bound = {rule.xvar} if isinstance(rule, DomRule) else {rule.v0var, rule.xvar}
    # every variable must be linked to the head variables
    linked, size = set(bound), 0
    while size < len(linked):
        size = len(linked)
        for _, vs in atoms:
            if not linked.isdisjoint(vs):
                linked.update(vs)
    stray = used - linked
    if stray:
        raise UnsafeRule(
            f"{where}: variable {sorted(stray)[0]!r} is not connected to "
            "the head variables"
        )
    order = []
    while atoms:
        for i, (c, vs) in enumerate(atoms):
            if bound.issuperset(vs):
                var = None
                break
        else:
            for i, (c, _) in enumerate(atoms):
                var = _binds(c, bound)
                if var is not None:
                    bound.add(var)
                    break
            else:
                raise UnsafeRule(
                    f"{where}: cannot orient "
                    f"{', '.join(_cond_text(c) for c, _ in atoms)} from the "
                    f"bound variables {', '.join(sorted(bound))}"
                )
        del atoms[i]
        order.append((c, var))
    return order


def validate_program(program: ElogProgram) -> None:
    """Raise the program's first fault, if it has one.  The analysis that
    finds it is computed once per program object and kept for evaluation."""
    program._analysis


def _analyse(program: ElogProgram) -> _Analysis:
    heads = dict.fromkeys(r.head for r in program.rules)  # in definition order
    index: dict = {}
    parents: dict = {}  # head -> its rules' parent predicates, as dict keys
    edges = []  # the dependency graph: (head, predicate its rule uses)
    grounded = ranged = False
    for r in program.rules:
        index.setdefault(r.head, []).append((r, _orient(r, heads)))
        # a dom rule's atoms hang from any node
        parent = r.parent if isinstance(r, ChainRule) else "dom"
        if parent not in BUILTINS:
            edges.append((r.head, parent))
        parents.setdefault(r.head, {})[parent] = None
        edges.extend((r.head, ref.pred) for ref in r.refs)
        grounded = grounded or parent in BUILTINS
        ranged = ranged or r.rule_range is not None
    # one predicate, one shape: dom rules do not mix with chain rules
    for p, rs in index.items():
        if len({isinstance(r, DomRule) for r, _ in rs}) > 1:
            raise UnsafeRule(
                f"predicate {p!r} mixes dom rules with other rule shapes"
            )
    # groundedness: some rule must bottom out in a builtin parent; every
    # other rule is grounded through another's head, so one such is enough
    if index and not grounded:
        raise UngroundedProgram("no rule is grounded in root or dom")
    looped = {a for a, b in edges if a == b}
    components = tuple(
        (comp, len(comp) > 1 or bool(comp & looped))
        for comp in _sccs(list(heads), edges)
    )
    if ranged:
        for comp, recursive in components:
            if recursive:
                raise NotStratified(
                    "rule ranges require a nonrecursive program; cycle "
                    f"through {sorted(comp)}"
                )
    return _Analysis(
        {p: tuple(rs) for p, rs in index.items()},
        tuple(heads),
        components,
        {p: tuple(ps) for p, ps in parents.items()},
    )


# ---------------------------------------------------------------------------
# concrete syntax

_VAR = re.compile(r"[A-Z][A-Za-z0-9_]*")

# a line's text before its comment: plain runs and "..." literals, an
# unterminated literal running to the end of the line
_CODE = re.compile(rf'(?:[^"%]+|{STRING.pattern}?)*')

# One atom of a rule and what follows it, read in one match (docs/formats.md
# gives the grammar).  Every part after the name is optional, so the match
# always succeeds and ends where reading stopped; each repetition reads a
# character one way, so backtracking takes linear time.
_BODY = rf'((?:[^"\]]|{STRING.pattern})*)'
_ARG = rf'((?:[^"(),]|{STRING.pattern})*)'
_ATOM = re.compile(
    rf"""\s*(?:({ob.PREDICATE.pattern})             # 1 name
    (?:\[{_BODY}\](?:\[{_BODY}\])?)?              # 2, 3 bracket bodies
    (?:\({_ARG}(?:,{_ARG})?                       # 4, 5 arguments, unstripped
    (?:(\))\s*                                    # 6 ')'
    (?:(,|:-|\Z)|\[{_BODY}\]\s*\Z)?               # 7 what follows, or 8 a
    )?)?)?                                        #   trailing rule range
    """,
    re.S | re.X,
)


def _strip_comment(line: str) -> str:
    if "%" not in line:
        return line
    return line[: _CODE.match(line).end()]


def _stopped(text: str, end: int, m, head: bool) -> ElogSyntaxError:
    """The error for an atom match that stopped before its end."""
    name, _, _, a1, _, close, _, _ = m.groups()
    expected = (
        "a predicate name" if name is None
        else "'('" if a1 is None
        else "')'" if close is None
        else "':-'" if head
        else "',', a rule range or the end of the rule"
    )
    stop = m.end()
    got = repr(text[stop:end][:10]) if stop < end else "the end"
    return ElogSyntaxError(f"expected {expected}, got {got}", column=stop + 1)


def _read_atoms(text: str, end: int) -> tuple:
    """Read the rule in text[:end] left to right, one match per atom: the
    head, then the body atoms, as (name, brackets, args) tuples, and a
    trailing rule range or None.  Each bracket group, and the rule range,
    is its body's text and the index in text where the body starts."""
    atoms = []
    pos = 0
    while True:
        m = _ATOM.match(text, pos, end)
        name, _, _, a1, a2, _, sep, rng = m.groups()
        if sep is None and rng is None:
            raise _stopped(text, end, m, not atoms)
        if not atoms and sep != ":-":
            raise ElogSyntaxError("expected ':-'", column=m.end(6) + 1)
        if atoms and sep == ":-":
            raise ElogSyntaxError("unexpected ':-'", column=m.start(7) + 1)
        atoms.append((
            name,
            tuple((m[g], m.start(g)) for g in (2, 3) if m[g] is not None),
            (a1.strip(),) if a2 is None else (a1.strip(), a2.strip()),
        ))
        pos = m.end()
        if sep != "," and sep != ":-":
            return atoms, None if rng is None else (rng, m.start(8))


def _unquote(token: str) -> str:
    try:
        value = json.loads(token)
    except ValueError:
        raise ElogSyntaxError(f"bad string literal {token}") from None
    if not isinstance(value, str):
        raise ElogSyntaxError(f"bad string literal {token}")
    return value


def _bracket_path(name: str, brackets: tuple):
    """The path in an atom's first group.  A fault in a bare path names the
    column of its character, one in a literal the literal's column."""
    if not brackets:
        raise ElogSyntaxError(f"{name} needs a [path] bracket")
    body, at = brackets[0]
    raw = body.strip()
    at += len(body) - len(body.lstrip())  # raw's index in the line
    quoted = raw.startswith('"')
    try:
        return parse_path(_unquote(raw) if quoted else raw)
    except TextError as e:
        e.column = at + 1 + (0 if quoted or e.pos is None else e.pos)
        raise


def _group_range(group: tuple) -> Range:
    """The range in a group; a fault in it names the group's '['."""
    body, at = group
    try:
        return parse_range(body)
    except TextError as e:
        e.column = at  # the '[' is at index at - 1
        raise


def _bracket_range(brackets: tuple) -> Range:
    return _group_range(brackets[1]) if len(brackets) > 1 else StarRange()


def _var_arg(name: str, tok: str) -> str:
    if not _VAR.fullmatch(tok):
        raise ElogSyntaxError(f"{name}: expected a variable, got {tok!r}")
    return tok


def _cond_arg(name: str, kind: str, tok: str) -> str:
    """A condition's written argument: a variable, a string literal or a tag."""
    if kind == "s":
        return _unquote(tok)
    if kind == "tag":
        if not TAG.fullmatch(tok):
            raise ElogSyntaxError(f"{name}: bad tag {tok!r}")
        return tok.lower()
    return _var_arg(name, tok)


# condition name -> its class and the kinds of its written arguments, which
# name its fields in order; contains reads [path][range] into its last two
_CONDS = {
    "contains": (Contains, ("x", "y")),
    "contains_s": (ContainsStr, ("x", "s")),
    "firstchild": (FirstChild, ("x", "y")),
    "nextsibling": (NextSibling, ("x", "y")),
    "lastsibling": (LastSibling, ("x",)),
    "label": (Label, ("x", "tag")),
    "root": (Root, ("x",)),
}
_COND_NAMES = {cls: n for n, (cls, _) in _CONDS.items()}


def _parse_cond(atom: tuple):
    n, brackets, args = atom
    cls, kinds = _CONDS[n]
    if brackets and cls is not Contains:
        raise ElogSyntaxError(f"{n} takes no brackets")
    if len(args) != len(kinds):
        raise ElogSyntaxError(f"{n} takes ({', '.join(kinds)})")
    fields = [_var_arg(n, args[0])]  # every condition's first argument is a variable
    if len(args) > 1:
        fields.append(_cond_arg(n, kinds[1], args[1]))
    if cls is Contains:
        fields += (_bracket_path(n, brackets), _bracket_range(brackets))
    return cls(*fields)


def _parse_rule(text: str, end: int):
    """The rule in text[:end]; text[end] is its final '.'."""
    atoms, rule_range = _read_atoms(text, end)
    (head, head_brackets, head_args), first = atoms[0], atoms[1]
    if head_brackets or len(head_args) != 2:
        raise ElogSyntaxError("head must be p(V0, V)")
    if rule_range is not None:
        rule_range = _group_range(rule_range)
    name, brackets, args = first
    v0var = _var_arg(head, head_args[0])
    xvar = _var_arg(head, head_args[1])
    if len(args) != 2 or brackets:
        raise ElogSyntaxError("first body atom must bind the parent")

    if name == "dom" and args == (v0var, xvar):
        conds, refs = _conds_and_refs(atoms[2:])
        return DomRule(head, v0var, xvar, conds, refs, rule_range)

    if args[0] != "_" or args[1] != v0var:
        raise ElogSyntaxError(
            f"parent atom must be {name}(_, {v0var}) or dom({v0var}, {xvar})"
        )
    if len(atoms) < 3:
        raise ElogSyntaxError("chain rule needs a subelem atom")
    step, brackets, args = atoms[2]
    if step != "subelem":
        raise ElogSyntaxError(f"expected subelem, got {step}")
    if args != (v0var, xvar):
        raise ElogSyntaxError(f"subelem must be subelem[...]({v0var}, {xvar})")
    path = _bracket_path(step, brackets)
    rng = _bracket_range(brackets)
    conds, refs = _conds_and_refs(atoms[3:])
    return ChainRule(
        head, v0var, xvar, name, path, rng, conds, refs, rule_range
    )


def _conds_and_refs(atoms: list):
    conds = []
    refs = []
    for a in atoms:
        name, brackets, args = a
        if name in _CONDS:
            conds.append(_parse_cond(a))
        elif len(args) == 2 and args[0] == "_" and not brackets:
            refs.append(Ref(name, _var_arg(name, args[1])))
        else:
            raise ElogSyntaxError(f"unrecognized body atom {name}")
    return tuple(conds), tuple(refs)


def parse_elog(text: str) -> ElogProgram:
    rules = []
    aux: list[str] = []
    schema = None
    named: list = []  # (name, line, directive) per predicate a directive names
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()  # unindented: columns count in raw
        if not line:
            continue
        word = line.split(None, 1)[0]
        rest = line.lstrip()[len(word) :]
        try:
            if word == "@aux":
                names = rest.split()
                aux.extend(names)
            elif word == "@schema":
                if schema is not None:
                    raise ElogSyntaxError(f"{word}: the program already has a schema")
                try:
                    schema = ob.parse_schema(rest.strip())
                except ob.SchemaSyntaxError as e:
                    start = len(line) - len(rest.lstrip())  # the schema's offset
                    column = None if e.pos is None else start + e.pos + 1
                    raise ElogSyntaxError(f"{word}: {e.reason}", column=column) from None
                names = ob.schema_predicates(schema)
            elif word.startswith("@"):
                raise ElogSyntaxError(f"unknown directive {word!r}")
            elif not line.endswith("."):
                raise ElogSyntaxError("rule must end with '.'")
            else:
                rules.append(_parse_rule(line, len(line) - 1))
                continue
            kept = ob.schema_predicates(schema) if schema is not None else ()
            for name in names:
                if not ob.PREDICATE.fullmatch(name):
                    raise ElogSyntaxError(f"{word}: bad predicate name {name!r}")
                if name in aux and name in kept:
                    raise ElogSyntaxError(f"{word}: {name!r} is aux and in the schema")
        except TextError as e:  # every fault on a line, a path's or a range's too
            e.line = lineno
            raise
        named.extend((name, lineno, word) for name in names)
    heads = {r.head for r in rules}
    for name, lineno, word in named:
        if name not in heads:
            raise UnknownPredicate(f"line {lineno}: {word}: no rules for {name!r}")
    program = ElogProgram(tuple(rules), frozenset(aux), schema)
    validate_program(program)
    return program


def _cond_text(c) -> str:
    if isinstance(c, Ref):
        return f"{c.pred}(_, {c.var})"
    n = _COND_NAMES[type(c)]
    args = ", ".join(
        json.dumps(c.s, ensure_ascii=False) if k == "s" else getattr(c, k)
        for k in _CONDS[n][1]
    )
    if isinstance(c, Contains):
        n += f"[{path_to_text(c.path)}][{range_to_text(c.rng)}]"
    return f"{n}({args})"


def _rule_text(r) -> str:
    parts = []
    if isinstance(r, ChainRule):
        parts.append(f"{r.parent}(_, {r.v0var})")
        parts.append(
            f"subelem[{path_to_text(r.path)}][{range_to_text(r.rng)}]"
            f"({r.v0var}, {r.xvar})"
        )
    else:
        parts.append(f"dom({r.v0var}, {r.xvar})")
    parts.extend(_cond_text(c) for c in r.conds + r.refs)
    tail = ""
    if r.rule_range is not None:
        tail = f" [{range_to_text(r.rule_range)}]"
    return f"{r.head}({r.v0var}, {r.xvar}) :- {', '.join(parts)}{tail}."


def serialize_elog(program: ElogProgram) -> str:
    lines = []
    if program.aux:
        lines.append("@aux " + " ".join(sorted(program.aux)))
    if program.schema is not None:
        lines.append("@schema " + ob.schema_to_text(program.schema))
    lines.extend(_rule_text(r) for r in program.rules)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# evaluation


class Pairs(Set):
    """One predicate's atoms p(v0, v) as a set of (v0, v) pairs, kept per
    parent: by_parent maps each parent node v0 to the set of its targets,
    never empty.  Evaluation, aux elimination, rendering and dump_atoms
    handle a parent's targets as one set; iteration yields the pairs.  A
    Pairs is equal to the plain set of the same pairs, and its len is its
    atom count."""

    __slots__ = ("by_parent",)

    def __init__(self, pairs=()):
        self.by_parent: dict[int, set] = {}
        for v0, v in pairs:
            self.update(v0, (v,))

    def update(self, v0: int, targets) -> None:
        """Add the atoms (v0, v) for every v of the non-empty targets."""
        group = self.by_parent.get(v0)
        if group is None:
            self.by_parent[v0] = set(targets)
        else:
            group.update(targets)

    def image(self) -> set:
        """The second-argument projection: the union of the groups."""
        return set().union(*self.by_parent.values())

    def __len__(self) -> int:
        return sum(map(len, self.by_parent.values()))

    def __iter__(self):
        for v0, targets in self.by_parent.items():
            for v in targets:
                yield v0, v

    def __contains__(self, pair) -> bool:
        try:
            v0, v = pair
        except (TypeError, ValueError):
            return False
        return v in self.by_parent.get(v0, ())

    def __eq__(self, other):
        if isinstance(other, Pairs):
            return self.by_parent == other.by_parent
        return Set.__eq__(self, other)

    def __repr__(self) -> str:
        return f"Pairs({sorted(self)})"


class AtomStore:
    """Derived atoms: a Pairs per materialized predicate, a node set per
    universal (dom-rule) predicate.  parents maps each head to the parent
    predicates of its rules (a builtin for a rule anchored at root or dom),
    which is what eliminate_aux follows."""

    def __init__(self, aux: frozenset, parents=None):
        self.pairs: dict[str, Pairs] = {}
        self.unary: dict[str, frozenset] = {}
        self.aux = frozenset(aux)
        self.parents: dict = parents or {}


def unary_query(store: AtomStore, pred: str) -> frozenset:
    if pred in store.unary:
        return store.unary[pred]
    if pred in store.pairs:
        return frozenset(store.pairs[pred].image())
    raise UnknownPredicate(f"no predicate {pred!r} in this store")


def dump_atoms(store: AtomStore) -> str:
    """The atoms as p(v0,v) lines in plain string order, built one parent
    at a time: a parent's lines, its targets in text order, make one block,
    and the blocks are sorted as text.  That is the order of the lines,
    since ',' and ')' sort below the digits and no line's 'p(v0,' prefix
    is a prefix of another parent's.

    Cost: per relation, one id-to-text conversion per distinct target, plus
    the per-parent sort.  A relation with more atoms than distinct targets
    turns its image into text once, in one map that each parent's targets
    are looked up in; one whose targets never repeat converts them as it
    goes."""
    blocks = []
    add = blocks.append
    for p, rel in store.pairs.items():
        groups = rel.by_parent
        text = str
        if len(groups) > 1:  # one parent's targets never repeat
            image = rel.image()
            if len(rel) > len(image):
                text = dict(zip(image, map(str, image))).__getitem__
        for v0, targets in groups.items():
            if len(targets) == 1:
                for v in targets:
                    add(f"{p}({v0},{v})")
            else:
                head = f"{p}({v0},"
                add(head + f")\n{head}".join(sorted(map(text, targets))) + ")")
    blocks.sort()
    return "\n".join(blocks)


@dataclass(slots=True)
class _Plan:
    """One rule compiled for one evaluation.

    ``nav`` is a chain rule's path automaton.  ``parent`` checks the
    conditions on the parent alone, once per parent and before navigating
    from it (None, with the conditions left in ``body``, when a regex range
    must see every parent's targets); ``body`` runs the rest of the rule's
    orientation at one target.  Both take a list of variable slots: the
    target in slot 0, the parent in slot 1, then the body's own variables
    (``pad`` holds their initial values).  Either is None when it has
    nothing to check.  ``targets`` gives a dom rule's targets: every
    node, or, when the rule's contains condition is derived in one pass,
    the nodes that hold it, with ``body`` left to check the rest.
    """

    rule: object
    nav: object = None
    parent: object = None
    body: object = None
    pad: tuple = ()
    targets: object = None

    def holds(self, v0, v: int) -> bool:
        """Whether the body holds at target v of parent v0."""
        return self.body([v, v0, *self.pad])


class _Eval:
    """Least fixpoint in the manner of Dowling and Gallier's linear Horn-SAT.

    Components of the predicate dependency graph run dependencies first,
    as the program's analysis lists them.  Each rule is planned once, when
    its component starts: its body becomes a fixed chain of checks and
    enumerations (see ``_orient``), and the conditions on the parent alone
    are checked once per parent, before navigating, unless a step or rule
    range is a regex.  Each (rule, parent) pair is expanded once, when the
    parent enters the image of the rule's parent predicate, and derives
    the targets its body holds at as one set (``_fire``).  A target whose
    body fails is filed under what its body found false among the
    component's own predicates: a reference atom p(_, v), or the whole of
    p where a reference enumerated p's image.  It is tried again only when
    one of those becomes true.  A nonrecursive component files nothing, so
    its evaluation is the single pass over its rules' parents.
    """

    def __init__(self, program: ElogProgram, tree: DocTree):
        self.analysis = program._analysis
        self.tree = tree
        self.universal = program.universal_preds()
        self.store = AtomStore(program.aux, self.analysis.parents)
        self._recursive = frozenset().union(
            *(comp for comp, recursive in self.analysis.components if recursive)
        )
        # per automaton, each node's hit list; no caller mutates one
        self._sub: defaultdict = defaultdict(dict)
        # second-argument projection of each predicate; a dom-rule
        # predicate's node set itself
        self._image: dict[str, set] = {p: set() for p in self.analysis.heads}
        self._live: frozenset = frozenset()  # the running recursive component
        self._watches: set = set()  # what the last body found false in it
        self._waiting: dict = {}  # watch -> [(plan, v0, v)] to try again
        self._work: list = []  # (pred, v): v is new in pred's image

    # -- relation access ----------------------------------------------------

    def _navigation(self, path):
        """The hits from a node along path, for a contains atom: a walk
        from the node.  The walks keep each node's list, so a node is
        walked once, and a walk takes over the kept list of a node nested
        in its start that it enters in the start state, whichever
        navigation kept it (see walk)."""
        aut, tree = compile_path(path), self.tree
        kept = self._sub[aut]
        return lambda v0: walk(tree, (v0,), aut, kept)[0]

    def parents_of(self, rule) -> list[int]:
        if rule.parent == "root":
            return [self.tree.root()]
        if rule.parent == "dom":
            return list(self.tree.nodes())
        return sorted(self._image[rule.parent])

    # -- planning -------------------------------------------------------------

    def _plan(self, rule, order: list) -> _Plan:
        """Compile the rule, given its orientation."""
        slot = {rule.v0var: 1, rule.xvar: 0}  # in p(X, X), X is the target
        for c, _ in order:
            for v in _cond_vars(c):
                slot.setdefault(v, len(slot))
        # Conditions on the parent alone are among the checks every target
        # starts with, before any reference, so failing once per parent
        # fails every target the same way, with no watch filed.  A contains
        # check ahead of one may raise a range error first: stop there.
        # A regex step or rule range may raise on any parent's targets, so
        # with one every parent is navigated and the checks stay in the body.
        on_parent = []
        if (
            isinstance(rule, ChainRule)
            and rule.v0var != rule.xvar
            and not isinstance(rule.rng, RawRegex)
            and not isinstance(rule.rule_range, RawRegex)
        ):
            for c, var in order:
                if var is not None or isinstance(c, (Contains, Ref)):
                    break
                if set(_cond_vars(c)) == {rule.v0var}:
                    on_parent.append(c)
        rest = [(c, var) for c, var in order if c not in on_parent]
        pad = (None,) * (len(slot) - 2)
        if isinstance(rule, ChainRule):
            return _Plan(
                rule,
                compile_path(rule.path),
                self._chain([(c, None) for c in on_parent], slot),
                self._chain(rest, slot),
                pad,
            )
        k = self._one_pass(rule, order)
        if k is None:
            return _Plan(rule, body=self._chain(order, slot), pad=pad,
                         targets=self.tree.nodes)
        # the checks on X run on the image; the atoms after contains never
        # mention X, so they test its Y alone
        c = order[k][0]
        y, after = slot[c.y], self._chain(order[k + 1 :], slot)

        def test(w: int) -> bool:
            if after is None:
                return True
            env = [None, None, *pad]
            env[y] = w
            return after(env)

        return _Plan(
            rule,
            body=self._chain(order[:k], slot),
            pad=pad,
            targets=lambda: holders(self.tree, c.path, c.rng, test),
        )

    def _one_pass(self, rule, order: list) -> int | None:
        """Where in its orientation a dom rule's image can come from one
        holders pass, or None: the rule is outside a recursive component,
        no range of it is a regex (so no range error depends on the order
        the nodes are tried in), the first atom to bind a variable is
        contains(X, Y) with a finite path or the * range, and no later atom
        mentions X."""
        if rule.head in self._recursive or isinstance(rule.rule_range, RawRegex):
            return None
        if any(isinstance(c, Contains) and isinstance(c.rng, RawRegex)
               for c in rule.conds):
            return None
        k = next((i for i, (_, var) in enumerate(order) if var), None)
        if k is None:
            return None
        c = order[k][0]
        if (
            isinstance(c, Contains)
            and c.x == rule.xvar
            and (isinstance(c.rng, StarRange) or is_finite(c.path))
            and all(rule.xvar not in _cond_vars(a) for a, _ in order[k + 1 :])
        ):
            return k
        return None

    def _chain(self, steps: list, slot: dict):
        """The steps compiled into one callable on slots, or None."""
        nxt = None
        for c, var in reversed(steps):
            nxt = self._step(c, var, slot, nxt)
        return nxt

    def _step(self, c, var, slot: dict, nxt):
        """One plan step: check atom c if var is None, else bind var to each
        value c allows; then go on to nxt, None at the end of the chain."""
        if var is None:
            test = self._test(c, slot)
            if nxt is None:
                return test
            return lambda env: test(env) and nxt(env)
        values, s = self._values(c, var, slot), slot[var]

        def bind(env) -> bool:
            for w in values(env):
                env[s] = w
                if nxt is None or nxt(env):
                    return True
            return False

        return bind

    def _test(self, c, slot: dict):
        """Whether atom c holds, its variables all bound."""
        t = self.tree
        if isinstance(c, Ref):
            x, image, pred = slot[c.var], self._image[c.pred], c.pred
            live, watches = pred in self._live, self._watches

            def ref(env) -> bool:
                v = env[x]
                if v in image:
                    return True
                if live:
                    watches.add((pred, v))
                return False

            return ref
        if isinstance(c, (Contains, FirstChild, NextSibling)):
            values, y = self._values(c, c.y, slot), slot[c.y]
            return lambda env: env[y] in values(env)
        x = slot[c.x]
        if isinstance(c, ContainsStr):
            equals, s = t.txt_equals, c.s
            return lambda env: equals(env[x], s)
        if isinstance(c, LastSibling):
            last = t.lastsibling
            return lambda env: last(env[x])
        if isinstance(c, Label):
            tags, tag = t.tags, c.tag
            return lambda env: tags[env[x]] == tag
        if isinstance(c, Root):
            root = t.root()
            return lambda env: env[x] == root
        raise TypeError(f"not a condition: {c!r}")

    def _values(self, c, var: str, slot: dict):
        """The values atom c allows var, the rest of its variables bound."""
        t = self.tree
        if isinstance(c, Ref):
            image, pred = self._image[c.pred], c.pred
            live, watches = pred in self._live, self._watches

            def members(env) -> list:
                if live:
                    watches.add((pred, None))
                return sorted(image)

            return members
        if isinstance(c, Label):
            nodes_labeled, tag = t.nodes_labeled, c.tag
            return lambda env: nodes_labeled(tag)
        if isinstance(c, Root):
            root = (t.root(),)
            return lambda env: root
        if isinstance(c, Contains):
            hits, rng, x = self._navigation(c.path), c.rng, slot[c.x]
            return lambda env: apply_range(hits(env[x]), rng)
        # firstchild and nextsibling give at most one value either way
        if var == c.y:
            x = slot[c.x]
            f = t.firstchild if isinstance(c, FirstChild) else t.nextsibling
        elif isinstance(c, FirstChild):
            x, parents = slot[c.y], t.parents

            def f(w):  # ids are preorder: a first child follows its parent
                return w - 1 if parents[w] == w - 1 else None
        else:
            x, f = slot[c.y], t.prevsibling

        def one(env) -> tuple:
            w = f(env[x])
            return () if w is None else (w,)

        return one

    # -- rule application ---------------------------------------------------

    def _fire(self, plan: _Plan, v0, targets) -> None:
        """Derive the head at the targets where the body holds, selected by
        the rule range if there is one, as one set; file the others under
        the watches their body recorded.  v0 is None for a dom rule, whose
        predicate keeps only its node set."""
        if plan.body is None:
            sat = targets
        else:
            holds, watches, sat = plan.holds, self._watches, []
            for v in targets:
                if holds(v0, v):
                    sat.append(v)
                elif watches:
                    for w in watches:
                        self._waiting.setdefault(w, []).append((plan, v0, v))
                watches.clear()
        rule = plan.rule
        if rule.rule_range is not None:
            sat = apply_range(sat, rule.rule_range)
        if not sat:
            return
        head = rule.head
        if v0 is not None:
            # a relation appears with its first atom: the order of the
            # relations decides which predicate a schema mismatch names
            rel = self.store.pairs.get(head)
            if rel is None:
                rel = self.store.pairs[head] = Pairs()
            rel.update(v0, sat)
        image = self._image[head]
        if self._live:
            work = self._work
            for v in sat:
                if v not in image:
                    image.add(v)
                    work.append((head, v))
        else:
            image.update(sat)

    def _expand(self, plan: _Plan, parents) -> None:
        """Apply the rule at parents, in id order; None for a dom rule.  A
        chain rule checks the conditions on the parent alone first, then
        walks the parents that pass at once, so that a parent's pass takes
        over the hits of a parent nested in it (see walk), sharing the
        automaton's kept lists.  It fires them in id order."""
        if parents is None:
            self._fire(plan, None, plan.targets())
            return
        if plan.parent is not None:
            parents = [v0 for v0 in parents if plan.parent([None, v0])]
        rng = plan.rule.rng
        lists = walk(self.tree, parents, plan.nav, self._sub[plan.nav])
        for v0, hits in zip(parents, lists):
            self._fire(plan, v0, apply_range(hits, rng))

    def _component(self, comp: frozenset) -> None:
        rules = self.analysis.rules
        plans = [self._plan(r, order) for p in sorted(comp) for r, order in rules[p]]
        triggered: dict[str, list] = {}  # pred -> plans it is the parent of
        for plan in plans:
            r = plan.rule
            if isinstance(r, DomRule):
                self._expand(plan, None)
                continue
            if r.parent in comp:
                triggered.setdefault(r.parent, []).append(plan)
            else:
                self._expand(plan, self.parents_of(r))
        work = self._work
        while work:
            pred, v = work.pop()
            for plan in triggered.get(pred, ()):
                self._expand(plan, [v])
            for key in ((pred, v), (pred, None)):
                for plan, v0, w in self._waiting.pop(key, ()):
                    self._fire(plan, v0, (w,))
        self._waiting.clear()

    def run(self) -> AtomStore:
        for comp, recursive in self.analysis.components:
            self._live = comp if recursive else frozenset()
            self._component(comp)
        for pred in self.analysis.heads:
            if pred in self.universal:
                self.store.unary[pred] = frozenset(self._image[pred])
            else:
                self.store.pairs.setdefault(pred, Pairs())
        return self.store


def eval_fixpoint(program: ElogProgram, tree: DocTree) -> AtomStore:
    return _Eval(program, tree).run()


# ---------------------------------------------------------------------------
# transformations


def monadic_collapse(program: ElogProgram) -> ElogProgram:
    """Add a companion p' per predicate p and point every body reference
    at the companions; the evaluator then only ever joins on second
    arguments, which is what makes the program monadic in spirit.  The
    companion's one rule, p'(X0, X) :- root(_, X0), subelem[_*][*](X0, X),
    p(_, X), derives p'(root, x) for each x in p's image, since _* matches
    every node, the root included."""
    if program.has_rule_ranges():
        raise HasRuleRanges("collapse is defined for range-free programs")
    heads = program.head_preds()
    taken = set(heads)
    comp = {}
    for p in heads:
        c = p + "'"
        while c in taken:
            c += "'"
        taken.add(c)
        comp[p] = c

    def rewrite(r):
        refs = tuple(Ref(comp[ref.pred], ref.var) for ref in r.refs)
        if isinstance(r, ChainRule) and r.parent not in BUILTINS:
            return replace(r, parent=comp[r.parent], refs=refs)
        return replace(r, refs=refs)

    rules = [rewrite(r) for r in program.rules]
    anywhere = parse_path("_*")
    rules.extend(
        ChainRule(comp[p], "X0", "X", "root", anywhere, StarRange(),
                  refs=(Ref(p, "X"),))
        for p in heads
    )
    aux = program.aux | frozenset(comp[p] for p in program.aux if p in comp)
    return ElogProgram(tuple(rules), aux)


def eliminate_aux(store: AtomStore) -> AtomStore:
    """Splice auxiliary atoms out of the parent chain.

    An atom p(b, c) hangs from the aux instance (q, b), the atoms q(_, b),
    of each aux parent predicate q of p (store.parents) that has one, and
    moves to that instance's anchors: following each q(a, b) up, a itself
    if q(a, b) stays at a, else the anchors of what q(a, b) hangs from.
    An atom stays where it is when a non-aux parent predicate holds at b
    (a builtin always does), or when it hangs from nothing.  Aux atoms are
    then dropped.  One iterative depth-first walk over the instances gives
    each its anchors after those of the instances it hangs from, and
    raises AuxCycle at a cycle of instances, such as q(a, a) where q is
    its own parent predicate.  The atoms of p at one parent b move together,
    as one target set, so the splice is linear in parents and instances
    apart from the anchor sets."""
    aux = store.aux
    ups = {p: [q for q in ps if q in aux] for p, ps in store.parents.items()}
    others = {p: [r for r in ps if r not in aux] for p, ps in store.parents.items()}
    sources: dict = {}  # instance (q, b) -> the nodes a of its q(a, b)
    for q in sorted(aux):
        for a, b in store.pairs.get(q, ()):
            sources.setdefault((q, b), []).append(a)
    images: dict = {}

    def holds(r: str, b: int) -> bool:
        if r in BUILTINS:
            return True
        if r not in images:
            rel = store.pairs.get(r)
            images[r] = store.unary.get(r, ()) if rel is None else rel.image()
        return b in images[r]

    anchors: dict = {}  # instance -> its anchors, set after its parents' anchors

    def home(p: str, bs) -> frozenset | None:
        """Where p's atoms at the parent nodes bs go; None while an
        instance they hang from has no anchors yet."""
        qs, rs, homes = ups.get(p, ()), others.get(p, ()), []
        for b in bs:
            n = len(homes)
            for q in qs:
                h = anchors.get((q, b))
                if h is not None:
                    homes.append(h)
                elif (q, b) in sources:
                    return None
            if len(homes) == n or rs and any(holds(r, b) for r in rs):
                homes.append(frozenset((b,)))
        return homes[0] if len(homes) == 1 else frozenset().union(*homes)

    entered: set = set()  # instances on the walk's path
    for top in sources:
        stack = [top]
        while stack:
            inst = stack[-1]
            if inst in anchors:
                stack.pop()
                continue
            xs = home(inst[0], sources[inst])
            if xs is not None:
                anchors[inst] = xs
                entered.discard(inst)
                stack.pop()
                continue
            todo = [
                (r, a) for r in ups[inst[0]] for a in sources[inst]
                if (r, a) in sources and (r, a) not in anchors
            ]
            if any(i in entered for i in todo):
                raise AuxCycle(f"auxiliary atoms form a cycle through node {inst[1]}")
            entered.add(inst)
            stack.extend(todo)

    out = AtomStore(frozenset(), store.parents)
    out.unary = dict(store.unary)
    for p, rel in store.pairs.items():
        if p in aux:
            continue
        kept = out.pairs[p] = Pairs()
        for b, cs in rel.by_parent.items():
            for x in home(p, (b,)):
                kept.update(x, cs)
    return out


# ---------------------------------------------------------------------------
# dot output


def to_dot(store: AtomStore, tree: DocTree) -> str:
    """The atoms as a graph: a node per document node that is the root, a
    parent or a target, labelled with the predicates whose image holds it,
    and one edge per (v0, v) pair, labelled with the predicates holding
    there."""
    marks: dict = {0: set()}  # shown node -> the predicates it is a target of
    edges: dict = {}  # (v0, v) -> the predicates holding there
    for p, rel in store.pairs.items():
        for v0, targets in rel.by_parent.items():
            marks.setdefault(v0, set())
            for v in targets:
                marks.setdefault(v, set()).add(p)
                edges.setdefault((v0, v), []).append(p)
    for p, nodes in store.unary.items():
        for v in nodes:
            marks.setdefault(v, set()).add(p)
    lines = ["digraph atoms {", "  rankdir=TB;"]
    for v in sorted(marks):
        label = f"{v}:{tree.label(v)}"
        if marks[v]:
            label += "\\n" + ",".join(sorted(marks[v]))
        lines.append(f'  n{v} [label="{label}"];')
    for (v0, v), preds in sorted(edges.items()):
        lines.append(f'  n{v0} -> n{v} [label="{",".join(sorted(preds))}"];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# complex-object rendering


def to_complex_object(store: AtomStore, schema, tree: DocTree):
    """Read the canonical complex object off the atom store, top down from
    the document root.  Every materialized atom must belong to a schema
    predicate; run eliminate_aux first."""
    allowed = set(ob.schema_predicates(schema))
    for pred, pairs in store.pairs.items():
        if pairs and pred not in allowed:
            raise SchemaMismatch(
                f"atoms of {pred!r} have no place in the schema"
            )
    groups = {p: store.pairs[p].by_parent for p in allowed if p in store.pairs}

    def render(node: ob.SetSchema, anchors: list) -> list:
        """The set's value at each of anchors.  Its elements are rendered
        once, at the members of all the anchors, so a record nested n deep
        takes n frames."""
        by = groups.get(node.pred, {})
        members = [[a] if node.pred is None else sorted(by.get(a, ())) for a in anchors]
        nodes, elem = sorted(set().union(*members)), node.elem
        if isinstance(elem, ob.RecordSchema):
            columns = []
            for e in elem.entries:  # a loop: one frame per level
                columns.append(render(e, nodes))
            values = zip(*columns)
        else:
            values = map(tree.txt, nodes)
        at = dict(zip(nodes, values))
        return [ob.SetVal([at[w] for w in m]) for m in members]

    return render(schema, [tree.root()])[0]


def run_pipeline(program: ElogProgram, tree: DocTree):
    """Evaluate, eliminate auxiliaries, and render if a schema is attached.
    Returns (store, value-or-None)."""
    store = eval_fixpoint(program, tree)
    if store.aux:
        store = eliminate_aux(store)
    if program.schema is not None:
        return store, to_complex_object(store, program.schema, tree)
    return store, None
