"""Head-and-conditions wrapper statements.

A statement names the nodes to extract with a construction chain whose
brackets may bind index variables, and restricts those bindings in a
trailing ``where`` clause.  Conditions repeat the chain's navigation up to
the variable they constrain, which is what makes them erasable: desugaring
deletes each condition's prefix through its rightmost variable, nests the
remainder at the patom that binds that variable, and drops the variables.
The result is a variable-free statement in the condition-chain dialect
(the rpn module's AST), where conditions filter nodes BEFORE the range
selects among them.

The variable-free form evaluates through the rpn module's walker,
``_follow``, with conditions first and the range second; a condition's
targets come from the same walker.  ``eval_vf`` keeps every navigated
node whose conditions hold.  ``eval_cut`` additionally treats
``!``-marked conditions as scan stoppers: once a navigated node violates
a marked condition, no later sibling match survives.  Condition paths are
expected to reach at most one node; by default a wider set is an error, in
lenient mode it degrades to an existential check and a warning.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from . import rpn
from .doctree import DocTree
from .objects import SetVal
from .pathrange import Range, StarRange, parse_range, range_to_text


class HelError(Exception):
    pass


class HelSyntaxError(HelError):
    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"at {pos}: {message}"
        super().__init__(message)
        self.pos = pos


class VarUsedTwice(HelError):
    pass


class VarUnbound(HelError):
    pass


class PrefixMismatch(HelError):
    pass


class SingleValueViolation(HelError):
    pass


class SingleValueWarning(UserWarning):
    pass


_RESERVED = {"txt", "where", "and", "last", "regex"}


# ---------------------------------------------------------------------------
# AST: only statements with variables live here; desugaring and the .vhel
# parser both produce the rpn module's Chain/Txt/Record shape.


@dataclass(frozen=True)
class HelPatom:
    tag: str
    var: str | None = None
    rng: Range | None = None  # None: written without a range


@dataclass(frozen=True)
class HelStep:
    axis: str  # "child" | "descendant"
    patom: HelPatom


@dataclass(frozen=True)
class PseqTxt:
    steps: tuple  # of HelStep, nonempty


@dataclass(frozen=True)
class PseqRecord:
    steps: tuple  # of HelStep, nonempty
    entries: tuple  # of PseqTxt | PseqRecord, n >= 2


@dataclass(frozen=True)
class HelCond:
    steps: tuple  # of HelStep, nonempty
    rhs: str


@dataclass(frozen=True)
class HelStatement:
    cc: object  # PseqTxt | PseqRecord
    where: tuple = ()  # of HelCond


# ---------------------------------------------------------------------------
# concrete syntax


class _HelParser(rpn._StmtParser):
    """Borrows the low-level cursor helpers; the grammar is its own."""

    def __init__(self, text: str):
        super().__init__(text, "vhel")

    def statement(self) -> HelStatement:
        cc = self.cc()
        where: tuple = ()
        if self.at_word("where"):
            self.pos += 5
            conds = [self.cond()]
            while self.at_word("and"):
                self.pos += 3
                conds.append(self.cond())
            where = tuple(conds)
        self.eat(";")
        self.ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return HelStatement(cc, where)

    def cc(self):
        steps = self.steps(in_condition=False)
        if self.peek() == "(":
            inside = self.balanced("(", ")")
            entries = tuple(
                _HelParser(part).cc_entry() for part in rpn.split_entries(inside)
            )
            if len(entries) < 2:
                self.error("a record needs at least two '#'-separated entries")
            return PseqRecord(steps, entries)
        self.eat(".")
        if not self.at_word("txt"):
            self.error("expected 'txt'")
        self.pos += 3
        return PseqTxt(steps)

    def cc_entry(self):
        node = self.cc()
        self.ws()
        if self.pos != len(self.text):
            self.error("trailing input in record entry")
        return node

    def cond(self) -> HelCond:
        steps = self.steps(in_condition=True)
        self.eat(".")
        if not self.at_word("txt"):
            self.error("expected 'txt'")
        self.pos += 3
        self.eat("=")
        return HelCond(steps, self.string())

    def steps(self, in_condition: bool) -> tuple:
        out = []
        while True:
            axis = "child"
            if self.peek(2) == "->":
                self.eat("->")
                axis = "descendant"
            elif out:
                break
            out.append(HelStep(axis, self.patom()))
            while self.peek() == ".":
                save = self.pos
                self.eat(".")
                if self.at_word("txt"):
                    self.pos = save
                    return tuple(out)
                out.append(HelStep("child", self.patom()))
            if self.peek() == "(" and in_condition:
                self.error("records may not appear in conditions")
        return tuple(out)

    def patom(self) -> HelPatom:
        tag = self.tag()
        if tag in _RESERVED:
            self.error(f"{tag!r} is reserved")
        var = None
        rng = None
        if self.peek() == "[":
            inside = self.balanced("[", "]").strip()
            head, sep, tail = inside.partition(":")
            head = head.strip()
            if sep and head != "regex":
                if not _is_var(head):
                    self.error(f"bad index variable {head!r}")
                var, rng = head, parse_range(tail.strip())
            elif _is_var(inside):
                var = inside
            else:
                rng = parse_range(inside)
        return HelPatom(tag, var, rng)


def _is_var(s: str) -> bool:
    return s.isidentifier() and s not in _RESERVED


def parse_hel(text: str) -> HelStatement:
    if not text.strip():
        raise HelSyntaxError("empty statement")
    try:
        return _HelParser(text).statement()
    except rpn.RpnSyntaxError as e:
        raise HelSyntaxError(str(e)) from None


def parse_vhel(text: str):
    """Variable-free statements share the rpn AST; a trailing ';' is
    allowed, '!' cut marks and '->' steps are part of this dialect."""
    stripped = text.strip()
    if stripped.endswith(";"):
        stripped = stripped[:-1]
    try:
        return rpn.parse_statement(stripped, "vhel")
    except rpn.RpnSyntaxError as e:
        raise HelSyntaxError(str(e)) from None


def _patom_text(p: HelPatom) -> str:
    out = p.tag
    if p.var is not None and p.rng is not None:
        out += f"[{p.var}:{range_to_text(p.rng)}]"
    elif p.var is not None:
        out += f"[{p.var}]"
    elif p.rng is not None:
        out += f"[{range_to_text(p.rng)}]"
    return out


def steps_to_text(steps) -> str:
    parts = []
    for k, st in enumerate(steps):
        sep = "->" if st.axis == "descendant" else ("." if k else "")
        parts.append(sep + _patom_text(st.patom))
    return "".join(parts)


def hel_to_text(stmt: HelStatement) -> str:
    def cc_text(cc) -> str:
        if isinstance(cc, PseqTxt):
            return steps_to_text(cc.steps) + ".txt"
        inner = " # ".join(cc_text(e) for e in cc.entries)
        return steps_to_text(cc.steps) + "(" + inner + ")"

    out = cc_text(stmt.cc)
    if stmt.where:
        out += " where " + " and ".join(
            steps_to_text(c.steps) + ".txt = " + json.dumps(c.rhs, ensure_ascii=False)
            for c in stmt.where
        )
    return out + ";"


def vhel_to_text(stmt) -> str:
    return rpn.statement_to_text(stmt, "vhel") + ";"


# ---------------------------------------------------------------------------
# variables: binding paths, validation, desugaring


def cc_step_paths(cc) -> list[tuple]:
    """Every root-to-leaf concatenation of steps, one record entry each."""
    if isinstance(cc, PseqTxt):
        return [cc.steps]
    out = []
    for e in cc.entries:
        out.extend(cc.steps + p for p in cc_step_paths(e))
    return out


def _cc_vars(cc) -> list[str]:
    if isinstance(cc, PseqTxt):
        return [s.patom.var for s in cc.steps if s.patom.var]
    out = [s.patom.var for s in cc.steps if s.patom.var]
    for e in cc.entries:
        out.extend(_cc_vars(e))
    return out


def validate_vars(stmt: HelStatement) -> None:
    seen = set()
    for v in _cc_vars(stmt.cc):
        if v in seen:
            raise VarUsedTwice(f"index variable {v!r} is bound twice")
        seen.add(v)
    paths = cc_step_paths(stmt.cc)
    for cond in stmt.where:
        var_positions = [
            j for j, st in enumerate(cond.steps) if st.patom.var is not None
        ]
        if not var_positions:
            raise PrefixMismatch(
                f"condition {steps_to_text(cond.steps)!r} binds no index variable"
            )
        for j in var_positions:
            v = cond.steps[j].patom.var
            if v not in seen:
                raise VarUnbound(f"index variable {v!r} is not bound in the chain")
        k = max(var_positions)
        prefix = cond.steps[: k + 1]
        if not any(_prefix_matches(prefix, p) for p in paths):
            raise PrefixMismatch(
                f"condition prefix {steps_to_text(prefix)!r} repeats no "
                "chain path up to its rightmost variable"
            )


def _prefix_matches(prefix: tuple, path: tuple) -> bool:
    """Tags, axes and variable positions (with names) must coincide;
    plain ranges are navigation detail and stay out of the comparison."""
    if len(path) < len(prefix):
        return False
    return all(
        a.axis == b.axis
        and a.patom.tag == b.patom.tag
        and a.patom.var == b.patom.var
        for a, b in zip(prefix, path)
    )


def _step_to_rpn(st: HelStep, conds: tuple = ()) -> rpn.Patom:
    path = rpn.tag_path(st.patom.tag)
    if st.axis == "descendant":
        path = rpn._descendant(st.patom.tag)
    return rpn.Patom(path, st.patom.rng or StarRange(), conds)


def desugar(stmt: HelStatement):
    """Erase the variables: each condition becomes a nested condition chain
    at the patom binding its rightmost variable."""
    validate_vars(stmt)
    pending: dict = {}
    for cond in stmt.where:
        k = max(j for j, st in enumerate(cond.steps) if st.patom.var is not None)
        node: object = rpn.TxtEq(cond.rhs)
        for st in reversed(cond.steps[k + 1 :]):
            node = rpn.CondChain(_step_to_rpn(st), node)
        pending.setdefault(cond.steps[k].patom.var, []).append(node)

    def convert_steps(steps, terminal):
        node = terminal
        for st in reversed(steps):
            conds = tuple(pending.pop(st.patom.var, ())) if st.patom.var else ()
            node = rpn.Chain(_step_to_rpn(st, conds), node)
        return node

    def convert(cc):
        if isinstance(cc, PseqTxt):
            return convert_steps(cc.steps, rpn.Txt())
        entries = tuple(convert(e) for e in cc.entries)
        return convert_steps(cc.steps, rpn.Record(entries))

    return convert(stmt.cc)


# ---------------------------------------------------------------------------
# evaluation of the variable-free form


def _vf_holds(strict: bool):
    """The condition semantics of the variable-free form: the condition's
    chain should reach at most one node, whose text must equal the string."""

    def holds(tree: DocTree, v: int, cond) -> bool:
        targets, end = rpn._follow(cond, tree, [v], holds, False, False)
        if len(targets) > 1:
            detail = (
                f"condition path reaches {len(targets)} nodes under node {v}; "
                "it should reach at most one"
            )
            if strict:
                raise SingleValueViolation(detail)
            warnings.warn(detail, SingleValueWarning, stacklevel=3)
            return any(tree.txt_equals(u, end.s) for u in targets)
        return bool(targets) and tree.txt_equals(targets[0], end.s)

    return holds


def eval_vf(stmt, tree: DocTree, v: int | None = None, strict: bool = True) -> SetVal:
    """Conditions filter the navigated nodes first, the range selects among
    the survivors.  Cut marks are ignored here."""
    return rpn._evaluate(stmt, tree, v, _vf_holds(strict), range_first=False, cut=False)


def eval_cut(stmt, tree: DocTree, v: int | None = None, strict: bool = True) -> SetVal:
    """Like eval_vf, but a node violating a '!'-marked condition stops the
    scan: no later navigated node survives, whatever its own conditions."""
    return rpn._evaluate(stmt, tree, v, _vf_holds(strict), range_first=False, cut=True)


def has_cut(stmt) -> bool:
    if isinstance(stmt, rpn.Record):
        return any(has_cut(e) for e in stmt.entries)
    if isinstance(stmt, rpn.Chain):
        return any(c.cut for c in stmt.patom.conds) or has_cut(stmt.rest)
    return False


# ---------------------------------------------------------------------------
# translation


def translate_vf(stmt):
    """Datalog with each selecting range lifted to the rule level, so it
    runs after the condition references, matching the evaluator's order.
    All-star statements translate exactly as the path-expression dialect."""
    if has_cut(stmt):
        raise ValueError("cut marks have no datalog counterpart")
    return rpn._translate(stmt, lift_ranges=True)
