"""Head-and-conditions wrapper statements.

A statement names the nodes to extract with a construction chain whose
brackets may bind index variables, and restricts those bindings in a
trailing ``where`` clause.  The rpn module's statement parser reads both,
in its variable dialect, into the shared AST: the chain and each
condition are an ``rpn.Chain``, whose patoms carry the variables.
Conditions repeat the chain's navigation up to the variable they
constrain, which is what makes them erasable: desugaring deletes each
condition's prefix through its rightmost variable, nests the remainder at
the patom that binds that variable, and drops the variables.  The result
is a variable-free statement in the condition-chain dialect, where
conditions filter nodes BEFORE the range selects among them.

The variable-free form evaluates through the rpn module's walker, with
conditions first and the range second; a condition's targets come from
the same walker, which follows its chain from all the nodes it is asked
at at once.  ``eval_vf`` keeps every navigated node whose conditions
hold.  ``eval_cut`` additionally treats ``!``-marked conditions as scan
stoppers: once a navigated node violates a marked condition, no later
sibling match survives.  Condition paths are expected to reach at most
one node; by default a wider set is an error, in lenient mode it
degrades to an existential check and a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from . import rpn
from .doctree import DocTree
from .objects import SetVal
from .pathrange import TextError


class HelError(Exception):
    pass


class HelSyntaxError(TextError, HelError):
    pass


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


@dataclass(frozen=True)
class HelStatement:
    chain: rpn.Chain  # whose patoms may bind index variables
    where: tuple = ()  # of condition rpn.Chains, each binding some variable


def parse_hel(text: str) -> HelStatement:
    """A statement of the variable dialect: a chain, then optionally
    'where' and conditions joined by 'and', then ';'."""
    if not text.strip():
        raise HelSyntaxError("empty statement")
    p = rpn._StmtParser(text, "hel")
    try:
        chain = p._chain(cond=False)
        where: tuple = ()
        if p.at_word("where"):
            p.pos += 5
            where = p.conditions()
        p.eat(";")
        p.end()
    except rpn.RpnSyntaxError as e:
        raise HelSyntaxError(e.reason, e.pos) from None
    return HelStatement(chain, where)


def parse_vhel(text: str):
    """Variable-free statements share the rpn AST; a trailing ';' is
    allowed, '!' cut marks and '->' steps are part of this dialect."""
    try:
        return rpn.parse_statement(text.rstrip().removesuffix(";"), "vhel")
    except rpn.RpnSyntaxError as e:
        raise HelSyntaxError(e.reason, e.pos) from None


def vhel_to_text(stmt) -> str:
    return rpn.statement_to_text(stmt, "vhel") + ";"


# ---------------------------------------------------------------------------
# variables: bindings, validation, desugaring


def _patoms(chain: rpn.Chain):
    """The patoms of a statement, record entries included, or of a
    condition, in text order."""
    yield from chain.patoms
    if isinstance(chain.end, rpn.Record):
        for e in chain.end.entries:
            yield from _patoms(e)


def _cond_text(cond) -> str:
    return rpn.statement_to_text(cond, "vhel")


def desugar(stmt: HelStatement):
    """Erase the variables: each condition must repeat the chain's steps
    from the root through the step binding its rightmost variable, in tags,
    axes and variables (plain ranges are navigation detail); its remainder
    after that variable becomes a condition of the binding step."""
    bound: dict = {}  # variable -> the chain's patoms from the root through its binder

    def bind(chain: rpn.Chain, above: tuple) -> None:  # in text order
        for i, pa in enumerate(chain.patoms):
            if pa.var is not None:
                if pa.var in bound:
                    raise VarUsedTwice(f"index variable {pa.var!r} is bound twice")
                bound[pa.var] = above + chain.patoms[: i + 1]
        if isinstance(chain.end, rpn.Record):
            for e in chain.end.entries:
                bind(e, above + chain.patoms)

    bind(stmt.chain, ())
    pending: dict = {}
    for cond in stmt.where:
        at = [j for j, pa in enumerate(cond.patoms) if pa.var is not None]
        if not at:
            raise PrefixMismatch(f"condition {_cond_text(cond)!r} binds no index variable")
        for pa in cond.patoms:
            if pa.var is not None and pa.var not in bound:
                raise VarUnbound(f"index variable {pa.var!r} is not bound in the chain")
        i, var = at[-1], cond.patoms[at[-1]].var
        prefix = bound[var]
        if len(prefix) != i + 1 or any(
            a.path != b.path or a.var != b.var for a, b in zip(cond.patoms, prefix)
        ):
            raise PrefixMismatch(
                f"condition {_cond_text(cond)!r} repeats no chain path up to its "
                "rightmost variable"
            )
        remainder = rpn.Chain(cond.patoms[i + 1 :], cond.end)
        pending.setdefault(var, []).append(remainder)

    def erase(chain: rpn.Chain) -> rpn.Chain:
        end = chain.end
        if isinstance(end, rpn.Record):
            end = rpn.Record(tuple(erase(e) for e in end.entries))
        return rpn.Chain(tuple(
            pa if pa.var is None
            else replace(pa, var=None, conds=tuple(pending.pop(pa.var, ())))
            for pa in chain.patoms
        ), end)

    return erase(stmt.chain)


# ---------------------------------------------------------------------------
# evaluation of the variable-free form


def _too_many(strict: bool, v: int, n: int) -> Exception:
    """The answer of a condition whose chain reaches n > 1 nodes from v:
    the violation, or in lenient mode the warning given where the answer is
    asked, which is then whether one of the nodes has the text."""
    detail = (
        f"condition path reaches {n} nodes under node {v}; "
        "it should reach at most one"
    )
    return SingleValueViolation(detail) if strict else SingleValueWarning(detail)


def eval_vf(stmt, tree: DocTree, v: int | None = None, strict: bool = True) -> SetVal:
    """Conditions filter the navigated nodes first, the range selects among
    the survivors.  Cut marks are ignored here."""
    return rpn._evaluate(stmt, tree, v, partial(_too_many, strict))


def eval_cut(stmt, tree: DocTree, v: int | None = None, strict: bool = True) -> SetVal:
    """Like eval_vf, but a node violating a '!'-marked condition stops the
    scan: no later navigated node survives, whatever its own conditions."""
    return rpn._evaluate(stmt, tree, v, partial(_too_many, strict), cut=True)


def has_cut(stmt: rpn.Chain) -> bool:
    return any(c.cut for pa in _patoms(stmt) for c in pa.conds)


# ---------------------------------------------------------------------------
# translation


def translate_vf(stmt):
    """Datalog with each selecting range lifted to the rule level, so it
    runs after the condition references, matching the evaluator's order.
    All-star statements translate exactly as the path-expression dialect."""
    if has_cut(stmt):
        raise ValueError("cut marks have no datalog counterpart")
    return rpn._translate(stmt, lift_ranges=True)
