"""Brute-force oracles and random generators for the differential suites.

Everything here is deliberately independent of the engine modules: the only
package import is the document model.  Statement and path ASTs produced by
the real parsers are consumed structurally (by class name and fields), the
regex matcher is a recursive derivative matcher rather than an automaton,
ranges are selected by direct enumeration, and results are plain Python
values (str, tuple for records, frozenset for sets) so that comparisons
against engine output go through a conversion the engine side owns.

Generators emit wrapper *text*, which the tests then feed to the real
parsers; this keeps the generator usable without importing them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .doctree import (
    _ATTRS, _NAME, ROOT_TAG, TEXT_TAG, DocTree, MalformedInput, _reject_tag,
)

DOC1 = (
    "<html><body><table>"
    "<tr><td>item</td><td>A</td></tr>"
    "<tr><td>x</td><td>B</td></tr>"
    "<tr><td>item</td><td>C</td></tr>"
    "</table></body></html>"
)


def parity_oracle(tree: DocTree) -> bool:
    """True iff the top element has an even number of children."""
    return len(tree.children(tree.top_element())) % 2 == 0


def bchain_doc(m: int, n: int) -> str:
    """m nested b elements; the innermost holds n childless l leaves."""
    leaves = "<l/>" * n
    return "<b>" * m + leaves + "</b>" * m


def items_doc(k: int) -> str:
    """A list element with k text-carrying item children."""
    return "<list>" + "".join(f"<i>t{j}</i>" for j in range(k)) + "</list>"


# ---------------------------------------------------------------------------
# document parsing one tag at a time (own loop and tag matchers; the name and
# attribute syntax and the bad-tag errors are doctree's)

_OPEN_TAG = re.compile(rf"<({_NAME})(?![^\s/>]){_ATTRS}?(/?)>")
_CLOSE_TAG = re.compile(rf"</({_NAME})\s*>")


def naive_parse_document(source: str) -> DocTree:
    """parse_document's oracle: at each offset, a text run, an open tag, a
    close tag, a comment or a declaration is matched on its own."""
    tags, parents, texts, ends = [ROOT_TAG], [None], [""], [0]
    stack = [0]  # open elements, root at bottom: no element is open at 0
    count = 1  # nodes so far
    i = 0
    n = len(source)
    open_tag, close_tag = _OPEN_TAG.match, _CLOSE_TAG.match

    while i < n:
        if source[i] != "<":
            j = source.find("<", i)
            if j < 0:
                j = n
            run = source[i:j]
            parent = stack[-1]
            if not parent:
                if run.strip():
                    raise MalformedInput("text outside the top-level element", i)
            else:
                tags.append(TEXT_TAG)
                parents.append(parent)
                texts.append(run)
                ends.append(count)
                count += 1
            i = j
            continue
        m = open_tag(source, i)
        if m is not None:
            parent = stack[-1]
            if not parent and count > 1:
                raise MalformedInput("more than one top-level element", i)
            nid = count
            count += 1
            tags.append(m[1].lower())
            parents.append(parent)
            texts.append("")
            ends.append(nid)
            if not m[2]:
                stack.append(nid)
            i = m.end()
            continue
        m = close_tag(source, i)
        if m is not None:
            tag = m[1].lower()
            v = stack[-1]
            if not v:
                raise MalformedInput(f"unmatched close tag </{tag}>", i)
            if tags[v] != tag:
                raise MalformedInput(
                    f"close tag </{tag}> does not match open <{tags[v]}>", i
                )
            stack.pop()
            ends[v] = count - 1
            i = m.end()
            continue
        if source.startswith("<!--", i):
            end = source.find("-->", i + 4)
            if end < 0:
                raise MalformedInput("unterminated comment", i)
            i = end + 3
        elif source.startswith("<!", i):
            end = source.find(">", i)
            if end < 0:
                raise MalformedInput("unterminated declaration", i)
            i = end + 1
        else:
            _reject_tag(source, i)

    if len(stack) > 1:
        raise MalformedInput(f"unclosed element <{tags[stack[-1]]}>", n)
    if count == 1:
        raise MalformedInput("empty document", 0)
    ends[0] = count - 1
    return DocTree(tags, parents, texts, ends)


def edit_doc(source: str, rng: random.Random) -> str:
    """source after one or two seeded edits: an insert of a character that
    matters to the tag syntax, a delete, or a truncation."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randint(0, len(source))
        op = rng.random()
        if op < 0.45:
            source = source[:i] + rng.choice("<>/!-\"'= aAbB1\n") + source[i:]
        elif op < 0.9:
            source = source[:i] + source[i + 1:]
        else:
            source = source[:i]
    return source


def edit_wrapper(source: str, rnd: random.Random, chars: str, words: tuple) -> str:
    """source after one to three seeded edits: an insert of one of chars, a
    delete, or one of words put in place of another found in source."""
    found = "|".join(re.escape(w) for w in sorted(words, key=len, reverse=True))
    for _ in range(rnd.randint(1, 3)):
        i = rnd.randint(0, len(source))
        op = rnd.random()
        spans = [m.span() for m in re.finditer(found, source)]
        if op < 0.4:
            source = source[:i] + rnd.choice(chars) + source[i:]
        elif op < 0.8 or not spans:
            source = source[:i] + source[i + 1:]
        else:
            a, b = rnd.choice(spans)
            source = source[:a] + rnd.choice(words) + source[b:]
    return source


# ---------------------------------------------------------------------------
# derivative-based regex matching (own representation, own code path)

_EMPTY = ("empty",)
_EPS = ("eps",)


def _cat(parts) -> tuple:
    flat = []
    for p in parts:
        if p == _EMPTY:
            return _EMPTY
        if p == _EPS:
            continue
        if p[0] == "cat":
            flat.extend(p[1])
        else:
            flat.append(p)
    if not flat:
        return _EPS
    if len(flat) == 1:
        return flat[0]
    return ("cat", tuple(flat))


def _alt(parts) -> tuple:
    flat = []
    for p in parts:
        if p == _EMPTY:
            continue
        if p[0] == "alt":
            flat.extend(q for q in p[1] if q not in flat)
        elif p not in flat:
            flat.append(p)
    if not flat:
        return _EMPTY
    if len(flat) == 1:
        return flat[0]
    return ("alt", tuple(flat))


def _star(r) -> tuple:
    if r in (_EMPTY, _EPS):
        return _EPS
    if r[0] == "star":
        return r
    return ("star", r)


def convert_regex(ast) -> tuple:
    """Engine path AST -> internal tuple form, by structure only."""
    kind = type(ast).__name__
    if kind == "Atom":
        return ("atom", ast.tag)
    if kind == "Wildcard":
        return ("any",)
    if kind == "Epsilon":
        return _EPS
    if kind == "Concat":
        return _cat([convert_regex(i) for i in ast.items])
    if kind == "Alt":
        return _alt([convert_regex(i) for i in ast.items])
    if kind == "Star":
        return _star(convert_regex(ast.item))
    raise TypeError(f"unrecognized path node {ast!r}")


def _nullable(r) -> bool:
    k = r[0]
    if k in ("eps", "star"):
        return True
    if k in ("empty", "atom", "any"):
        return False
    if k == "cat":
        return all(_nullable(p) for p in r[1])
    if k == "alt":
        return any(_nullable(p) for p in r[1])
    raise TypeError(r)


def _deriv(r, a: str) -> tuple:
    k = r[0]
    if k == "atom":
        return _EPS if r[1] == a else _EMPTY
    if k == "any":
        return _EPS
    if k in ("eps", "empty"):
        return _EMPTY
    if k == "cat":
        head, rest = r[1][0], _cat(r[1][1:])
        d = _cat([_deriv(head, a), rest])
        if _nullable(head):
            return _alt([d, _deriv(rest, a)])
        return d
    if k == "alt":
        return _alt([_deriv(p, a) for p in r[1]])
    if k == "star":
        return _cat([_deriv(r[1], a), r])
    raise TypeError(r)


def naive_subelem(tree: DocTree, v0: int, path) -> list[int]:
    """Walk every downward path from v0 explicitly, carrying the regex's
    derivative by the labels read so far; document order.  path is an engine
    AST or internal tuple form."""
    r = path if isinstance(path, tuple) else convert_regex(path)
    out = [v0] if _nullable(r) else []
    stack = [(c, r) for c in tree.children(v0)]
    while stack:
        v, r = stack.pop()
        r = _deriv(r, tree.label(v))
        if r == _EMPTY:
            continue  # no extension of this word matches either
        if _nullable(r):
            out.append(v)
        stack.extend((c, r) for c in tree.children(v))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# naive range selection (direct enumeration; raw regexes by derivatives)

RAW_PROBE = 64  # range regexes are checked for lengths below this at parse time


def naive_positions(rng, k: int) -> list[int]:
    kind = type(rng).__name__
    if kind == "StarRange":
        return list(range(k))
    if kind == "Index":
        return [rng.i] if rng.i < k else []
    if kind == "Interval":
        return [p for p in range(rng.lo, rng.hi + 1) if p < k]
    if kind == "IntervalUnion":
        picked = set()
        for lo, hi in rng.intervals:
            picked.update(p for p in range(lo, hi + 1) if p < k)
        return sorted(picked)
    if kind == "Last":
        return [k - 1] if k else []
    if kind == "RawRegex":
        count, word = _words_of_length(convert_regex(rng.pattern), k)
        if count == 0:
            if k >= RAW_PROBE:
                return []  # longer than any length checked at parse time
            raise NoWordOfLength(f"no word of length {k}")
        if count > 1:
            raise MultipleWords(f"several words of length {k}")
        return [i for i, c in enumerate(word) if c == "1"]
    raise TypeError(f"unrecognized range {rng!r}")


def _words_of_length(r, k: int) -> tuple:
    """How many 01-words of length k r matches, counted up to two, and one
    of them.  Each derivative reached after i symbols carries how many
    prefixes reach it (up to two) and one such prefix."""
    reach = {r: (1, "")}
    for _ in range(k):
        nxt: dict = {}
        for d, (n, w) in reach.items():
            for a in "01":
                e = _deriv(d, a)
                if e != _EMPTY:
                    m, u = nxt.get(e, (0, w + a))
                    nxt[e] = (min(2, m + n), u)
        reach = nxt
    count, word = 0, None
    for d, (n, w) in reach.items():
        if _nullable(d):
            count, word = min(2, count + n), w
    return count, word


class NoWordOfLength(ValueError):
    """The oracle's counterpart of the engine's error of the same name."""


class MultipleWords(ValueError):
    """The oracle's counterpart of the engine's error of the same name."""


def naive_select(seq: list, rng) -> list:
    return [seq[i] for i in naive_positions(rng, len(seq))]


# ---------------------------------------------------------------------------
# naive statement evaluators (plain-value results)


def _plain_union(parts) -> frozenset:
    out: set = set()
    for p in parts:
        out |= p
    return frozenset(out)


def _naive_txt(tree: DocTree, v: int) -> str:
    return "".join(tree.text_of(w) for w in [v, *tree.descendants(v)])


def _conds_hold(tree: DocTree, v: int, conds) -> bool:
    return all(_naive_cond(tree, v, c) for c in conds)


def _naive_cond(tree: DocTree, v: int, cond, i: int = 0) -> bool:
    """Whether cond holds at v from its path atom i on."""
    if i == len(cond.patoms):
        return _naive_txt(tree, v) == cond.end.s
    pa = cond.patoms[i]
    hits = naive_select(naive_subelem(tree, v, pa.path), pa.range)
    return any(
        _conds_hold(tree, w, pa.conds) and _naive_cond(tree, w, cond, i + 1)
        for w in hits
    )


def naive_rpn(tree: DocTree, stmt, v: int | None = None, i: int = 0):
    """Direct transcription of the path-expression semantics: the range is
    applied to the navigation result first, conditions filter afterwards.
    i skips the statement's first path atoms."""
    if v is None:
        v = tree.root()
    if i == len(stmt.patoms):
        if type(stmt.end).__name__ == "Record":
            return frozenset({tuple(naive_rpn(tree, e, v) for e in stmt.end.entries)})
        return frozenset({_naive_txt(tree, v)})
    pa = stmt.patoms[i]
    sel = naive_select(naive_subelem(tree, v, pa.path), pa.range)
    keep = [w for w in sel if _conds_hold(tree, w, pa.conds)]
    return _plain_union(naive_rpn(tree, stmt, w, i + 1) for w in keep)


def naive_helvf(
    tree: DocTree, stmt, v: int | None = None, cut: bool = False, i: int = 0
):
    """Direct transcription of the variable-free semantics: conditions
    filter the navigation result first, then the range selects.  With cut,
    the scan over the navigated nodes stops after the first one that fails
    a '!'-marked condition.  i skips the statement's first path atoms."""
    if v is None:
        v = tree.root()
    if i == len(stmt.patoms):
        if type(stmt.end).__name__ == "Record":
            entries = stmt.end.entries
            return frozenset({tuple(naive_helvf(tree, e, v, cut) for e in entries)})
        return frozenset({_naive_txt(tree, v)})
    pa, hits = stmt.patoms[i], []
    for w in naive_subelem(tree, v, pa.path):
        failed = [c for c in pa.conds if not _naive_cond(tree, w, c)]
        if not failed:
            hits.append(w)
        if cut and any(c.cut for c in failed):
            break
    sel = naive_select(hits, pa.range)
    return _plain_union(naive_helvf(tree, stmt, w, cut, i + 1) for w in sel)


def naive_cut(tree: DocTree, stmt, v: int | None = None):
    """The cut semantics of '!'-marked conditions, lenient: see naive_helvf."""
    return naive_helvf(tree, stmt, v, cut=True)


# ---------------------------------------------------------------------------
# naive aux elimination (a worklist closure over triples)


class AuxCycle(Exception):
    """The oracle's counterpart of the engine's aux-cycle error."""


def naive_eliminate_aux(pairs: dict, aux, parents: dict) -> dict:
    """Close the hangs-from relation over aux instances, then move every
    non-aux atom to the anchors of the instances it hangs from.

    An instance (q, b) is an aux predicate q with a target node b.  An
    atom of p at parent node b hangs from (q, b) for each aux parent
    predicate q of p (parents maps heads to them) that has that instance;
    it stays at b when a non-aux parent holds at b ('root' and 'dom'
    always do) or when it hangs from nothing.  An instance's anchors are
    the nodes a of its atoms q(a, b) that stay at a, and those of every
    instance it reaches.  pairs maps each predicate to its (v0, v) set;
    returns the same shape without the aux predicates."""
    aux = frozenset(aux)
    triples = {(p, a, b) for p in pairs for a, b in pairs[p]}
    instances = {(p, b) for p, _, b in triples if p in aux}
    targets = {(p, b) for p, _, b in triples}

    def hangs(p, b):
        ps = parents.get(p, ())
        up = {(q, b) for q in ps if (q, b) in instances}
        stay = not up or any(
            r not in aux and (r in ("root", "dom") or (r, b) in targets)
            for r in ps
        )
        return stay, up

    direct = {i: set() for i in instances}  # anchors at the instance itself
    reach = {i: set() for i in instances}  # instances it hangs from, closed below
    for q, a, b in triples:
        if q in aux:
            stay, up = hangs(q, a)
            if stay:
                direct[q, b].add(a)
            reach[q, b] |= up
    changed = True
    while changed:
        changed = False
        for i in instances:
            more = set().union(*(reach[j] for j in reach[i])) - reach[i]
            if more:
                reach[i] |= more
                changed = True
    for q, b in sorted(instances):
        if (q, b) in reach[q, b]:
            raise AuxCycle(f"auxiliary atoms form a cycle through node {b}")

    out: dict = {p: set() for p in pairs if p not in aux}
    for p, b, c in triples:
        if p in aux:
            continue
        stay, up = hangs(p, b)
        if stay:
            out[p].add((b, c))
        for i in up:
            for j in reach[i] | {i}:
                out[p].update((x, c) for x in direct[j])
    return out


# ---------------------------------------------------------------------------
# naive datalog fixpoint (components re-fired until nothing changes)


class UnorientableBody(Exception):
    """No atom left in a body can be solved from the bound variables."""


def naive_fixpoint(program, tree: DocTree) -> tuple:
    """The least fixpoint of an Elog program by the naive method:
    components of the dependency graph run dependencies first, a
    recursive one re-fires every rule at every parent until nothing
    changes, and each body picks its next atom at run time.
    Rules and conditions are read by class name and fields.  Returns
    (pairs, unary): pred -> set of (v0, v) for predicates with chain
    rules, pred -> frozenset of nodes for those with dom rules only."""
    rules = program.rules
    heads = list(dict.fromkeys(r.head for r in rules))
    by_head = {p: [r for r in rules if r.head == p] for p in heads}
    universal = {
        p for p in heads if all(type(r).__name__ == "DomRule" for r in by_head[p])
    }
    pairs = {p: set() for p in heads if p not in universal}
    unary = {p: frozenset() for p in universal}
    hits_memo: dict = {}

    def image(p) -> set:
        return set(unary[p]) if p in universal else {v for _, v in pairs[p]}

    def hits(v0: int, path) -> list:
        if (v0, path) not in hits_memo:
            hits_memo[v0, path] = naive_subelem(tree, v0, path)
        return hits_memo[v0, path]

    def sibling(v: int, step: int):
        p = tree.parent(v)
        if p is None:
            return None
        kids = tree.children(p)
        i = kids.index(v) + step
        return kids[i] if 0 <= i < len(kids) else None

    def holds(c, env) -> bool:
        kind, x = type(c).__name__, env.get(getattr(c, "x", None))
        if kind == "Contains":
            return env[c.y] in naive_select(hits(x, c.path), c.rng)
        if kind == "ContainsStr":
            return _naive_txt(tree, x) == c.s
        if kind == "FirstChild":
            return tree.children(x)[:1] == [env[c.y]]
        if kind == "NextSibling":
            return sibling(x, 1) == env[c.y]
        if kind == "LastSibling":
            return sibling(x, 1) is None
        if kind == "Label":
            return tree.label(x) == c.tag
        if kind == "Root":
            return x == tree.root()
        if kind == "Ref":
            return env[c.var] in image(c.pred)
        raise TypeError(f"unrecognized condition {c!r}")

    def values(c, env):
        """(var, its values) for an atom that can bind an unbound variable."""
        kind = type(c).__name__
        if kind == "Ref":
            return c.var, sorted(image(c.pred))
        if kind == "Label":
            return c.x, [v for v in tree.nodes() if tree.label(v) == c.tag]
        if kind == "Root":
            return c.x, [tree.root()]
        if kind in ("Contains", "FirstChild", "NextSibling") and c.x in env:
            x = env[c.x]
            if kind == "Contains":
                return c.y, naive_select(hits(x, c.path), c.rng)
            w = tree.children(x)[:1] if kind == "FirstChild" else [sibling(x, 1)]
            return c.y, [v for v in w if v is not None]
        if kind in ("FirstChild", "NextSibling") and c.y in env:
            y, p = env[c.y], tree.parent(env[c.y])
            if kind == "FirstChild":
                return c.x, [p] if p is not None and tree.children(p)[0] == y else []
            return c.x, [w for w in [sibling(y, -1)] if w is not None]
        return None

    def variables(c) -> tuple:
        if type(c).__name__ == "Ref":
            return (c.var,)
        return (c.x, c.y) if hasattr(c, "y") else (c.x,)

    def solve(env: dict, atoms: list) -> bool:
        if not atoms:
            return True
        for i, c in enumerate(atoms):
            if all(v in env for v in variables(c)):
                return holds(c, env) and solve(env, atoms[:i] + atoms[i + 1 :])
        for i, c in enumerate(atoms):
            found = values(c, env)
            if found is not None:
                var, ws = found
                rest = atoms[:i] + atoms[i + 1 :]
                return any(solve({**env, var: w}, rest) for w in ws)
        raise UnorientableBody(f"cannot orient {atoms!r}")

    def select(rule, v0, targets) -> list:
        body = list(rule.conds) + list(rule.refs)
        env = {} if v0 is None else {rule.v0var: v0}
        sat = [v for v in targets if solve({**env, rule.xvar: v}, body)]
        if rule.rule_range is not None:
            sat = naive_select(sat, rule.rule_range)
        return sat

    def fire(p) -> bool:
        if p in universal:
            new = frozenset(
                v for r in by_head[p] for v in select(r, None, list(tree.nodes()))
            )
            grew, unary[p] = new != unary[p], new
            return grew
        before = len(pairs[p])
        for r in by_head[p]:
            if r.parent == "root":
                parents = [tree.root()]
            elif r.parent == "dom":
                parents = list(tree.nodes())
            else:
                parents = sorted(image(r.parent))
            for v0 in parents:
                targets = naive_select(hits(v0, r.path), r.rng)
                pairs[p].update((v0, v) for v in select(r, v0, targets))
        return len(pairs[p]) != before

    # what each predicate depends on, closed transitively
    reach: dict = {p: set() for p in heads}
    for r in rules:
        reach[r.head].update(ref.pred for ref in r.refs)
        if type(r).__name__ == "ChainRule" and r.parent not in ("root", "dom"):
            reach[r.head].add(r.parent)
    grown = True
    while grown:
        grown = False
        for p in heads:
            more = set().union(*(reach[q] for q in reach[p])) - reach[p]
            if more:
                reach[p] |= more
                grown = True
    done: set = set()
    while len(done) < len(heads):
        for p in heads:
            comp = {p} | {q for q in reach[p] if p in reach[q]}
            if p not in done and reach[p] - comp <= done:
                break
        recursive = p in reach[p]
        while any([fire(q) for q in heads if q in comp]) and recursive:
            pass
        done |= comp
    return pairs, unary


# ---------------------------------------------------------------------------
# random documents


@dataclass(frozen=True)
class TreeGenSpec:
    seed: int
    max_nodes: int = 30
    tags: tuple = ("a", "b", "c", "d")
    text_alphabet: str = "xy"
    max_fanout: int = 4
    max_depth: int = 5
    chain: bool = False  # one element per level, each over a text leaf

    @classmethod
    def profile(cls, name: str, seed: int, max_nodes: int = 30) -> TreeGenSpec:
        """A named document shape: "default"; "deep", a chain of elements
        with text at each level; "one_tag", one tag and one text letter,
        under which paths and conditions match almost everywhere."""
        return cls(seed=seed, max_nodes=max_nodes, **TREE_PROFILES[name])


TREE_PROFILES = {
    "default": {},
    "deep": {"chain": True},
    "one_tag": {"tags": ("a",), "text_alphabet": "x"},
}


def gen_tree(spec: TreeGenSpec) -> DocTree:
    """Deterministic random document; same seed, same tree."""
    rng = random.Random(spec.seed)
    tags, parents, texts = [ROOT_TAG], [None], [""]
    if spec.max_nodes < 2:
        return DocTree.from_parents(tags, parents, texts)
    budget = rng.randint(2, max(2, spec.max_nodes)) - 1

    def add(tag: str, parent: int, text: str = "") -> int:
        nonlocal budget
        tags.append(tag)
        parents.append(parent)
        texts.append(text)
        budget -= 1
        return len(tags) - 1

    def a_text() -> str:
        return "".join(rng.choice(spec.text_alphabet) for _ in range(rng.randint(1, 3)))

    if spec.chain:
        v = 0
        while budget > 0:
            v = add(rng.choice(spec.tags), v)
            if budget > 0:
                add(TEXT_TAG, v, a_text())
        return DocTree.from_parents(tags, parents, texts)

    # one frame per element still growing: [node, depth, children, last
    # child was text]; a child element's frame runs before its parent's
    # next draw, so ids come out in preorder
    stack = [[add(rng.choice(spec.tags), 0), 1, 0, False]]
    while stack:
        frame = stack[-1]
        v, depth, kids, last_was_text = frame
        if not (budget > 0 and kids < spec.max_fanout and rng.random() < 0.7):
            stack.pop()
            continue
        frame[2] += 1
        if not last_was_text and depth >= 1 and rng.random() < 0.3:
            add(TEXT_TAG, v, a_text())
            frame[3] = True
        else:
            child = add(rng.choice(spec.tags), v)
            frame[3] = False
            if depth < spec.max_depth:
                stack.append([child, depth + 1, 0, False])
    return DocTree.from_parents(tags, parents, texts)


def shrink_tree(tree: DocTree, failing) -> DocTree:
    """Greedily drop subtrees while the failure predicate keeps holding."""
    changed = True
    while changed:
        changed = False
        top = tree.top_element()
        for victim in tree.descendants(top):
            candidate = _without(tree, victim)
            try:
                still = failing(candidate)
            except Exception:
                still = False
            if still:
                tree = candidate
                changed = True
                break
    return tree


def _without(tree: DocTree, victim: int) -> DocTree:
    """The tree with victim's subtree, the id interval victim..ends[victim],
    cut out and later ids shifted down."""
    lo, hi = victim, tree.ends[victim]
    kept = [v for v in tree.nodes() if not lo <= v <= hi]
    gap = hi - lo + 1
    parents = [tree.parent(v) for v in kept]
    return DocTree.from_parents(
        [tree.label(v) for v in kept],
        [p if p is None or p < lo else p - gap for p in parents],
        [tree.text_of(v) for v in kept],
    )


# ---------------------------------------------------------------------------
# random wrapper text


@dataclass(frozen=True)
class StmtGenSpec:
    seed: int
    language: str = "rpn"  # rpn | helvf
    max_chain: int = 4
    max_depth: int = 3
    range_pool: tuple = ("*", "index", "interval", "union")
    condition_range_pool: tuple | None = None  # None: range_pool
    condition_probability: float = 0.4
    cut_probability: float = 0.0
    tags: tuple = ("a", "b", "c", "d")
    text_pool: tuple = ("", "x", "y", "xy", "xx")


def gen_stmt(spec: StmtGenSpec) -> str:
    """Random wrapper text in the chosen language; parses and typechecks."""
    rng = random.Random(spec.seed)
    helvf = spec.language == "helvf"

    def a_string() -> str:
        s = rng.choice(spec.text_pool)
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def a_range(pool: tuple = spec.range_pool) -> str:
        kind = rng.choice(pool)
        if kind == "*":
            return "[*]"
        if kind == "index":
            return f"[{rng.randint(0, 3)}]"
        if kind == "interval":
            lo = rng.randint(0, 3)
            return f"[{lo}-{lo + rng.randint(0, 2)}]"
        if kind == "union":
            lo = rng.randint(0, 2)
            hi = lo + 2 + rng.randint(0, 2)
            return f"[{lo},{hi}]"
        if kind == "last":
            return "[last]"
        if kind == "regex":
            return f"[{rng.choice(_RAW_RANGES)}]"
        raise ValueError(f"unknown range pool entry {kind!r}")

    def a_path() -> str:
        if helvf:
            return rng.choice(spec.tags)
        if rng.random() < 0.65:
            return rng.choice(spec.tags)
        # a small parenthesized regex
        t1, t2 = rng.choice(spec.tags), rng.choice(spec.tags)
        form = rng.randrange(4)
        if form == 0:
            return f"({t1}|{t2})"
        if form == 1:
            return f"({t1}*)"
        if form == 2:
            return f"(_*.{t1})"
        return f"(({t1}|{t2}).{t1}*)"

    def a_cond(depth: int) -> str:
        steps = []
        for _ in range(rng.randint(1, 2)):
            step = a_path()
            if rng.random() < 0.5:
                step += a_range(spec.condition_range_pool or spec.range_pool)
            if not helvf and depth > 0 and rng.random() < 0.15:
                step += "{" + a_cond(depth - 1) + "}"
            steps.append(step)
        sep = "->" if helvf and rng.random() < 0.2 else "."
        mark = "!" if rng.random() < spec.cut_probability else ""
        return mark + sep.join(steps) + ".txt = " + a_string()

    def a_patom(depth: int, first: bool) -> str:
        out = a_path()
        if helvf and not first and rng.random() < 0.25:
            out = "->" + out  # descendant step, rendered by the separator
        if rng.random() < 0.5:
            out += a_range()
        if rng.random() < spec.condition_probability:
            conds = [a_cond(1) for _ in range(rng.randint(1, 2))]
            out += "{" + " and ".join(conds) + "}"
        return out

    def statement(depth: int) -> str:
        chain = [a_patom(depth, i == 0) for i in range(rng.randint(1, spec.max_chain))]
        if depth > 0 and rng.random() < 0.3:
            n = rng.randint(2, 3)
            terminal = "(" + " # ".join(statement(depth - 1) for _ in range(n)) + ")"
        else:
            terminal = "txt"
        out = chain[0]
        for part in chain[1:] + [terminal]:
            out += part if part.startswith("->") else "." + part
        return out

    body = statement(spec.max_depth - 1)
    return body + ";" if helvf else body


# each admits at most one word per length; all but 0* miss some lengths
_RAW_RANGES = ("regex:10*", "regex:0*1", "regex:0*", "regex:(10)*")


def gen_program(seed: int) -> str:
    """Random Elog program text that parses: chain and dom rules over up
    to four predicates q0, q1, ..., among them chain rules that hang
    another predicate's image from the root, as monadic_collapse's
    companions do; every condition kind, binding a variable either way it
    can; references that check and that enumerate.
    Tags and texts are those gen_tree draws.  A recursive program may refer
    to any predicate; a nonrecursive one only to earlier ones, and only it
    gets rule ranges and range regexes, whose errors depend on nothing but
    the document there."""
    rng = random.Random(seed)
    tags = TreeGenSpec.tags
    recursive = rng.random() < 0.5
    preds = [f"q{i}" for i in range(rng.randint(1, 4))]

    def a_range() -> str:
        if not recursive and rng.random() < 0.15:
            return rng.choice(_RAW_RANGES)
        return rng.choice(("*", "*", "*", "0", "1", "0-1", "0,2", "last"))

    def a_path() -> str:
        t1, t2 = rng.choice(tags), rng.choice(tags)
        return rng.choice((t1, "_", f"{t1}|{t2}", f"_*.{t1}", f"{t1}*", f"_.{t1}"))

    def a_pred(i: int) -> str:
        if recursive:  # the predicate itself half the time, to close cycles
            return rng.choice((preds[i], rng.choice(preds)))
        return rng.choice(preds[:i])

    def body(i: int, bound: list) -> list:
        atoms: list = []
        size = rng.randint(0, 4)  # atoms, binders included
        while len(atoms) < size:
            a = rng.choice(bound)
            y = f"Y{len(bound)}"
            kind = rng.choice(
                ("contains", "contains_up", "firstchild", "nextsibling",
                 "contains_s", "lastsibling", "label", "root", "ref")
            )
            if kind == "contains_up":
                # contains cannot bind y from a, so another atom enumerates
                # y and contains checks it
                refer = i > 0 or recursive
                binder = rng.choice(("label", "root") + ("ref",) * 2 * refer)
                atoms.append(f"contains[{a_path()}][{a_range()}]({y}, {a})")
                atoms.append(
                    f"label({y}, {rng.choice(tags)})" if binder == "label"
                    else f"root({y})" if binder == "root"
                    else f"{a_pred(i)}(_, {y})"
                )
                bound.append(y)
            elif kind in ("contains", "firstchild", "nextsibling"):
                others = [v for v in bound if v != a]
                b = rng.choice(others) if others and rng.random() < 0.4 else y
                if b == y:
                    bound.append(y)
                brackets = f"[{a_path()}][{a_range()}]" if kind == "contains" else ""
                x, z = (b, a) if kind != "contains" and rng.random() < 0.5 else (a, b)
                atoms.append(f"{kind}{brackets}({x}, {z})")
            elif kind == "contains_s":
                text = rng.choice(("", "x", "y", "xy"))
                atoms.append(f'contains_s({a}, "{text}")')
            elif kind == "label":
                atoms.append(f"label({a}, {rng.choice(tags)})")
            elif kind == "ref" and (i > 0 or recursive):
                atoms.append(f"{a_pred(i)}(_, {a})")
            elif kind in ("lastsibling", "root"):
                atoms.append(f"{kind}({a})")
        rng.shuffle(atoms)
        return atoms

    def rule_range() -> str:
        return f" [{a_range()}]" if not recursive and rng.random() < 0.3 else ""

    lines = []
    for i, p in enumerate(preds):
        shape = rng.choice(("chain", "chain", "dom", "image") if i else ("chain", "dom"))
        if shape == "image":
            # the image of a predicate a_pred draws, hung from the root
            lines.append(
                f"{p}(X0, X) :- root(_, X0), subelem[_*][*](X0, X), {a_pred(i)}(_, X)."
            )
            continue
        for j in range(rng.randint(1, 2)):
            if shape == "dom":
                atoms = ["dom(X0, X)", *body(i, ["X"])]
            else:
                # the first rule grounds the predicate in root, dom or an
                # earlier predicate
                parents = 2 * (preds if recursive and j else preds[:i])
                parent = rng.choice(["root", "dom", *parents])
                atoms = [
                    f"{parent}(_, X0)",
                    f"subelem[{a_path()}][{a_range()}](X0, X)",
                    *body(i, ["X0", "X"]),
                ]
            lines.append(f"{p}(X0, X) :- {', '.join(atoms)}{rule_range()}.")
    return "\n".join(lines) + "\n"


def gen_path_text(seed: int, tags=("a", "b", "c"), max_depth: int = 4) -> str:
    """Random path regex text, nesting bounded by max_depth."""
    rng = random.Random(seed)

    def go(depth: int) -> str:
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            return "_" if rng.random() < 0.2 else rng.choice(tags)
        if roll < 0.6:
            return ".".join(go(depth - 1) for _ in range(rng.randint(2, 3)))
        if roll < 0.8:
            return "(" + "|".join(go(depth - 1) for _ in range(2)) + ")"
        inner = go(depth - 1)
        return f"({inner})*" if len(inner) > 1 else inner + "*"

    return go(max_depth)
