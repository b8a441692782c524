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
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

from .doctree import ROOT_TAG, TEXT_TAG, DocTree

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


def word_matches(r, word) -> bool:
    for a in word:
        r = _deriv(r, a)
        if r == _EMPTY:
            return False
    return _nullable(r)


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
# naive range selection (direct enumeration; raw regexes by brute force)


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
        if k > 18:
            raise ValueError("naive raw-regex selection capped at length 18")
        r = convert_regex(rng.pattern)
        words = ["".join(w) for w in product("01", repeat=k) if word_matches(r, w)]
        if not words:
            raise ValueError(f"no word of length {k}")
        if len(words) > 1:
            raise ValueError(f"several words of length {k}")
        return [i for i, c in enumerate(words[0]) if c == "1"]
    raise TypeError(f"unrecognized range {rng!r}")


def naive_select(seq: list, rng) -> list:
    return [seq[i] for i in naive_positions(rng, len(seq))]


# ---------------------------------------------------------------------------
# naive statement evaluators (plain-value results)


def _plain_union(parts) -> frozenset:
    out: set = set()
    for p in parts:
        out |= p
    return frozenset(out)


def _conds_hold(tree: DocTree, v: int, conds) -> bool:
    return all(_naive_cond(tree, v, c) for c in conds)


def _naive_cond(tree: DocTree, v: int, cond) -> bool:
    kind = type(cond).__name__
    if kind == "TxtEq":
        return tree.txt(v) == cond.s
    if kind == "CondChain":
        pa = cond.patom
        hits = naive_select(naive_subelem(tree, v, pa.path), pa.range)
        return any(
            _conds_hold(tree, w, pa.conds) and _naive_cond(tree, w, cond.rest)
            for w in hits
        )
    raise TypeError(f"unrecognized condition {cond!r}")


def naive_rpn(tree: DocTree, stmt, v: int | None = None):
    """Direct transcription of the path-expression semantics: the range is
    applied to the navigation result first, conditions filter afterwards."""
    if v is None:
        v = tree.root()
    kind = type(stmt).__name__
    if kind == "Txt":
        return frozenset({tree.txt(v)})
    if kind == "Record":
        return frozenset({tuple(naive_rpn(tree, e, v) for e in stmt.entries)})
    if kind == "Chain":
        pa = stmt.patom
        sel = naive_select(naive_subelem(tree, v, pa.path), pa.range)
        keep = [w for w in sel if _conds_hold(tree, w, pa.conds)]
        return _plain_union(naive_rpn(tree, stmt.rest, w) for w in keep)
    raise TypeError(f"unrecognized statement {stmt!r}")


def has_eps_link(stmt) -> bool:
    """True when some navigation step that another step still follows can
    match the empty word.  Such a step may select its own start node, which
    the datalog pipeline rejects as a cyclic stitch; evaluators don't mind."""
    kind = type(stmt).__name__
    if kind == "Record":
        return any(has_eps_link(e) for e in stmt.entries)
    if kind != "Chain":
        return False
    if type(stmt.rest).__name__ == "Chain" and word_matches(
        convert_regex(stmt.patom.path), ()
    ):
        return True
    return has_eps_link(stmt.rest)


def naive_helvf(tree: DocTree, stmt, v: int | None = None):
    """Direct transcription of the variable-free semantics: conditions
    filter the navigation result first, then the range selects."""
    if v is None:
        v = tree.root()
    kind = type(stmt).__name__
    if kind == "Txt":
        return frozenset({tree.txt(v)})
    if kind == "Record":
        return frozenset({tuple(naive_helvf(tree, e, v) for e in stmt.entries)})
    if kind == "Chain":
        pa = stmt.patom
        hits = [
            w
            for w in naive_subelem(tree, v, pa.path)
            if _conds_hold(tree, w, pa.conds)
        ]
        sel = naive_select(hits, pa.range)
        return _plain_union(naive_helvf(tree, stmt.rest, w) for w in sel)
    raise TypeError(f"unrecognized statement {stmt!r}")


# ---------------------------------------------------------------------------
# naive aux elimination (a worklist closure over triples)


class AuxCycle(Exception):
    """The oracle's counterpart of the engine's aux-cycle error."""


def naive_eliminate_aux(pairs: dict, aux) -> dict:
    """Close derivations across auxiliary atoms, then drop them along with
    the atoms left hanging from parents that only auxiliary edges reached.
    pairs maps each predicate to its (v0, v) set; returns the same shape."""
    aux = frozenset(aux)
    triples = {(p, a, b) for p in pairs for a, b in pairs[p]}

    aux_edges = [(a, b) for p, a, b in triples if p in aux]
    _reject_cycles(aux_edges)

    by_source: dict[int, set] = {}
    for t in triples:
        by_source.setdefault(t[1], set()).add(t)
    queue = [t for t in triples if t[0] in aux]
    while queue:
        q, a, b = queue.pop()
        for t in list(by_source.get(b, ())):
            s, _, c = t
            new = (s, a, c)
            if new not in triples:
                triples.add(new)
                by_source.setdefault(a, set()).add(new)
                if s in aux:
                    queue.append(new)
                # a non-aux copy still composes with aux atoms ending at a
                queue.extend(
                    t2 for t2 in triples if t2[0] in aux and t2[2] == a
                )

    retained = {t for t in triples if t[0] not in aux}
    aux_targets = {b for p, a, b in triples if p in aux}
    kept_targets = {b for p, a, b in retained}
    orphaned = aux_targets - kept_targets
    retained = {(p, a, b) for p, a, b in retained if a not in orphaned}

    out = {p: set() for p in pairs if p not in aux}
    for p, a, b in retained:
        out.setdefault(p, set()).add((a, b))
    return out


def _reject_cycles(edges: list) -> None:
    adj: dict = {}
    for a, b in edges:
        if a == b:
            raise AuxCycle(f"auxiliary atom loops at node {a}")
        adj.setdefault(a, []).append(b)
    state: dict = {}

    def visit(v):
        state[v] = 1
        for w in adj.get(v, ()):
            if state.get(w) == 1:
                raise AuxCycle(f"auxiliary atoms form a cycle through node {w}")
            if w not in state:
                visit(w)
        state[v] = 2

    for v in list(adj):
        if v not in state:
            visit(v)


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
            length = rng.randint(1, 3)
            text = "".join(rng.choice(spec.text_alphabet) for _ in range(length))
            add(TEXT_TAG, v, text)
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

    def a_range() -> str:
        kind = rng.choice(spec.range_pool)
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
                step += a_range()
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


# ---------------------------------------------------------------------------
# corpus layout


@dataclass(frozen=True)
class CorpusCase:
    name: str
    doc: Path
    wrappers: tuple  # of Path


_WRAPPER_SUFFIXES = {".rpn", ".hel", ".vhel", ".elog"}


def corpus_cases(corpus_dir) -> list[CorpusCase]:
    """Cases are subdirectories holding one .doc plus wrapper files; a golden
    for wrapper w.ext sits next to it as w.expected.json / w.expected.atoms."""
    out = []
    root = Path(corpus_dir)
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        docs = sorted(sub.glob("*.doc"))
        if len(docs) != 1:
            raise ValueError(f"corpus case {sub.name} needs exactly one .doc")
        wrappers = tuple(
            sorted(p for p in sub.iterdir() if p.suffix in _WRAPPER_SUFFIXES)
        )
        out.append(CorpusCase(sub.name, docs[0], wrappers))
    return out


def golden_for(wrapper: Path, kind: str = "json", cut: bool = False) -> Path:
    suffix = (".cut" if cut else "") + ".expected." + kind
    return wrapper.with_name(wrapper.stem + suffix)
