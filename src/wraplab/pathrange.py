"""Regular path expressions and position ranges over document trees.

walk is the single navigation primitive every wrapper language here is
built on: from each start node v0 of a list it selects descendants v whose
downward label word (labels strictly below v0 along the unique path, ending
at v's own label) belongs to a regular language; a range then picks
positions out of each document-ordered hit list.  A start node itself is
selected exactly when the empty word is in the language.  subelem is the
walk from one start node, and holders derives a condition's node set for a
whole document with one walk, or, for a ``*`` range over an infinite
language, with one bottom-up pass.

Ranges come in structured forms (star, index, interval, unions, last) that
select by direct indexing and never fail, and as raw regular expressions
over {0,1} that must mark positions deterministically: at most one word per
length (checked up to a probe bound at compile time).  The word for length
k has a 1 at each selected position.

The lexical rules that every wrapper parser shares live here too: ``TAG``,
the document's tag-name rule, ``STRING``, the "..." literal, and ``scan``,
the statement parser's quote- and bracket-aware loop (the program reader
matches patterns built from ``STRING`` instead).  So does ``TextError``,
the base of every parser's error.  ``read_path`` reads a path in place
inside a longer text, so its error offsets count from that text's start.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass

from .doctree import DocTree

DENSITY_PROBE = 64  # lengths 0..63 are checked for at-most-one word


class TextError(Exception):
    """A fault in wrapper text: reason says what, and where is pos, an
    offset into the text the reader was given, or a program's line and,
    where known, column.  A reader that catches one may fill in a place
    it lacks; only ``__str__`` writes a place."""

    def __init__(self, reason: str, pos: int | None = None,
                 line: int | None = None, column: int | None = None):
        super().__init__(reason)
        self.reason, self.pos, self.line, self.column = reason, pos, line, column

    def __str__(self) -> str:
        if self.line is not None:
            col = "" if self.column is None else f", column {self.column}"
            return f"line {self.line}{col}: {self.reason}"
        return self.reason if self.pos is None else f"at {self.pos}: {self.reason}"


class PathSyntaxError(TextError):
    pass


class RangeSyntaxError(TextError):
    pass


class RangeError(Exception):
    pass


class NoWordOfLength(RangeError):
    def __init__(self, length: int):
        super().__init__(f"range regex has no word of length {length}")
        self.length = length


class MultipleWords(TextError, RangeError):
    def __init__(self, length: int):
        super().__init__(f"range regex has several words of length {length}")
        self.length = length


# ---------------------------------------------------------------------------
# path regex AST


@dataclass(frozen=True)
class Atom:
    tag: str


@dataclass(frozen=True)
class Wildcard:
    pass


@dataclass(frozen=True)
class Epsilon:
    pass


@dataclass(frozen=True)
class Concat:
    items: tuple


@dataclass(frozen=True)
class Alt:
    items: tuple


@dataclass(frozen=True)
class Star:
    item: object


PathRegex = object  # union of the six node classes above


def concat(*items) -> PathRegex:
    flat = []
    for it in items:
        if isinstance(it, Concat):
            flat.extend(it.items)
        elif not isinstance(it, Epsilon):
            flat.append(it)
    if not flat:
        return Epsilon()
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alt(*items) -> PathRegex:
    flat = []
    for it in items:
        if isinstance(it, Alt):
            flat.extend(it.items)
        else:
            flat.append(it)
    if len(flat) == 1:
        return flat[0]
    return Alt(tuple(flat))


# ---------------------------------------------------------------------------
# the lexical rules of wrapper text, shared by the statement, path and
# program parsers


# a tag: the document name rule (doctree's _NAME), in any case, or a
# '#'-name such as '#text'; a '-' directly before '>' ends it, so that
# 'a->b' is the tag 'a' and a descendant step.  '_', the wildcard, is no tag
TAG = re.compile(r"#?[A-Za-z](?:[A-Za-z0-9]|-(?!>))*")

# a "..." literal, where a backslash escapes the next character
STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.S)

# a literal, possibly unterminated, or one character the statement parser
# looks for outside literals
_TOKEN = re.compile(STRING.pattern + r'?|[()\[\]{}#]', re.S)


def scan(text: str, start: int = 0):
    """Yield (index, char, depth) for each bracket and each ``#`` in text
    from start on that lies outside a "..." literal.  depth counts the
    brackets ( [ { open around the character; a bracket itself is at the
    depth outside it."""
    depth = 0
    for m in _TOKEN.finditer(text, start):
        c = m.group()
        if c[0] == '"':
            continue
        if c in ")]}":
            depth -= 1
        yield m.start(), c, depth
        if c in "([{":
            depth += 1


def group_end(text: str, i: int) -> int:
    """The index just past the bracket that closes the one at text[i], or
    -1 when none does or one of another kind does."""
    for j, c, depth in scan(text, i):
        if depth == 0 and j > i:
            return j + 1 if text[i] + c in ("()", "[]", "{}") else -1
    return -1


# ---------------------------------------------------------------------------
# textual syntax: tags, '.', '|', '*', '_', parentheses


class _PathParser:
    """Recursive descent over the path syntax; '.' binds tighter than '|'."""

    def __init__(self, text: str, binary: bool = False):
        self.text = text
        self.pos = 0
        self.binary = binary  # atoms are the digits 0/1 instead of tags

    def parse(self) -> PathRegex:
        node = self._alt()
        if self.pos != len(self.text):
            raise PathSyntaxError("trailing input", self.pos)
        return node

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def _peek(self) -> str:
        self._ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _alt(self) -> PathRegex:
        parts = [self._concat()]
        while self._peek() == "|":
            self.pos += 1
            parts.append(self._concat())
        return alt(*parts)

    def _concat(self) -> PathRegex:
        parts = [self._starred()]
        while True:
            c = self._peek()
            if c == ".":
                self.pos += 1
                parts.append(self._starred())
            elif self.binary and c != "" and c in "01(":
                parts.append(self._starred())  # 01-regexes also juxtapose
            else:
                break
        return concat(*parts)

    def _starred(self) -> PathRegex:
        node = self._primary()
        while self._peek() == "*":
            self.pos += 1
            node = Star(node)
        return node

    def _primary(self) -> PathRegex:
        c = self._peek()
        if c == "(":
            self.pos += 1
            if self._peek() == ")":  # '()' names the empty word
                self.pos += 1
                return Epsilon()
            node = self._alt()
            if self._peek() != ")":
                raise PathSyntaxError("missing ')'", self.pos)
            self.pos += 1
            return node
        if c == "_" and not self.binary:
            self.pos += 1
            return Wildcard()
        if self.binary:
            if c != "" and c in "01":
                self.pos += 1
                return Atom(c)
            raise PathSyntaxError("expected 0 or 1", self.pos)
        m = TAG.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return Atom(m.group().lower())
        reason = f"unexpected {c!r}" if c else "unexpected end of path"
        raise PathSyntaxError(reason, self.pos)


def read_path(text: str, pos: int = 0) -> tuple:
    """The path at text[pos], read in place up to the first character that
    continues it in no way, and that character's index; a ')' at pos is
    the empty path expression.  Error offsets count from text's start."""
    p = _PathParser(text)
    p.pos = pos
    if p._peek() == ")":
        raise PathSyntaxError("empty path expression", p.pos)
    return p._alt(), p.pos


def parse_path(text: str) -> PathRegex:
    if not text.strip():
        raise PathSyntaxError("empty path expression")
    word = text.strip(" \t")  # a path of one label is read without the parser
    if word == "_":
        return Wildcard()
    if TAG.fullmatch(word):
        return Atom(word.lower())
    return _PathParser(text).parse()


def parse_binary_regex(text: str) -> PathRegex:
    if not text.strip():
        raise PathSyntaxError("empty range regex")
    return _PathParser(text, binary=True).parse()


def path_to_text(node: PathRegex, sep: str = ".") -> str:
    """Render a path AST back to the textual syntax (parses to an equal AST).
    01-regexes render with sep="" since their atoms juxtapose."""

    def prec(n) -> int:
        if isinstance(n, Alt):
            return 1
        if isinstance(n, Concat):
            return 2
        return 3

    def render(n, parent: int) -> str:
        if isinstance(n, Atom):
            s = n.tag
        elif isinstance(n, Wildcard):
            s = "_"
        elif isinstance(n, Epsilon):
            s = "()"
        elif isinstance(n, Star):
            s = render(n.item, 3) + "*"
        elif isinstance(n, Concat):
            s = sep.join(render(it, 2) for it in n.items)
        elif isinstance(n, Alt):
            s = "|".join(render(it, 1) for it in n.items)
        else:
            raise TypeError(f"not a path node: {n!r}")
        if prec(n) < parent and not isinstance(n, (Atom, Wildcard, Epsilon)):
            s = f"({s})"
        return s

    return render(node, 0)


# ---------------------------------------------------------------------------
# Thompson construction, determinised lazily


class PathAutomaton:
    """Thompson NFA, determinised on demand.

    A DFA state is a set of NFA states reached so far, keyed by its
    important states, those with a labelled move, and whether it accepts
    (Aho, Lam, Sethi & Ullman, *Compilers*, section 3.9): two sets that
    agree on both move and accept alike, so they are one state.  Thus
    ``b*.l`` steps from ``start`` back to ``start`` on ``b``, and ``_*.b``
    on every tag but ``b``.  States are numbered in the order they were
    first reached: 0 is the empty (dead) set and ``start`` is 1.
    ``delta[s]`` caches state s's transitions by tag, so ``step``, the
    subset construction, runs once per (state, tag) pair ever taken.
    ``stop[s]`` says that s has no labelled move, so that no node below one
    in state s matches: s is dead, or terminal if it accepts.
    """

    start = 1

    def __init__(self, ast: PathRegex):
        self._eps: list[list[int]] = []
        self._moves: list[list[tuple[str | None, int]]] = []
        start, accept = self._build(ast)
        self._closure = self._closures()
        self._final = accept
        self._sets: list = [(frozenset(), False)]
        self._ids = {self._sets[0]: 0}
        self.delta: list[dict[str, int]] = [{}]
        self.accept = [False]
        self.stop = [True]
        self._state(self._closure[start])
        # for bottom-up passes: sets of NFA states as bitmasks
        self.start_bit = 1 << start
        self.final_mask = sum(
            1 << q for q, c in enumerate(self._closure) if accept in c
        )
        self.back: defaultdict = defaultdict(dict)  # tag -> mask -> mask

    def _new_state(self) -> int:
        self._eps.append([])
        self._moves.append([])
        return len(self._eps) - 1

    def _build(self, ast) -> tuple[int, int]:
        if isinstance(ast, Atom):
            s, t = self._new_state(), self._new_state()
            self._moves[s].append((ast.tag, t))
            return s, t
        if isinstance(ast, Wildcard):
            s, t = self._new_state(), self._new_state()
            self._moves[s].append((None, t))
            return s, t
        if isinstance(ast, Epsilon):
            s, t = self._new_state(), self._new_state()
            self._eps[s].append(t)
            return s, t
        if isinstance(ast, Concat):
            first, last = None, None
            for item in ast.items:
                s, t = self._build(item)
                if first is None:
                    first = s
                else:
                    self._eps[last].append(s)
                last = t
            if first is None:
                return self._build(Epsilon())
            return first, last
        if isinstance(ast, Alt):
            s, t = self._new_state(), self._new_state()
            for item in ast.items:
                a, b = self._build(item)
                self._eps[s].append(a)
                self._eps[b].append(t)
            return s, t
        if isinstance(ast, Star):
            s, t = self._new_state(), self._new_state()
            a, b = self._build(ast.item)
            self._eps[s] += [a, t]
            self._eps[b] += [a, t]
            return s, t
        raise TypeError(f"not a path node: {ast!r}")

    def _closures(self) -> list[frozenset]:
        out = []
        for s in range(len(self._eps)):
            seen = {s}
            stack = [s]
            while stack:
                for d in self._eps[stack.pop()]:
                    if d not in seen:
                        seen.add(d)
                        stack.append(d)
            out.append(frozenset(seen))
        return out

    def _state(self, nfa: set) -> int:
        """The DFA state of a closed set of NFA states, new or not."""
        moves = self._moves
        key = (frozenset(q for q in nfa if moves[q]), self._final in nfa)
        d = self._ids.get(key)
        if d is None:
            d = self._ids[key] = len(self._sets)
            self._sets.append(key)
            self.delta.append({})
            self.accept.append(key[1])
            self.stop.append(not key[0])
        return d

    def step(self, state: int, tag: str) -> int:
        """Determinise the transition from DFA state on tag and cache it."""
        nxt: set = set()
        for s in self._sets[state][0]:
            for lab, d in self._moves[s]:
                if lab is None or lab == tag:
                    nxt |= self._closure[d]
        d = self.delta[state][tag] = self._state(nxt)
        return d

    def pre(self, tag: str, mask: int) -> int:
        """The NFA states from which one move on tag, after their closure,
        lands in mask; cached in ``back``."""
        out = 0
        for q, c in enumerate(self._closure):
            if any(
                (lab is None or lab == tag) and mask >> d & 1
                for p in c
                for lab, d in self._moves[p]
            ):
                out |= 1 << q
        self.back[tag][mask] = out
        return out

    def determinise(self, alphabet: str) -> list[list[int]]:
        """The complete DFA over a fixed alphabet: row s lists state s's
        successor on each symbol in turn."""
        rows: list[list[int]] = []
        while len(rows) < len(self._sets):
            s = len(rows)
            rows.append([self.step(s, a) for a in alphabet])
        return rows


def is_finite(path: PathRegex) -> bool:
    """Whether the path's language is finite: no star repeats a label."""

    def labelled(n) -> bool:
        if isinstance(n, (Atom, Wildcard)):
            return True
        if isinstance(n, Star):
            return labelled(n.item)
        return isinstance(n, (Concat, Alt)) and any(map(labelled, n.items))

    if isinstance(path, Star):
        return not labelled(path.item)
    if isinstance(path, (Concat, Alt)):
        return all(map(is_finite, path.items))
    return True


_automata: dict = {}


def compile_path(path) -> PathAutomaton:
    if isinstance(path, PathAutomaton):
        return path
    if isinstance(path, str):
        path = parse_path(path)
    aut = _automata.get(path)
    if aut is None:
        aut = PathAutomaton(path)
        _automata[path] = aut
    return aut


# ---------------------------------------------------------------------------
# ranges


@dataclass(frozen=True)
class StarRange:
    pass


@dataclass(frozen=True)
class Index:
    i: int


@dataclass(frozen=True)
class Interval:
    lo: int
    hi: int  # inclusive, 0-based


@dataclass(frozen=True)
class IntervalUnion:
    intervals: tuple  # of (lo, hi) pairs


@dataclass(frozen=True)
class Last:
    pass


@dataclass(frozen=True)
class RawRegex:
    pattern: object  # path AST over the atoms "0" and "1"


Range = object  # union of the six range classes


def parse_range(text: str) -> Range:
    """Parse the surface range syntax: '*', 'i', 'i-j', unions, 'last',
    'regex:..'; the keywords are read in any case."""
    body = text.strip()
    if not body:
        raise RangeSyntaxError("empty range")
    if body == "*":
        return StarRange()
    if body.lower() == "last":
        return Last()
    if body[:6].lower() == "regex:":
        try:
            pattern = parse_binary_regex(body[len("regex:") :])
        except PathSyntaxError as exc:  # its offset counts in the regex alone
            raise RangeSyntaxError(exc.reason) from None
        rng = RawRegex(pattern)
        validate_raw_range(rng)
        return rng
    pairs = []
    for part in body.split(","):
        part = part.strip()
        m = part.split("-")
        try:
            if len(m) == 1:
                lo = hi = int(m[0])
            elif len(m) == 2:
                lo, hi = int(m[0]), int(m[1])
            else:
                raise ValueError
        except ValueError:
            raise RangeSyntaxError(f"bad range item {part!r}") from None
        if lo < 0 or hi < lo:
            raise RangeSyntaxError(f"bad range bounds {part!r}")
        pairs.append((lo, hi))
    if len(pairs) == 1:
        lo, hi = pairs[0]
        return Index(lo) if lo == hi else Interval(lo, hi)
    return IntervalUnion(tuple(pairs))


def range_to_text(rng: Range) -> str:
    if isinstance(rng, StarRange):
        return "*"
    if isinstance(rng, Index):
        return str(rng.i)
    if isinstance(rng, Interval):
        return f"{rng.lo}-{rng.hi}"
    if isinstance(rng, IntervalUnion):
        return ",".join(str(l) if l == h else f"{l}-{h}" for l, h in rng.intervals)
    if isinstance(rng, Last):
        return "last"
    if isinstance(rng, RawRegex):
        return "regex:" + path_to_text(rng.pattern, sep="")
    raise TypeError(f"not a range: {rng!r}")


# a DFA over {0,1} per raw regex, for word counting and reconstruction


class _BinaryDfa:
    def __init__(self, pattern):
        aut = PathAutomaton(pattern)
        self.trans = aut.determinise("01")
        self.accept = aut.accept
        self.start = aut.start
        self._counts: list[list[int]] = [
            [1 if a else 0 for a in self.accept]
        ]  # counts[m][s], saturated at 2

    def counts_at(self, length: int) -> list[int]:
        while len(self._counts) <= length:
            prev = self._counts[-1]
            self._counts.append(
                [min(2, prev[row[0]] + prev[row[1]]) for row in self.trans]
            )
        return self._counts[length]

    def word(self, length: int) -> str:
        """The unique accepted word of this length."""
        total = self.counts_at(length)[self.start]
        if total == 0:
            raise NoWordOfLength(length)
        if total > 1:
            raise MultipleWords(length)
        out = []
        state = self.start
        for m in range(length, 0, -1):
            row = self.trans[state]
            if self.counts_at(m - 1)[row[1]] >= 1:
                out.append("1")
                state = row[1]
            else:
                out.append("0")
                state = row[0]
        return "".join(out)


_dfas: dict = {}


def _binary_dfa(rng: RawRegex) -> _BinaryDfa:
    dfa = _dfas.get(rng.pattern)
    if dfa is None:
        dfa = _BinaryDfa(rng.pattern)
        _dfas[rng.pattern] = dfa
    return dfa


def validate_raw_range(rng: RawRegex) -> None:
    """Reject regexes with two marking words of one length (probe 0..63)."""
    dfa = _binary_dfa(rng)
    for k in range(DENSITY_PROBE):
        if dfa.counts_at(k)[dfa.start] > 1:
            raise MultipleWords(k)


def unique_word(rng: RawRegex, k: int) -> str:
    """The single {0,1}-word of length k, or NoWordOfLength / MultipleWords."""
    return _binary_dfa(rng).word(k)


def _positions(rng: Range, k: int) -> list[int]:
    if isinstance(rng, StarRange):
        return list(range(k))
    if isinstance(rng, Index):
        return [rng.i] if rng.i < k else []
    if isinstance(rng, Interval):
        return list(range(rng.lo, min(rng.hi, k - 1) + 1))
    if isinstance(rng, IntervalUnion):
        picked = set()
        for lo, hi in rng.intervals:
            picked.update(range(lo, min(hi, k - 1) + 1))
        return sorted(picked)
    if isinstance(rng, Last):
        return [k - 1] if k else []
    if isinstance(rng, RawRegex):
        try:
            word = unique_word(rng, k)
        except NoWordOfLength:
            if k >= DENSITY_PROBE:
                return []  # beyond the validated probe: select nothing
            raise
        return [i for i, c in enumerate(word) if c == "1"]
    raise TypeError(f"not a range: {rng!r}")


def apply_range(seq: list, rng: Range) -> list:
    """Select positions of a duplicate-free document-ordered sequence.

    The ``*`` range returns seq itself, not a copy, so callers must not
    mutate the result.  Structured ranges never raise; raw regexes raise
    NoWordOfLength / MultipleWords on density violations.
    """
    if isinstance(rng, StarRange):
        return seq
    return [seq[i] for i in _positions(rng, len(seq))]


# ---------------------------------------------------------------------------
# the navigation primitive


def walk(tree: DocTree, contexts, path, done: dict | None = None) -> list:
    """Each context's hits, in the contexts' order: its descendants (and
    itself on the empty word) whose downward label word matches, in
    document order.  contexts are in document order, without repeats.

    One preorder pass over a context's id interval: a node's DFA state is
    its parent's stepped on its tag.  A state with no labelled move stops
    the pass at the node, which is a hit if the state accepts, and it goes
    on after the node's subtree.  The states live in the tree's scratch
    list, indexed by node id; a node the pass reaches has the context or an
    earlier reached node as its parent, so it only reads what this pass
    wrote, and the pass costs what it visits.

    The contexts are walked deepest first, into done, which maps the
    contexts walked so far on the same automaton and tree to their hit
    lists; a caller may pass one in to share it between walks.  A context
    already in done is not walked again, and a node of done that a pass
    enters in the start state is not walked either: every word below it
    runs from the context as from the node, so the pass takes its list and
    goes on after its subtree (the staircase join's pruning of nested
    contexts; Grust, van Keulen and Teubner, VLDB 2003).  So the walk costs
    what the contexts' passes do not share plus the hits.
    """
    aut = compile_path(path)
    delta, accept, stop, step = aut.delta, aut.accept, aut.stop, aut.step
    start = aut.start
    tags, parents, ends = tree.tags, tree.parents, tree.ends
    states = tree.scratch
    if done is None:
        done = {}
    lists = []
    for v0 in reversed(contexts):
        out = done.get(v0)
        if out is None:
            out = [v0] if accept[start] else []
            last = ends[v0]
            states[v0] = start
            splice = start if done else -1  # with nothing done, no state splices
            v = v0 + 1
            while v <= last:
                s = states[parents[v]]
                tag = tags[v]
                d = delta[s].get(tag)
                if d is None:
                    d = step(s, tag)
                if stop[d]:
                    if accept[d]:
                        out.append(v)
                    v = ends[v] + 1
                elif d == splice and v in done:
                    out += done[v]
                    v = ends[v] + 1
                else:
                    states[v] = d
                    if accept[d]:
                        out.append(v)
                    v += 1
            done[v0] = out
        lists.append(out)
    lists.reverse()
    return lists


def subelem(tree: DocTree, v0: int, path) -> list[int]:
    """The hits of one context: see walk."""
    return walk(tree, (v0,), path)[0]


def holders(tree: DocTree, path: PathRegex, rng: Range, test) -> list[int]:
    """In id order, the nodes x for which some node of
    ``apply_range(subelem(tree, x, path), rng)`` passes test.

    A finite path language, whose longest word has L labels, takes one
    walk.  Its contexts are every node when the path matches the empty
    word, and otherwise the parents of the nodes whose tag steps the start
    state to a live one, the only nodes with a hit.  A context's pass stops
    below any node whose state has no labelled move, so it visits its
    nodes at most L levels down, and the walk costs O(N·L); the range,
    which must be structured, then selects per context.  Any other path
    needs the ``*`` range: one bottom-up pass over the ids in descending
    order gives each node the bitmask of NFA states from which its subtree
    completes a match at a node passing test, ORed into its parent's
    through its own tag with ``PathAutomaton.pre``, in O(N).  test runs at
    most once per node.
    """
    aut = compile_path(path)
    tags, parents = tree.tags, tree.parents
    n = len(tags)
    if not is_finite(path):
        if not isinstance(rng, StarRange):
            raise ValueError("a ranged infinite path has no one-pass holders")
        back, pre = aut.back, aut.pre
        final, start_bit = aut.final_mask, aut.start_bit
        masks = [0] * n
        out = []
        for v in range(n - 1, -1, -1):
            m = masks[v]
            if test(v):
                m |= final
            if m & start_bit:
                out.append(v)
            p = parents[v]
            if m and p is not None:
                tag = tags[v]
                b = back[tag].get(m)
                masks[p] |= pre(tag, m) if b is None else b
        out.reverse()
        return out

    start = aut.start
    if aut.accept[start]:
        contexts = range(n)
    else:  # the parents of the nodes whose tag leaves the start state alive
        first = aut.delta[start]
        live = {
            t for t in set(tags) if (first[t] if t in first else aut.step(start, t))
        }
        contexts = sorted({parents[v] for v in range(1, n) if tags[v] in live})
    out, passed = [], {}
    for x, seq in zip(contexts, walk(tree, contexts, aut)):
        for i in _positions(rng, len(seq)):
            y = seq[i]
            ok = passed.get(y)
            if ok is None:
                ok = passed[y] = test(y)
            if ok:
                out.append(x)
                break
    return out
