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

Ranges come in four forms.  Three are structured and select by direct
indexing, never failing: ``*``, a union of intervals (``3`` is the union
of one), and ``last``.  The fourth is a raw regular expression over {0,1}
that must mark positions deterministically: at most one word per length
(checked up to a probe bound when it is parsed).  The word for length k
has a 1 at each selected position.

The lexical rules that every wrapper parser shares live here too: ``TAG``,
the document's tag-name rule, ``STRING``, the "..." literal, and ``scan``,
the statement parser's quote- and bracket-aware loop (the program reader
matches patterns built from ``STRING`` instead).  So do ``TextError``,
the base of every parser's error, and ``_Reader``, the one cursor that the
path, statement and schema grammars read through, with one whitespace rule.
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


# what may stand between any two tokens of a path, a statement or a schema
_WHITESPACE = " \t\r\n"


class _Reader:
    """A cursor over wrapper text: pos is an offset into text, ws skips
    _WHITESPACE, and error raises the grammar's error_class, a TextError,
    at pos."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def peek(self, k: int = 1) -> str:
        self.ws()
        return self.text[self.pos : self.pos + k]

    def eat(self, s: str) -> None:
        if self.peek(len(s)) != s:
            self.error(f"expected {s!r}")
        self.pos += len(s)

    def end(self) -> None:
        if self.peek():
            self.error("trailing input")

    def error(self, message: str):
        raise self.error_class(message, self.pos)


# ---------------------------------------------------------------------------
# textual syntax: tags, '.', '|', '*', '_', parentheses


class _PathParser(_Reader):
    """Recursive descent over the path syntax; '.' binds tighter than '|'.
    Its faults are PathSyntaxErrors, also inside a statement."""

    error_class = PathSyntaxError
    juxtaposed = ""  # what starts a factor that follows one without a '.'

    def parse(self) -> PathRegex:
        node = self._alt()
        self.end()
        return node

    def _alt(self) -> PathRegex:
        parts = [self._concat()]
        while self.peek() == "|":
            self.pos += 1
            parts.append(self._concat())
        return alt(*parts)

    def _concat(self) -> PathRegex:
        parts = [self._starred()]
        while True:
            c = self.peek()
            if c == ".":
                self.pos += 1
            elif not c or c not in self.juxtaposed:
                break
            parts.append(self._starred())
        return concat(*parts)

    def _starred(self) -> PathRegex:
        node = self._primary()
        while self.peek() == "*":
            self.pos += 1
            node = Star(node)
        return node

    def _primary(self) -> PathRegex:
        if self.peek() == "(":
            self.pos += 1
            if self.peek() == ")":  # '()' names the empty word
                self.pos += 1
                return Epsilon()
            node = self._alt()
            if self.peek() != ")":
                raise PathSyntaxError("missing ')'", self.pos)
            self.pos += 1
            return node
        return self._label()

    def _label(self) -> PathRegex:
        t = self.tag()
        if t is None:
            c = self.peek()
            reason = f"unexpected {c!r}" if c else "unexpected end of path"
            raise PathSyntaxError(reason, self.pos)
        return Wildcard() if t == "_" else Atom(t)

    def tag(self) -> str | None:
        """The tag or '_' at the cursor, read, in lower case; or None."""
        if self.peek() == "_":
            self.pos += 1
            return "_"
        m = TAG.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group().lower()


class _BinaryParser(_PathParser):
    """01-regexes: the atoms are the digits 0 and 1, which also juxtapose."""

    juxtaposed = "01("

    def _label(self) -> PathRegex:
        c = self.peek()
        if not c or c not in "01":
            raise PathSyntaxError("expected 0 or 1", self.pos)
        self.pos += 1
        return Atom(c)


def parse_path(text: str) -> PathRegex:
    if not text.strip():
        raise PathSyntaxError("empty path expression")
    word = text.strip(_WHITESPACE)  # a path of one label is read without the parser
    if word == "_":
        return Wildcard()
    if TAG.fullmatch(word):
        return Atom(word.lower())
    return _PathParser(text).parse()


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
# Glushkov's position automaton, determinised lazily


def _bits(mask: int):
    """The indices of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PathAutomaton:
    """Glushkov's position automaton, determinised on demand.

    Each ``Atom`` and ``Wildcard`` of the path is a position, and p's
    follow set holds the positions that may be read right after p, plus
    the end bit ``final_mask``, the one past every position, when a word
    may end at p (Berry & Sethi, *From regular expressions to deterministic
    automata*, TCS 1986).  There are no ε-moves.  A DFA state is a bitmask
    of the positions that may be read next, with the end bit when it
    accepts; ``start_mask`` is the start state's.  Thus ``b*.l`` steps from ``start`` back to ``start`` on ``b``, and
    ``_*.b`` on every tag but ``b``.  States are numbered in the order they
    were first reached: 0 is the empty (dead) mask and ``start`` is 1.
    ``delta[s]`` caches state s's transitions by tag, so ``step``, the
    subset construction, runs once per (state, tag) pair ever taken.
    ``stop[s]`` says that s has no position, so that no node below one in
    state s matches: s is dead, or terminal if it accepts.
    """

    start = 1

    def __init__(self, ast: PathRegex):
        self._reads: defaultdict = defaultdict(int)  # tag or None ('_') -> positions
        self._follow: list[int] = []
        nullable, first, last = self._build(ast)
        self.final_mask = end = 1 << len(self._follow)
        for p in _bits(last):
            self._follow[p] |= end
        self._keys: list[int] = [0]
        self._ids = {0: 0}
        self.delta: list[dict[str, int]] = [{}]
        self.accept = [False]
        self.stop = [True]
        self.start_mask = first | end if nullable else first
        self._state(self.start_mask)
        self.back: defaultdict = defaultdict(dict)  # tag -> mask -> mask

    def _build(self, ast) -> tuple[bool, int, int]:
        """Number ast's positions and fill their follow sets; return whether
        ast matches the empty word, and its first and last positions."""
        follow = self._follow
        if isinstance(ast, (Atom, Wildcard)):
            p = 1 << len(follow)
            follow.append(0)
            self._reads[ast.tag if isinstance(ast, Atom) else None] |= p
            return False, p, p
        if isinstance(ast, Epsilon):
            return True, 0, 0
        if isinstance(ast, Concat):
            nullable, first, last = True, 0, 0
            for item in ast.items:
                n, f, l = self._build(item)
                for p in _bits(last):
                    follow[p] |= f
                first |= f if nullable else 0
                last = last | l if n else l
                nullable = nullable and n
            return nullable, first, last
        if isinstance(ast, Alt):
            nullable, first, last = False, 0, 0
            for item in ast.items:
                n, f, l = self._build(item)
                nullable, first, last = nullable or n, first | f, last | l
            return nullable, first, last
        if isinstance(ast, Star):
            _, first, last = self._build(ast.item)
            for p in _bits(last):
                follow[p] |= first
            return True, first, last
        raise TypeError(f"not a path node: {ast!r}")

    def _state(self, key: int) -> int:
        """The DFA state of a mask of positions and end bit, new or not."""
        d = self._ids.get(key)
        if d is None:
            d = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self.delta.append({})
            self.accept.append(key >= self.final_mask)
            self.stop.append(not key & (self.final_mask - 1))
        return d

    def step(self, state: int, tag: str) -> int:
        """Determinise the transition from DFA state on tag and cache it:
        the union of the follow sets of its positions that read tag."""
        reads, nxt = self._reads, 0
        for p in _bits(self._keys[state] & (reads.get(tag, 0) | reads[None])):
            nxt |= self._follow[p]
        d = self.delta[state][tag] = self._state(nxt)
        return d

    def pre(self, tag: str, mask: int) -> int:
        """The positions that read tag and whose follow set meets mask;
        cached in ``back``."""
        out = 0
        for p in _bits(self._reads.get(tag, 0) | self._reads[None]):
            if self._follow[p] & mask:
                out |= 1 << p
        self.back[tag][mask] = out
        return out

    def determinise(self, alphabet: str) -> list[list[int]]:
        """The complete DFA over a fixed alphabet: row s lists state s's
        successor on each symbol in turn."""
        rows: list[list[int]] = []
        while len(rows) < len(self._keys):
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
class IntervalUnion:
    intervals: tuple  # of (lo, hi) pairs, inclusive and 0-based


@dataclass(frozen=True)
class Last:
    pass


@dataclass(frozen=True)
class RawRegex:
    pattern: object  # path AST over the atoms "0" and "1"


Range = object  # union of the four range classes

# a union's item: a position, or two joined by '-', in ASCII digits
_ITEM = re.compile(rf"([0-9]+)(?:[{_WHITESPACE}]*-[{_WHITESPACE}]*([0-9]+))?")


def parse_range(text: str) -> Range:
    """Parse the surface range syntax: '*', items 'i' and 'i-j' joined by
    ',', 'last', 'regex:..'; the keywords are read in any case."""
    body = text.strip(_WHITESPACE)
    if not body:
        raise RangeSyntaxError("empty range")
    if body == "*":
        return StarRange()
    if body.lower() == "last":
        return Last()
    if body[:6].lower() == "regex:":
        if not body[6:].strip(_WHITESPACE):
            raise RangeSyntaxError("empty range regex")
        try:
            pattern = _BinaryParser(body[6:]).parse()
        except PathSyntaxError as exc:  # its offset counts in the regex alone
            raise RangeSyntaxError(exc.reason) from None
        rng = RawRegex(pattern)
        _dfa(rng)  # which rejects a regex with two words of one length
        return rng
    pairs = []
    for part in body.split(","):
        part = part.strip(_WHITESPACE)
        m = _ITEM.fullmatch(part)
        if m is None:
            raise RangeSyntaxError(f"bad range item {part!r}")
        lo = int(m[1])
        hi = lo if m[2] is None else int(m[2])
        if hi < lo:
            raise RangeSyntaxError(f"bad range bounds {part!r}")
        pairs.append((lo, hi))
    return IntervalUnion(tuple(pairs))


def range_to_text(rng: Range) -> str:
    if isinstance(rng, StarRange):
        return "*"
    if isinstance(rng, IntervalUnion):
        return ",".join(str(l) if l == h else f"{l}-{h}" for l, h in rng.intervals)
    if isinstance(rng, Last):
        return "last"
    if isinstance(rng, RawRegex):
        return "regex:" + path_to_text(rng.pattern, sep="")
    raise TypeError(f"not a range: {rng!r}")


class _BinaryDfa:
    """A range regex's DFA over {0,1}, which counts its words of each
    length, saturated at 2.  Building it runs the density probe: two words
    of one length below DENSITY_PROBE raise MultipleWords."""

    def __init__(self, pattern):
        aut = PathAutomaton(pattern)
        self.trans = aut.determinise("01")
        self.start = aut.start
        self._counts = [[1 if a else 0 for a in aut.accept]]  # counts[m][s]
        for k in range(DENSITY_PROBE):
            if self._count(k)[self.start] > 1:
                raise MultipleWords(k)

    def _count(self, length: int) -> list[int]:
        while len(self._counts) <= length:
            prev = self._counts[-1]
            self._counts.append([min(2, prev[a] + prev[b]) for a, b in self.trans])
        return self._counts[length]

    def positions(self, k: int) -> list[int]:
        """The positions that the one word of length k marks with a 1.
        Without a word, none past the probe and NoWordOfLength below it;
        with several, MultipleWords."""
        total = self._count(k)[self.start]
        if total > 1:
            raise MultipleWords(k)
        if total == 0:
            if k >= DENSITY_PROBE:
                return []  # beyond the probe: select nothing
            raise NoWordOfLength(k)
        out, state = [], self.start
        for i in range(k):
            zero, one = self.trans[state]
            if self._count(k - 1 - i)[one]:
                out.append(i)
                state = one
            else:
                state = zero
        return out


_dfas: dict = {}


def _dfa(rng: RawRegex) -> _BinaryDfa:
    dfa = _dfas.get(rng.pattern)
    if dfa is None:
        dfa = _dfas[rng.pattern] = _BinaryDfa(rng.pattern)
    return dfa


def _positions(rng: Range, k: int) -> list[int] | range:
    if isinstance(rng, RawRegex):
        return _dfa(rng).positions(k)
    if isinstance(rng, IntervalUnion) and len(rng.intervals) > 1:
        picked = set()
        for lo, hi in rng.intervals:
            picked.update(range(lo, min(hi + 1, k)))
        return sorted(picked)
    return apply_range(range(k), rng)


def apply_range(seq: list, rng: Range) -> list:
    """Select positions of a duplicate-free document-ordered sequence.

    The ``*`` range returns seq itself, not a copy, so callers must not
    mutate the result; a union of one interval and ``last`` slice it.
    Structured ranges never raise; raw regexes raise NoWordOfLength /
    MultipleWords on density violations.
    """
    cls = type(rng)
    if cls is StarRange:
        return seq
    if cls is IntervalUnion and len(rng.intervals) == 1:
        lo, hi = rng.intervals[0]
        return seq[lo : hi + 1]
    if cls is Last:
        return seq[-1:]
    if cls is IntervalUnion or cls is RawRegex:
        return [seq[i] for i in _positions(rng, len(seq))]
    raise TypeError(f"not a range: {rng!r}")


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
    order gives each node the bitmask of the positions that, read at one of
    its children, lead on to a match at a node passing test, with the end
    bit when the node itself passes; the children's masks reach their
    parent through their tags with ``PathAutomaton.pre``, and a node holds
    when its mask meets the start state's.  This takes O(N), and test runs
    at most once per node.
    """
    aut = compile_path(path)
    tags, parents = tree.tags, tree.parents
    n = len(tags)
    if not is_finite(path):
        if not isinstance(rng, StarRange):
            raise ValueError("a ranged infinite path has no one-pass holders")
        back, pre = aut.back, aut.pre
        final, start_mask = aut.final_mask, aut.start_mask
        masks = [0] * n
        out = []
        for v in range(n - 1, -1, -1):
            m = masks[v]
            if test(v):
                m |= final
            if m & start_mask:
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
