"""Ordered, tag-labeled document trees.

This is the shared document model every other module works against.  A
document is parsed from a small HTML-like surface syntax into an immutable
tree whose nodes are numbered densely in preorder, so node ids double as
document order: ``v < w`` iff v starts before w in the source text.

The tree is stored as parallel lists indexed by node id.  Because ids are
preorder, the subtree of v is the id interval ``v .. ends[v]``: v's first
child, if any, is ``v + 1``, and its next sibling is ``ends[v] + 1`` when
that still lies inside the parent's interval.

Two tag names are reserved: the synthetic root is labeled ``#doc`` and text
is stored in leaf nodes labeled ``#text``.  Text content is kept verbatim;
no whitespace trimming or entity decoding happens anywhere.

A node's text, the concatenation of the text leaves below it, is one slice
of all the texts joined in id order, built on the first text read.

Parsing is one pass over the tokens of one compiled alternation,
``_TOKEN``, whose matches cover the whole source: a text run; an open tag,
which is scanned once and is either self-closing, or open, or a whole
text-only element ``<td>x</td>`` (both its nodes at once); a close tag; a
comment or declaration; or a '<' that starts none of these.  Tokens carry
no offsets; an error's offset is found only when raising, by matching the
pattern again up to the failing token.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice

ROOT_TAG = "#doc"
TEXT_TAG = "#text"


class MalformedInput(Exception):
    """Raised by parse_document, carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DocTree:
    """Immutable ordered tree; node ids are dense ints in document order.

    ``tags``, ``parents`` (None at the root), ``texts`` (nonempty only for
    #text nodes) and ``ends`` (the id of each node's last descendant, the
    node itself for a leaf) are read-only lists indexed by node id.
    ``scratch``, also indexed by node id, is working space that a walk
    over the tree may overwrite; nothing may rely on what it holds.

    ``txt(v)`` is ``_text[_starts[v] : _starts[ends[v] + 1]]``: ``_text``
    joins ``texts`` and ``_starts[v]`` sums the lengths before v, both
    built in O(N) on the first text read.  That slice is v's subtree text
    only because every node but a #text leaf has the empty text.
    """

    def __init__(self, tags: list, parents: list, texts: list, ends: list):
        self.tags = tags
        self.parents = parents
        self.texts = texts
        self.ends = ends
        self._by_label: dict[str, list[int]] | None = None
        self._prev: list | None = None
        self._text, self._starts = "", None  # set by _index_text
        self.scratch = [0] * len(tags)

    @classmethod
    def from_parents(cls, tags: list, parents: list, texts: list) -> DocTree:
        """A tree from preorder-numbered nodes; subtree ends are derived."""
        ends = list(range(len(tags)))
        for v in range(len(tags) - 1, 0, -1):
            ends[parents[v]] = max(ends[parents[v]], ends[v])
        return cls(tags, parents, texts, ends)

    def __len__(self) -> int:
        return len(self.tags)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DocTree):
            return NotImplemented
        return (self.tags, self.texts, self.parents) == (
            other.tags, other.texts, other.parents
        )

    def nodes(self) -> range:
        """All node ids in document order."""
        return range(len(self.tags))

    def label(self, v: int) -> str:
        return self.tags[v]

    def text_of(self, v: int) -> str:
        return self.texts[v]

    def children(self, v: int) -> list[int]:
        ends = self.ends
        out = []
        c, last = v + 1, ends[v]
        while c <= last:
            out.append(c)
            c = ends[c] + 1
        return out

    def parent(self, v: int) -> int | None:
        return self.parents[v]

    def root(self) -> int:
        return 0

    def top_element(self) -> int:
        # the single child of the synthetic root
        return 1

    def firstchild(self, v: int) -> int | None:
        return v + 1 if self.ends[v] > v else None

    def nextsibling(self, v: int) -> int | None:
        p = self.parents[v]
        if p is None:
            return None
        w = self.ends[v] + 1
        return w if w <= self.ends[p] else None

    def prevsibling(self, v: int) -> int | None:
        prev = self._prev
        if prev is None:
            n, parents = len(self.tags), self.parents
            prev = self._prev = [None] * n
            for u, last in enumerate(self.ends):
                if last + 1 < n and parents[last + 1] == parents[u]:
                    prev[last + 1] = u
        return prev[v]

    def lastsibling(self, v: int) -> bool:
        """True iff v has no following sibling."""
        return self.nextsibling(v) is None

    def nodes_labeled(self, tag: str) -> list[int]:
        by_label = self._by_label
        if by_label is None:
            by_label = self._by_label = {}
            for v, t in enumerate(self.tags):
                by_label.setdefault(t, []).append(v)
        return by_label.get(tag, [])

    def descendants(self, v: int) -> list[int]:
        """Nodes strictly below v, in document order."""
        return list(range(v + 1, self.ends[v] + 1))

    def txt(self, v: int) -> str:
        """Concatenation of all text below v (and at v), in document order."""
        starts = self._starts or self._index_text()
        return self._text[starts[v] : starts[self.ends[v] + 1]]

    def txt_equals(self, v: int, s: str) -> bool:
        """Whether txt(v) == s, compared in place in the joined text."""
        starts = self._starts or self._index_text()
        lo, hi = starts[v], starts[self.ends[v] + 1]
        return hi - lo == len(s) and self._text.startswith(s, lo)

    def _index_text(self) -> list[int]:
        self._text = "".join(self.texts)
        self._starts = list(accumulate(map(len, self.texts), initial=0))
        return self._starts


_NAME = r"[A-Za-z][A-Za-z0-9-]*"
_ATTRS = r"""(?:[^>"']|"[^"]*"|'[^']*')*"""  # quoted values skip as a whole
_TAG = rf"<({_NAME})(?![^\s/>])"  # a name ends at space, '/', '>' or the end
# One token per match; the tokens cover the whole source, so findall yields
# them in order.  Groups: (1) a text run; (2) an open tag's name, then (3)
# its self-closing '/', or (4) the text of a text-only element, its close
# tag naming it in any case, or neither for an open tag; (5) a close tag's
# name; none for a comment or a declaration; (6) a '<' that starts none of
# these.  That '<' is an error, so its token takes the rest of the source
# with it: nothing after the first bad '<' is scanned.
_TOKEN = re.compile(
    r"([^<]+)"
    rf"|{_TAG}{_ATTRS}?(?:(/)>|>(?:([^<]+)</(?i:\2)\s*>)?)"
    rf"|</({_NAME})\s*>"
    r"|<!--[\s\S]*?-->|<!(?!--)[^>]*>"
    r"|(<)[\s\S]*"
)


class _Lowered(dict):
    """Tag names folded to lower case, each folded once."""

    def __missing__(self, name: str) -> str:
        tag = self[name] = name.lower()
        return tag


def parse_document(source: str) -> DocTree:
    """Parse one top-level element into a DocTree.

    Supported surface: nested ``<tag ...>``/``</tag>`` pairs, self-closing
    ``<tag/>``, attributes (parsed and discarded), ``<!-- -->`` comments and
    ``<!...>`` declarations (skipped).  Tags are case-normalized to lower
    case, and a close tag matches its open tag's name in any case.  Text
    runs between tags become #text leaves, kept verbatim.  Whitespace-only
    text outside the top element is ignored.

    One pass over ``_TOKEN.findall(source)``, linear in the length of the
    source.  Each open tag is one token, scanned once: self-closing, open,
    or, for a text-only element ``<td>x</td>``, the whole element, which
    adds both its nodes at once.  When the close tag after the text names
    another element, the open tag, the text and the close tag come as
    separate tokens and the mismatch is reported at the close tag.  An
    error's offset is found only when raising, by matching the pattern
    again up to the failing token.
    """
    tags, parents, texts, ends = [ROOT_TAG], [None], [""], [0]
    stack = []  # the parents of the open elements
    parent = 0  # the innermost open element; 0 while none is open
    count = 1  # nodes so far
    lowered = _Lowered()
    tokens = _TOKEN.findall(source)
    for token in tokens:
        run, name, slash, inner, close_name, lone = token
        if run:
            if parent:
                tags.append(TEXT_TAG)
                parents.append(parent)
                texts.append(run)
                ends.append(count)
                count += 1
            elif run.strip():
                i = _offset(source, tokens, token)
                raise MalformedInput("text outside the top-level element", i)
        elif name:
            if not parent and count > 1:
                i = _offset(source, tokens, token)
                raise MalformedInput("more than one top-level element", i)
            if inner:
                tags += (lowered[name], TEXT_TAG)
                parents += (parent, count)
                texts += ("", inner)
                count += 2
                ends += (count - 1, count - 1)
            else:
                tags.append(lowered[name])
                parents.append(parent)
                texts.append("")
                ends.append(count)
                if not slash:
                    stack.append(parent)
                    parent = count
                count += 1
        elif close_name:
            tag = lowered[close_name]
            if not parent:
                i = _offset(source, tokens, token)
                raise MalformedInput(f"unmatched close tag </{tag}>", i)
            if tags[parent] != tag:
                i = _offset(source, tokens, token)
                raise MalformedInput(
                    f"close tag </{tag}> does not match open <{tags[parent]}>", i
                )
            ends[parent] = count - 1
            parent = stack.pop()
        elif lone:
            i = _offset(source, tokens, token)
            if source.startswith("<!--", i):
                raise MalformedInput("unterminated comment", i)
            if source.startswith("<!", i):
                raise MalformedInput("unterminated declaration", i)
            _reject_tag(source, i)

    if parent:
        raise MalformedInput(f"unclosed element <{tags[parent]}>", len(source))
    if count == 1:
        raise MalformedInput("empty document", 0)
    ends[0] = count - 1
    return DocTree(tags, parents, texts, ends)


def _offset(source: str, tokens: list, token: tuple) -> int:
    """Where ``token``, an item of ``_TOKEN.findall(source)``, starts: the
    pattern is matched again up to the token's index."""
    k = next(k for k, t in enumerate(tokens) if t is token)
    return next(islice(_TOKEN.finditer(source), k, None)).start()


def _reject_tag(s: str, i: int) -> None:
    """Raise the error for a '<' at i that starts no well-formed tag."""
    close = s.startswith("</", i)
    j = i + 2 if close else i + 1
    m = re.compile(_NAME).match(s, j)
    if m is None:
        raise MalformedInput("expected tag name", j)
    k = m.end()
    if k < len(s) and not (s[k].isspace() or s[k] in "/>"):
        raise MalformedInput(f"unexpected {s[k]!r} after tag name", k)
    if close:
        raise MalformedInput("malformed close tag", i)
    k = re.compile(_ATTRS).match(s, k).end()
    if k < len(s):
        raise MalformedInput("unterminated attribute value", k)
    raise MalformedInput("unterminated tag", k)


def _events(tree: DocTree, v: int):
    """(entering, w) for each node w of v's subtree, in document order: True
    before w's descendants, False after them."""
    ends = tree.ends
    open_: list[int] = []
    for w in range(v, ends[v] + 1):
        while open_ and ends[open_[-1]] < w:
            yield False, open_.pop()
        yield True, w
        open_.append(w)
    while open_:
        yield False, open_.pop()


def serialize(tree: DocTree) -> str:
    """Inverse of parse_document on its supported subset."""
    out: list[str] = []
    for entering, v in _events(tree, tree.top_element()):
        tag = tree.tags[v]
        if tag == TEXT_TAG:
            out.append(tree.texts[v] if entering else "")
        elif tree.ends[v] == v:
            out.append(f"<{tag}/>" if entering else "")
        else:
            out.append(f"<{tag}>" if entering else f"</{tag}>")
    return "".join(out)


def dump_sexpr(tree: DocTree, v: int | None = None) -> str:
    """S-expression rendering ``(tag child... "text")`` for goldens."""
    out: list[str] = []
    for entering, w in _events(tree, tree.root() if v is None else v):
        if tree.tags[w] != TEXT_TAG:
            out.append(f" ({tree.tags[w]}" if entering else ")")
        elif entering:
            escaped = tree.texts[w].replace("\\", "\\\\").replace('"', '\\"')
            out.append(f' "{escaped}"')
    return "".join(out)[1:]  # no space before the first node
