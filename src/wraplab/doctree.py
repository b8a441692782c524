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
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from itertools import compress

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
    """

    def __init__(self, tags: list, parents: list, texts: list, ends: list):
        self.tags = tags
        self.parents = parents
        self.texts = texts
        self.ends = ends
        self._by_label: dict[str, list[int]] | None = None
        self._prev: list | None = None
        self._text_ids = list(compress(range(len(texts)), texts))  # #text leaves
        self._txt_cache: dict[int, str] = {}
        self._txt_lens: list[int] | None = None  # prefix sums over _text_ids
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
        cached = self._txt_cache.get(v)
        if cached is None:
            ids, texts = self._text_ids, self.texts
            lo = bisect_left(ids, v)
            hi = bisect_right(ids, self.ends[v], lo)
            cached = "".join([texts[t] for t in ids[lo:hi]])
            self._txt_cache[v] = cached
        return cached

    def txt_equals(self, v: int, s: str) -> bool:
        """Whether txt(v) == s, joining the text only when its length,
        read off prefix sums over the #text lengths, is len(s)."""
        cached = self._txt_cache.get(v)
        if cached is not None:
            return cached == s
        lens = self._txt_lens
        if lens is None:
            lens = self._txt_lens = [0]
            for t in self._text_ids:
                lens.append(lens[-1] + len(self.texts[t]))
        ids = self._text_ids
        lo = bisect_left(ids, v)
        hi = bisect_right(ids, self.ends[v], lo)
        return lens[hi] - lens[lo] == len(s) and self.txt(v) == s


_NAME = r"[A-Za-z][A-Za-z0-9-]*"
_ATTRS = r"""(?:[^>"']|"[^"]*"|'[^']*')*"""  # quoted values skip as a whole
# a tag name must end at whitespace, '/', '>' or the end of the input
_OPEN_TAG = re.compile(rf"<({_NAME})(?![^\s/>]){_ATTRS}?(/?)>")
_CLOSE_TAG = re.compile(rf"</({_NAME})\s*>")


def parse_document(source: str) -> DocTree:
    """Parse one top-level element into a DocTree.

    Supported surface: nested ``<tag ...>``/``</tag>`` pairs, self-closing
    ``<tag/>``, attributes (parsed and discarded), ``<!-- -->`` comments and
    ``<!...>`` declarations (skipped).  Tags are case-normalized to lower
    case.  Text runs between tags become #text leaves, kept verbatim.
    Whitespace-only text outside the top element is ignored.
    """
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
