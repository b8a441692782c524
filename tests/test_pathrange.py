"""Path regexes, ranges, and the subelem primitive, cross-checked against
the brute-force oracles."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountedList
from wraplab import doctree, hel
from wraplab import pathrange as pr
from wraplab import rpn
from wraplab import testkit as tk
from wraplab.doctree import DocTree, parse_document

DOC1 = parse_document(tk.DOC1)


# ---------------------------------------------------------------------------
# path syntax


def test_parse_precedence():
    assert pr.parse_path("a|b.c") == pr.alt(
        pr.Atom("a"), pr.concat(pr.Atom("b"), pr.Atom("c"))
    )
    assert pr.parse_path("(a|b).c") == pr.concat(
        pr.alt(pr.Atom("a"), pr.Atom("b")), pr.Atom("c")
    )
    assert pr.parse_path("a.b*") == pr.concat(pr.Atom("a"), pr.Star(pr.Atom("b")))
    assert pr.parse_path("(a.b)*") == pr.Star(
        pr.concat(pr.Atom("a"), pr.Atom("b"))
    )
    assert pr.parse_path("()") == pr.Epsilon()
    assert pr.parse_path("_*.td") == pr.Concat((pr.Star(pr.Wildcard()), pr.Atom("td")))


@pytest.mark.parametrize(
    "text", ["", "a..b", "a|", "(a", "a)", "*", "a.*", "1x", ".a", "a_b", "t#d", "#"]
)
def test_bad_paths_rejected(text):
    with pytest.raises(pr.PathSyntaxError):
        pr.parse_path(text)


@settings(max_examples=300, deadline=None)
@given(st.text("aZ9-_#", max_size=6))
def test_tag_rule_is_the_document_name_rule(name):
    def doc_name(s):
        return re.fullmatch(doctree._NAME, s) is not None

    expected = doc_name(name) or (name[:1] == "#" and doc_name(name[1:]))
    assert (pr.TAG.fullmatch(name) is not None) == expected


@pytest.mark.parametrize(
    "text",
    ["a", "a.b.c", "a|b|c", "(a|b).c*", "_*.td", "((a|b).c)*.d", "_", "()|a"],
)
def test_path_text_round_trip(text):
    ast = pr.parse_path(text)
    assert pr.parse_path(pr.path_to_text(ast)) == ast


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_random_path_text_round_trip(seed):
    text = tk.gen_path_text(seed)
    ast = pr.parse_path(text)
    assert pr.parse_path(pr.path_to_text(ast)) == ast


# ---------------------------------------------------------------------------
# subelem


def path(text):
    return pr.parse_path(text)


def test_subelem_on_doc1():
    assert pr.subelem(DOC1, 0, path("html.body.table.tr")) == [4, 9, 14]
    assert pr.subelem(DOC1, 0, path("_*.td")) == [5, 7, 10, 12, 15, 17]
    assert pr.subelem(DOC1, 4, path("td")) == [5, 7]
    assert pr.subelem(DOC1, 4, path("td.#text")) == [6, 8]
    assert pr.subelem(DOC1, 1, path("body.table.tr")) == [4, 9, 14]


def test_word_excludes_start_label():
    # from the table node, the word to a tr is just "tr"
    assert pr.subelem(DOC1, 3, path("tr")) == [4, 9, 14]
    assert pr.subelem(DOC1, 3, path("table.tr")) == []


def test_start_node_selected_only_for_empty_word():
    assert pr.subelem(DOC1, 4, path("()")) == [4]
    assert pr.subelem(DOC1, 4, path("td*")) == [4, 5, 7]
    assert pr.subelem(DOC1, 4, path("td")) == [5, 7]


def test_wildcard_matches_text_labels():
    t = parse_document("<a><b>x</b><b>y</b></a>")
    assert pr.subelem(t, 1, path("_")) == [2, 4]
    assert pr.subelem(t, 1, path("_*")) == [1, 2, 3, 4, 5]
    assert pr.subelem(t, 2, path("_")) == [3]


def test_subelem_results_are_document_ordered():
    hits = pr.subelem(DOC1, 0, path("_*"))
    assert hits == sorted(hits)
    assert hits == list(range(19))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_subelem_matches_naive_enumeration(tree_seed, path_seed):
    t = tk.gen_tree(tk.TreeGenSpec(seed=tree_seed, max_nodes=30))
    p = pr.parse_path(tk.gen_path_text(path_seed))
    for v0 in t.nodes():
        assert pr.subelem(t, v0, p) == tk.naive_subelem(t, v0, p)


def _deep_doc(rng, depth: int) -> str:
    """A chain of random elements, some carrying text or a leaf sibling."""
    tags = [rng.choice("abc") for _ in range(depth)]
    opened = "".join(
        f"<{t}>"
        + ("x" if rng.random() < 0.3 else "")
        + (f"<{rng.choice('abc')}/>" if rng.random() < 0.3 else "")
        for t in tags
    )
    return opened + "".join(f"</{t}>" for t in reversed(tags))


def _wide_doc(rng, width: int) -> str:
    """One element over random children, each empty, text, or one level."""
    kids = []
    for _ in range(width):
        t = rng.choice("abc")
        kids.append(f"<{t}>{rng.choice(['', 'x', '<a/>', '<b>y</b>'])}</{t}>")
    return "<c>" + "".join(kids) + "</c>"


@pytest.mark.parametrize("shape", ["deep", "wide"])
def test_subelem_matches_naive_on_large_shapes(shape):
    rng = random.Random(f"subelem-{shape}")
    source = _deep_doc(rng, 3000) if shape == "deep" else _wide_doc(rng, 3000)
    t = parse_document(source)
    starts = [0, 1] + rng.sample(range(2, len(t)), 3)
    texts = ["_*.a", "(a|b)*.c", "(_._)*.b"]  # these reach the whole depth
    for text in texts + [tk.gen_path_text(seed) for seed in range(12)]:
        p = pr.parse_path(text)
        for v0 in starts:
            assert pr.subelem(t, v0, p) == tk.naive_subelem(t, v0, p)


def test_child_step_from_the_top_of_a_deep_chain_allocates_little():
    # a child step visits two nodes, however deep the subtree below them
    n = 100_000
    t = DocTree.from_parents(["#doc"] + ["a"] * n, [None, *range(n)], [""] * (n + 1))
    p = pr.parse_path("a")
    assert pr.subelem(t, 1, p) == [2]
    tracemalloc.start()
    try:
        pr.subelem(t, 1, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


class _Done(dict):
    """A done map that counts the passes it spliced into: walk reads an
    item only to take over a nested context's hits."""

    spliced = 0

    def __getitem__(self, v):
        self.spliced += 1
        return super().__getitem__(v)


@pytest.mark.parametrize("profile", sorted(tk.TREE_PROFILES))
def test_nested_contexts_share_one_walk(profile):
    # one walk over many contexts, as the statement walker and the chain
    # rules make; each list must equal the context's own naive walk
    spliced = 0
    for seed in range(150):
        spec = tk.TreeGenSpec.profile(profile, seed, max_nodes=60)
        t = tk.gen_tree(spec)
        rnd = random.Random(seed)
        text = tk.gen_path_text(seed, tags=spec.tags, max_depth=3)
        if seed % 2 == 0:  # stars that step back to the start state
            text = rnd.choice(["_*", f"{spec.tags[0]}*"]) + f".({text})"
        p = pr.parse_path(text)
        contexts = sorted(rnd.sample(range(len(t)), rnd.randint(1, len(t))))
        done = _Done()
        for v, hits in zip(contexts, pr.walk(t, contexts, p, done), strict=True):
            assert hits == dict.get(done, v) == tk.naive_subelem(t, v, p), (seed, text, v)
        spliced += done.spliced
    assert spliced >= 100, spliced


def test_star_states_step_back_to_the_start():
    # states are keyed by the positions they may read next and acceptance,
    # so a star's loop and an unmatched tag under _* return to start
    b_l = pr.compile_path("b*.l")
    assert b_l.step(b_l.start, "b") == b_l.start
    desc = pr.compile_path("_*.b")
    assert desc.step(desc.start, "a") == desc.start
    assert desc.step(desc.start, "b") != desc.start


def _naive_holders(t, p, rng, test) -> list:
    return [
        x for x in t.nodes()
        if any(test(y) for y in tk.naive_select(tk.naive_subelem(t, x, p), rng))
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(tk.TREE_PROFILES)),
    st.integers(0, 10**6),
    st.one_of(  # gen_path_text draws no (), so the empty word is added here
        st.integers(0, 10**6).map(lambda seed: tk.gen_path_text(seed, max_depth=3)),
        st.sampled_from(["()", "(a|())", "(_._|())"]),
    ),
    st.sampled_from(["*", "0", "1", "1-2", "0,2", "last"]),
)
def test_holders_match_per_node_selection(profile, tree_seed, path_text, rng_text):
    t = tk.gen_tree(tk.TreeGenSpec.profile(profile, tree_seed, max_nodes=40))
    p = pr.parse_path(path_text)
    rng = pr.parse_range(rng_text if pr.is_finite(p) else "*")
    for test in (lambda y: True, lambda y: t.tags[y] in ("a", "#text")):
        assert pr.holders(t, p, rng, test) == _naive_holders(t, p, rng, test)


def test_holders_call_the_test_once_per_node():
    t = tk.gen_tree(tk.TreeGenSpec.profile("one_tag", 5, max_nodes=60))
    for text in ("_|_._|()", "_*"):
        seen = []
        pr.holders(t, pr.parse_path(text), pr.StarRange(), lambda y: seen.append(y) or False)
        assert len(seen) == len(set(seen)) == len(t)


def _chain_or_list(shape: str, n: int) -> DocTree:
    """n nodes below the root, tagged a, a, b in turn: one chain, or a
    list of a and b items, each over one a or b."""
    tags = ["#doc"] + ["aab"[i % 3] for i in range(n)]
    if shape == "deep":
        parents = [None, *range(n)]
    else:
        parents = [None] + [0 if i % 2 == 0 else i for i in range(n)]
    return DocTree.from_parents(tags, parents, [""] * (n + 1))


@pytest.mark.parametrize("shape", ["deep", "wide"])
@pytest.mark.parametrize("text", ["a.a[0]", "a.b[last]", "(a|())[0]", "_._[1]"])
def test_finite_holders_read_linearly_many_tags(shape, text):
    # each context's walk stops below its hits' level, so no node is read
    # from more contexts than the path has labels
    path, rng = text.rsplit("[", 1)
    p, r = pr.parse_path(path), pr.parse_range(rng.rstrip("]"))
    test = lambda y: y % 2 == 0
    counts = []
    for n in (1000, 4000):
        t = _chain_or_list(shape, n)
        expected = [
            x for x in t.nodes()
            if any(map(test, pr.apply_range(pr.subelem(t, x, p), r)))
        ]
        t.tags = tags = CountedList(t.tags)
        assert pr.holders(t, p, r, test) == expected
        counts.append(tags.reads)
    assert counts[1] / counts[0] <= 4.5, counts


def _rows(n: int) -> str:
    cells = "".join(
        f"<tr><td>{'item' if r % 3 else 'x'}</td><td>v{r}</td></tr>" for r in range(n)
    )
    return f"<html><body><table>{cells}</table></body></html>"


def test_automaton_steps_do_not_grow_with_the_document(monkeypatch):
    # a step is a determinisation miss: each (DFA state, tag) pair is
    # stepped once, so a larger table over the same tags costs no more
    calls = [0]
    step = pr.PathAutomaton.step

    def counted(self, state, tag):
        calls[0] += 1
        return step(self, state, tag)

    monkeypatch.setattr(pr.PathAutomaton, "step", counted)
    stmt = rpn.parse_rpn('(_*.tr){td[0].txt = "item"}.td[1].txt')
    counts = []
    for n in (100, 2000):
        monkeypatch.setattr(pr, "_automata", {})  # every run starts cold
        calls[0] = 0
        rpn.eval_rpn(stmt, parse_document(_rows(n)))
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0, counts


# ---------------------------------------------------------------------------
# range syntax


def test_parse_ranges():
    assert pr.parse_range("*") == pr.StarRange()
    assert pr.parse_range("3") == pr.Index(3)
    assert pr.parse_range("1-4") == pr.Interval(1, 4)
    assert pr.parse_range("0,2-3,7") == pr.IntervalUnion(
        ((0, 0), (2, 3), (7, 7))
    )
    assert pr.parse_range("last") == pr.Last()
    assert pr.parse_range("regex:10*") == pr.RawRegex(
        pr.concat(pr.Atom("1"), pr.Star(pr.Atom("0")))
    )
    # 01-regex atoms juxtapose; dots are allowed but not required
    assert pr.parse_range("regex:0.1.0*") == pr.parse_range("regex:010*")


@pytest.mark.parametrize(
    "text", ["", "4-2", "-1", "a", "1,", "1-2-3", "regex:", "regex:2"]
)
def test_bad_ranges_rejected(text):
    with pytest.raises((pr.RangeSyntaxError, pr.PathSyntaxError)):
        pr.parse_range(text)


@pytest.mark.parametrize(
    "text", ["*", "0", "2-5", "0,2-3,7", "last", "regex:010*", "regex:0*1"]
)
def test_range_text_round_trip(text):
    rng = pr.parse_range(text)
    assert pr.parse_range(pr.range_to_text(rng)) == rng


@pytest.mark.parametrize(
    "text, canonical",
    [("LAST", "last"), ("Last", "last"), ("REGEX:10*", "regex:10*"),
     (" Regex:0*1 ", "regex:0*1")],
)
def test_range_keywords_are_read_in_any_case(text, canonical):
    rng = pr.parse_range(text)
    assert pr.range_to_text(rng) == canonical
    assert pr.parse_range(canonical) == rng


def test_statement_range_keywords_are_read_in_any_case():
    w = rpn.parse_rpn("a[LAST].b[REGEX:1].txt")
    assert rpn.statement_to_text(w) == "a[last].b[regex:1].txt"
    assert rpn.parse_rpn(rpn.statement_to_text(w)) == w
    s = hel.parse_hel("a[i:LAST].b[Last].c[REGEX:1].txt;")
    assert s == hel.parse_hel("a[i:last].b[last].c[regex:1].txt;")
    with pytest.raises(hel.HelError):  # a keyword in any case is no variable
        hel.parse_hel("a[LAST:*].txt;")


# ---------------------------------------------------------------------------
# range application


SEQ = [10, 20, 30, 40, 50]


def test_structured_ranges_select_by_position():
    assert pr.apply_range(SEQ, pr.parse_range("*")) == SEQ
    assert pr.apply_range(SEQ, pr.parse_range("1")) == [20]
    assert pr.apply_range(SEQ, pr.parse_range("9")) == []
    assert pr.apply_range(SEQ, pr.parse_range("1-2")) == [20, 30]
    assert pr.apply_range(SEQ, pr.parse_range("3-9")) == [40, 50]
    assert pr.apply_range(SEQ, pr.parse_range("0,2-3")) == [10, 30, 40]
    assert pr.apply_range(SEQ, pr.parse_range("last")) == [50]
    assert pr.apply_range([], pr.parse_range("last")) == []
    assert pr.apply_range([], pr.parse_range("*")) == []


def test_last_is_backward_first():
    rng = pr.parse_range("regex:10*")
    for n in range(6):
        seq = SEQ[:n]
        expect = seq[-1:]
        assert pr.apply_range(seq, pr.parse_range("last")) == expect
        if n:  # the regex form needs a word of that length
            assert pr.apply_range(seq[::-1], rng)[::-1] == expect


def test_raw_regex_selects_marked_positions():
    assert pr.apply_range(list("abcde"), pr.parse_range("regex:010*")) == ["b"]
    assert pr.unique_word(pr.parse_range("regex:010*"), 5) == "01000"
    assert pr.unique_word(pr.parse_range("regex:10*"), 3) == "100"
    assert tk.naive_select(list("abcde"), pr.parse_range("regex:010*")) == ["b"]


def test_raw_regex_without_word_of_the_length():
    rng = pr.parse_range("regex:01")
    with pytest.raises(pr.NoWordOfLength):
        pr.apply_range(SEQ, rng)
    assert pr.apply_range(list("ab"), rng) == ["b"]
    # beyond the probe bound the check degrades to an empty selection
    assert pr.apply_range(list(range(70)), rng) == []


def test_raw_regex_with_several_words_past_the_probe():
    # the density probe checks lengths below 64 only, so this parses
    rng = pr.parse_range("regex:" + "0" * 64 + "(0|1)")
    with pytest.raises(pr.MultipleWords) as info:
        pr.apply_range(list(range(65)), rng)
    assert info.value.length == 65
    with pytest.raises(tk.MultipleWords):
        tk.naive_select(list(range(65)), rng)


def test_density_violation_detected_at_parse():
    with pytest.raises(pr.MultipleWords) as info:
        pr.parse_range("regex:1*01*")
    assert info.value.length == 2
    with pytest.raises(pr.MultipleWords):
        pr.parse_range("regex:(0|1)")


@st.composite
def structured_ranges(draw):
    kind = draw(st.sampled_from(["*", "i", "iv", "union", "last"]))
    if kind == "*":
        return pr.StarRange()
    if kind == "i":
        return pr.Index(draw(st.integers(0, 8)))
    if kind == "iv":
        lo = draw(st.integers(0, 6))
        return pr.Interval(lo, lo + draw(st.integers(0, 4)))
    if kind == "union":
        pieces = []
        for _ in range(draw(st.integers(1, 3))):
            lo = draw(st.integers(0, 8))
            pieces.append((lo, lo + draw(st.integers(0, 2))))
        return pr.IntervalUnion(tuple(pieces))
    return pr.Last()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(), max_size=12), structured_ranges())
def test_apply_range_matches_direct_indexing(seq, rng):
    got = pr.apply_range(seq, rng)
    assert got == [seq[i] for i in tk.naive_positions(rng, len(seq))]

