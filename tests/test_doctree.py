"""Document model: parsing, node order, text, serialization."""

import pathlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wraplab.doctree import (
    _TOKEN,
    ROOT_TAG,
    TEXT_TAG,
    DocTree,
    MalformedInput,
    dump_sexpr,
    parse_document,
    serialize,
)
from wraplab.testkit import (
    DOC1,
    TREE_PROFILES,
    TreeGenSpec,
    bchain_doc,
    edit_doc,
    gen_tree,
    items_doc,
    naive_parse_document,
)

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture
def doc1() -> DocTree:
    return parse_document(DOC1)


def test_ids_are_preorder_and_dense(doc1):
    assert list(doc1.nodes()) == list(range(len(doc1)))
    assert len(doc1) == 19
    for v in doc1.nodes():
        for w in doc1.children(v):
            assert w > v
    # children ascend left to right
    for v in doc1.nodes():
        kids = doc1.children(v)
        assert kids == sorted(kids)


def test_root_and_top(doc1):
    assert doc1.root() == 0
    assert doc1.label(0) == ROOT_TAG
    assert doc1.top_element() == 1
    assert doc1.label(1) == "html"


def test_structure_of_doc1(doc1):
    assert dump_sexpr(doc1) == (
        '(#doc (html (body (table (tr (td "item") (td "A")) '
        '(tr (td "x") (td "B")) (tr (td "item") (td "C"))))))'
    )
    assert doc1.nodes_labeled("tr") == [4, 9, 14]
    assert doc1.nodes_labeled("td") == [5, 7, 10, 12, 15, 17]


def test_txt_concatenates_in_document_order(doc1):
    assert doc1.txt(4) == "itemA"
    assert doc1.txt(3) == "itemAxBitemC"
    assert doc1.txt(0) == "itemAxBitemC"
    assert doc1.txt(6) == "item"
    assert doc1.txt(17) == "C"


def test_text_nodes_are_leaves(doc1):
    for v in doc1.nodes():
        if doc1.label(v) == TEXT_TAG:
            assert doc1.children(v) == []
            assert doc1.text_of(v) != ""


def test_navigation(doc1):
    assert doc1.firstchild(3) == 4
    assert doc1.nextsibling(4) == 9
    assert doc1.nextsibling(9) == 14
    assert doc1.nextsibling(14) is None
    assert doc1.lastsibling(14)
    assert not doc1.lastsibling(4)
    assert doc1.firstchild(6) is None
    assert doc1.parent(4) == 3
    assert doc1.parent(0) is None


def test_previous_sibling_mirrors_next(doc1):
    assert doc1.prevsibling(9) == 4
    assert doc1.prevsibling(4) is None
    assert doc1.prevsibling(0) is None
    for v in doc1.nodes():
        w = doc1.nextsibling(v)
        if w is not None:
            assert doc1.prevsibling(w) == v


def test_descendants_in_document_order(doc1):
    assert doc1.descendants(4) == [5, 6, 7, 8]
    assert doc1.descendants(0) == list(range(1, 19))


def test_serialize_round_trip(doc1):
    again = parse_document(serialize(doc1))
    assert again == doc1
    assert serialize(again) == serialize(doc1)


def test_text_is_verbatim():
    t = parse_document("<a>  two  spaces </a>")
    assert t.txt(1) == "  two  spaces "
    t2 = parse_document("<a>\n  <b>x</b>\n</a>")
    # whitespace runs between elements are real text nodes
    assert t2.txt(1) == "\n  x\n"
    assert len(t2.children(1)) == 3


def test_attributes_and_comments_are_skipped():
    t = parse_document('<a href="u>v" id=7><!-- note --><b/>tail</a>')
    assert dump_sexpr(t) == '(#doc (a (b) "tail"))'
    t2 = parse_document("<!DOCTYPE html><a>x</a>")
    assert dump_sexpr(t2) == '(#doc (a "x"))'


def test_tags_lowercased_and_self_closing():
    t = parse_document("<A><Br/></A>")
    assert serialize(t) == "<a><br/></a>"


def test_sexpr_escapes():
    t = parse_document('<a>say "hi" \\ bye</a>')
    assert dump_sexpr(t) == '(#doc (a "say \\"hi\\" \\\\ bye"))'


@pytest.mark.parametrize(
    "source",
    [
        "",
        "   ",
        "<a><b></a>",
        "<a>",
        "</a>",
        "<a/><b/>",
        "free text",
        "<a></a>tail",
        "<a",
        "<1tag></1tag>",
    ],
)
def test_malformed_inputs_rejected(source):
    with pytest.raises(MalformedInput):
        parse_document(source)


@pytest.mark.parametrize(
    "source, offset",
    [("<a_b></a_b>", 2), ("<a><b_c/></a>", 5), ("<a></a_b>", 6), ("<a#b>x</a#b>", 2)],
)
def test_tag_name_must_end_at_space_slash_or_gt(source, offset):
    with pytest.raises(MalformedInput, match="after tag name") as info:
        parse_document(source)
    assert info.value.offset == offset


def parse_outcome(parse, source):
    try:
        t = parse(source)
    except MalformedInput as e:
        return "rejected", str(e), e.offset
    return "accepted", t.tags, t.parents, t.texts, t.ends


# each fails one way of getting the one-token element wrong: a self-closing
# open tag, a close tag in another case, a quoted or unquoted '/', a '>'
# inside an unterminated comment, a close tag naming another element
ORACLE_CASES = [
    "<p/>x</p>",
    "<TR><Td>x</tD></tr>",
    "<a x=/>t</a>",
    '<a x="/">t</a>',
    "<!-- c > <a/>",
    "<a><b>x</c></a>",
    "<a />",
    "<a/ >t</a>",
    '<a x="/"/>',
    "<a x=/ >t</a>",
    "<A/>x</a>",
]


def test_parser_matches_the_tag_at_a_time_oracle():
    bases = [p.read_text() for p in sorted(CORPUS.glob("*/*.doc"))]
    bases += [bchain_doc(3, 2), items_doc(4)]
    rng = random.Random(11)
    sources = ORACLE_CASES + [edit_doc(b, rng) for b in bases for _ in range(1000)]
    seen = {"accepted": 0, "rejected": 0}
    for source in sources:
        got = parse_outcome(parse_document, source)
        assert got == parse_outcome(naive_parse_document, source), source
        seen[got[0]] += 1
    assert seen["accepted"] >= 1200 and seen["rejected"] >= 7500, seen


def test_text_only_elements_are_one_token_in_any_case():
    source = '<TR><Td>x</tD><td a="/" b=\'>\'>y</TD><td/>z<td>w</td ><td>v</b></tr>'
    tokens = _TOKEN.findall(source)
    fused = [(t[1], t[3]) for t in tokens if t[3]]
    assert fused == [("Td", "x"), ("td", "y"), ("td", "w")]
    # every other open tag is one token too: open, or self-closing
    rest = [(t[1], t[2]) for t in tokens if t[1] and not t[3]]
    assert rest == [("TR", ""), ("td", "/"), ("td", "")]


def test_nothing_after_the_first_bad_tag_is_scanned():
    # were the rest tokenized, each '<a "' would scan to the end of the
    # source for its closing quote: quadratic time
    source = "<r>" + '<a "' * 1000
    with pytest.raises(MalformedInput, match="unterminated tag") as info:
        parse_document(source)
    assert info.value.offset == len(source)
    assert len(_TOKEN.findall(source)) == 2


def test_deep_document_round_trips():
    source = "<a>" * 5000 + "<b/>x" + "</a>" * 5000
    t = parse_document(source)
    assert serialize(t) == source
    assert dump_sexpr(t) == "(#doc " + "(a " * 5000 + '(b) "x"' + ")" * 5001
    assert t.txt(1) == "x"
    assert t.descendants(5000) == [5001, 5002]


def test_trees_compare_by_shape_and_text():
    a = parse_document("<a><b>x</b></a>")
    b = parse_document("<a><b>x</b></a>")
    c = parse_document("<a><b>y</b></a>")
    assert a == b
    assert a != c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_generated_trees_round_trip(seed):
    t = gen_tree(TreeGenSpec(seed=seed, max_nodes=25))
    if len(t) < 2:
        return  # no top element, nothing to serialize
    assert parse_document(serialize(t)) == t


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_generated_trees_are_well_formed(seed):
    t = gen_tree(TreeGenSpec(seed=seed, max_nodes=25))
    assert list(t.nodes()) == list(range(len(t)))
    for v in t.nodes():
        for w in t.children(v):
            assert t.parent(w) == v
        if t.label(v) == TEXT_TAG:
            assert not t.children(v)
        else:
            assert t.text_of(v) == ""


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_generated_trees_navigate_by_their_parents(seed):
    t = gen_tree(TreeGenSpec(seed=seed, max_nodes=25))
    below: dict = {v: [] for v in t.nodes()}
    for v in reversed(t.nodes()):  # children before parents
        if v:
            below[t.parent(v)] += [v] + below[v]
    for v in t.nodes():
        kids = [w for w in t.nodes() if t.parent(w) == v]
        assert t.children(v) == kids
        assert t.firstchild(v) == (kids[0] if kids else None)
        assert t.descendants(v) == sorted(below[v])
        for a, b in zip(kids, kids[1:] + [None]):
            assert t.nextsibling(a) == b
            if b is not None:
                assert t.prevsibling(b) == a
        if kids:
            assert t.prevsibling(kids[0]) is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(TREE_PROFILES)), st.integers(0, 10**6))
def test_generated_trees_read_the_text_below_each_node(profile, seed):
    t = gen_tree(TreeGenSpec.profile(profile, seed, max_nodes=25))
    below: dict = {v: [v] for v in t.nodes()}
    for v in reversed(t.nodes()):  # children before parents
        if v:
            below[t.parent(v)] += below[v]
    for v in t.nodes():
        text = "".join(t.text_of(w) for w in sorted(below[v]))
        assert t.txt(v) == text
        assert t.txt_equals(v, text)
        assert not t.txt_equals(v, text + "x")
        if text:
            assert not t.txt_equals(v, text[:-1])
            other = "y" if text[-1] != "y" else "z"
            assert not t.txt_equals(v, text[:-1] + other)


def test_text_tests_down_a_deep_chain_allocate_little():
    # each a's text is one "t" per a at or below it; comparing it with an
    # equal-length string must not build the node's text
    n = 8000
    t = parse_document("<a>t" * n + "</a>" * n)
    t.txt(1)
    lengths = [(v, (t.ends[v] - v + 1) // 2) for v in t.nodes_labeled("a")]
    assert lengths[0] == (1, n) and lengths[-1][1] == 1
    tracemalloc.start()
    try:
        assert all(t.txt_equals(v, "t" * k) for v, k in lengths)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
