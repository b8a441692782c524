"""Path-expression statements: syntax, typing, evaluation, translation."""

import dataclasses
import warnings
from collections import Counter
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CountedList, plain
from wraplab import elog, hel
from wraplab import objects as ob
from wraplab import pathrange as pr
from wraplab import rpn
from wraplab import testkit as tk
from wraplab.doctree import parse_document
from wraplab.pathrange import Atom, Index
from wraplab.testkit import (
    DOC1,
    StmtGenSpec,
    TreeGenSpec,
    gen_stmt,
    gen_tree,
    naive_cut,
    naive_helvf,
    naive_rpn,
)

ITEMS = 'html.body.table.tr{td[0].txt = "item"}.td[1].txt'


@pytest.fixture
def doc1():
    return parse_document(DOC1)


def conforms(val, ty) -> bool:
    if isinstance(ty, ob.StrSchema):
        return isinstance(val, str)
    if isinstance(ty, ob.SetSchema):
        return isinstance(val, ob.SetVal) and all(conforms(v, ty.elem) for v in val)
    if isinstance(ty, ob.RecordSchema):
        return (
            isinstance(val, tuple)
            and len(val) == len(ty.entries)
            and all(conforms(v, e) for v, e in zip(val, ty.entries))
        )
    raise TypeError(ty)


# ---------------------------------------------------------------------------
# parsing


def _patoms(*tags) -> tuple:
    return tuple(rpn.Patom(Atom(t)) for t in tags)


def _txt_eq(s: str, *tags) -> rpn.Chain:
    return rpn.Chain(_patoms(*tags), rpn.TxtEq(s))


def test_chain_shape():
    assert rpn.parse_rpn("a.b.txt") == rpn.Chain(_patoms("a", "b"), rpn.Txt())


def test_bare_txt_parses():
    assert rpn.parse_rpn("txt") == rpn.Chain((), rpn.Txt())


def test_range_and_condition_attach_to_the_patom():
    assert rpn.parse_rpn('a[1]{b.txt = "x"}.txt') == rpn.Chain(
        (rpn.Patom(Atom("a"), Index(1), (_txt_eq("x", "b"),)),), rpn.Txt()
    )


def test_condition_on_own_text():
    assert rpn.parse_rpn('a{txt = "x"}.txt') == rpn.Chain(
        (rpn.Patom(Atom("a"), conds=(_txt_eq("x"),)),), rpn.Txt()
    )


def test_multiple_conditions_joined_with_and():
    assert rpn.parse_rpn('a{b.txt = "x" and txt = "y"}.txt') == rpn.Chain(
        (rpn.Patom(Atom("a"), conds=(_txt_eq("x", "b"), _txt_eq("y"))),), rpn.Txt()
    )


def test_nested_conditions_parse():
    inner = _txt_eq("y", "c")
    cond = rpn.Chain((rpn.Patom(Atom("b"), conds=(inner,)),), rpn.TxtEq("x"))
    assert rpn.parse_rpn('a{b{c.txt = "y"}.txt = "x"}.txt') == rpn.Chain(
        (rpn.Patom(Atom("a"), conds=(cond,)),), rpn.Txt()
    )


def test_parenthesized_regex_path():
    w = rpn.parse_rpn("(a|b).txt")
    assert rpn.statement_to_text(w) == "(a|b).txt"


def test_record_versus_path_group():
    entries = (rpn.Chain(_patoms("b"), rpn.Txt()), rpn.Chain(_patoms("c"), rpn.Txt()))
    assert rpn.parse_rpn("a.(b.txt # c.txt)") == rpn.Chain(
        _patoms("a"), rpn.Record(entries)
    )
    group = rpn.Patom(pr.Concat((Atom("b"), Atom("c"))))
    assert rpn.parse_rpn("a.(b.c).txt") == rpn.Chain(
        _patoms("a") + (group,), rpn.Txt()
    )


def test_hash_tag_is_not_a_record_separator():
    entries = (
        rpn.Chain(_patoms("#text"), rpn.Txt()), rpn.Chain(_patoms("b"), rpn.Txt())
    )
    assert rpn.parse_rpn("a.(#text.txt # b.txt)") == rpn.Chain(
        _patoms("a"), rpn.Record(entries)
    )


def test_record_at_top_level():
    entries = (rpn.Chain(_patoms("a"), rpn.Txt()), rpn.Chain(_patoms("b"), rpn.Txt()))
    assert rpn.parse_rpn("(a.txt # b.txt)") == rpn.Chain((), rpn.Record(entries))


def test_string_escapes():
    assert rpn.parse_rpn('a{txt = "x\\"y{z}"}.txt') == rpn.Chain(
        (rpn.Patom(Atom("a"), conds=(_txt_eq('x"y{z}'),)),), rpn.Txt()
    )


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a",  # no terminal
        "(txt # txt",  # unterminated record
        "a..txt",
        "a.txt.b",  # trailing input after the terminal
        "a.(b.txt)",  # single-entry group is a path, so no terminal follows
        "a[.txt",
        'a{b.txt "x"}.txt',
        'a{b.txt = "x" c.txt = "y"}.txt',  # missing 'and'
        "a->b.txt",  # descendant steps are not part of this dialect
        'a{!b.txt = "x"}.txt',  # cut marks are not part of this dialect
        'a{b = "x"}.txt',  # conditions compare text, not nodes
        "a[2-1].txt",  # empty interval
        'a{(b.txt # c.txt)}.txt',  # a record cannot end a condition
        # names no document tag can have
        "a_b.txt",
        "t#d.txt",
        "(a_b).txt",
        "a.#.txt",
        "_a.txt",
    ],
)
def test_rejected_statements(text):
    with pytest.raises((rpn.RpnSyntaxError, pr.PathSyntaxError, pr.RangeSyntaxError)):
        w = rpn.parse_statement(text, "rpn")
        raise AssertionError(f"parsed: {w!r}")


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("A.TXT", "a.txt"),
        ('Tr{TD[0].Txt = "x" AND txt = "y"}.(A|b).txt', 'tr{td[0].txt = "x" and txt = "y"}.(a|b).txt'),
        ("X9.a-B.#TEXT.txt", "x9.a-b.#text.txt"),
    ],
)
def test_tags_and_keywords_are_read_in_any_case(text, canonical):
    assert rpn.statement_to_text(rpn.parse_rpn(text)) == canonical


def test_keywords_end_before_an_underscore_or_an_arrow():
    assert rpn.parse_rpn('a{txt = "x" and_.txt = "y"}.txt') == rpn.parse_rpn(
        'a{txt = "x" and _.txt = "y"}.txt'
    )
    assert hel.parse_vhel('a{txt = "x" and->b.txt = "y"}.txt;') == hel.parse_vhel(
        'a{txt = "x" and ->b.txt = "y"}.txt;'
    )
    assert hel.parse_hel('a[i].txt where->a[i].txt = "x";') == hel.parse_hel(
        'a[i].txt where ->a[i].txt = "x";'
    )


def test_syntax_error_reports_position():
    with pytest.raises(rpn.RpnSyntaxError) as e:
        rpn.parse_rpn("a..txt")
    assert "at 2" in str(e.value)


def test_round_trip_is_exact():
    texts = [
        "txt",
        "a.b.txt",
        "(a|b.c)[1-2].txt",
        'a{b.txt = "x" and txt = ""}.(txt # b[last].txt # c[0,2-3].txt)',
        "(_*.td)[regex:010*].txt",
        "#text.txt",
        "g._[0,2].x.txt",
    ]
    for text in texts:
        w = rpn.parse_rpn(text)
        assert rpn.statement_to_text(w) == text
        assert rpn.parse_rpn(rpn.statement_to_text(w)) == w


def test_star_range_renders_implicitly():
    assert rpn.statement_to_text(rpn.parse_rpn("a[*].txt")) == "a.txt"


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_generated_statements_round_trip(seed):
    text = gen_stmt(StmtGenSpec(seed=seed, language="rpn"))
    w = rpn.parse_rpn(text)
    canon = rpn.statement_to_text(w)
    assert rpn.parse_rpn(canon) == w


# ---------------------------------------------------------------------------
# typing


def test_types_are_total_and_set_shaped():
    cases = {
        "txt": "SetOf(Str)",
        ITEMS: "SetOf(Str)",
        "a.(b.txt # c.(d.txt # txt))": (
            "SetOf(RecordOf(SetOf(Str), SetOf(RecordOf(SetOf(Str), SetOf(Str)))))"
        ),
    }
    for text, expect in cases.items():
        assert ob.type_to_text(rpn.typecheck(rpn.parse_rpn(text))) == expect


@given(st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_results_conform_to_the_statement_type(seed):
    tree = gen_tree(TreeGenSpec(seed=seed))
    text = gen_stmt(StmtGenSpec(seed=seed + 1, language="rpn"))
    w = rpn.parse_rpn(text)
    assert conforms(rpn.eval_rpn(w, tree), rpn.typecheck(w))


# ---------------------------------------------------------------------------
# evaluation


def test_items_statement(doc1):
    # second column of the rows whose first column reads "item"
    v = rpn.eval_rpn(rpn.parse_rpn(ITEMS), doc1)
    assert ob.to_jsonable(v) == ["A", "C"]


def test_whole_document_text(doc1):
    v = rpn.eval_rpn(rpn.parse_rpn("txt"), doc1)
    assert ob.to_jsonable(v) == ["itemAxBitemC"]


def test_range_applies_before_conditions(doc1):
    # tr[1] picks the middle row first; its first column reads "x", so the
    # condition then rejects it.  Filtering first would have kept row three.
    w = rpn.parse_rpn('html.body.table.tr[1]{td[0].txt = "item"}.td[1].txt')
    assert ob.to_jsonable(rpn.eval_rpn(w, doc1)) == []


def test_equal_strings_collapse(doc1):
    v = rpn.eval_rpn(rpn.parse_rpn("html.body.table.tr.td[0].txt"), doc1)
    assert ob.to_jsonable(v) == ["item", "x"]


# cells whose texts are out of text order and repeat, within and across rows
ORDER_DOC = "<d><r><c>z</c><c>b</c></r><r><c>a</c><c>z</c></r><r><c>z</c><c>b</c></r></d>"


@pytest.mark.parametrize("text, expected", [
    ("d.r.c.txt", '["z", "b", "a"]'),
    ("d.r.(c[0].txt # c.txt)", '[[["z"], ["z", "b"]], [["a"], ["a", "z"]]]'),
], ids=["texts", "records"])
def test_sets_list_values_in_the_document_order_of_their_first_nodes(text, expected):
    # a value repeated later, the third row's record too, stays where it first
    # occurs; no evaluator sorts by text
    tree = parse_document(ORDER_DOC)
    stmt, vf = rpn.parse_rpn(text), hel.parse_vhel(text)
    values = {
        "rpn": rpn.eval_rpn(stmt, tree),
        "vf": hel.eval_vf(vf, tree),
        "rpn pipeline": elog.run_pipeline(rpn.translate_rpn(stmt)[0], tree)[1],
        "vf pipeline": elog.run_pipeline(hel.translate_vf(vf)[0], tree)[1],
    }
    assert {k: ob.json_text(v) for k, v in values.items()} == dict.fromkeys(
        values, expected
    )


def _deepest(make) -> int:
    """The deepest nesting make(depth) whose text the parser reads."""
    lo, hi = 1, 2000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            rpn.parse_rpn(make(mid))
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


def _nested_records(depth: int) -> str:
    stmt = "b.txt"
    for _ in range(depth):
        stmt = f"b.(b.txt # {stmt})"
    return f"a.(b.txt # {stmt})"


def _nested_conditions(depth: int) -> str:
    cond = 'b.txt = "x"'
    for _ in range(depth):
        cond = f'b{{{cond}}}.txt = "x"'
    return f"a{{{cond}}}.txt"


@pytest.mark.parametrize("make", [_nested_records, _nested_conditions])
def test_wrappers_nested_as_deep_as_they_parse_evaluate(make):
    # evaluation takes fewer frames per level of nesting than parsing
    depth = _deepest(make)
    assert depth > 100
    w = rpn.parse_rpn(make(depth))
    tree = parse_document("<a>" + "<b>" * 400 + "x" + "</b>" * 400 + "</a>")
    val = rpn.eval_rpn(w, tree)
    value, expected = ob.json_text(val), ["x"]
    if make is _nested_conditions:
        assert value == '["x"]'
    else:  # x at every level: [[["x"], [[["x"], ... ["x"]]]]]
        assert value == '[[["x"], ' * (depth + 1) + '["x"]' + "]]" * (depth + 1)
        assert ob.json_text(hel.eval_vf(w, tree)) == value
        for _ in range(depth + 1):
            expected = [[["x"], expected]]
    assert ob.to_jsonable(val) == expected


@pytest.mark.parametrize(
    "group", ["({})*", "({}|b)", "({}.b)"], ids=["star", "alt", "concat"]
)
def test_path_groups_nested_as_deep_as_they_parse_compile(group):
    # r.(((…(a)*…)*)*), r.(((a|b)|b)…|b) and r.(((a.b).b)….b): the path's
    # automaton is built from its AST with no more frames per level than
    # the parser takes
    def make(depth: int) -> str:
        path = "a"
        for _ in range(depth):
            path = group.format(path)
        return f"r.({path}).txt"

    depth = _deepest(make)
    assert depth > 100
    w = rpn.parse_rpn(make(depth))
    tree = parse_document(
        "<r><a>u<a>v</a>" + "<b>" * depth + "x" + "</b>" * depth
        + "</a><b>w</b><c>z</c></r>"
    )
    val = rpn.eval_rpn(w, tree)
    assert val == elog.run_pipeline(rpn.translate_rpn(w)[0], tree)[1]
    assert val  # each path matches somewhere in the document
    path = w.patoms[1].path
    for v in tree.nodes():
        assert pr.subelem(tree, v, path) == tk.naive_subelem(tree, v, path)


def test_record_is_a_singleton_set(doc1):
    w = rpn.parse_rpn("html.body.table.tr[0].(td[0].txt # td[1].txt)")
    assert ob.to_jsonable(rpn.eval_rpn(w, doc1)) == [[["item"], ["A"]]]


def test_record_keeps_empty_entries(doc1):
    w = rpn.parse_rpn("html.body.table.tr[0].(nosuch.txt # td.txt)")
    assert ob.to_jsonable(rpn.eval_rpn(w, doc1)) == [[[], ["item", "A"]]]


def test_record_repeats_per_context_node(doc1):
    w = rpn.parse_rpn("html.body.table.tr.(td[0].txt # td[1].txt)")
    assert ob.to_jsonable(rpn.eval_rpn(w, doc1)) == [
        [["item"], ["A"]],
        [["x"], ["B"]],
        [["item"], ["C"]],
    ]


def test_conditions_are_existential(doc1):
    # two td children; one match is enough
    w = rpn.parse_rpn('html.body.table.tr{td.txt = "B"}.td[0].txt')
    assert ob.to_jsonable(rpn.eval_rpn(w, doc1)) == ["x"]


def test_nested_condition_evaluates(doc1):
    w = rpn.parse_rpn('html.body{table{tr.td.txt = "B"}.txt = "itemAxBitemC"}.txt')
    assert ob.to_jsonable(rpn.eval_rpn(w, doc1)) == ["itemAxBitemC"]


def test_descendant_regex_reaches_all_cells(doc1):
    v = rpn.eval_rpn(rpn.parse_rpn("(_*.td).txt"), doc1)
    assert ob.to_jsonable(v) == ["item", "A", "x", "B", "C"]


def test_bare_wildcard_step_matches_any_child_label(doc1):
    # `_` is the wildcard step, not a tag named underscore
    from wraplab.pathrange import Wildcard

    w = rpn.parse_rpn("html.body.table.tr._[1].txt")
    assert w == rpn.Chain(
        _patoms("html", "body", "table", "tr") + (rpn.Patom(Wildcard(), Index(1)),),
        rpn.Txt(),
    )
    assert ob.to_jsonable(rpn.eval_rpn(w, doc1)) == ["A", "B", "C"]


def test_interval_range_on_regex_path(doc1):
    v = rpn.eval_rpn(rpn.parse_rpn("(_*.td)[1-3].txt"), doc1)
    assert ob.to_jsonable(v) == ["A", "x", "B"]


def test_empty_when_nothing_matches(doc1):
    assert ob.to_jsonable(rpn.eval_rpn(rpn.parse_rpn("nosuch.txt"), doc1)) == []


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_eval_agrees_with_the_naive_oracle(seed):
    tree = gen_tree(TreeGenSpec(seed=seed))
    text = gen_stmt(StmtGenSpec(seed=seed + 7, language="rpn"))
    w = rpn.parse_rpn(text)
    assert plain(rpn.eval_rpn(w, tree)) == naive_rpn(tree, w)


def test_eval_agrees_with_the_naive_oracle_on_a_large_tree():
    # one tag and one text letter, so paths and conditions often match
    tree = gen_tree(TreeGenSpec(
        seed=11, max_nodes=600, max_fanout=8, max_depth=9, tags=("a",), text_alphabet="x"
    ))
    assert len(tree) == 465
    nonempty = 0
    for seed in range(40):
        spec = StmtGenSpec(seed=seed, tags=("a",), text_pool=("", "x", "xx"))
        w = rpn.parse_rpn(gen_stmt(spec))
        for v in range(0, len(tree), 5):
            got = plain(rpn.eval_rpn(w, tree, v))
            assert got == naive_rpn(tree, w, v), (seed, v)
            nonempty += bool(got)
    assert nonempty >= 200


def test_adding_a_condition_never_grows_the_result(doc1):
    for seed in range(60):
        tree = gen_tree(TreeGenSpec(seed=seed * 31))
        w = rpn.parse_rpn(gen_stmt(StmtGenSpec(seed=seed, language="rpn")))
        if not w.patoms:
            continue
        pa = dataclasses.replace(w.patoms[0], conds=w.patoms[0].conds + (_txt_eq("x"),))
        tightened = dataclasses.replace(w, patoms=(pa,) + w.patoms[1:])
        assert plain(rpn.eval_rpn(tightened, tree)) <= plain(rpn.eval_rpn(w, tree))


# ---------------------------------------------------------------------------
# translation to datalog


def test_items_translation_shape():
    prog, schema, aux = rpn.translate_rpn(rpn.parse_rpn(ITEMS))
    chain = [p for p in prog.head_preds() if not p.startswith("c")]
    conds = [p for p in prog.head_preds() if p.startswith("c")]
    assert chain == ["p1", "p2", "p3", "p4", "p5"]
    assert conds == ["c1"]
    assert aux == frozenset({"p1", "p2", "p3", "p4"})
    assert ob.schema_to_text(schema) == "set(p5, str)"
    assert prog.universal_preds() == frozenset({"c1"})


def test_items_translation_text():
    prog, _, _ = rpn.translate_rpn(rpn.parse_rpn(ITEMS))
    assert elog.serialize_elog(prog) == (
        "@aux p1 p2 p3 p4\n"
        "@schema set(p5, str)\n"
        "p1(X0, X) :- root(_, X0), subelem[html][*](X0, X).\n"
        "p2(X0, X) :- p1(_, X0), subelem[body][*](X0, X).\n"
        "p3(X0, X) :- p2(_, X0), subelem[table][*](X0, X).\n"
        'c1(X0, X) :- dom(X0, X), contains[td][0](X, Y), contains_s(Y, "item").\n'
        "p4(X0, X) :- p3(_, X0), subelem[tr][*](X0, X), c1(_, X).\n"
        "p5(X0, X) :- p4(_, X0), subelem[td][1](X0, X).\n"
    )


def test_items_translation_runs(doc1):
    prog, _, _ = rpn.translate_rpn(rpn.parse_rpn(ITEMS))
    _, val = elog.run_pipeline(prog, doc1)
    assert ob.to_jsonable(val) == ["A", "C"]


def test_txt_translates_to_the_empty_program(doc1):
    prog, schema, aux = rpn.translate_rpn(rpn.parse_rpn("txt"))
    assert prog.rules == () and aux == frozenset()
    assert ob.schema_to_text(schema) == "set(_, str)"
    _, val = elog.run_pipeline(prog, doc1)
    assert ob.to_jsonable(val) == ["itemAxBitemC"]


def test_record_entries_share_the_context_predicate():
    prog, schema, aux = rpn.translate_rpn(rpn.parse_rpn("a.(b.txt # c.txt)"))
    by_head = {r.head: r for r in prog.rules}
    assert by_head["p2"].parent == "p1" and by_head["p3"].parent == "p1"
    assert aux == frozenset()  # p1 anchors the record's set itself
    assert ob.schema_to_text(schema) == "set(p1, record(set(p2, str), set(p3, str)))"


def test_nested_condition_translation(doc1):
    w = rpn.parse_rpn('html.body{table{tr.td.txt = "B"}.txt = "itemAxBitemC"}.txt')
    prog, _, _ = rpn.translate_rpn(w)
    # outer condition fuses its terminal, the inner one needs a hop plus a leaf
    assert prog.universal_preds() == frozenset({"c1", "c2", "c3"})
    _, val = elog.run_pipeline(prog, doc1)
    assert val == rpn.eval_rpn(w, doc1)


def test_translated_programs_survive_their_own_syntax():
    w = rpn.parse_rpn('(a|b)[1-2]{c[last].txt = "x" and txt = "y"}.(txt # d.txt)')
    prog, _, _ = rpn.translate_rpn(w)
    again = elog.parse_elog(elog.serialize_elog(prog))
    assert again == prog


def test_self_selecting_step_translates():
    # (a*) can match the empty word, so the aux p1 selects the root under
    # itself as p1(root, root); p1's parent is the builtin root, not p1, so
    # that atom stays where it is and is no cycle
    t = parse_document("<a><a><b>x</b></a><b>y</b></a>")
    w = rpn.parse_rpn("(a*).b.txt")
    prog, _, _ = rpn.translate_rpn(w)
    _, val = elog.run_pipeline(prog, t)
    assert val == rpn.eval_rpn(w, t)
    assert ob.to_jsonable(val) == ["x", "y"]


def test_record_entries_splice_their_own_aux_chains():
    # the aux step c* reaches the inner c from the outer one; only the
    # first entry's own aux atom c(c1, c2) may move its atoms up
    t = parse_document("<b><c><c><a>y</a></c></c></b>")
    w = rpn.parse_rpn("(b.c*).(c.c.txt # a.txt)")
    prog, _, _ = rpn.translate_rpn(w)
    _, val = elog.run_pipeline(prog, t)
    assert ob.to_jsonable(val) == [[["y"], []], [[], []], [[], ["y"]]]
    assert val == rpn.eval_rpn(w, t)


@given(st.integers(0, 10**6))
@example(2173)  # two record entries under one aux chain
@settings(max_examples=150, deadline=None)
def test_translation_matches_direct_evaluation(seed):
    tree = gen_tree(TreeGenSpec(seed=seed))
    text = gen_stmt(StmtGenSpec(seed=seed + 13, language="rpn"))
    w = rpn.parse_rpn(text)
    prog, _, _ = rpn.translate_rpn(w)
    _, val = elog.run_pipeline(prog, tree)
    assert val == rpn.eval_rpn(w, tree)


def test_translated_descendant_condition_reads_linearly_many_tags():
    # c1 holds at every a, each over the one b: derived per node, every a
    # would walk the whole chain below it
    w = rpn.parse_rpn('(_*.a){(_*.b).txt = "x"}.b.txt')
    prog, _, _ = rpn.translate_rpn(w)
    counts = []
    for n in (1000, 4000):
        tree = parse_document("<a>" * n + "<b>x</b>" + "</a>" * n)
        tree.tags = tags = CountedList(tree.tags)
        store = elog.eval_fixpoint(prog, tree)
        assert elog.unary_query(store, "p2") == {n + 1}
        assert len(store.unary["c1"]) == n + 1  # the root and every a
        counts.append(tags.reads)
    assert counts[1] / counts[0] <= 4.5, counts


def _nested_a(n: int, inner: str):
    tree = parse_document("<a>" * n + inner + "</a>" * n)
    tree.tags = CountedList(tree.tags)
    return tree


@pytest.mark.parametrize("dialect", ["rpn", "vhel"])
def test_chain_steps_walk_each_reached_node_once(dialect):
    # every a is reached by as many paths as there are a's above it; a step
    # navigates from it once all the same
    if dialect == "rpn":
        w, run = rpn.parse_rpn("(_*.a).(_*.a).(_*.a).(_*.b).txt"), rpn.eval_rpn
    else:
        w, run = hel.parse_vhel("->a->a->a->b.txt;"), hel.eval_vf
    counts = []
    for n in (100, 200):
        tree = _nested_a(n, "<b>x</b>")
        assert ob.to_jsonable(run(w, tree)) == ["x"]
        counts.append(tree.tags.reads)
    assert counts[1] / counts[0] <= 4.5, counts


@pytest.mark.parametrize("route", ["rpn", "vhel", "translated"])
def test_descendant_steps_read_linearly_many_tags(route):
    # each a's walk takes over the hits of the a nested in it, so neither
    # evaluator walks the chain below every a again
    if route == "vhel":
        w, run = hel.parse_vhel("->a->b.txt;"), hel.eval_vf
    else:
        w, run = rpn.parse_rpn("(_*.a).(_*.b).txt"), rpn.eval_rpn
    if route == "translated":
        prog = rpn.translate_rpn(w)[0]

        def run(w, tree):
            return elog.run_pipeline(prog, tree)[1]

    counts = []
    for n in (1000, 4000):
        tree = _nested_a(n, "<b>x</b>")
        assert ob.to_jsonable(run(w, tree)) == ["x"]
        counts.append(tree.tags.reads)
    assert counts[1] / counts[0] <= 4.5, counts


@pytest.mark.parametrize("dialect", ["rpn", "vhel"])
def test_descendant_conditions_read_linearly_many_tags(dialect):
    # a condition is decided once for all the a's its step reaches, so its
    # walk from each a takes over the hits of the a nested in it
    if dialect == "rpn":
        w, run = rpn.parse_rpn('(_*.a){(_*.b).txt = "x"}.b.txt'), rpn.eval_rpn
    else:
        w, run = hel.parse_vhel('->a{->b.txt = "x"}.b.txt;'), hel.eval_vf
    counts = []
    for n in (1000, 4000):
        tree = _nested_a(n, "<b>x</b>")
        assert ob.to_jsonable(run(w, tree)) == ["x"]
        counts.append(tree.tags.reads)
    assert counts[1] / counts[0] <= 4.5, counts


def test_condition_links_are_decided_once_per_node():
    # the condition fails at every a, so each search runs to its end; each
    # link is decided once, at all the nodes the link before it keeps
    w = rpn.parse_rpn('(_*.a){(_*.a).(_*.a).(_*.b).txt = "x"}.txt')
    counts = []
    for n in (40, 80):
        tree = _nested_a(n, "<b>y</b>")
        assert ob.to_jsonable(rpn.eval_rpn(w, tree)) == []
        counts.append(tree.tags.reads)
    assert counts[1] / counts[0] <= 4.5, counts


FIRST_WITNESS_DOC = "<r><a><c><b>x</b></c><c><b>x</b><b>y</b></c></a></r>"


@pytest.mark.parametrize("text, expected", [
    ('r.a{c.b[regex:1].txt = "x"}.c.b.txt', ["x", "y"]),
    ('r.a{c.b[regex:1].txt = "y"}.c.b.txt', "NoWordOfLength"),
], ids=["witness_first", "error_first"])
def test_a_condition_search_stops_at_its_first_witness(text, expected):
    # regex:1 has no word of length 2, the b's of the second c: the search
    # for "x" stops at the first c, the one for "y" reaches the second
    tree, w = parse_document(FIRST_WITNESS_DOC), rpn.parse_rpn(text)
    got = _outcome(lambda: rpn.eval_rpn(w, tree))
    assert got == _outcome(lambda: naive_rpn(tree, w))
    assert got == (expected if isinstance(expected, str) else frozenset(expected))


def _outcome(evaluate):
    """evaluate()'s plain value, or the name of the range error it raises."""
    try:
        return plain(evaluate())
    except (pr.RangeError, tk.NoWordOfLength, tk.MultipleWords) as e:
        return type(e).__name__


def _has_regex_condition(chain) -> bool:
    return any(
        isinstance(cpa.range, pr.RawRegex) or _has_regex_condition(c)
        for pa in chain.patoms for c in pa.conds for cpa in c.patoms
    )


def test_regex_ranged_conditions_match_the_naive_oracle():
    # a condition link's regex range raises at a node only where the search
    # reaches it: the evaluator and the oracle give one value or both raise
    outcomes = Counter()
    for seed in range(1200):
        spec = TreeGenSpec.profile("one_tag", seed, max_nodes=40)
        tree = gen_tree(spec)
        w = rpn.parse_rpn(gen_stmt(StmtGenSpec(
            seed=seed, tags=spec.tags, max_chain=1, max_depth=1,
            range_pool=("*", "index"), condition_range_pool=("regex",),
            condition_probability=1.0, text_pool=("", "x", "xx"),
        )))
        regex = _has_regex_condition(w)
        for v in tree.nodes():
            if tree.label(v) == "#text":
                continue
            got = _outcome(lambda: rpn.eval_rpn(w, tree, v))
            assert got == _outcome(lambda: naive_rpn(tree, w, v)), (seed, v)
            kind = "raised" if isinstance(got, str) else "value" if got else "empty"
            outcomes[regex, kind] += 1
    assert outcomes[True, "value"] >= 40 and outcomes[True, "raised"] >= 800, outcomes


@pytest.mark.parametrize("profile", ["deep", "one_tag"])
def test_direct_evaluators_match_the_naive_oracles_on_shaped_trees(profile):
    nonempty = 0
    for seed in range(150):
        spec = TreeGenSpec.profile(profile, seed, max_nodes=60)
        tree = gen_tree(spec)
        gen = partial(
            StmtGenSpec, seed=seed, tags=spec.tags, max_chain=2, condition_probability=0.3
        )
        w = rpn.parse_rpn(gen_stmt(gen(language="rpn")))
        vf = hel.parse_vhel(gen_stmt(gen(language="helvf", cut_probability=0.5)))
        for v in range(len(tree)):
            got = plain(rpn.eval_rpn(w, tree, v))
            assert got == naive_rpn(tree, w, v), (seed, v)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", hel.SingleValueWarning)
                full = plain(hel.eval_vf(vf, tree, v, strict=False))
                cut = plain(hel.eval_cut(vf, tree, v, strict=False))
            assert full == naive_helvf(tree, vf, v), (seed, v)
            assert cut == naive_cut(tree, vf, v), (seed, v)
            nonempty += bool(got) + bool(full) + bool(cut)
    assert nonempty >= 400, nonempty


@pytest.fixture
def one_pass(monkeypatch):
    """Counts the dom rules whose image one holders pass derived non-empty,
    by the regime of the pass: a finite path or a star one."""
    counts = {"finite": 0, "star": 0}
    holders = elog.holders

    def counted(tree, path, rng, test):
        out = holders(tree, path, rng, test)
        if out:
            counts["finite" if pr.is_finite(path) else "star"] += 1
        return out

    monkeypatch.setattr(elog, "holders", counted)
    return counts


@pytest.mark.parametrize("profile", ["deep", "one_tag"])
def test_translations_match_the_naive_oracles_on_shaped_trees(profile, one_pass):
    dialects = (
        ("rpn", rpn.parse_rpn, rpn.translate_rpn, naive_rpn),
        ("helvf", hel.parse_vhel, hel.translate_vf, naive_helvf),
    )
    for seed in range(300):
        spec = TreeGenSpec.profile(profile, seed, max_nodes=80)
        tree = gen_tree(spec)
        for language, parse, translate, naive in dialects:
            w = parse(gen_stmt(StmtGenSpec(
                seed=seed, language=language, tags=spec.tags, condition_probability=0.8
            )))
            prog, _, _ = translate(w)
            _, val = elog.run_pipeline(prog, tree)
            assert plain(val) == naive(tree, w), (language, seed)
    assert one_pass["finite"] >= 100 and one_pass["star"] >= 50, one_pass
