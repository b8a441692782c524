"""Variable statements: parsing, validation, desugaring, both evaluators."""

import warnings
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _covered, plain
from wraplab import elog, hel
from wraplab import objects as ob
from wraplab import rpn
from wraplab.doctree import parse_document
from wraplab.pathrange import (
    Atom,
    Concat,
    Index,
    Interval,
    Last,
    NoWordOfLength,
    RangeError,
    RangeSyntaxError,
    Star,
    Wildcard,
)
from wraplab.testkit import (
    DOC1,
    StmtGenSpec,
    TreeGenSpec,
    gen_stmt,
    gen_tree,
    naive_cut,
    naive_helvf,
)

ITEMS_HEL = (
    "html.body.table(tr[0].td[0].txt # tr[i:*].td[1].txt) "
    'where html.body.table.tr[i].td[0].txt = "item";'
)
ITEMS_VHEL = 'html.body.table(tr[0].td[0].txt # tr[*]{td[0].txt = "item"}.td[1].txt);'


@pytest.fixture
def doc1():
    return parse_document(DOC1)


def quiet_eval(fn, stmt, tree):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", hel.SingleValueWarning)
        return fn(stmt, tree, strict=False)


# ---------------------------------------------------------------------------
# parsing


def _patoms(*tags) -> tuple:
    return tuple(rpn.Patom(Atom(t)) for t in tags)


def _entries(*tags) -> rpn.Record:
    """A record of one-step entries ending in txt."""
    return rpn.Record(tuple(rpn.Chain(_patoms(t), rpn.Txt()) for t in tags))


def test_listing_parses():
    tr_i = rpn.Patom(Atom("tr"), var="i")
    first = (rpn.Patom(Atom("tr"), Index(0)), rpn.Patom(Atom("td"), Index(0)))
    second = (tr_i, rpn.Patom(Atom("td"), Index(1)))
    table = _patoms("html", "body", "table")
    cond = table + (tr_i, rpn.Patom(Atom("td"), Index(0)))
    assert hel.parse_hel(ITEMS_HEL) == hel.HelStatement(
        rpn.Chain(table, rpn.Record((
            rpn.Chain(first, rpn.Txt()), rpn.Chain(second, rpn.Txt())
        ))),
        (rpn.Chain(cond, rpn.TxtEq("item")),),
    )


def test_vrange_forms():
    s = hel.parse_hel("a[i].b[j:1-2].c[0].d[last].e.txt;")
    assert s == hel.HelStatement(rpn.Chain((
        rpn.Patom(Atom("a"), var="i"),
        rpn.Patom(Atom("b"), Interval(1, 2), var="j"),
        rpn.Patom(Atom("c"), Index(0)),
        rpn.Patom(Atom("d"), Last()),
        rpn.Patom(Atom("e")),
    ), rpn.Txt()))


def test_descendant_steps_parse():
    s = hel.parse_hel("a->b[i].txt where a->b[i].txt = \"x\";")
    descendant = Concat((Star(Wildcard()), Atom("b")))
    patoms = (rpn.Patom(Atom("a")), rpn.Patom(descendant, var="i"))
    assert s == hel.HelStatement(
        rpn.Chain(patoms, rpn.Txt()), (rpn.Chain(patoms, rpn.TxtEq("x")),)
    )


def test_record_attaches_without_a_dot():
    assert hel.parse_hel("a.b(c.txt # d.txt);") == hel.HelStatement(
        rpn.Chain(_patoms("a", "b"), _entries("c", "d"))
    )


def test_nested_records():
    inner = rpn.Chain(_patoms("c"), _entries("d", "e"))
    assert hel.parse_hel("a(b.txt # c(d.txt # e.txt));") == hel.HelStatement(
        rpn.Chain(_patoms("a"), rpn.Record((rpn.Chain(_patoms("b"), rpn.Txt()), inner)))
    )


def test_multiple_conditions():
    s = hel.parse_hel(
        'a.b[i].c[j].txt where a.b[i].txt = "x" and a.b[i].c[j].txt = "y";'
    )
    assert len(s.where) == 2


@pytest.mark.parametrize(
    "text",
    [
        "",
        "a.txt",  # missing ';'
        "txt;",  # a chain needs at least one patom
        "a.b.txt extra;",
        'a[i].txt where a[i](b.txt # c.txt) = "x";',  # record in a condition
        "a.(b.txt # c.txt);",  # record parens attach directly in this dialect
        "a(b.txt);",  # single-entry record
        "a[i.txt;",
        "a[2-1].txt;",  # empty interval
        "where[i].txt;",  # reserved word as a tag
        "a[last:*].txt;",  # reserved word as a variable
        'a.txt where b.txt = x;',  # unquoted string
    ],
)
def test_rejected_statements(text):
    with pytest.raises((hel.HelSyntaxError, RangeSyntaxError)):
        s = hel.parse_hel(text)
        raise AssertionError(f"parsed: {s!r}")


@pytest.mark.parametrize(
    "parse, text",
    [
        (rpn.parse_rpn, "a txt"),
        (rpn.parse_rpn, "a[0] txt"),
        (rpn.parse_rpn, 'a{txt = "x"} txt'),
        (rpn.parse_rpn, 'a{b txt = "x"}.txt'),
        (hel.parse_vhel, "a txt;"),
        (hel.parse_vhel, "->a txt;"),
        (hel.parse_vhel, 'a{b txt = "x"}.txt;'),
        (hel.parse_hel, "c[*] txt;"),
        (hel.parse_hel, 'a[i].txt where a[i] txt = "x";'),
    ],
)
def test_txt_always_follows_a_dot(parse, text):
    with pytest.raises((rpn.RpnSyntaxError, hel.HelSyntaxError), match="expected '.'"):
        parse(text)


def test_vhel_accepts_cut_marks_and_semicolon():
    c1 = rpn.Chain(_patoms("b"), rpn.TxtEq("x"), cut=True)
    c2 = rpn.Chain(_patoms("c"), rpn.TxtEq("y"))
    assert hel.parse_vhel('a[*]{!b.txt = "x" and c.txt = "y"}.txt;') == rpn.Chain(
        (rpn.Patom(Atom("a"), conds=(c1, c2)),), rpn.Txt()
    )


def test_vhel_rejects_regex_paths():
    with pytest.raises(hel.HelSyntaxError):
        hel.parse_vhel("(a|b).txt;")


@pytest.mark.parametrize(
    "text, message, parse",
    [
        ('a{b{c.txt = "x"}.txt = "y"}.txt;', "at 16: conditions may not nest", hel.parse_vhel),
        ('a{b(c.txt # d.txt)}.txt;', "at 3: expected '.'", hel.parse_vhel),  # no record
        ('a{(c.txt # d.txt)}.txt;', "at 2: regex paths belong", hel.parse_vhel),
        ('a{!!b.txt = "x"}.txt;', "at 3: expected a tag", hel.parse_vhel),
        # offsets count from the start of the statement in every dialect,
        # inside record entries and condition blocks too
        ("a(b.txt # c txt);", "at 12: expected '.'", hel.parse_hel),
        ('a{b txt = "x"}.txt', "at 4: expected '.'", rpn.parse_rpn),
        ("a.(b.txt # c.d..txt)", "at 15: expected a tag", rpn.parse_rpn),
        # a record has at least two entries: a lone group after a step can
        # only be a record in the statement dialects, and is a path in rpn
        ("a(b.txt);", "at 1: expected '.txt' or a record of at least two", hel.parse_vhel),
        ("a(b.txt);", "at 1: expected '.txt' or a record of at least two", hel.parse_hel),
        ("a.(b.txt)", "at 9: expected '.txt' or a record of at least two", rpn.parse_rpn),
    ],
)
def test_vhel_conditions_are_chains_without_records_or_nesting(text, message, parse):
    with pytest.raises((hel.HelSyntaxError, rpn.RpnSyntaxError)) as e:
        parse(text)
    assert str(e.value).startswith(message)
    assert e.value.pos == int(message.split(":")[0].removeprefix("at "))


def test_vhel_round_trip():
    texts = [
        "a->b[1]{!txt = \"x\"}.txt;",
        ITEMS_VHEL,
        "->a.txt;",
        "g._[0,2]->_.txt;",
        "a.(b.txt # c.txt);",  # the dot before a record is optional
    ]
    for text in texts:
        w = hel.parse_vhel(text)
        assert hel.vhel_to_text(w) == text.replace(".(", "(")
        assert hel.parse_vhel(hel.vhel_to_text(w)) == w


def test_wildcard_tag_desugars_to_the_wildcard_step():
    d = hel.desugar(hel.parse_hel("g._.txt;"))
    assert d == rpn.Chain((rpn.Patom(Atom("g")), rpn.Patom(Wildcard())), rpn.Txt())


@given(st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_generated_vf_statements_round_trip(seed):
    text = gen_stmt(StmtGenSpec(seed=seed, language="helvf", cut_probability=0.3))
    w = hel.parse_vhel(text)
    assert hel.parse_vhel(hel.vhel_to_text(w)) == w


def test_path_statements_are_written_as_vhel_or_refused():
    # a regex path or a condition nested in a condition has no .vhel text:
    # writing refuses it, and every text it writes reads back
    outcomes = {"written": 0, "refused": 0}
    for seed in range(3000):
        w = rpn.parse_rpn(gen_stmt(StmtGenSpec(seed=seed)))
        try:
            text = hel.vhel_to_text(w)
        except ValueError:
            outcomes["refused"] += 1
            continue
        assert hel.parse_vhel(text) == w, seed
        outcomes["written"] += 1
    assert min(outcomes.values()) >= 500, outcomes


# ---------------------------------------------------------------------------
# variables


def test_variable_bound_twice():
    s = hel.parse_hel("a[i].b[i].txt;")
    with pytest.raises(hel.VarUsedTwice):
        hel.desugar(s)


def test_variable_bound_twice_across_entries():
    s = hel.parse_hel("a(b[i].txt # c[i].txt);")
    with pytest.raises(hel.VarUsedTwice):
        hel.desugar(s)


def test_condition_variable_unbound():
    s = hel.parse_hel('html.body.table.tr[i:*].td[1].txt '
                      'where html.body.table.tr[j].td[0].txt = "item";')
    with pytest.raises(hel.VarUnbound):
        hel.desugar(s)


@pytest.mark.parametrize(
    "text",
    [
        # tag differs inside the prefix
        'html.body.table.tr[i:*].txt where html.body.div.tr[i].txt = "x";',
        # the variable sits at the wrong position
        'html.body.table.tr[i:*].txt where html[i].body.txt = "x";',
        # no variable at all
        'html.body.table.tr[i:*].txt where html.body.table.tr[0].txt = "x";',
        # prefix longer than every chain path
        "a[i].txt where a[i].b.c[i].txt = \"x\";",
        # child step where the chain walks a descendant step
        "a->b[i].c.txt where a.b[i].txt = \"x\";",
        # the chain's variable on an earlier step is left out
        "a[i].b[j].txt where a.b[j].txt = \"x\";",
    ],
)
def test_prefix_mismatches(text):
    with pytest.raises(hel.PrefixMismatch):
        hel.desugar(hel.parse_hel(text))


def test_prefix_mismatch_names_the_condition():
    s = hel.parse_hel('a.c[i].txt where a.b[i:1-2].txt = "x";')
    with pytest.raises(hel.PrefixMismatch, match=r"'a\.b\[i:1-2\]\.txt = \"x\"'"):
        hel.desugar(s)


def test_plain_ranges_in_the_prefix_are_not_compared():
    s = hel.parse_hel('a[0].b[i].txt where a[7].b[i].txt = "x";')
    hel.desugar(s)  # navigation detail may differ


def test_desugar_matches_the_listing():
    assert hel.desugar(hel.parse_hel(ITEMS_HEL)) == hel.parse_vhel(ITEMS_VHEL)
    got = hel.vhel_to_text(hel.desugar(hel.parse_hel(ITEMS_HEL)))
    assert got == ITEMS_VHEL


def test_desugar_with_empty_remainder():
    # the variable sits on the last condition patom: the comparison applies
    # to that node's own text
    s = hel.parse_hel('a.b[i].txt where a.b[i].txt = "x";')
    assert hel.desugar(s) == hel.parse_vhel('a.b[*]{txt = "x"}.txt;')


def test_desugar_joins_conditions_in_order():
    s = hel.parse_hel('a.b[i].txt where a.b[i].c.txt = "x" and a.b[i].txt = "y";')
    assert hel.desugar(s) == hel.parse_vhel('a.b[*]{c.txt = "x" and txt = "y"}.txt;')


def test_desugar_keeps_the_bound_range():
    s = hel.parse_hel('a.b[i:1-2].txt where a.b[i].txt = "x";')
    assert hel.desugar(s) == hel.parse_vhel('a.b[1-2]{txt = "x"}.txt;')


def test_desugar_reaches_record_entries():
    s = hel.parse_hel('a(b[i].txt # c.txt) where a.b[i].d.txt = "x";')
    assert hel.desugar(s) == hel.parse_vhel('a[*](b[*]{d.txt = "x"}.txt # c.txt);')


def test_desugar_erases_unconstrained_variables():
    s = hel.parse_hel("a.b[i].txt;")
    assert hel.desugar(s) == hel.parse_vhel("a.b.txt;")


# ---------------------------------------------------------------------------
# evaluation


def test_listing_evaluates_to_the_record(doc1):
    d = hel.desugar(hel.parse_hel(ITEMS_HEL))
    assert ob.to_jsonable(hel.eval_vf(d, doc1)) == [[["item"], ["A", "C"]]]


def test_conditions_apply_before_the_range(doc1):
    # compare test_range_applies_before_conditions in the rpn suite: the
    # same statement text selects {"C"} here and nothing there
    w = hel.parse_vhel('html.body.table.tr[1]{td[0].txt = "item"}.td[1].txt;')
    assert ob.to_jsonable(hel.eval_vf(w, doc1)) == ["C"]


def test_bound_interval_selects_after_filtering(doc1):
    s = hel.parse_hel(
        "html.body.table.tr[i:1-2].td[1].txt "
        'where html.body.table.tr[i].td[0].txt = "item";'
    )
    assert ob.to_jsonable(hel.eval_vf(hel.desugar(s), doc1)) == ["C"]


def test_bound_last_selects_after_filtering(doc1):
    s = hel.parse_hel(
        "html.body.table.tr[i:last].td[1].txt "
        'where html.body.table.tr[i].td[0].txt = "item";'
    )
    assert ob.to_jsonable(hel.eval_vf(hel.desugar(s), doc1)) == ["C"]


def test_descendant_step_evaluation(doc1):
    w = hel.parse_vhel('->td{txt = "B"}.txt;')
    assert ob.to_jsonable(hel.eval_vf(w, doc1)) == ["B"]


def test_single_value_violation_in_strict_mode(doc1):
    # each row has two td children, so the condition path is ambiguous
    w = hel.parse_vhel('html.body.table.tr{td.txt = "A"}.td[0].txt;')
    with pytest.raises(hel.SingleValueViolation):
        hel.eval_vf(w, doc1)


def test_single_value_degrades_to_existential_in_lenient_mode(doc1):
    w = hel.parse_vhel('html.body.table.tr{td.txt = "A"}.td[0].txt;')
    with pytest.warns(hel.SingleValueWarning):
        v = hel.eval_vf(w, doc1, strict=False)
    assert ob.to_jsonable(v) == ["item"]


# the outer a (2) holds a b (9) after the inner a (3) and its b (4)
NESTED_VIOLATIONS = "<r><a><a><b><c>1</c><c>2</c></b></a><b><c>3</c><c>4</c></b></a></r>"


def test_strict_mode_names_the_violation_its_scan_meets_first():
    # the b step scans the outer a's hits before the inner a's, so node 9
    # fails first, though node 4 comes first in the document
    w = hel.parse_vhel('r->a.b{c.txt = "1"}.c.txt;')
    tree = parse_document(NESTED_VIOLATIONS)
    with pytest.raises(hel.SingleValueViolation) as e:
        hel.eval_vf(w, tree)
    assert str(e.value) == (
        "condition path reaches 2 nodes under node 9; it should reach at most one"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        v = hel.eval_vf(w, tree, strict=False)
    assert ob.to_jsonable(v) == ["1", "2"]
    assert [(c.category, str(c.message)) for c in caught] == [
        (hel.SingleValueWarning, f"condition path reaches 2 nodes under node {n}; "
         "it should reach at most one")
        for n in (9, 4)
    ]


def _warned(fn, stmt, tree):
    """fn's value or range error on tree, evaluated lenient, and the nodes
    its warnings name, in the order given."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = ob.to_jsonable(fn(stmt, tree, strict=False))
        except RangeError as e:
            out = e
    return out, [int(str(c.message).split("under node ")[1].split(";")[0])
                 for c in caught]


@pytest.mark.parametrize("evaluate, parse, text, doc", [
    # the range over r's two a's fails, and the conditions keep its error
    (rpn.eval_rpn, rpn.parse_rpn, 'r.a[regex:1]{b.txt = "x"}.txt',
     "<r><a><b>x</b></a><a/></r>"),
    # the cut scan asks the condition at the a, whose two b's the range fails
    (hel.eval_cut, hel.parse_vhel, 'r.a{!b[regex:1].txt = "x"}.txt;',
     "<r><a><b/><b/></a></r>"),
    # so does the single-value chain of a plain scan
    (hel.eval_vf, hel.parse_vhel, 'r.a{b[regex:1].txt = "x"}.txt;',
     "<r><a><b/><b/></a></r>"),
], ids=["range_before_conditions", "cut_scan", "condition_chain"])
def test_range_errors_in_the_walk_reach_the_caller(evaluate, parse, text, doc):
    with pytest.raises(NoWordOfLength) as e:
        evaluate(parse(text), parse_document(doc))
    assert str(e.value) == "range regex has no word of length 2"


def test_lenient_mode_warns_only_before_the_first_error():
    # the record's one row raises in its first entry, where d[regex:0*1]
    # finds no d; a condition in a later entry reaches 3 nodes under node
    # 15, but the scan from the root stops at the error before it asks
    text = gen_stmt(StmtGenSpec(
        seed=987, language="helvf", range_pool=("*", "index", "regex"),
        condition_probability=0.6, max_depth=3,
    ))
    tree = gen_tree(TreeGenSpec.profile("default", 987, max_nodes=40))
    out, nodes = _warned(hel.eval_vf, hel.parse_vhel(text), tree)
    assert isinstance(out, NoWordOfLength)
    assert str(out) == "range regex has no word of length 0"
    assert nodes == []


@pytest.mark.parametrize("doc, text, value, nodes", [
    # the scan asks a record's entries row by row: the second entry of the
    # first row (node 5), then the first entry of the second (node 9)
    ("<r><a><x><y/></x><z><q/><q/></z></a><a><x><y/><y/></x><z><q/></z></a></r>",
     'r.a(x{y.txt = ""}.txt # z{q.txt = ""}.txt);', [[[""], [""]]], [5, 9]),
    # both rows' second entries reach b (8), whose c (9) warns once per row
    ("<r><a><x><q><a><x><q><b><c><d/><d/></c></b></q></x></a></q></x></a></r>",
     'r->a.x(y.txt # q->b.c{d.txt = ""}.txt);', [[[], [""]]], [9, 9]),
], ids=["rows", "shared"])
def test_lenient_warnings_come_in_scan_order(doc, text, value, nodes):
    stmt, tree = hel.parse_vhel(text), parse_document(doc)
    for fn in (hel.eval_vf, hel.eval_cut):
        assert _warned(fn, stmt, tree) == (value, nodes)


def test_single_valued_conditions_never_warn(doc1):
    d = hel.desugar(hel.parse_hel(ITEMS_HEL))
    with warnings.catch_warnings():
        warnings.simplefilter("error", hel.SingleValueWarning)
        hel.eval_vf(d, doc1)  # strict would also have raised


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_eval_agrees_with_the_naive_oracle(seed):
    tree = gen_tree(TreeGenSpec(seed=seed))
    text = gen_stmt(StmtGenSpec(seed=seed + 3, language="helvf"))
    w = hel.parse_vhel(text)
    assert plain(quiet_eval(hel.eval_vf, w, tree)) == naive_helvf(tree, w)


# ---------------------------------------------------------------------------
# cuts


def test_cut_stops_the_scan(doc1):
    w = hel.parse_vhel('html.body.table.tr[*]{!td[0].txt = "item"}.td[1].txt;')
    assert ob.to_jsonable(hel.eval_cut(w, doc1)) == ["A"]
    assert ob.to_jsonable(hel.eval_vf(w, doc1)) == ["A", "C"]


def test_cut_drops_later_matches_for_good():
    t = parse_document(
        "<l><r><k>a</k><v>1</v></r><r><k>b</k><v>2</v></r>"
        "<r><k>a</k><v>3</v></r></l>"
    )
    w = hel.parse_vhel('l.r[*]{!k.txt = "a"}.v.txt;')
    # row three satisfies the condition, but row two already stopped the scan
    assert ob.to_jsonable(hel.eval_cut(w, t)) == ["1"]
    assert ob.to_jsonable(hel.eval_vf(w, t)) == ["1", "3"]


def test_unmarked_conditions_do_not_stop_the_scan():
    t = parse_document("<l><i>a</i><i>b</i><i>c</i></l>")
    w = hel.parse_vhel('l.i{txt = "c"}.txt;')
    assert ob.to_jsonable(hel.eval_cut(w, t)) == ["c"]


def test_cut_applies_per_level():
    t = parse_document("<l><g><i>a</i><i>b</i></g><g><i>b</i></g></l>")
    w = hel.parse_vhel('l.g.i[*]{!txt = "a"}.txt;')
    # the scan in the first group stops at its second item; the second
    # group starts a fresh scan and stops immediately
    assert ob.to_jsonable(hel.eval_cut(w, t)) == ["a"]


def test_without_cuts_both_evaluators_agree(doc1):
    for text in [
        ITEMS_VHEL,
        'html.body.table.tr{td[0].txt = "x"}.td[1].txt;',
        "->td.txt;",
    ]:
        w = hel.parse_vhel(text)
        assert hel.eval_cut(w, doc1) == hel.eval_vf(w, doc1)


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_cut_results_are_contained_in_plain_results(seed):
    # holds for the front-anchored ranges the generator emits; a cut scan
    # keeps a prefix of the plain scan, which such ranges respect
    tree = gen_tree(TreeGenSpec(seed=seed))
    text = gen_stmt(StmtGenSpec(seed=seed + 5, language="helvf", cut_probability=0.5))
    w = hel.parse_vhel(text)
    cut = plain(quiet_eval(hel.eval_cut, w, tree))
    full = plain(quiet_eval(hel.eval_vf, w, tree))
    assert _covered(cut, full)


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_cut_agrees_with_the_naive_oracle(seed):
    tree = gen_tree(TreeGenSpec(seed=seed))
    text = gen_stmt(StmtGenSpec(seed=seed + 5, language="helvf", cut_probability=0.5))
    w = hel.parse_vhel(text)
    for v in range(len(tree)):
        got = plain(quiet_eval(partial(hel.eval_cut, v=v), w, tree))
        assert got == naive_cut(tree, w, v)


def test_both_evaluators_agree_with_the_naive_oracles_on_a_large_tree():
    # one tag and one text letter, so conditions often hold and cuts matter
    tree = gen_tree(TreeGenSpec(
        seed=11, max_nodes=600, max_fanout=8, max_depth=9, tags=("a",), text_alphabet="x"
    ))
    assert len(tree) == 465
    cuts_mattered = 0
    for seed in range(100):
        text = gen_stmt(StmtGenSpec(
            seed=seed, language="helvf", tags=("a",), text_pool=("", "x", "xx"),
            condition_probability=0.9, cut_probability=0.5,
        ))
        w = hel.parse_vhel(text)
        for v in range(0, len(tree), 3):
            full = plain(quiet_eval(partial(hel.eval_vf, v=v), w, tree))
            cut = plain(quiet_eval(partial(hel.eval_cut, v=v), w, tree))
            assert full == naive_helvf(tree, w, v), (text, v)
            assert cut == naive_cut(tree, w, v), (text, v)
            assert _covered(cut, full), (text, v)
            cuts_mattered += cut != full
    assert cuts_mattered >= 50


# ---------------------------------------------------------------------------
# translation


def test_lifted_range_translation_text():
    prog, _, _ = hel.translate_vf(hel.parse_vhel('t[1]{c.txt = "x"}.txt;'))
    assert elog.serialize_elog(prog) == (
        "@schema set(p1, str)\n"
        'c1(X0, X) :- dom(X0, X), contains[c][*](X, Y), contains_s(Y, "x").\n'
        "p1(X0, X) :- root(_, X0), subelem[t][*](X0, X), c1(_, X) [1].\n"
    )


def test_all_star_translation_coincides_with_the_rpn_one():
    w = hel.parse_vhel('a.b{c.txt = "x"}.(txt # d.txt);')
    assert hel.translate_vf(w) == rpn.translate_rpn(w)


def test_translation_rejects_cut_marks():
    with pytest.raises(ValueError):
        hel.translate_vf(hel.parse_vhel('a{!txt = "x"}.txt;'))


def test_listing_translation_runs(doc1):
    d = hel.desugar(hel.parse_hel(ITEMS_HEL))
    prog, _, _ = hel.translate_vf(d)
    _, val = elog.run_pipeline(prog, doc1)
    assert val == hel.eval_vf(d, doc1)
    assert ob.to_jsonable(val) == [[["item"], ["A", "C"]]]


def test_divergent_statement_translates_divergently(doc1):
    # the lifted range keeps the condition-first reading through datalog
    w = hel.parse_vhel('html.body.table.tr[1]{td[0].txt = "item"}.td[1].txt;')
    prog, _, _ = hel.translate_vf(w)
    _, val = elog.run_pipeline(prog, doc1)
    assert ob.to_jsonable(val) == ["C"]
    rprog, _, _ = rpn.translate_rpn(w)
    _, rval = elog.run_pipeline(rprog, doc1)
    assert ob.to_jsonable(rval) == []


def test_record_translation_matches_lenient_evaluation_on_one_tag():
    # every node is an a, so the three entries' aux chains meet at shared
    # nodes; each entry's atoms must still move along its own chain
    tree = gen_tree(TreeGenSpec.profile("one_tag", 257, max_nodes=40))
    w = hel.parse_vhel(
        'a->a.(a.a{a[0-2].a.txt = "x"}.a[3]{a.a[3-4].txt = "x" and '
        'a[3-5].txt = "x"}.txt # a.txt # a[*].a[1-1]{a.a.txt = "y"}.a[0]'
        '{a[3-5].a.txt = "xy" and a.a[2,5].txt = "xx"}.txt);'
    )
    prog, _, _ = hel.translate_vf(w)
    _, val = elog.run_pipeline(prog, tree)
    assert val == quiet_eval(hel.eval_vf, w, tree)


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_translation_matches_direct_evaluation(seed):
    tree = gen_tree(TreeGenSpec(seed=seed))
    text = gen_stmt(StmtGenSpec(seed=seed + 11, language="helvf"))
    w = hel.parse_vhel(text)
    prog, _, _ = hel.translate_vf(w)
    _, val = elog.run_pipeline(prog, tree)
    assert val == quiet_eval(hel.eval_vf, w, tree)
