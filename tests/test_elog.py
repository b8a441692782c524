"""Datalog core: parsing, fixpoint evaluation, transformations, rendering."""

import pathlib
import random
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountedList
from wraplab import elog
from wraplab.cli import main
from wraplab import pathrange as pr
from wraplab import objects as ob
from wraplab.doctree import parse_document
from wraplab import testkit
from wraplab.testkit import DOC1, bchain_doc, items_doc

CHAIN_TR = "p(X0, X) :- root(_, X0), subelem[html.body.table.tr][*](X0, X)."


def asset(name: str) -> str:
    return (resources.files("wraplab") / "assets" / name).read_text()


@pytest.fixture
def doc1():
    return parse_document(DOC1)


@pytest.fixture
def quadratic():
    return elog.parse_elog(asset("quadratic.elog"))


@pytest.fixture
def parity():
    return elog.parse_elog(asset("parity.elog"))


# ---------------------------------------------------------------------------
# parsing and validation


def test_single_rule_parses():
    prog = elog.parse_elog('p(X0,X) :- root(_,X0), subelem["a"][*](X0,X).')
    assert len(prog.rules) == 1
    r = prog.rules[0]
    assert isinstance(r, elog.ChainRule)
    assert r.parent == "root"
    assert r.rng == elog.StarRange()


def test_quoted_and_bare_paths_agree():
    a = elog.parse_elog('p(X0,X) :- root(_,X0), subelem["a.b"][*](X0,X).')
    b = elog.parse_elog("p(X0,X) :- root(_,X0), subelem[a.b][*](X0,X).")
    assert a == b


def test_step_range_defaults_to_star():
    a = elog.parse_elog("p(X0,X) :- root(_,X0), subelem[a](X0,X).")
    b = elog.parse_elog("p(X0,X) :- root(_,X0), subelem[a][*](X0,X).")
    assert a == b


def test_comments_and_annotations():
    prog = elog.parse_elog(
        "% whole line\n"
        "@aux p1\n"
        "@schema set(p2, str)\n"
        "p1(X0,X) :- root(_,X0), subelem[a][*](X0,X). % trailing\n"
        "p2(X0,X) :- p1(_,X0), subelem[b][*](X0,X).\n"
    )
    assert prog.aux == frozenset({"p1"})
    assert prog.schema == ob.SetSchema("p2", ob.StrSchema())


def test_percent_inside_string_is_not_a_comment():
    prog = elog.parse_elog(
        'p(X0,X) :- root(_,X0), subelem[a][*](X0,X), contains_s(X, "50%").'
    )
    assert prog.rules[0].conds == (elog.ContainsStr("X", "50%"),)


def test_serialize_parse_round_trip(quadratic, parity):
    for prog in (quadratic, parity):
        assert elog.parse_elog(elog.serialize_elog(prog)) == prog
    rich = elog.parse_elog(
        "@aux p1\n"
        "@schema set(p2, str)\n"
        "p1(X0,X) :- root(_,X0), subelem[a.b*][0-1](X0,X), "
        'contains[c|d][last](X, Y), contains_s(Y, "x\\"y"), label(X, tr), '
        "root(X0) [1,3].\n"
        "p2(X0,X) :- p1(_,X0), subelem[_][*](X0,X), firstchild(X0, X), "
        "nextsibling(X, Y), lastsibling(Y), p1(_, Y).\n"
    )
    assert elog.parse_elog(elog.serialize_elog(rich)) == rich
    # '-' and '#' are predicate-name characters in rules and directives alike
    named = elog.parse_elog(
        "@aux p#1\n"
        "@schema set(a-b, record(set(p#2, str)))\n"
        "a-b(X0, X) :- root(_, X0), subelem[_][*](X0, X).\n"
        "p#1(X0, X) :- a-b(_, X0), subelem[_][*](X0, X).\n"
        "p#2(X0, X) :- p#1(_, X0), subelem[_][*](X0, X).\n"
    )
    assert ob.schema_predicates(named.schema) == ["a-b", "p#2"]
    assert elog.parse_elog(elog.serialize_elog(named)) == named


def test_generated_programs_round_trip():
    for seed in range(500):
        prog = elog.parse_elog(testkit.gen_program(seed))
        assert elog.parse_elog(elog.serialize_elog(prog)) == prog, seed


@pytest.mark.parametrize(
    "rule, check",
    [
        # literals hold every character that ends or splits something else
        (
            'p(X0,X) :- root(_,X0), subelem[a](X0,X), '
            'contains_s(X, "a, b] c) % d :- e \\" f").',
            lambda r: r.conds[0].s == 'a, b] c) % d :- e " f',
        ),
        # a quoted bracket path is the path it quotes
        (
            'p(X0,X) :- root(_,X0), subelem["a.(b|c)*"][0](X0,X).',
            lambda r: r.path == pr.parse_path("a.(b|c)*"),
        ),
        # a trailing rule range after a bracketed atom, with and without space
        (
            "p(X0,X) :- root(_,X0), subelem[a][*](X0,X), contains[b][last](X,Y)[0-1].",
            lambda r: r.rule_range == pr.IntervalUnion(((0, 1),)) and r.conds[0].rng == pr.Last(),
        ),
        (
            "p(X0,X) :- dom(X0,X), contains[b](X,Y)  [ 1,3 ] .",
            lambda r: r.rule_range == pr.IntervalUnion(((1, 1), (3, 3))),
        ),
    ],
)
def test_literals_and_ranges_round_trip(rule, check):
    prog = elog.parse_elog(rule + "  % a comment\n")
    assert check(prog.rules[0])
    assert elog.parse_elog(elog.serialize_elog(prog)) == prog


@pytest.mark.parametrize(
    "text, column, what",
    [
        ("p(X0,X) root(_,X0).", 9, "expected ':-'"),
        ("p(X0,X) :- root(_,X0), subelem [a](X0,X).", 31, "expected '('"),
        ("p(X0,X) :- root(_,X0), subelem[a(X0,X).", 31, "expected '(', got '[a(X0,X)'"),
        ("p(X0,X) :- root(_,X0), subelem[a][*][x](X0,X).", 37, "expected '(', got '[x](X0,X)'"),
        ("p(X0,X) :- root(_,X0), subelem[a](X0,X,Y).", 39, "expected ')', got ',Y)'"),
        ('  p(X0,X) :- root(_,X0), contains_s(X, "a).', 40, "expected ')', got '\"a)'"),
        ("p(X0,X) :- root(_,X0), subelem[a](X0,X) [0] x.", 41, "expected ','"),
        ("p(X0,X) :- root(_,X0), subelem[a](X0,X) :- q.", 41, "unexpected ':-'"),
        ("p(X0,X) :- root(_,X0), .", 24, "expected a predicate name"),
    ],
)
def test_syntax_errors_name_line_and_column(text, column, what):
    with pytest.raises(elog.ElogSyntaxError, match=f"^line 2, column {column}: ") as e:
        elog.parse_elog("% first line\n" + text + "\n")
    assert (e.value.line, e.value.column) == (2, column)
    assert what in str(e.value)


def test_reading_rules_calls_no_scanner(monkeypatch, quadratic, parity):
    # each rule line is read by one pattern match per atom: elog binds
    # neither of the statement parser's scanners, and nothing it calls
    # reaches them
    assert not hasattr(elog, "scan") and not hasattr(elog, "group_end")

    def refuse(*args):
        raise AssertionError("a rule line was rescanned")

    monkeypatch.setattr(pr, "scan", refuse)
    monkeypatch.setattr(pr, "group_end", refuse)
    for prog, name in ((quadratic, "quadratic.elog"), (parity, "parity.elog")):
        assert elog.parse_elog(asset(name)) == prog


CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"
PROGRAM_TEXTS = [
    asset("parity.elog"),
    asset("quadratic.elog"),
    *(p.read_text() for p in sorted(CORPUS.glob("*/*.elog"))),
]
PROGRAM_ERRORS = (elog.ElogError, pr.PathSyntaxError, pr.RangeSyntaxError)
PROGRAM_WORDS = (
    ":-", "_", "dom", "root", "subelem", "contains", "contains_s", "label",
    "firstchild", "nextsibling", "lastsibling", "last", "regex:", "@aux",
    "@record", "@schema", "set", "record", "str",
)
PROGRAM_CHARS = "()[],.:-\"%_*|\\ aXY01#'\n"


def test_edited_programs_fail_only_with_program_errors(tmp_path, capsys):
    # seeded edits of every shipped program: parse_elog raises nothing but
    # program errors, each syntax fault a TextError that names its line,
    # and a sample of the rejected texts leaves wrapctl run with exit 1 and
    # the error as its one line
    rnd = random.Random(5)
    outcomes = Counter()
    w = tmp_path / "edited.elog"
    for _ in range(10000):
        text = testkit.edit_wrapper(
            rnd.choice(PROGRAM_TEXTS), rnd, PROGRAM_CHARS, PROGRAM_WORDS
        )
        try:
            elog.parse_elog(text)
        except PROGRAM_ERRORS as e:
            outcomes[type(e).__name__] += 1
            syntax = not isinstance(e, elog.ElogError) or isinstance(
                e, elog.ElogSyntaxError
            )
            assert isinstance(e, pr.TextError) == syntax, (text, e)
            if syntax:
                assert 1 <= e.line <= len(text.splitlines()), (text, e)
            if sum(outcomes.values()) - outcomes["accepted"] <= 40:
                w.write_text(text)
                rc = main(["run", str(w), str(CORPUS / "pipeline" / "page.doc")])
                out, err = capsys.readouterr()
                assert (rc, out, err) == (1, "", f"wrapctl: {w}: {e}\n"), text
                assert err.count("\n") == 1, text
        else:
            outcomes["accepted"] += 1
    for kind in ("accepted", "ElogSyntaxError", "UnknownPredicate",
                 "PathSyntaxError", "RangeSyntaxError", "UnsafeRule"):
        assert outcomes[kind] >= 5, outcomes


def test_label_tags_are_folded_to_lower_case():
    prog = elog.parse_elog(
        "p(X0, X) :- root(_, X0), subelem[_*][*](X0, X), label(X, TD), label(X0, #text)."
    )
    assert [c.tag for c in prog.rules[0].conds] == ["td", "#text"]


def test_copy_rule_round_trip():
    # the first head argument is a variable, so a former copy rule fails on
    # its line; its chain form, the same atoms p'(root, x), round-trips
    rule = "p(X0,X) :- root(_,X0), subelem[a][*](X0,X).\n"
    with pytest.raises(elog.ElogSyntaxError, match="line 2: p': expected a variable"):
        elog.parse_elog(rule + "p'(_, X) :- p(_, X).\n")
    prog = elog.parse_elog(
        rule + "p'(X0, X) :- root(_, X0), subelem[_*][*](X0, X), p(_, X).\n"
    )
    assert prog.rules[1] == elog.ChainRule(
        "p'", "X0", "X", "root", pr.parse_path("_*"), pr.StarRange(),
        refs=(elog.Ref("p", "X"),),
    )
    assert elog.parse_elog(elog.serialize_elog(prog)) == prog


@pytest.mark.parametrize(
    "text, err",
    [
        ("p(X0,X)", elog.ElogSyntaxError),
        ("p(X0,X) :- root(_,X0)", elog.ElogSyntaxError),
        ("p(X0,X) :- subelem[a][*](X0,X).", elog.ElogSyntaxError),
        ("p(X0,X) :- root(_,X0), subelem[a][(X0,X).", elog.ElogSyntaxError),
        ("p(X0,X) :- root(_,X0), frobnicate(X).", elog.ElogSyntaxError),
        ("p(X0,X) :- root(_,X0), subelem[a][*](X0,X), label(Y, b).", elog.UnsafeRule),
        ("p(X0,X) :- q(_,X0), subelem[a][*](X0,X).", elog.UnknownPredicate),
        ("p(X0,X) :- root(_,X0), subelem[a][*](X0,X), q(_, X).", elog.UnknownPredicate),
        ("p(X0,X) :- root(_,X0), subelem[a][*](X0,X), root(_, X).", elog.ElogSyntaxError),
        ("dom(X0,X) :- root(_,X0), subelem[a][*](X0,X).", elog.UnsafeRule),
        ("p(X0,X) :- dom(X0,X), label(X0, b).", elog.UnsafeRule),
        ("p(X0,X) :- dom(X0,X), label(X, t#d).", elog.ElogSyntaxError),
        ("p(X0,X) :- dom(X0,X), label(X, a_b).", elog.ElogSyntaxError),
        ("p(X0,X) :- dom(X0,X), label(X, #).", elog.ElogSyntaxError),
    ],
)
def test_rejected_programs(text, err):
    with pytest.raises(err):
        elog.parse_elog(text)


@pytest.mark.parametrize(
    "text, err, message",
    [
        (
            "p(X0,X) :- root(_,X0), subelem[a](X0,X).\n"
            "p(X0,X) :- dom(X0,X), label(X, a).",
            elog.UnsafeRule,
            "predicate 'p' mixes dom rules with other rule shapes",
        ),
        (
            "p(X0,X) :- root(_,X0), subelem[a](X0,X), dom(_, X).",
            elog.UnknownPredicate,
            "rule for 'p': builtin 'dom' cannot be referenced",
        ),
        (
            "p(X0,X) :- root(_,X0).",
            elog.ElogSyntaxError,
            "line 1: chain rule needs a subelem atom",
        ),
        (
            "p(X0,X) :- root(_,X0), subelem[a](X0,X), contains_s(X, 1).",
            elog.ElogSyntaxError,
            "line 1: bad string literal 1",
        ),
    ],
    ids=["mixed_shapes", "dom_reference", "no_subelem", "number_literal"],
)
def test_rejected_programs_give_their_message(text, err, message):
    with pytest.raises(err) as e:
        elog.parse_elog(text)
    assert type(e.value) is err
    assert str(e.value) == message


RULE_P1 = "p1(X0, X) :- root(_, X0), subelem[a][*](X0, X).\n"


@pytest.mark.parametrize(
    "directive, err",
    [
        ("@aux p1,p2", elog.ElogSyntaxError),  # one name, not two
        ("@aux nosuch", elog.UnknownPredicate),
        ("@record p1 P2", elog.ElogSyntaxError),  # no longer a directive
        ("@record p1", elog.ElogSyntaxError),
        ("@foo p1", elog.ElogSyntaxError),
        ("@schema set(P1, str)", elog.ElogSyntaxError),
        ("@schema set(p1, record(set(q, str)))", elog.UnknownPredicate),
    ],
)
def test_directives_name_rule_heads(directive, err):
    # the directive is on line 2, after a comment line
    with pytest.raises(err, match="line 2: "):
        elog.parse_elog("% names\n" + directive + "\n" + RULE_P1)


RULE_P2 = "p2(X0, X) :- p1(_, X0), subelem[b][*](X0, X).\n"


def test_directives_may_precede_their_rules_and_use_tabs():
    prog = elog.parse_elog("@aux\tp1\n@schema  set(p2, str)\n" + RULE_P1 + RULE_P2)
    assert (prog.aux, prog.schema) == ({"p1"}, ob.SetSchema("p2", ob.StrSchema()))


def test_aux_directives_accumulate():
    prog = elog.parse_elog("@aux p1\n" + RULE_P1 + "@aux p2\n" + RULE_P2)
    assert prog.aux == {"p1", "p2"}


@pytest.mark.parametrize(
    "first, later, reason",
    [
        ("@aux p1", "@schema set(p1, str)", "'p1' is aux and in the schema"),
        ("@schema set(p1, str)", "@aux p2 p1", "'p1' is aux and in the schema"),
        ("@schema set(p1, str)", "@schema set(p2, str)",
         "the program already has a schema"),
    ],
)
def test_conflicting_directives_fail_on_the_later_line(first, later, reason):
    with pytest.raises(elog.ElogSyntaxError) as e:
        elog.parse_elog(first + "\n" + RULE_P1 + later + "\n" + RULE_P2)
    assert str(e.value) == f"line 3: {later.split()[0]}: {reason}"


def test_variable_connected_through_chain_is_safe():
    # Y links to X via nextsibling, Z to Y via firstchild
    elog.parse_elog(
        "p(X0,X) :- root(_,X0), subelem[a][*](X0,X), nextsibling(Y, X), "
        "firstchild(Y, Z), label(Z, b)."
    )


def test_ungrounded_program_rejected():
    with pytest.raises(elog.UngroundedProgram):
        elog.parse_elog(
            "p(X0,X) :- q(_,X0), subelem[a][*](X0,X).\n"
            "q(X0,X) :- p(_,X0), subelem[a][*](X0,X).\n"
        )


def test_rule_range_on_recursion_rejected():
    with pytest.raises(elog.NotStratified):
        elog.parse_elog(
            "p(X0,X) :- dom(_,X0), subelem[a][*](X0,X), p(_, X) [0]."
        )
    with pytest.raises(elog.NotStratified):
        elog.parse_elog(
            "p(X0,X) :- q(_,X0), subelem[a][*](X0,X) [0].\n"
            "q(X0,X) :- dom(_,X0), subelem[a][*](X0,X), p(_, X).\n"
        )


# ---------------------------------------------------------------------------
# evaluation


def test_empty_program_empty_store(doc1):
    store = elog.eval_fixpoint(elog.ElogProgram(()), doc1)
    assert elog.dump_atoms(store) == ""


def test_chain_rule_atoms(doc1):
    store = elog.eval_fixpoint(elog.parse_elog(CHAIN_TR), doc1)
    assert store.pairs["p"] == {(0, 4), (0, 9), (0, 14)}


def test_dump_is_sorted_text(doc1):
    store = elog.eval_fixpoint(elog.parse_elog(CHAIN_TR), doc1)
    assert elog.dump_atoms(store) == "p(0,14)\np(0,4)\np(0,9)"


def test_rule_range_selects_per_parent(doc1):
    store = elog.eval_fixpoint(elog.parse_elog(CHAIN_TR[:-1] + " [0]."), doc1)
    assert store.pairs["p"] == {(0, 4)}


def test_rule_range_after_conditions(doc1):
    # conditions filter to rows 0 and 2; the rule range then takes the last
    prog = elog.parse_elog(
        "p(X0, X) :- root(_, X0), subelem[html.body.table.tr][*](X0, X), "
        'contains[td][0](X, Y), contains_s(Y, "item") [last].'
    )
    store = elog.eval_fixpoint(prog, doc1)
    assert store.pairs["p"] == {(0, 14)}


def test_step_range_before_conditions(doc1):
    # step range [0] keeps only row 0 before the condition is applied
    prog = elog.parse_elog(
        "p(X0, X) :- root(_, X0), subelem[html.body.table.tr][0](X0, X), "
        'contains[td][0](X, Y), contains_s(Y, "x").'
    )
    store = elog.eval_fixpoint(prog, doc1)
    assert store.pairs["p"] == set()


def test_pairs_behaves_as_the_plain_set_of_its_pairs():
    plain = {(1, 5), (3, 5), (3, 7)}
    rel = elog.Pairs(plain)
    assert rel.by_parent == {1: {5}, 3: {5, 7}}
    assert rel == plain and plain == rel and rel == elog.Pairs(plain)
    assert rel != plain - {(3, 7)} and rel != elog.Pairs({(1, 5)})
    assert {"p": rel} == {"p": plain}
    assert len(rel) == 3 and len(elog.Pairs()) == 0 and not elog.Pairs()
    assert (3, 7) in rel and (7, 3) not in rel and (2, 5) not in rel
    assert 3 not in rel and (1, 5, 0) not in rel
    assert sorted(rel) == sorted(plain) and rel.image() == {5, 7}
    assert rel | {(0, 0)} == plain | {(0, 0)} and rel & {(1, 5)} == {(1, 5)}


def test_dump_is_the_plain_string_order_of_the_lines(quadratic):
    # parents 1..12 cross 9/10, targets 13..112 cross 99/100, and the
    # collapse adds p'(0, l): the lines of p' sort before those of p
    store = elog.eval_fixpoint(
        elog.monadic_collapse(quadratic), parse_document(bchain_doc(12, 100))
    )
    assert set(store.pairs) == {"p", "p'"} and len(store.pairs["p"]) == 1200
    lines = [f"{p}({v0},{v})" for p in store.pairs for v0, v in store.pairs[p]]
    dump = elog.dump_atoms(store)
    assert dump == "\n".join(sorted(lines))
    assert dump.startswith("p'(0,100)\np'(0,101)\n")
    assert "p(1,99)\np(10,100)" in dump


def test_dump_is_the_sorted_lines_on_generated_programs():
    # "below" hangs q0's image under every node above it, so its targets
    # repeat and it takes the id -> text map; the generated relations
    # mostly skip it.  Blocks cross 9/10 and 99/100 in both kinds.
    below = "below(X0, X) :- dom(_, X0), subelem[_*][*](X0, X), q0(_, X).\n"
    seen = Counter()
    for seed in range(200):
        tags = ("a", "b", "c", "d") if seed % 2 else ("a",)
        spec = testkit.TreeGenSpec(
            seed=seed, max_nodes=240, max_fanout=8, max_depth=8, tags=tags
        )
        program = elog.parse_elog(testkit.gen_program(seed) + below)
        try:
            store = elog.eval_fixpoint(program, testkit.gen_tree(spec))
        except pr.RangeError:
            continue
        lines = [f"{p}({v0},{v})" for p, rel in store.pairs.items() for v0, v in rel]
        assert elog.dump_atoms(store) == "\n".join(sorted(lines)), seed
        for rel in store.pairs.values():
            kind = "mapped" if len(rel) > len(rel.image()) else "unmapped"
            seen[kind] += len(rel.by_parent) > 1
            for targets in rel.by_parent.values():
                seen["one target"] += len(targets) == 1
                seen[kind, "9/10"] += min(targets) < 10 <= max(targets)
                seen[kind, "99/100"] += min(targets) < 100 <= max(targets)
    assert seen["mapped"] >= 50 and seen["unmapped"] >= 15, seen
    assert seen["one target"] >= 1000, seen
    assert seen["mapped", "9/10"] >= 50 and seen["mapped", "99/100"] >= 50, seen
    assert seen["unmapped", "9/10"] >= 5 and seen["unmapped", "99/100"] >= 5, seen


@pytest.mark.parametrize("family", ["quadratic", "parity"])
def test_atom_count_is_the_number_of_dumped_lines(quadratic, parity, family):
    # the count the bench tracer takes from the store's relations.  Parity
    # derives odd or even for the list, each item and each item's text, and
    # the mark only for an even count
    prog, counts = {
        "quadratic": (quadratic, {bchain_doc(7, 30): 210}),
        "parity": (parity, {items_doc(25): 51, items_doc(3): 7, items_doc(4): 10}),
    }[family]
    for doc, atoms in counts.items():
        store = elog.eval_fixpoint(prog, parse_document(doc))
        count = sum(len(r) for r in store.pairs.values())
        assert count == atoms == len(elog.dump_atoms(store).splitlines()), doc


def test_no_hot_path_walks_a_relation_pair_by_pair(quadratic, monkeypatch):
    def refuse(self):
        raise AssertionError("a relation was walked pair by pair")

    monkeypatch.setattr(elog.Pairs, "__iter__", refuse)
    store, _ = elog.run_pipeline(quadratic, parse_document(bchain_doc(40, 50)))
    dump = elog.dump_atoms(store)
    assert len(store.pairs["p"]) == 2000 == dump.count("\n") + 1
    assert dump.startswith("p(1,41)\np(1,42)\n") and dump.endswith("p(9,90)")


def test_subelem_lists_are_kept_for_every_automaton(quadratic, parity):
    # quadratic's one navigation and parity's three chain steps and its
    # contains each keep every walked node's list on their automaton
    for prog, doc, path in (
        (quadratic, bchain_doc(5, 8), "b*.l"),
        (parity, items_doc(6), "_"),
    ):
        ev = elog._Eval(prog, parse_document(doc))
        ev.run()
        aut = pr.compile_path(path)
        assert list(ev._sub) == [aut] and ev._sub[aut], path


def test_universal_predicate_not_materialized(doc1):
    prog = elog.parse_elog('c(X0, X) :- dom(X0, X), contains_s(X, "item").')
    store = elog.eval_fixpoint(prog, doc1)
    assert elog.unary_query(store, "c") == frozenset({5, 6, 15, 16})
    assert elog.dump_atoms(store) == ""


def test_universal_predicate_as_reference(doc1):
    prog = elog.parse_elog(
        'c(X0, X) :- dom(X0, X), contains_s(X, "item").\n'
        "p(X0, X) :- root(_, X0), subelem[_*.td][*](X0, X), c(_, X).\n"
    )
    store = elog.eval_fixpoint(prog, doc1)
    assert store.pairs["p"] == {(0, 5), (0, 15)}


def test_universal_predicate_as_parent(doc1):
    prog = elog.parse_elog(
        'c(X0, X) :- dom(X0, X), label(X, tr).\n'
        "p(X0, X) :- c(_, X0), subelem[td][1](X0, X).\n"
    )
    store = elog.eval_fixpoint(prog, doc1)
    assert store.pairs["p"] == {(4, 7), (9, 12), (14, 17)}


def test_builtin_root_as_condition(doc1):
    prog = elog.parse_elog(
        "p(X0, X) :- dom(_, X0), subelem[_*][*](X0, X), root(X0), label(X, td)."
    )
    store = elog.eval_fixpoint(prog, doc1)
    assert {v0 for v0, _ in store.pairs["p"]} == {0}
    assert elog.unary_query(store, "p") == frozenset({5, 7, 10, 12, 15, 17})


def test_unary_query_projects_second_argument():
    store = elog.AtomStore(frozenset())
    store.pairs = {"p": elog.Pairs({(1, 5), (3, 5)})}
    assert elog.unary_query(store, "p") == frozenset({5})
    with pytest.raises(elog.UnknownPredicate):
        elog.unary_query(store, "q")


# quadratic behavior


def test_quadratic_exact_atoms(quadratic):
    t = parse_document(bchain_doc(3, 2))
    store = elog.eval_fixpoint(quadratic, t)
    bs, ls = [1, 2, 3], [4, 5]
    assert store.pairs["p"] == {(b, l) for b in bs for l in ls}
    assert elog.unary_query(store, "p") == frozenset(ls)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 4), (8, 8)])
def test_quadratic_growth(quadratic, m, n):
    t = parse_document(bchain_doc(m, n))
    store = elog.eval_fixpoint(quadratic, t)
    assert len(store.pairs["p"]) == m * n


# parity behavior


def test_parity_marks_even_positions(parity):
    t = parse_document(items_doc(4))
    store = elog.eval_fixpoint(parity, t)
    kids = t.children(t.top_element())
    assert elog.unary_query(store, "even") & set(kids) == {kids[1], kids[3]}
    assert elog.unary_query(store, "odd") & set(kids) == {kids[0], kids[2]}
    assert elog.unary_query(store, "evenmark") == frozenset({t.top_element()})


@pytest.mark.parametrize("k", range(8))
def test_parity_matches_direct_count(parity, k):
    t = parse_document(items_doc(k))
    store = elog.eval_fixpoint(parity, t)
    marked = elog.unary_query(store, "evenmark")
    assert (t.top_element() in marked) == (k % 2 == 0)


def test_fixpoint_is_rule_order_independent(parity):
    t = parse_document(items_doc(6))
    base = elog.eval_fixpoint(parity, t)
    rng = random.Random(7)
    for _ in range(5):
        rules = list(parity.rules)
        rng.shuffle(rules)
        shuffled = elog.ElogProgram(tuple(rules), parity.aux)
        store = elog.eval_fixpoint(shuffled, t)
        assert store.pairs == base.pairs
        assert store.unary == base.unary


@pytest.fixture
def body_runs(monkeypatch):
    """Counts the per-target body runs of every evaluation."""
    calls = [0]
    holds = elog._Plan.holds

    def counted(self, v0, v):
        calls[0] += 1
        return holds(self, v0, v)

    monkeypatch.setattr(elog._Plan, "holds", counted)
    return calls


def test_parity_body_runs_grow_linearly(parity, body_runs):
    # each (rule, parent, target) runs its body again only when a reference
    # it found false turns true, so body runs are linear in the fanout
    counts = []
    for k in (50, 200):
        body_runs[0] = 0
        elog.eval_fixpoint(parity, parse_document(items_doc(k)))
        counts.append(body_runs[0])
    assert counts[1] / counts[0] <= 4.5, counts


def test_quadratic_body_runs_at_most_once_per_parent(quadratic, body_runs):
    # label(X0, b) mentions the parent alone, so it is checked once per
    # parent rather than at each of the 1050 targets
    t = parse_document(bchain_doc(20, 50))
    store = elog.eval_fixpoint(quadratic, t)
    assert len(store.pairs["p"]) == 20 * 50
    assert body_runs[0] <= len(t) == 71, body_runs[0]


def test_quadratic_navigates_from_each_b_alone(quadratic, monkeypatch):
    # label(X0, b) is checked before navigating, so no other node of the
    # dom parent's image is handed to the walk
    contexts = [0]
    walk = elog.walk

    def counted(tree, nodes, *args):
        contexts[0] += len(nodes)
        return walk(tree, nodes, *args)

    monkeypatch.setattr(elog, "walk", counted)
    for m, n in ((1, 5), (20, 50)):
        contexts[0] = 0
        store = elog.eval_fixpoint(quadratic, parse_document(bchain_doc(m, n)))
        assert len(store.pairs["p"]) == m * n
        assert contexts[0] == m


def test_quadratic_reads_as_many_tags_as_it_derives_atoms(quadratic):
    # each b's walk enters the b below it in the start state of b*.l and
    # takes over its hits, so the tags read grow with the answer, 16x here,
    # and with the nodes, 4x, not with the b's times their subtrees
    counts = []
    for m, n in ((50, 50), (200, 200)):
        tree = parse_document(bchain_doc(m, n))
        tree.tags = tags = CountedList(tree.tags)
        store = elog.eval_fixpoint(quadratic, tree)
        assert len(store.pairs["p"]) == m * n
        counts.append(tags.reads)
    assert counts[1] / counts[0] <= 4.5, counts


@pytest.mark.parametrize("rule", [
    "p(X0, X) :- dom(_, X0), subelem[_][regex:11*](X0, X), label(X0, tr).",
    "p(X0, X) :- dom(_, X0), subelem[_][*](X0, X), label(X0, tr) [regex:11*].",
], ids=["step_range", "rule_range"])
def test_regex_ranges_raise_where_the_parent_check_fails(doc1, rule):
    # 11* has no word of length 0; label(X0, tr) holds only at the rows,
    # which have cells, and fails at the leaves, which have no hits
    with pytest.raises(pr.NoWordOfLength):
        elog.eval_fixpoint(elog.parse_elog(rule), doc1)
    rows_only = "c(X0, X) :- dom(X0, X), label(X, tr).\n" + rule.replace(
        "dom(_, X0)", "c(_, X0)"
    )
    store = elog.eval_fixpoint(elog.parse_elog(rows_only), doc1)
    assert store.pairs["p"] == {
        (4, 5), (4, 7), (9, 10), (9, 12), (14, 15), (14, 17)
    }


def test_each_rule_is_oriented_once_per_program(monkeypatch):
    calls = [0]
    orient = elog._orient

    def counted(rule, heads):
        calls[0] += 1
        return orient(rule, heads)

    monkeypatch.setattr(elog, "_orient", counted)
    prog = elog.parse_elog(asset("parity.elog"))
    elog.run_pipeline(prog, parse_document(items_doc(6)))
    assert calls[0] == len(prog.rules) == 5


class _CountedRules(tuple):
    """A tuple that counts the items read from it."""

    reads = 0

    def __iter__(self):
        for r in super().__iter__():
            self.reads += 1
            yield r

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_program_analysis_reads_the_rules_linearly_often():
    # on a chain listed dependents first, grounding one more rule per pass
    # over the rules, or scanning every rule per head, reads quadratically
    tree = parse_document("<a><a></a></a>")
    reads = []
    for n in (1500, 3000):
        text = "".join(
            f"p{i}(X0, X) :- p{i - 1}(_, X0), subelem[a][*](X0, X).\n"
            for i in range(n, 1, -1)
        ) + "p1(X0, X) :- root(_, X0), subelem[a][*](X0, X).\n"
        prog = elog.ElogProgram(_CountedRules(elog.parse_elog(text).rules))
        elog.validate_program(prog)
        store = elog.eval_fixpoint(prog, tree)
        assert store.pairs["p2"] == {(1, 2)} and store.pairs[f"p{n}"] == set()
        reads.append(prog.rules.reads)
    assert reads[1] / reads[0] <= 2.25, reads


def test_recursive_reference_that_enumerates_its_image(doc1):
    # q(_, Y) binds Y by enumerating q's own image, so a failed target waits
    # on the whole predicate rather than on one atom
    prog = elog.parse_elog(
        "q(X0, X) :- root(_, X0), subelem[_][*](X0, X).\n"
        "q(X0, X) :- dom(_, X0), subelem[_][*](X0, X), "
        "contains[_][*](Y, X), q(_, Y).\n"
    )
    store = elog.eval_fixpoint(prog, doc1)
    assert elog.unary_query(store, "q") == frozenset(range(1, len(doc1)))


def test_enumerating_reference_waits_on_the_whole_image(doc1):
    # the recursive rule comes first, so at every target q's image is still
    # empty; only the watch on all of q brings the targets back
    prog = elog.parse_elog(
        "q(X0, X) :- dom(_, X0), subelem[_][*](X0, X), "
        "contains[_][*](Y, X), q(_, Y).\n"
        "q(X0, X) :- root(_, X0), subelem[_][*](X0, X).\n"
    )
    store = elog.eval_fixpoint(prog, doc1)
    assert elog.unary_query(store, "q") == frozenset(range(1, len(doc1)))


def test_parent_condition_after_a_raising_check_keeps_the_error(doc1):
    # contains checks X0 against a regex with no word of odd length, at
    # every target before label(X0, td) fails; the other order never
    # reaches contains
    rule = "p(X0, X) :- root(_, X0), subelem[_*][*](X0, X), {}, {}."
    check, on_parent = "contains[_*][regex:(10)*](X, X0)", "label(X0, td)"
    with pytest.raises(pr.NoWordOfLength):
        elog.eval_fixpoint(elog.parse_elog(rule.format(check, on_parent)), doc1)
    store = elog.eval_fixpoint(elog.parse_elog(rule.format(on_parent, check)), doc1)
    assert store.pairs["p"] == set()


def test_head_with_one_variable_binds_it_to_the_target(doc1):
    # in p(X, X) the conditions on X test the target, not the parent
    for body, expected in [
        ("subelem[_][*](X, X), label(X, html)", {(0, 1)}),
        ("subelem[_*][*](X, X), nextsibling(X, Y), label(Y, tr)", {(0, 4), (0, 9)}),
    ]:
        prog = elog.parse_elog(f"p(X, X) :- root(_, X), {body}.")
        assert elog.eval_fixpoint(prog, doc1).pairs["p"] == expected


def test_dom_rule_inside_a_recursive_component(doc1):
    prog = elog.parse_elog(
        "c(X0, X) :- dom(X0, X), q(_, X).\n"
        "q(X0, X) :- root(_, X0), subelem[html][*](X0, X).\n"
        "q(X0, X) :- c(_, X0), subelem[_][0](X0, X).\n"
    )
    store = elog.eval_fixpoint(prog, doc1)
    first_children = frozenset({1, 2, 3, 4, 5, 6})  # html down to "item"
    assert store.unary["c"] == first_children
    assert elog.unary_query(store, "q") == first_children


def test_contains_dom_rule_inside_a_recursive_component(doc1):
    # c is derived node by node, so each q atom brings its parent back
    prog = elog.parse_elog(
        "c(X0, X) :- dom(X0, X), contains[_][*](X, Y), q(_, Y).\n"
        "q(X0, X) :- root(_, X0), subelem[_*][*](X0, X), "
        'contains_s(X, "item"), label(X, td).\n'
        "q(X0, X) :- root(_, X0), subelem[_*][*](X0, X), c(_, X).\n"
    )
    store = elog.eval_fixpoint(prog, doc1)
    item_rows_and_above = frozenset({0, 1, 2, 3, 4, 14})
    assert store.unary["c"] == item_rows_and_above
    assert elog.unary_query(store, "q") == item_rows_and_above | {5, 15}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_strict_descent_for_epsilon_free_paths(seed):
    from wraplab.testkit import TreeGenSpec, gen_tree

    t = gen_tree(TreeGenSpec(seed=seed, max_nodes=20))
    prog = elog.parse_elog(
        "p(X0, X) :- dom(_, X0), subelem[_*.a|_*.b|_*.c|_*.d][*](X0, X)."
    )
    store = elog.eval_fixpoint(prog, t)
    for v0, v in store.pairs["p"]:
        assert v0 < v
        w = t.parent(v)
        while w is not None and w != v0:
            w = t.parent(w)
        assert w == v0


def _fixpoint_outcome(program, tree):
    try:
        store = elog.eval_fixpoint(program, tree)
    except pr.RangeError as e:
        return type(e).__name__
    return store.pairs, store.unary


def _oracle_outcome(program, tree):
    try:
        return testkit.naive_fixpoint(program, tree)
    except (testkit.NoWordOfLength, testkit.MultipleWords) as e:
        return type(e).__name__


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_fixpoint_matches_naive_oracle(seed):
    program = elog.parse_elog(testkit.gen_program(seed))
    tree = testkit.gen_tree(testkit.TreeGenSpec(seed=seed, max_nodes=30))
    assert _fixpoint_outcome(program, tree) == _oracle_outcome(program, tree)


def test_fixpoint_matches_naive_oracle_on_a_large_tree():
    spec = testkit.TreeGenSpec(seed=11, max_nodes=600, max_fanout=8, max_depth=9)
    tree = testkit.gen_tree(spec)
    assert len(tree) == 465
    for seed in range(40):
        program = elog.parse_elog(testkit.gen_program(seed))
        expected = _oracle_outcome(program, tree)
        outcome = _fixpoint_outcome(program, tree)
        assert outcome == expected, elog.serialize_elog(program)


@pytest.mark.parametrize("profile", ["deep", "one_tag"])
def test_fixpoint_matches_naive_oracle_on_shaped_trees(profile):
    for seed in range(300):
        spec = testkit.TreeGenSpec.profile(profile, seed, max_nodes=120)
        tree = testkit.gen_tree(spec)
        program = elog.parse_elog(testkit.gen_program(seed))
        expected = _oracle_outcome(program, tree)
        outcome = _fixpoint_outcome(program, tree)
        assert outcome == expected, elog.serialize_elog(program)


# ---------------------------------------------------------------------------
# monadic collapse


def test_collapse_structure():
    prog = elog.parse_elog(CHAIN_TR)
    col = elog.monadic_collapse(prog)
    assert len(col.rules) == 2
    assert elog.serialize_elog(col).splitlines()[1] == (
        "p'(X0, X) :- root(_, X0), subelem[_*][*](X0, X), p(_, X)."
    )


def test_collapse_rejects_rule_ranges():
    prog = elog.parse_elog(CHAIN_TR[:-1] + " [0].")
    with pytest.raises(elog.HasRuleRanges):
        elog.monadic_collapse(prog)


def test_collapse_preserves_unary_queries(doc1, quadratic, parity):
    cases = [
        (elog.parse_elog(CHAIN_TR), doc1),
        (quadratic, parse_document(bchain_doc(3, 3))),
        (parity, parse_document(items_doc(5))),
        (
            elog.parse_elog(
                'c(X0, X) :- dom(X0, X), contains_s(X, "item").\n'
                "p(X0, X) :- root(_, X0), subelem[_*.td][*](X0, X), c(_, X).\n"
            ),
            doc1,
        ),
    ]
    for prog, tree in cases:
        store = elog.eval_fixpoint(prog, tree)
        cstore = elog.eval_fixpoint(elog.monadic_collapse(prog), tree)
        for p in prog.head_preds():
            assert elog.unary_query(store, p) == elog.unary_query(
                cstore, p + "'"
            ), p


def test_collapse_avoids_name_collisions():
    prog = elog.parse_elog(
        "p(X0,X) :- root(_,X0), subelem[a][*](X0,X).\n"
        "p'(X0,X) :- p(_,X0), subelem[b][*](X0,X).\n"
    )
    col = elog.monadic_collapse(prog)
    names = {r.head for r in col.rules}
    assert "p''" in names  # companion of p dodges the existing p'
    assert len(names) == 4  # p, p', and their two companions


# ---------------------------------------------------------------------------
# eliminate_aux


def _store(pairs, aux=(), parents=None):
    s = elog.AtomStore(frozenset(aux), parents=parents)
    s.pairs = {p: elog.Pairs(v) for p, v in pairs.items()}
    return s


def test_eliminate_single_gap():
    out = elog.eliminate_aux(_store(
        {"q": {(1, 2)}, "p": {(2, 3)}}, aux=["q"], parents={"q": ("root",), "p": ("q",)}
    ))
    assert out.pairs == {"p": {(1, 3)}}


def test_eliminate_chained_gaps():
    out = elog.eliminate_aux(_store(
        {"q": {(1, 2)}, "r": {(2, 3)}, "p": {(3, 4)}},
        aux=["q", "r"],
        parents={"q": ("root",), "r": ("q",), "p": ("r",)},
    ))
    assert out.pairs == {"p": {(1, 4)}}


def test_eliminate_no_aux_atoms_is_identity():
    out = elog.eliminate_aux(_store({"p": {(1, 2)}}, parents={"p": ("root",)}))
    assert out.pairs == {"p": {(1, 2)}}


def test_eliminate_keeps_targets_with_retained_edges():
    # p hangs from both q and s; s holds at 2, so p(2, 3) also stays
    out = elog.eliminate_aux(_store(
        {"q": {(1, 2)}, "s": {(9, 2)}, "p": {(2, 3)}},
        aux=["q"],
        parents={"q": ("root",), "s": ("root",), "p": ("q", "s")},
    ))
    assert out.pairs == {"s": {(9, 2)}, "p": {(1, 3), (2, 3)}}


def test_eliminate_moves_each_atom_along_its_own_parent():
    # q and r both reach node 2 from different anchors; p hangs from q
    # only, so r's anchor 5 must not become one of p's
    out = elog.eliminate_aux(_store(
        {"q": {(1, 2)}, "r": {(5, 2)}, "p": {(2, 3)}, "s": {(2, 4)}},
        aux=["q", "r"],
        parents={"q": ("root",), "r": ("root",), "p": ("q",), "s": ("r",)},
    ))
    assert out.pairs == {"p": {(1, 3)}, "s": {(5, 4)}}


def test_eliminate_aux_cycle_rejected():
    with pytest.raises(elog.AuxCycle):
        elog.eliminate_aux(
            _store({"q": {(1, 2), (2, 1)}}, aux=["q"], parents={"q": ("q",)})
        )
    with pytest.raises(elog.AuxCycle):  # q(1, 1) hangs from its own instance
        elog.eliminate_aux(_store({"q": {(1, 1)}}, aux=["q"], parents={"q": ("q",)}))
    # under a builtin parent, q(1, 1) stays at 1 and is spliced like any atom
    out = elog.eliminate_aux(_store(
        {"q": {(1, 1), (1, 2)}, "p": {(1, 3), (2, 4)}},
        aux=["q"],
        parents={"q": ("root",), "p": ("q",)},
    ))
    assert out.pairs == {"p": {(1, 3), (1, 4)}}


def test_eliminate_aux_idempotent():
    first = elog.eliminate_aux(_store(
        {"q": {(1, 2), (5, 6)}, "p": {(2, 3), (6, 7)}, "r": {(3, 9)}},
        aux=["q"],
        parents={"q": ("root",), "p": ("q",), "r": ("p",)},
    ))
    again = elog.eliminate_aux(first)
    assert again.pairs == first.pairs


def test_eliminate_branching_aux():
    out = elog.eliminate_aux(_store(
        {"q": {(1, 2), (1, 4)}, "p": {(2, 3), (4, 5)}},
        aux=["q"],
        parents={"q": ("root",), "p": ("q",)},
    ))
    assert out.pairs == {"p": {(1, 3), (1, 5)}}


_PREDS = ("p0", "p1", "p2", "p3")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(0, 7)),
        max_size=14,
    ),
    st.sets(st.integers(0, 3)),
    st.lists(
        st.lists(st.sampled_from(("root", "dom") + _PREDS), min_size=1, max_size=2),
        min_size=4,
        max_size=4,
    ),
)
def test_eliminate_aux_matches_naive_oracle(triples, aux_ids, parent_lists):
    pairs: dict = {}
    for p, a, b in triples:
        pairs.setdefault(f"p{p}", set()).add((a, b))
    aux = [f"p{p}" for p in aux_ids]
    parents = {p: tuple(ps) for p, ps in zip(_PREDS, parent_lists)}
    try:
        expected = testkit.naive_eliminate_aux(pairs, aux, parents)
    except testkit.AuxCycle:
        with pytest.raises(elog.AuxCycle):
            elog.eliminate_aux(_store(pairs, aux, parents))
        return
    assert elog.eliminate_aux(_store(pairs, aux, parents)).pairs == expected


def test_eliminate_deep_aux_chain():
    n = 100_000
    chain = {(i, i + 1) for i in range(n)}
    out = elog.eliminate_aux(_store(
        {"q": chain, "p": {(n, n + 1)}}, aux=["q"], parents={"q": ("q",), "p": ("q",)}
    ))
    assert out.pairs == {"p": {(0, n + 1)}}


def test_eliminate_deep_aux_cycle_rejected():
    n = 20_000
    ring = {(i, (i + 1) % n) for i in range(n)}
    with pytest.raises(elog.AuxCycle):
        elog.eliminate_aux(_store(
            {"q": ring, "p": {(0, n)}}, aux=["q"], parents={"q": ("q",), "p": ("q",)}
        ))


# ---------------------------------------------------------------------------
# output graphs, as dot text


def _dot_lines(store, tree) -> tuple:
    """The node and edge lines of the store's dot text."""
    dot = elog.to_dot(store, tree).splitlines()
    assert dot[:2] == ["digraph atoms {", "  rankdir=TB;"] and dot[-1] == "}"
    nodes = [line for line in dot[2:-1] if " -> " not in line]
    edges = [line for line in dot[2:-1] if " -> " in line]
    return nodes, edges


def test_output_graph_counts(quadratic):
    t = parse_document(bchain_doc(3, 2))
    nodes, edges = _dot_lines(elog.eval_fixpoint(quadratic, t), t)
    # the root, the three parents and the two targets, which list p
    assert len(nodes) == 6 and len(edges) == 6
    assert [line for line in nodes if line.endswith('\\np"];')] == [
        '  n4 [label="4:l\\np"];', '  n5 [label="5:l\\np"];'
    ]


def test_output_graph_merges_parallel_edges(doc1):
    prog = elog.parse_elog(
        "p(X0,X) :- root(_,X0), subelem[html][*](X0,X).\n"
        "q(X0,X) :- root(_,X0), subelem[_][*](X0,X).\n"
    )
    nodes, edges = _dot_lines(elog.eval_fixpoint(prog, doc1), doc1)
    assert edges == ['  n0 -> n1 [label="p,q"];']
    assert nodes == ['  n0 [label="0:#doc"];', '  n1 [label="1:html\\np,q"];']


def test_dot_rendering_mentions_nodes_and_edges(doc1):
    dot = elog.to_dot(elog.eval_fixpoint(elog.parse_elog(CHAIN_TR), doc1), doc1)
    assert dot.startswith("digraph")
    assert 'n0 -> n4 [label="p"];' in dot
    assert '"4:tr' in dot


def test_dot_lists_universal_predicates_on_their_nodes(doc1):
    # a dom-rule predicate is a node set: its nodes list it, with no edge
    prog = elog.parse_elog('c(X0, X) :- dom(X0, X), contains_s(X, "B").')
    nodes, edges = _dot_lines(elog.eval_fixpoint(prog, doc1), doc1)
    assert edges == []
    assert [line for line in nodes if "\\nc" in line] == [
        '  n12 [label="12:td\\nc"];', '  n13 [label="13:#text\\nc"];'
    ]


# ---------------------------------------------------------------------------
# complex objects


def test_singleton_set_schema(doc1):
    store = _store({"p": {(0, 5), (0, 15)}})
    value = elog.to_complex_object(
        store, ob.parse_schema("set(p, str)"), doc1
    )
    assert ob.to_jsonable(value) == ["item"]  # equal strings collapse


def test_record_entries_follow_schema_order(doc1):
    schema = ob.parse_schema("set(rows, record(set(k, str), set(v, str)))")
    store = _store({"rows": {(0, 4)}, "k": {(4, 5)}, "v": {(4, 7)}})
    value = elog.to_complex_object(store, schema, doc1)
    assert ob.to_jsonable(value) == [[["item"], ["A"]]]
    # derivation order of the store does not matter, only schema order
    store2 = _store({"v": {(4, 7)}, "k": {(4, 5)}, "rows": {(0, 4)}})
    assert elog.to_complex_object(store2, schema, doc1) == value


def test_empty_sets_are_kept(doc1):
    schema = ob.parse_schema("set(rows, record(set(k, str), set(v, str)))")
    store = _store({"rows": {(0, 9)}, "k": {(9, 10)}})
    value = elog.to_complex_object(store, schema, doc1)
    assert ob.to_jsonable(value) == [[["x"], []]]


def test_schema_mismatch_detected(doc1):
    store = _store({"p": {(0, 5)}, "stray": {(0, 7)}})
    with pytest.raises(elog.SchemaMismatch):
        elog.to_complex_object(store, ob.parse_schema("set(p, str)"), doc1)


def test_pipeline_runs_elimination_and_rendering(doc1):
    prog = elog.parse_elog(
        "@aux p1\n"
        "@schema set(p2, str)\n"
        "p1(X0, X) :- root(_, X0), subelem[html.body.table][*](X0, X).\n"
        "p2(X0, X) :- p1(_, X0), subelem[tr][*](X0, X), "
        'contains[td][0](X, Y), contains_s(Y, "item").\n'
    )
    store, value = elog.run_pipeline(prog, doc1)
    assert ob.to_jsonable(value) == ["itemA", "itemC"]
    assert set(store.pairs) == {"p2"}
