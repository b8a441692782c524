"""wrapctl command surface: routing, output formats, exit codes."""

import json
import os
import pathlib
import random
import subprocess
import sys
import warnings
from collections import Counter

import pytest

from wraplab import elog, hel, rpn
from wraplab.cli import detect_language, main, _styled
from wraplab.doctree import MalformedInput, parse_document
from wraplab.hel import SingleValueWarning
from wraplab.pathrange import TextError
from wraplab.testkit import edit_doc, edit_wrapper, naive_parse_document

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture
def wrapctl(capsys):
    def call(*argv):
        rc = main([str(a) for a in argv])
        cap = capsys.readouterr()
        return rc, cap.out, cap.err

    return call


def corpus(*parts) -> str:
    return str(CORPUS.joinpath(*parts))


# ---------------------------------------------------------------------------
# run


def test_run_rpn_prints_json(wrapctl):
    rc, out, _ = wrapctl(
        "run", corpus("items_table", "second_cols.rpn"), corpus("items_table", "page.doc")
    )
    assert rc == 0
    assert out == '["A", "C"]\n'


def test_run_hel_desugars_before_evaluating(wrapctl):
    rc, out, _ = wrapctl(
        "run", corpus("items_table", "pairs.hel"), corpus("items_table", "page.doc")
    )
    assert rc == 0
    assert out == '[[["item"], ["A", "C"]]]\n'


def test_run_cut_flag_switches_the_evaluator(wrapctl):
    args = ("run", corpus("cuts", "first_items.vhel"), corpus("cuts", "page.doc"))
    assert wrapctl(*args) == (0, '["A", "C"]\n', "")
    assert wrapctl(*args, "--cut") == (0, '["A"]\n', "")


def test_run_program_defaults_to_atoms(wrapctl):
    rc, out, _ = wrapctl(
        "run", corpus("programs", "quad.elog"), corpus("programs", "chain.doc")
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "p(1,4)"


def test_run_program_with_schema_prints_json(wrapctl):
    rc, out, _ = wrapctl(
        "run", corpus("pipeline", "cells.elog"), corpus("pipeline", "page.doc"),
        "--out", "json",
    )
    assert rc == 0
    assert out == '["A", "B", "C"]\n'


def test_run_program_dot_output(wrapctl):
    rc, out, _ = wrapctl(
        "run", corpus("pipeline", "cells.elog"), corpus("pipeline", "page.doc"),
        "--out", "dot",
    )
    assert rc == 0
    assert out.startswith("digraph atoms {")
    assert '[label="p2"]' in out


def test_run_strict_rejects_ambiguous_condition_paths(wrapctl, tmp_path):
    w = tmp_path / "amb.vhel"
    w.write_text('a{b.txt = "1"}.txt;\n')
    d = tmp_path / "two.doc"
    d.write_text("<a><b>1</b><b>2</b></a>")
    rc, _, err = wrapctl("run", w, d)
    assert rc == 1
    assert "at most one" in err
    with pytest.warns(SingleValueWarning):
        rc, out, _ = wrapctl("run", w, d, "--lenient")
    assert rc == 0
    assert out == '["12"]\n'


def test_run_exit_codes_for_bad_inputs(wrapctl, tmp_path):
    good_w = corpus("items_table", "second_cols.rpn")
    good_d = corpus("items_table", "page.doc")
    bad_doc = tmp_path / "bad.doc"
    bad_doc.write_text("text outside")
    odd = tmp_path / "w.txt"
    odd.write_text("txt")

    rc, _, err = wrapctl("run", tmp_path / "missing.rpn", good_d)
    assert rc == 1
    rc, _, err = wrapctl("run", odd, good_d)
    assert rc == 1 and "unknown wrapper extension" in err
    rc, _, err = wrapctl("run", good_w, tmp_path / "missing.doc")
    assert rc == 2
    rc, _, err = wrapctl("run", good_w, bad_doc)
    assert rc == 2 and "top-level element" in err


_AMBIGUOUS_RANGE = {
    "rpn": "a.b[regex:(0|1)*1].txt",
    "vhel": "a.b[regex:(0|1)*1].txt",
    "hel": "a.b[regex:(0|1)*1].txt",
    "elog": "p(X0, X) :- dom(_, X0), subelem[a][regex:(0|1)*1](X0, X).\n",
}


@pytest.mark.parametrize("command", ["run", "check", "translate", "diff"])
@pytest.mark.parametrize("ext", sorted(_AMBIGUOUS_RANGE))
def test_ambiguous_regex_range_fails_at_parse_on_one_line(
    wrapctl, tmp_path, ext, command
):
    # (0|1)*1 marks both 01 and 11 at length 2: rejected when read
    w = tmp_path / f"w.{ext}"
    w.write_text(_AMBIGUOUS_RANGE[ext])
    d = tmp_path / "d.doc"
    d.write_text("<a><b>x</b></a>")
    argv = {
        "run": ("run", w, d),
        "check": ("check", w),
        "translate": ("translate", w, "--to", "elog"),
        "diff": ("diff", w, w, d),
    }[command]
    # the place of '[regex:...]'
    at = "line 1, column 35" if ext == "elog" else "at 3"
    assert wrapctl(*argv) == (
        1, "", f"wrapctl: {w}: {at}: range regex has several words of length 2\n"
    )


_PROGRAM = "p(X0, X) :- root(_, X0), subelem[a][*](X0, X).\n% a comment\n"
RANGE_FAULTS = {  # wrapper -> (its text, the one line's text after the name)
    "cond.rpn": ('a.(b.txt # c{d[x].txt = "y"}.txt)', "at 14: bad range item 'x'"),
    "cond.vhel": ('a.(b.txt # c{d[x].txt = "y"}.txt);', "at 14: bad range item 'x'"),
    "entry.hel": ("a(b.txt # c[2-1].txt);", "at 11: bad range bounds '2-1'"),
    "where.hel": (
        'a.b[i].txt where a.b[i].c[1-].txt = "x";', "at 25: bad range item '1-'"
    ),
    "range.elog": (
        _PROGRAM + "q(X0, X) :- p(_, X0), subelem[b](X0, X), contains[c][0,x](X, Y).",
        "line 3, column 53: bad range item 'x'",
    ),
    "path.elog": (
        _PROGRAM + "q(X0, X) :- p(_, X0), subelem[(b|)](X0, X).",
        "line 3, column 34: unexpected ')'",
    ),
    "end.rpn": ("(a.", "at 3: unexpected end of path"),
    # a range item is ASCII digits, with only spaces, tabs and line breaks
    # around them
    "underscore.rpn": ("a[1_0].txt", "at 1: bad range item '1_0'"),
    "sign.rpn": ("a[+1].txt", "at 1: bad range item '+1'"),
    "digit.rpn": ("a[\u0661].txt", "at 1: bad range item '\u0661'"),
    "formfeed.rpn": ("a[\x0c1].txt", "at 1: bad range item '\\x0c1'"),
    "formfeed.hel": (
        'shop.prod[\x0ci](name.txt # tag.txt) where shop.prod[i].price.txt = "3";',
        "at 9: bad range item '\\x0ci'",
    ),
    "formfeed_var.hel": ("a.b[i:\x0c1].txt;", "at 3: bad range item '\\x0c1'"),
    "underscore.elog": (
        _PROGRAM + "q(X0, X) :- p(_, X0), subelem[a][1_0](X0, X).",
        "line 3, column 33: bad range item '1_0'",
    ),
    "sign.elog": (
        _PROGRAM + "q(X0, X) :- p(_, X0), subelem[b](X0, X) [+1].",
        "line 3, column 41: bad range item '+1'",
    ),
    "end.elog": (
        _PROGRAM + "q(X0, X) :- p(_, X0), subelem[a.](X0, X).",
        "line 3, column 33: unexpected end of path",
    ),
}


@pytest.mark.parametrize("name", RANGE_FAULTS)
def test_range_and_path_faults_name_their_place(wrapctl, tmp_path, name):
    # a statement's offset counts from its start, whatever group the range
    # is in; a program's faults name their line and column
    text, message = RANGE_FAULTS[name]
    w = tmp_path / name
    w.write_text(text, encoding="utf-8")
    assert wrapctl("check", w) == (1, "", f"wrapctl: {w}: {message}\n")


ONE_LINE_FAULTS = {  # statement -> the one line's text after the name
    "a.(b|).txt\n": "at 5: unexpected ')'",  # the path alone, not the text
    'html.body.table.tr{td[0].txt = "i\nem"}.td[1]txt': "at 31: bad string literal",
    "r.().txt": "at 3: empty path expression",
}


@pytest.mark.parametrize("text", ONE_LINE_FAULTS)
def test_statement_faults_quote_no_line_break(wrapctl, tmp_path, text):
    w = tmp_path / "w.rpn"
    w.write_text(text)
    rc, out, err = wrapctl("check", w)
    assert (rc, out, err) == (1, "", f"wrapctl: {w}: {ONE_LINE_FAULTS[text]}\n")
    assert "\\n" not in err and ".txt" not in err.removeprefix(f"wrapctl: {w}")


STATEMENTS = sorted(
    p for ext in ("rpn", "vhel", "hel") for p in CORPUS.glob(f"*/*.{ext}")
)
STATEMENT_PARSERS = {
    ".rpn": rpn.parse_rpn, ".vhel": hel.parse_vhel, ".hel": hel.parse_hel,
}
STATEMENT_WORDS = (
    "txt", "and", "where", "last", "regex:", "->", "_", "*", "!", "#", ";", ".",
)
STATEMENT_CHARS = '.()[]{}#!;:-=*|_",\\ aAi01\t\n'


def test_edited_statements_fail_on_one_line_that_names_the_fault(wrapctl, tmp_path):
    # seeded edits of every corpus statement: its parser rejects a text
    # only with a TextError whose offset lies in the text, and wrapctl
    # check exits 0, or 1 with one line that gives the error's reason
    rnd = random.Random(11)
    outcomes = Counter()
    for _ in range(1200):
        source = rnd.choice(STATEMENTS)
        text = edit_wrapper(source.read_text(), rnd, STATEMENT_CHARS, STATEMENT_WORDS)
        try:
            STATEMENT_PARSERS[source.suffix](text)
        except Exception as e:
            assert isinstance(e, TextError), (text, e)
            # only a blank statement has no offset
            assert e.pos is None if not text.strip() else 0 <= e.pos <= len(text)
            outcomes[type(e).__name__] += 1
            rejected = e
        else:
            outcomes["accepted"] += 1
            rejected = None
        w = tmp_path / f"edited{source.suffix}"
        w.write_text(text)
        rc, out, err = wrapctl("check", w)
        assert rc in (0, 1), text
        if rc == 1:
            assert out == "" and err.startswith(f"wrapctl: {w}: "), (text, err)
            assert err.count("\n") == 1, (text, err)
        if rejected is not None:
            assert rc == 1 and rejected.reason in err, (text, err)
    floors = {"accepted": 60, "RpnSyntaxError": 200, "HelSyntaxError": 120,
              "RangeSyntaxError": 30, "PathSyntaxError": 15}
    assert all(outcomes[kind] >= n for kind, n in floors.items()), outcomes


def oracle_offset(source: str) -> int | None:
    try:
        naive_parse_document(source)
    except MalformedInput as e:
        return e.offset
    return None


def test_run_reports_malformed_documents_on_one_line(wrapctl, tmp_path):
    page = pathlib.Path(corpus("items_table", "page.doc")).read_text()
    rng = random.Random(3)
    sources = [page[:k] for k in range(len(page))]  # every truncation
    sources += [edit_doc(page, rng) for _ in range(300)]
    malformed = [(s, k) for s in sources if (k := oracle_offset(s)) is not None]
    assert len(malformed) >= 300
    d = tmp_path / "page.doc"
    for source, offset in malformed:
        d.write_text(source)
        rc, out, err = wrapctl("run", corpus("items_table", "second_cols.rpn"), d)
        assert (rc, out) == (2, ""), source
        assert err.startswith("wrapctl: ") and err.count("\n") == 1, err
        assert err.endswith(f"(offset {offset})\n"), (source, err)
    d.write_bytes(page.encode()[:20] + b"\xff" + page.encode()[20:])
    assert wrapctl("run", corpus("items_table", "second_cols.rpn"), d) == (
        2, "", f"wrapctl: {d}: not UTF-8 text (byte 20)\n"
    )
    rc, out, err = wrapctl("run", corpus("items_table", "second_cols.rpn"), tmp_path)
    assert (rc, out) == (2, "")
    assert err.startswith("wrapctl: ") and err.count("\n") == 1, err


def test_run_reports_range_errors_on_one_line(wrapctl, tmp_path):
    w = tmp_path / "one.rpn"
    w.write_text("a.b[regex:1].txt")
    d = tmp_path / "two.doc"
    d.write_text("<a><b>x</b><b>y</b></a>")
    rc, out, err = wrapctl("run", w, d)
    assert (rc, out) == (1, "")
    assert err.startswith("wrapctl: ") and err.count("\n") == 1
    assert "no word of length 2" in err


BAD_DIRECTIVES = {  # directive -> what the one wrapctl line names
    "@aux p1,p2": "@aux: bad predicate name 'p1,p2'",
    "@aux nosuch": "@aux: no rules for 'nosuch'",
    "@record P1": "unknown directive '@record'",
    "@record p1": "unknown directive '@record'",
    "@foo p1": "unknown directive '@foo'",
    "@schema set(P1, str)": "@schema: bad predicate name 'P1'",
    "@schema set(q, str)": "@schema: no rules for 'q'",
}


@pytest.mark.parametrize("directive", BAD_DIRECTIVES)
def test_bad_directive_names_fail_on_one_line(wrapctl, tmp_path, directive):
    w = tmp_path / "bad.elog"
    w.write_text(directive + "\np1(X0, X) :- root(_, X0), subelem[a][*](X0, X).\n")
    for argv in (("run", w, corpus("programs", "chain.doc")), ("check", w)):
        rc, out, err = wrapctl(*argv)
        assert (rc, out) == (1, "")
        assert err.startswith("wrapctl: ") and err.count("\n") == 1, err
        assert f"line 1: {BAD_DIRECTIVES[directive]}" in err


def test_aux_predicate_in_the_schema_fails_on_one_line(wrapctl, tmp_path):
    # its atoms would be spliced out before rendering, leaving the set empty
    w = tmp_path / "clash.elog"
    w.write_text(
        "@aux p1\n@schema set(p1, str)\n"
        "p1(X0, X) :- root(_, X0), subelem[_][*](X0, X).\n"
    )
    rc, out, err = wrapctl("run", w, corpus("programs", "chain.doc"), "--out", "json")
    assert (rc, out) == (1, "")
    assert err == f"wrapctl: {w}: line 2: @schema: 'p1' is aux and in the schema\n"


BIG = 100_000
# the deep document nests BIG b elements, each with an a leaf before the
# next b; the wide one is a list of BIG items
BIG_DOCS = {
    "deep": "<b><a/>" * BIG + "x" + "</b>" * BIG,
    "wide": "<list>" + "".join(f"<i>t{j}</i>" for j in range(BIG)) + "</list>",
}
SIBLINGS = (
    "before(X0, X) :- root(_, X0), subelem[_*][*](X0, X), nextsibling(X, Y).\n"
    "after(X0, X) :- root(_, X0), subelem[_*][*](X0, X), nextsibling(Y, X).\n"
)


@pytest.mark.parametrize("shape", ["deep", "wide"])
def test_run_statement_on_a_large_document(wrapctl, tmp_path, shape):
    d = tmp_path / f"{shape}.doc"
    d.write_text(BIG_DOCS[shape])
    w = tmp_path / "s.rpn"
    w.write_text("(b*).txt" if shape == "deep" else "list.i.txt")
    rc, out, err = wrapctl("run", w, d)
    assert (rc, err) == (0, "")
    expect = ["x"] if shape == "deep" else [f"t{j}" for j in range(BIG)]
    assert json.loads(out) == expect
    if shape == "wide":  # a condition path that reaches every item
        v = tmp_path / "wide.vhel"
        v.write_text('list{->i.txt = "t0"}.txt;')
        rc, out, err = wrapctl("run", v, d)
        assert (rc, out) == (1, "")
        assert err.startswith("wrapctl: ") and err.count("\n") == 1
        assert f"reaches {BIG} nodes" in err
        with pytest.warns(SingleValueWarning):
            rc, out, _ = wrapctl("run", v, d, "--lenient")
        assert rc == 0


DEEP_A_B = "<a>" * BIG + "<b>x</b>" + "</a>" * BIG
DEEP_CONDITIONS = {  # statement, its wrapper's suffix, document, value
    "own_text": ('(_*.a){txt = "t"}.txt', "rpn", "<a>t" * BIG + "</a>" * BIG, ["t"]),
    "descendant": ('(_*.a){(_*.b).txt = "x"}.b.txt', "rpn", DEEP_A_B, ["x"]),
    "descendant_vhel": ('->a{->b.txt = "x"}.b.txt;', "vhel", DEEP_A_B, ["x"]),
}


@pytest.mark.parametrize("case", DEEP_CONDITIONS)
def test_run_condition_on_a_deep_document(wrapctl, tmp_path, case):
    # a condition is decided once for all the a's its step reaches, each
    # a's walk taking over the hits of the a nested in it, directly and
    # through the translation's holders
    stmt, suffix, doc, expect = DEEP_CONDITIONS[case]
    d = tmp_path / "deep.doc"
    d.write_text(doc)
    w = tmp_path / f"s.{suffix}"
    w.write_text(stmt)
    rc, program, _ = wrapctl("translate", w, "--to", "elog")
    assert rc == 0
    p = tmp_path / "s.elog"
    p.write_text(program)
    for wrapper, out_flags in [(p, ["--out", "json"]), (w, [])]:
        rc, out, err = wrapctl("run", wrapper, d, *out_flags)
        assert (rc, err) == (0, ""), wrapper
        assert json.loads(out) == expect, wrapper


@pytest.mark.parametrize("shape", ["deep", "wide"])
def test_run_sibling_program_on_a_large_document(wrapctl, tmp_path, shape):
    d = tmp_path / f"{shape}.doc"
    d.write_text(BIG_DOCS[shape])
    w = tmp_path / "siblings.elog"
    w.write_text(SIBLINGS)
    rc, out, err = wrapctl("run", w, d)
    assert (rc, err) == (0, "")
    if shape == "deep":  # b at 2k-1, a at 2k, the text at 2*BIG+1
        before = range(2, 2 * BIG + 1, 2)
        after = list(range(3, 2 * BIG, 2)) + [2 * BIG + 1]
    else:  # the items at even ids from 2, each over one text node
        before = range(2, 2 * BIG, 2)
        after = range(4, 2 * BIG + 1, 2)
    expect = [f"before(0,{v})" for v in before] + [f"after(0,{v})" for v in after]
    assert sorted(out.split()) == sorted(expect)


def test_run_flag_misuse_is_a_wrapper_error(wrapctl):
    w = corpus("items_table", "second_cols.rpn")
    d = corpus("items_table", "page.doc")
    rc, _, err = wrapctl("run", w, d, "--cut")
    assert rc == 1 and "--cut" in err
    rc, _, err = wrapctl("run", w, d, "--out", "atoms")
    assert rc == 1 and "--out" in err
    rc, _, err = wrapctl(
        "run", corpus("programs", "quad.elog"), corpus("programs", "chain.doc"),
        "--out", "json",
    )
    assert rc == 1 and "no output schema" in err


def test_run_rejects_wrapper_parse_errors(wrapctl, tmp_path):
    w = tmp_path / "broken.rpn"
    w.write_text("a..txt")
    rc, _, err = wrapctl("run", w, corpus("items_table", "page.doc"))
    assert rc == 1
    assert "broken.rpn" in err


DEEP = 3000
DEEP_WRAPPERS = {  # each nests DEEP levels in its syntax
    "conds.rpn": "a{b" * DEEP + '.txt = "x"' + "}" * DEEP + ".txt",
    "parens.rpn": "(" * DEEP + "a" + ")" * DEEP + ".txt",
    "parens.elog": "p(X0, X) :- root(_, X0), subelem["
    + "(" * DEEP + "a" + ")" * DEEP + "][*](X0, X).",
}


@pytest.mark.parametrize("name", DEEP_WRAPPERS)
def test_run_rejects_wrappers_nested_too_deep(wrapctl, tmp_path, name):
    w = tmp_path / name
    w.write_text(DEEP_WRAPPERS[name])
    rc, out, err = wrapctl("run", w, corpus("items_table", "page.doc"))
    assert (rc, out) == (1, "")
    assert err.startswith("wrapctl: ") and err.count("\n") == 1
    assert "recursion" in err and "Traceback" not in err


LONG = 3000  # steps in a chain, rules in a program, levels in a document


@pytest.mark.parametrize("name", ["steps.rpn", "steps.vhel"])
def test_run_long_statement_on_a_deep_document(wrapctl, tmp_path, name):
    # check and translate walk the path atoms with loops, as run does
    d = tmp_path / "deep.doc"
    d.write_text("<a>" * LONG + "<b>x</b>" + "</a>" * LONG)
    w = tmp_path / name
    w.write_text("a." * LONG + "b.txt" + (";" if name.endswith(".vhel") else ""))
    rc, out, err = wrapctl("run", w, d)
    assert (rc, err) == (0, "")
    assert json.loads(out) == ["x"]
    rc, out, err = wrapctl("check", w)
    assert (rc, out, err) == (0, "OK: type SetOf(Str)\n", "")
    rc, out, err = wrapctl("translate", w, "--to", "elog")
    assert (rc, err) == (0, "")
    assert f"p{LONG + 1}(X0, X) :- p{LONG}(_, X0), subelem[b][*](X0, X)." in out


def test_run_long_program_listed_dependents_first(wrapctl, tmp_path):
    w = tmp_path / "chain.elog"
    w.write_text("".join(
        f"p{i}(X0, X) :- p{i - 1}(_, X0), subelem[_][*](X0, X).\n"
        for i in range(LONG, 1, -1)
    ) + "p1(X0, X) :- root(_, X0), subelem[a][*](X0, X).\n")
    d = tmp_path / "deep.doc"
    d.write_text("<a>" * LONG + "</a>" * LONG)
    rc, out, err = wrapctl("run", w, d)
    assert (rc, err) == (0, "")
    assert f"p{LONG}({LONG - 1},{LONG})" in out.split()


def test_descendant_steps_run_on_a_very_deep_document(wrapctl, tmp_path):
    # each a's walk takes over the one hit of the a nested in it, directly
    # and through the translated program's chain rules
    n = 100_000
    d = tmp_path / "deep.doc"
    d.write_text("<a>" * n + "<b>x</b>" + "</a>" * n)
    w = tmp_path / "desc.rpn"
    w.write_text("(_*.a).(_*.b).txt")
    rc, out, err = wrapctl("translate", w, "--to", "elog")
    assert (rc, err) == (0, "")
    prog = tmp_path / "desc.elog"
    prog.write_text(out)
    for wrapper in (w, prog):
        rc, out, err = wrapctl("run", wrapper, d, "--out", "json")
        assert (rc, json.loads(out), err) == (0, ["x"], ""), wrapper


@pytest.mark.parametrize("depth", [250, 300])
def test_run_prints_a_deeply_nested_record_value(wrapctl, tmp_path, depth):
    # a.(b.txt # b.(b.txt # ... b.txt)): the JSON writer does not recurse
    # in Python per level, so the value prints as a shallower one does
    stmt, value = "b.txt", '["x"]'
    for _ in range(depth):
        stmt, value = f"b.(b.txt # {stmt})", f'[[["x"], {value}]]'
    w = tmp_path / "deep.rpn"
    w.write_text(f"a.(b.txt # {stmt})")
    d = tmp_path / "deep.doc"
    d.write_text("<a>" + "<b>" * 400 + "x" + "</b>" * 400 + "</a>")
    assert wrapctl("run", w, d) == (0, f'[[["x"], {value}]]\n', "")


@pytest.mark.parametrize("ext", ["rpn", "vhel"])
def test_check_and_translate_a_deeply_nested_record(wrapctl, tmp_path, ext):
    # x.(a.txt # x.(a.txt # ... b.txt)): the type and the schema are written
    # by one loop, not by recursive calls per level
    depth = 300
    dot, end = (".", "") if ext == "rpn" else ("", ";")
    stmt, ty = "b.txt", "SetOf(Str)"
    for _ in range(depth):
        stmt, ty = f"x{dot}(a.txt # {stmt})", f"SetOf(RecordOf(SetOf(Str), {ty}))"
    w = tmp_path / f"deep.{ext}"
    w.write_text(stmt + end)
    assert wrapctl("check", w) == (0, f"OK: type {ty}\n", "")
    rc, out, err = wrapctl("translate", w, "--to", "elog")
    assert (rc, err) == (0, "")
    assert out.count("record(set(") == depth


def test_a_deeply_nested_record_runs_through_its_translation(wrapctl, tmp_path):
    # r.x.(a.txt # x.(a.txt # ... b.txt)): rendering takes one call per set
    # of the schema, not recursive calls per record value
    depth = 300
    stmt = "b.txt"
    for _ in range(depth):
        stmt = f"x.(a.txt # {stmt})"
    w = tmp_path / "deep.rpn"
    w.write_text("r." + stmt)
    d = tmp_path / "deep.doc"
    d.write_text("<r>" + "<x><a>y</a>" * depth + "<b>z</b>" + "</x>" * depth + "</r>")
    rc, direct, err = wrapctl("run", w, d)
    assert (rc, err) == (0, "")
    rc, out, err = wrapctl("translate", w, "--to", "elog")
    assert (rc, err) == (0, "")
    prog = tmp_path / "deep.elog"
    prog.write_text(out)
    assert wrapctl("run", prog, d, "--out", "json") == (0, direct, "")
    rc, out, err = wrapctl("run", prog, d, "--out", "atoms")
    assert (rc, err) == (0, "")
    assert out.count("\n") == 2 * depth + 1  # an x and an a atom per level, a b


def _long_rpn_condition(tmp_path):
    w = tmp_path / "cond.rpn"
    w.write_text("a{" + "b." * LONG + 'txt = "x"}.txt')
    return w


def test_long_rpn_condition_runs(wrapctl, tmp_path):
    # a condition's links wait on an explicit stack, not on recursive calls
    d = tmp_path / "deep.doc"
    d.write_text("<a>" + "<b>" * LONG + "x" + "</b>" * LONG + "</a>")
    rc, out, err = wrapctl("run", _long_rpn_condition(tmp_path), d)
    assert (rc, json.loads(out), err) == (0, ["x"], "")


def test_long_rpn_condition_translates(wrapctl, tmp_path):
    # one dom rule per link, made in a loop
    rc, out, err = wrapctl("translate", _long_rpn_condition(tmp_path), "--to", "elog")
    assert (rc, err) == (0, "")
    assert out.count(":- dom(X0, X), contains[b][*](X, Y)") == LONG


# ---------------------------------------------------------------------------
# translate


def test_translate_hel_to_vhel_matches_the_checked_in_twin(wrapctl):
    rc, out, _ = wrapctl("translate", corpus("items_table", "pairs.hel"), "--to", "vhel")
    assert rc == 0
    twin = (CORPUS / "items_table" / "pairs.vhel").read_text().strip()
    assert out.strip() == twin


def test_translate_rpn_to_vhel_makes_ranges_explicit(wrapctl):
    rc, out, _ = wrapctl(
        "translate", corpus("items_table", "second_cols.rpn"), "--to", "vhel"
    )
    assert rc == 0
    assert out.strip() == 'html.body.table.tr[*]{td[0].txt = "item"}.td[1].txt;'


@pytest.mark.parametrize("text, message", [
    ('b{c{c.txt = ""}.txt = "xy"}.txt',
     """condition 'c{c.txt = ""}.txt = "xy"' nests a condition: """
     ".vhel conditions do not nest"),
    ("r.(a|b).txt", "path 'a|b' has no condition-chain syntax"),
], ids=["nested_condition", "regex_path"])
def test_translate_to_vhel_refuses_what_vhel_cannot_read(wrapctl, tmp_path, text, message):
    w = tmp_path / "w.rpn"
    w.write_text(text)
    assert wrapctl("translate", w, "--to", "vhel") == (1, "", f"wrapctl: {w}: {message}\n")


def test_translate_to_vhel_refuses_the_deepest_condition_on_one_line(wrapctl, tmp_path):
    # a{b{… b.txt = "x" …}.txt = "x"}.txt as deep as check reads it: the
    # refusal quotes the nested condition, and writing it out may recurse
    # deeper than reading it did
    w = tmp_path / "deep.rpn"

    def nest(depth: int) -> None:
        cond = 'b.txt = "x"'
        for _ in range(depth):
            cond = f'b{{{cond}}}.txt = "x"'
        w.write_text(f"a{{{cond}}}.txt")

    lo, hi = 1, 2000  # the deepest nesting that check reads, by halving
    while lo < hi:
        mid = (lo + hi + 1) // 2
        nest(mid)
        lo, hi = (mid, hi) if wrapctl("check", w)[0] == 0 else (lo, mid - 1)
    assert lo > 100
    nest(lo)
    rc, out, err = wrapctl("translate", w, "--to", "vhel")
    assert (rc, out) == (1, "")
    assert err.startswith(f"wrapctl: {w}: ") and err.count("\n") == 1
    assert "do not nest" in err and len(err) < 300


def test_translate_to_elog_output_reparses(wrapctl):
    rc, out, _ = wrapctl(
        "translate", corpus("items_table", "second_cols.rpn"), "--to", "elog"
    )
    assert rc == 0
    prog = elog.parse_elog(out)
    assert elog.serialize_elog(prog) == out
    assert "@schema set(p5, str)" in out


@pytest.mark.parametrize("tag", ["A", "#text", "a-b", "x9"])
def test_translate_to_elog_reparses_every_tag_form(wrapctl, tmp_path, tag):
    w = tmp_path / "t.rpn"
    w.write_text(f'r.{tag}{{{tag}.txt = "x"}}.({tag}|b).txt')
    rc, out, err = wrapctl("translate", w, "--to", "elog")
    assert rc == 0, err
    assert elog.serialize_elog(elog.parse_elog(out)) == out
    assert f"[{tag.lower()}]" in out


@pytest.mark.parametrize("tag", ["a_b", "t#d"])
def test_names_no_document_tag_can_have_are_refused(wrapctl, tmp_path, tag):
    w = tmp_path / "t.rpn"
    w.write_text(f"r.{tag}.txt")
    rc, _, err = wrapctl("translate", w, "--to", "elog")
    assert rc == 1
    assert err.startswith("wrapctl: ") and err.count("\n") == 1, err


def test_translate_refuses_a_regex_ranged_condition(wrapctl, tmp_path):
    # the direct walker tests the condition at the reached a only; its dom
    # rule would test every node, c too, where b[regex:1] has no word
    d = tmp_path / "t.doc"
    d.write_text("<r><a><b>x</b></a><c/></r>")
    w = tmp_path / "t.rpn"
    w.write_text('r.a{b[regex:1].txt = "x"}.b.txt')
    assert wrapctl("run", w, d) == (0, '["x"]\n', "")
    rc, out, err = wrapctl("translate", w, "--to", "elog")
    assert (rc, out) == (1, "")
    assert err.startswith("wrapctl: ") and err.count("\n") == 1, err
    assert "b[regex:1]" in err


def test_translate_trivial_statement(wrapctl, tmp_path):
    w = tmp_path / "t.rpn"
    w.write_text("txt")
    rc, out, _ = wrapctl("translate", w, "--to", "elog")
    assert rc == 0
    assert out == "@schema set(_, str)\n"
    assert elog.parse_elog(out).rules == ()


def test_translate_cut_marks_have_no_program_form(wrapctl):
    rc, _, err = wrapctl("translate", corpus("cuts", "first_items.vhel"), "--to", "elog")
    assert rc == 1
    assert "cut marks" in err


def test_translate_rejects_program_sources(wrapctl):
    rc, _, err = wrapctl("translate", corpus("programs", "quad.elog"), "--to", "vhel")
    assert rc == 1
    assert "target, not a source" in err


# ---------------------------------------------------------------------------
# check


def test_check_reports_types_and_cut_marks(wrapctl):
    rc, out, _ = wrapctl("check", corpus("items_table", "second_cols.rpn"))
    assert (rc, out) == (0, "OK: type SetOf(Str)\n")
    rc, out, _ = wrapctl("check", corpus("cuts", "first_items.vhel"))
    assert (rc, out) == (0, "OK: type SetOf(Str) with cut marks\n")


def test_check_shows_the_desugared_statement(wrapctl):
    rc, out, _ = wrapctl("check", corpus("items_table", "pairs.hel"))
    assert rc == 0
    twin = (CORPUS / "items_table" / "pairs.vhel").read_text().strip()
    assert out == f"OK: desugars to {twin}\n"


def test_check_summarizes_programs(wrapctl):
    rc, out, _ = wrapctl("check", corpus("parity", "parity.elog"))
    assert rc == 0
    assert out == "OK: 5 rules, predicates odd, even, evenmark\n"


def test_check_flags_ranged_recursion(wrapctl, tmp_path):
    w = tmp_path / "rec.elog"
    w.write_text(
        "p(X0, X) :- root(_, X0), subelem[a][*](X0, X) [0].\n"
        "p(X0, X) :- p(_, X0), subelem[a][*](X0, X) [0].\n"
    )
    rc, _, err = wrapctl("check", w)
    assert rc == 1
    assert "nonrecursive" in err


def test_unorientable_body_fails_whatever_the_document(wrapctl, tmp_path):
    # nothing binds Y: contains can only enumerate below a bound node
    w = tmp_path / "stuck.elog"
    w.write_text(
        "p(X0, X) :- root(_, X0), subelem[_*.td][*](X0, X), contains[td][0](Y, X).\n"
    )
    message = "cannot orient contains[td][0](Y, X)"
    for doc in ("<table><tr><td>a</td></tr></table>", "<p>no cells</p>"):
        d = tmp_path / "page.doc"
        d.write_text(doc)
        rc, out, err = wrapctl("run", w, d)
        assert (rc, out) == (1, "")
        assert err.startswith("wrapctl: ") and err.count("\n") == 1
        assert message in err
    rc, _, err = wrapctl("check", w)
    assert rc == 1 and message in err


# ---------------------------------------------------------------------------
# diff


def test_diff_equivalent_pair_has_no_divergence(wrapctl):
    rc, out, _ = wrapctl(
        "diff", corpus("items_table", "pairs.hel"), corpus("items_table", "pairs.vhel"),
        corpus("items_table", "page.doc"),
    )
    assert rc == 0
    assert out == "no divergence\n"


def test_diff_reports_both_values_on_divergence(wrapctl):
    rc, out, _ = wrapctl(
        "diff", corpus("divergence", "row2_path.rpn"),
        corpus("divergence", "row2_scan.vhel"), corpus("divergence", "page.doc"),
    )
    assert rc == 1
    assert "row2_path.rpn: []" in out
    assert 'row2_scan.vhel: ["C"]' in out


def test_diff_generate_finds_and_shrinks_a_witness(wrapctl, tmp_path):
    # range-before-conditions versus conditions-before-range over the
    # generator's own tag alphabet, so random documents can separate them
    a = tmp_path / "probe.rpn"
    a.write_text('(_*._)[2]{txt = "x"}.txt')
    b = tmp_path / "probe.vhel"
    b.write_text('->_[2]{txt = "x"}.txt;\n')
    rc, out, _ = wrapctl("diff", a, b, "--generate", 50, "--seed", 0)
    assert rc == 1
    assert "divergence on seed" in out
    doc_line = next(line for line in out.splitlines() if line.startswith("seed "))
    witness = doc_line.split("document ", 1)[1].strip().strip("'")
    parse_document(witness)
    assert len(witness) < 120


def test_diff_generate_passes_translated_twins(wrapctl, tmp_path):
    src = tmp_path / "walk.rpn"
    src.write_text("(_*.a).b.txt")
    rc, out, _ = wrapctl("translate", src, "--to", "elog")
    assert rc == 0
    twin = tmp_path / "walk.elog"
    twin.write_text(out)
    rc, out, _ = wrapctl("diff", src, twin, "--generate", 120, "--seed", 7)
    assert rc == 0
    assert out == "no divergence (120 documents, seeds 7..126)\n"


def test_diff_of_a_deeply_nested_record_ends_on_one_line(wrapctl, tmp_path):
    # r.x.(a.txt # x.(a.txt # … b.txt)) against its own translation: the two
    # values are equal, and comparing them recurses at no level
    depth = 300
    stmt = "b.txt"
    for _ in range(depth):
        stmt = f"x.(a.txt # {stmt})"
    w = tmp_path / "deep.rpn"
    w.write_text("r." + stmt)
    d = tmp_path / "deep.doc"
    d.write_text("<r>" + "<x><a>y</a>" * depth + "<b>z</b>" + "</x>" * depth + "</r>")
    prog = tmp_path / "deep.elog"
    prog.write_text(wrapctl("translate", w, "--to", "elog")[1])
    assert wrapctl("diff", w, prog, d) == (0, "no divergence\n", "")


def test_diff_generate_of_a_deeply_nested_record_ends_on_one_line(wrapctl, tmp_path):
    # (z*).((z*).txt # (z*).(… (z*).txt)): z* matches the empty word alone
    # on generated documents, so every one gets a value 300 levels deep
    stmt = "(z*).txt"
    for _ in range(300):
        stmt = f"(z*).((z*).txt # {stmt})"
    w = tmp_path / "deep.rpn"
    w.write_text(stmt)
    assert wrapctl("diff", w, w, "--generate", "1") == (
        0, "no divergence (1 documents, seeds 0..0)\n", ""
    )


def test_diff_needs_a_document_or_a_budget(wrapctl):
    pair = (corpus("items_table", "pairs.hel"), corpus("items_table", "pairs.vhel"))
    for budget in ((), ("--generate", 0), ("--generate", -3)):
        rc, out, err = wrapctl("diff", *pair, *budget)
        assert (rc, out) == (1, "")
        assert err.startswith("wrapctl: ") and err.count("\n") == 1
        assert "--generate" in err


def test_diff_rejects_schemaless_programs(wrapctl):
    rc, _, err = wrapctl(
        "diff", corpus("programs", "quad.elog"), corpus("programs", "quad.elog"),
        corpus("programs", "chain.doc"),
    )
    assert rc == 1
    assert "no output schema" in err


# ---------------------------------------------------------------------------
# plumbing


def test_language_comes_from_the_extension_alone():
    assert detect_language("x/y.rpn") == "rpn"
    assert detect_language("deep.path.vhel") == "vhel"


def test_color_kill_switch(monkeypatch):
    class Tty:
        def isatty(self):
            return True

    monkeypatch.setattr("sys.stdout", Tty())
    monkeypatch.delenv("WRAPCTL_COLOR", raising=False)
    assert _styled("hi", "31") == "\x1b[31mhi\x1b[0m"
    monkeypatch.setenv("WRAPCTL_COLOR", "0")
    assert _styled("hi", "31") == "hi"


def test_output_is_plain_when_not_a_terminal(wrapctl):
    rc, out, _ = wrapctl(
        "diff", corpus("divergence", "row2_path.rpn"),
        corpus("divergence", "row2_scan.vhel"), corpus("divergence", "page.doc"),
    )
    assert rc == 1
    assert "\x1b[" not in out


def test_usage_errors_come_from_argparse(wrapctl):
    # argparse finds them; each exits 1 on one line, as a wrapper's fault does
    rc, out, err = wrapctl("translate", "x.rpn")
    assert (rc, out) == (1, "")
    assert err == "wrapctl: translate: the following arguments are required: --to\n"


@pytest.mark.parametrize("argv, names", [
    ((), "required: command"),
    (("frobnicate",), "'frobnicate'"),
    (("bench", "-m", 3), "'bench'"),
    (("run", "x.rpn"), "run: the following arguments are required: document"),
    (("translate",), "translate: the following arguments are required: wrapper"),
    (("check",), "check: the following arguments are required: wrapper"),
    (("diff", "a.rpn"), "diff: the following arguments are required: wrapper_b"),
    (("run", "x.rpn", "y.doc", "--out", "xml"), "argument --out: invalid choice"),
    (("translate", "x.rpn", "--to", "hel"), "argument --to: invalid choice"),
    (("diff", "a.rpn", "b.rpn", "--generate", "x"), "invalid int value: 'x'"),
    (("run", "x.rpn", "y.doc", "--strict", "--lenient"), "not allowed with"),
    (("check", "x.rpn", "--cut"), "unrecognized arguments: --cut"),
], ids=[
    "no-command", "unknown-command", "bench", "run-document", "translate-wrapper",
    "check-wrapper", "diff-wrapper-b", "out-choice", "to-choice", "generate-int",
    "strict-and-lenient", "unknown-flag",
])
def test_every_usage_error_exits_1_on_one_line(wrapctl, argv, names):
    rc, out, err = wrapctl(*argv)
    assert (rc, out) == (1, "")
    assert err.startswith("wrapctl: ") and err.count("\n") == 1
    assert names in err


def test_help_still_exits_0(capsys):
    for argv in (["-h"], ["run", "--help"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("usage: wrapctl")


def test_run_lenient_writes_each_warning_on_one_line(tmp_path):
    # in a process of its own: in process, pytest records the warnings
    w = tmp_path / "amb.vhel"
    w.write_text('r.a{b.txt = "1"}.txt;\n')
    d = tmp_path / "two.doc"
    d.write_text("<r><a><b>1</b><b>2</b></a><a><b>3</b><b>4</b></a></r>")
    env = {**os.environ, "PYTHONPATH": str(CORPUS.parent / "src")}
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-m", "wraplab.cli", "run", str(w), str(d), "--lenient"],
        capture_output=True, text=True, env=env,
    )
    assert (run.returncode, run.stdout) == (0, '["12"]\n')
    assert run.stderr == "".join(
        f"wrapctl: warning: condition path reaches 2 nodes under node {v}; "
        "it should reach at most one\n"
        for v in (2, 7)
    )
    formatwarning = warnings.formatwarning
    with pytest.warns(SingleValueWarning):
        assert main(["run", str(w), str(d), "--lenient"]) == 0
    assert warnings.formatwarning is formatwarning
