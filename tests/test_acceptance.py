"""End-to-end gate: one test per shipping criterion, budgets pinned.

Each test records a summary line that conftest prints after the run.
Budgets are wall-clock upper bounds chosen with slack; the point is to
catch order-of-magnitude regressions, not to benchmark.
"""

import json
import pathlib
import random
import time
import warnings

import pytest

from conftest import _covered, plain
from wraplab import elog, hel, rpn
from wraplab import objects as ob
from wraplab import pathrange as pr
from wraplab.doctree import parse_document
from wraplab.testkit import (
    DOC1,
    StmtGenSpec,
    TreeGenSpec,
    bchain_doc,
    gen_path_text,
    gen_stmt,
    gen_tree,
    items_doc,
    naive_subelem,
    parity_oracle,
)

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"
ASSETS = pathlib.Path(elog.__file__).parent / "assets"

ITEMS = 'html.body.table.tr{td[0].txt = "item"}.td[1].txt'
ITEMS_HEL = (
    "html.body.table(tr[0].td[0].txt # tr[i:*].td[1].txt)"
    ' where html.body.table.tr[i].td[0].txt = "item";'
)
ITEMS_VHEL = 'html.body.table(tr[0].td[0].txt # tr[*]{td[0].txt = "item"}.td[1].txt);'


def quiet_vf(stmt, tree):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return hel.eval_vf(stmt, tree, strict=False)


def test_a1_items_statement_value_and_type(record_property):
    record_property("criterion", "A1")
    stmt = rpn.parse_rpn(ITEMS)
    tree = parse_document(DOC1)
    start = time.perf_counter()
    val = rpn.eval_rpn(stmt, tree)
    ms = (time.perf_counter() - start) * 1000.0
    assert ob.to_jsonable(val) == ["A", "C"]
    ty = ob.type_to_text(rpn.typecheck(stmt))
    assert ty == "SetOf(Str)"
    assert ms < 1000.0
    record_property("detail", f"['A', 'C'], {ty}, {ms:.2f} ms")


def test_a2_statement_translation_is_faithful(record_property):
    record_property("criterion", "A2")
    start = time.perf_counter()
    for seed in range(1000):
        stmt = rpn.parse_rpn(gen_stmt(StmtGenSpec(seed=seed, language="rpn")))
        tree = gen_tree(TreeGenSpec(seed=seed * 31 + 7))
        direct = rpn.eval_rpn(stmt, tree)
        prog, _, _ = rpn.translate_rpn(stmt)
        _, val = elog.run_pipeline(prog, tree)
        assert ob.to_jsonable(direct) == ob.to_jsonable(val), (seed, stmt)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    record_property("detail", f"1000 statement/document pairs, {elapsed:.1f} s")


def test_a3_scan_translation_is_faithful(record_property):
    record_property("criterion", "A3")
    start = time.perf_counter()
    checked = ranged = 0
    for seed in range(1000):
        stmt = hel.parse_vhel(gen_stmt(StmtGenSpec(seed=seed, language="helvf")))
        tree = gen_tree(TreeGenSpec(seed=seed * 37 + 11))
        direct = quiet_vf(stmt, tree)
        prog, _, _ = hel.translate_vf(stmt)
        ranged += prog.has_rule_ranges()
        _, val = elog.run_pipeline(prog, tree)
        assert ob.to_jsonable(direct) == ob.to_jsonable(val), (seed, stmt)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert ranged >= 100, "rule-level ranges were barely exercised"
    record_property(
        "detail",
        f"{checked} statement/document pairs, {ranged} with rule-level "
        f"ranges, {elapsed:.1f} s",
    )


def test_a4_variables_desugar_to_the_scan_form(record_property):
    record_property("criterion", "A4")
    sugared = hel.desugar(hel.parse_hel(ITEMS_HEL))
    assert sugared == hel.parse_vhel(ITEMS_VHEL)
    assert hel.vhel_to_text(sugared) == ITEMS_VHEL
    record_property("detail", f"desugars to {ITEMS_VHEL!r}")


def test_a5_dialects_separate_on_a_ranged_condition(record_property):
    record_property("criterion", "A5")
    text = 'html.body.table.tr[1]{td[0].txt = "item"}.td[1].txt'
    tree = parse_document(DOC1)
    as_path = rpn.eval_rpn(rpn.parse_rpn(text), tree)
    as_scan = hel.eval_vf(hel.parse_vhel(text + ";"), tree)
    assert ob.to_jsonable(as_path) == []
    assert ob.to_jsonable(as_scan) == ["C"]
    record_property("detail", "range-first [] versus filter-first ['C']")


def test_a6_quadratic_family_atom_counts(record_property):
    record_property("criterion", "A6")
    prog = elog.parse_elog((ASSETS / "quadratic.elog").read_text())
    for m in range(1, 21):
        for n in range(1, 21):
            store = elog.eval_fixpoint(prog, parse_document(bchain_doc(m, n)))
            assert len(store.pairs.get("p", ())) == m * n, (m, n)
    start = time.perf_counter()
    store = elog.eval_fixpoint(prog, parse_document(bchain_doc(100, 100)))
    elapsed = time.perf_counter() - start
    assert len(store.pairs["p"]) == 10000
    assert elapsed < 5.0
    record_property(
        "detail", f"m,n in 1..20 all m*n; 100x100 = 10000 atoms in {elapsed:.2f} s"
    )


def test_a7_parity_program_marks_even_fanout(record_property):
    record_property("criterion", "A7")
    prog = elog.parse_elog((ASSETS / "parity.elog").read_text())
    # the program's childless case reads empty text as "no children", so
    # it is exercised on the text-carrying item family it was written for
    for k in range(21):
        tree = parse_document(items_doc(k))
        store = elog.eval_fixpoint(prog, tree)
        marked = bool(store.pairs.get("evenmark"))
        assert marked == parity_oracle(tree) == (k % 2 == 0), k
    record_property("detail", "item fanout 0..20 matches the child-count oracle")


def test_a8_monadic_collapse_preserves_unary_queries(record_property):
    record_property("criterion", "A8")
    runs = []
    for name in ("programs/quad.elog", "parity/parity.elog", "pipeline/cells.elog"):
        path = CORPUS / name
        (doc,) = path.parent.glob("*.doc")
        runs.append((elog.parse_elog(path.read_text()), parse_document(doc.read_text())))
    for path in sorted(CORPUS.glob("*/*.rpn"), key=str):
        (doc,) = path.parent.glob("*.doc")
        prog, _, _ = rpn.translate_rpn(rpn.parse_rpn(path.read_text().strip()))
        runs.append((prog, parse_document(doc.read_text())))
    skipped = 0
    for path in sorted(CORPUS.glob("*/*.vhel"), key=str):
        stmt = hel.parse_vhel(path.read_text().strip())
        if hel.has_cut(stmt):
            continue
        prog, _, _ = hel.translate_vf(stmt)
        if prog.has_rule_ranges():
            skipped += 1
            continue
        (doc,) = path.parent.glob("*.doc")
        runs.append((prog, parse_document(doc.read_text())))
    assert len(runs) >= 10
    for prog, tree in runs:
        base = elog.eval_fixpoint(prog, tree)
        folded = elog.eval_fixpoint(elog.monadic_collapse(prog), tree)
        for p in prog.head_preds():
            q_base = {y for _, y in base.pairs.get(p, set())}
            q_fold = {y for _, y in folded.pairs.get(p, set())}
            assert q_base == q_fold, p
    record_property(
        "detail", f"{len(runs)} program/document runs, {skipped} ranged scans skipped"
    )


def test_a9_navigation_and_range_primitives(record_property):
    record_property("criterion", "A9")
    cases = 0
    for ts in range(100):
        tree = gen_tree(TreeGenSpec(seed=ts))
        for ps in range(100):
            path = pr.parse_path(gen_path_text(seed=ts * 100 + ps))
            v0 = (ts * 100 + ps) % len(tree)
            assert pr.subelem(tree, v0, path) == naive_subelem(tree, v0, path)
            cases += 1
    assert cases == 10000

    rng_src = random.Random(9)
    for n in (0, 1, 2, 3, 5, 17, 50):
        seq = list(range(n))
        assert pr.apply_range(seq, pr.StarRange()) == seq
        assert pr.apply_range(seq, pr.Last()) == seq[-1:]
        for i in (0, 1, 7, 49):
            assert pr.apply_range(seq, pr.Index(i)) == seq[i : i + 1]
        for lo, hi in ((0, 3), (2, 2), (5, 9), (0, 49)):
            assert pr.apply_range(seq, pr.Interval(lo, hi)) == seq[lo : hi + 1]
        for _ in range(20):
            a, b, c, d = sorted(rng_src.sample(range(60), 4))
            if b >= c:
                continue
            union = pr.IntervalUnion(((a, b), (c, d)))
            assert pr.apply_range(seq, union) == seq[a : b + 1] + seq[c : d + 1]

    with pytest.raises(pr.MultipleWords):
        pr.parse_range("regex:1*01*")
    record_property(
        "detail", "10000 navigation cases, direct indexing, density probe"
    )


def test_a10_cut_evaluation_is_a_sound_restriction(record_property):
    record_property("criterion", "A10")
    stmt = hel.parse_vhel((CORPUS / "cuts" / "first_items.vhel").read_text().strip())
    tree = parse_document((CORPUS / "cuts" / "page.doc").read_text())
    assert ob.to_jsonable(hel.eval_cut(stmt, tree)) == ["A"]

    # seeded item tables, on which the cut drops every item after the
    # first row that is not one
    cuts = 0
    for seed in range(200):
        rnd = random.Random(seed)
        rows = "".join(
            f"<tr><td>{rnd.choice(('item', 'x'))}</td><td>{i}</td></tr>"
            for i in range(rnd.randint(1, 40))
        )
        tree = parse_document(f"<html><body><table>{rows}</table></body></html>")
        cut, full = plain(hel.eval_cut(stmt, tree)), plain(hel.eval_vf(stmt, tree))
        assert _covered(cut, full), seed
        cuts += cut != full
    assert cuts >= 150, cuts

    checked = seed = 0
    while checked < 500:
        assert seed < 6000, "too few generated statements carry cut marks"
        text = gen_stmt(StmtGenSpec(seed=seed, language="helvf", cut_probability=0.6))
        stmt = hel.parse_vhel(text)
        tree = gen_tree(TreeGenSpec(seed=seed * 13 + 3))
        seed += 1
        if not hel.has_cut(stmt):
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cut = hel.eval_cut(stmt, tree, strict=False)
            full = hel.eval_vf(stmt, tree, strict=False)
        assert _covered(plain(cut), plain(full)), (seed - 1, text)
        checked += 1
    record_property(
        "detail",
        f"pinned ['A'], {cuts} of 200 item tables cut short, and {checked} "
        "cut scans contained in full scans",
    )
