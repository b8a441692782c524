"""Replays every checked-in corpus example against its golden output.

Statement goldens are additionally cross-checked against the naive oracle
and, where a translation exists, against the datalog pipeline, so the
corpus stays an executable record of the three languages agreeing.
"""

import json
import pathlib
import warnings
from importlib import resources

import pytest

from wraplab import elog, hel, rpn
from wraplab import objects as ob
from wraplab.doctree import parse_document
from wraplab.testkit import naive_helvf, naive_rpn

CORPUS = pathlib.Path(__file__).resolve().parents[1] / "corpus"


def corpus_files(suffix):
    return sorted(CORPUS.glob(f"*/*{suffix}"), key=str)


def doc_for(path: pathlib.Path):
    (doc,) = path.parent.glob("*.doc")
    return parse_document(doc.read_text())


def golden(path: pathlib.Path):
    return json.loads(path.with_suffix(".expected.json").read_text())


def plain(v):
    if isinstance(v, frozenset):
        return sorted((plain(e) for e in v), key=json.dumps)
    if isinstance(v, tuple):
        return [plain(e) for e in v]
    return v


def ids(paths):
    return [str(p.relative_to(CORPUS)) for p in paths]


_RPN = corpus_files(".rpn")
_VHEL = corpus_files(".vhel")
_HEL = corpus_files(".hel")


@pytest.mark.parametrize("path", _RPN, ids=ids(_RPN))
def test_rpn_examples(path):
    stmt = rpn.parse_rpn(path.read_text().strip())
    tree = doc_for(path)
    expected = golden(path)
    assert ob.to_jsonable(rpn.eval_rpn(stmt, tree)) == expected
    assert plain(naive_rpn(tree, stmt)) == expected
    prog, _, _ = rpn.translate_rpn(stmt)
    _, val = elog.run_pipeline(prog, tree)
    assert ob.to_jsonable(val) == expected


@pytest.mark.parametrize("path", _VHEL, ids=ids(_VHEL))
def test_vhel_examples(path):
    stmt = hel.parse_vhel(path.read_text().strip())
    tree = doc_for(path)
    expected = golden(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert ob.to_jsonable(hel.eval_vf(stmt, tree, strict=False)) == expected
        assert plain(naive_helvf(tree, stmt)) == expected
    cut_golden = path.with_suffix(".cut.expected.json")
    if cut_golden.exists():
        got = hel.eval_cut(stmt, tree)
        assert ob.to_jsonable(got) == json.loads(cut_golden.read_text())
    if not hel.has_cut(stmt):
        prog, _, _ = hel.translate_vf(stmt)
        _, val = elog.run_pipeline(prog, tree)
        assert ob.to_jsonable(val) == expected


@pytest.mark.parametrize("path", _HEL, ids=ids(_HEL))
def test_hel_examples(path):
    stmt = hel.desugar(hel.parse_hel(path.read_text().strip()))
    tree = doc_for(path)
    expected = golden(path)
    assert ob.to_jsonable(hel.eval_vf(stmt, tree)) == expected
    assert plain(naive_helvf(tree, stmt)) == expected


def test_hel_vhel_twins_desugar_to_the_same_statement():
    seen = 0
    for h in _HEL:
        twin = h.with_suffix(".vhel")
        if twin.exists():
            assert hel.desugar(hel.parse_hel(h.read_text().strip())) == hel.parse_vhel(
                twin.read_text().strip()
            )
            seen += 1
    assert seen >= 1


def test_quadratic_program_atoms():
    prog = elog.parse_elog((CORPUS / "programs" / "quad.elog").read_text())
    tree = doc_for(CORPUS / "programs" / "quad.elog")
    store = elog.eval_fixpoint(prog, tree)
    expected = (CORPUS / "programs" / "quad.expected.atoms").read_text().strip()
    assert elog.dump_atoms(store) == expected


def test_parity_program_atoms():
    prog = elog.parse_elog((CORPUS / "parity" / "parity.elog").read_text())
    tree = doc_for(CORPUS / "parity" / "parity.elog")
    store = elog.eval_fixpoint(prog, tree)
    expected = (CORPUS / "parity" / "parity.expected.atoms").read_text().strip()
    assert elog.dump_atoms(store) == expected


@pytest.mark.parametrize("asset, copy", [
    ("parity.elog", "parity/parity.elog"),
    ("quadratic.elog", "programs/quad.elog"),
])
def test_packaged_programs_match_their_corpus_copies(asset, copy):
    # the benchmark runs the packaged programs, the goldens above their copies
    packaged = resources.files("wraplab") / "assets" / asset
    assert packaged.read_bytes() == (CORPUS / copy).read_bytes()


def test_pipeline_program_value():
    prog = elog.parse_elog((CORPUS / "pipeline" / "cells.elog").read_text())
    tree = doc_for(CORPUS / "pipeline" / "cells.elog")
    _, val = elog.run_pipeline(prog, tree)
    expected = json.loads((CORPUS / "pipeline" / "cells.expected.json").read_text())
    assert ob.to_jsonable(val) == expected


def test_divergence_pair_separates_the_dialects():
    a = json.loads((CORPUS / "divergence" / "row2_path.expected.json").read_text())
    b = json.loads((CORPUS / "divergence" / "row2_scan.expected.json").read_text())
    assert a == [] and b == ["C"]


def test_every_corpus_document_is_well_formed():
    docs = corpus_files(".doc")
    assert len(docs) >= 8
    for d in docs:
        tree = parse_document(d.read_text())
        assert tree.label(tree.root()) == "#doc"
