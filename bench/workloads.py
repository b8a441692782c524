"""Seeded workloads: the jobs a run times and the outputs they must give.

A job is one (wrapper text, document text) pair.  The generators draw the
documents from the seed and know what every wrapper must select from them,
so each reference is computed here, from the generated data and the
documented semantics, never by the engine under test.  Only a digest of the
expected output text is kept per job.

Size and shape parameters are drawn by stratified sampling: a workload
takes one draw from each of N equal strata of every parameter.  Which
strata of different parameters meet in one job is fixed per workload; the
seed places each draw within its stratum and draws the contents.  Two seeds
therefore give different documents with nearly the same spread of sizes,
which keeps medians and percentiles comparable across seeds.

The timed region of a job, as in ``wrapctl run``: parse the document, parse
the wrapper (and desugar or translate it where the workload does), evaluate,
and render the output text.  The run functions look every engine function
up on its module at call time, so the tracer's wrappers are the ones
called.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from dataclasses import dataclass
from importlib import resources
from itertools import takewhile
from typing import Callable

from wraplab import doctree, elog, hel, objects, rpn


@dataclass(frozen=True)
class Job:
    shape: str  # which wrapper, by name
    kind: str  # how it runs: rpn, vhel, cut, hel or elog
    wrapper: str
    doc: str
    size: int  # table rows, list fanout, or answer atoms
    expected: bytes  # sha256 of the expected output text


def digest(text: str) -> bytes:
    return hashlib.sha256(text.encode()).digest()


def input_digest(jobs) -> str:
    """Names the generated inputs, so two runs can show they measured the
    same jobs."""
    h = hashlib.sha256()
    for job in jobs:
        for part in (job.shape, job.wrapper, job.doc):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()[:16]


def _strata(layout: random.Random, rnd: random.Random, n: int) -> list[float]:
    """n draws from [0, 1), one from each of n equal strata.  `layout`
    orders the strata and is the same for every seed; `rnd` places each
    draw within its stratum."""
    cells = list(range(n))
    layout.shuffle(cells)
    return [(c + rnd.random()) / n for c in cells]


def _log_scale(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


_FIRST = string.ascii_letters
_REST = string.ascii_letters + string.digits + " "


def _text(rnd: random.Random, longest: int) -> str:
    n = rnd.randint(1, longest)
    return rnd.choice(_FIRST) + "".join(rnd.choice(_REST) for _ in range(n - 1))


# ---------------------------------------------------------------------------
# tables: rows of three cells; the first cell says whether the row is an item

TABLE_ROWS = (40, 500)
TABLE_JOBS_PER_SHAPE = 16
SECTION_SHARE = 0.05  # rows written with th cells instead of td
# near misses of "item": the conditions compare text exactly
_OTHER_LABELS = ("misc", "items", "Item", "item ", "note")

# a row is (cell tag, first, second, third cell text)


def _td_items(rows) -> list:
    return [r for r in rows if r[0] == "td" and r[1] == "item"]


def _once(values) -> list:
    """Set semantics with document order: equal values collapse to the
    first occurrence."""
    seen, out = set(), []
    for v in values:
        key = json.dumps(v)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


@dataclass(frozen=True)
class Shape:
    name: str
    kind: str
    text: str
    expect: Callable[[list], list]  # rows -> the JSON value


TABLE_SHAPES = (
    # path statements: ranges select first, conditions filter after
    Shape(
        "chain",
        "rpn",
        'html.body.table.tr{td[0].txt = "item"}.td[1].txt',
        lambda rows: _once(r[2] for r in _td_items(rows)),
    ),
    Shape(
        "last",
        "rpn",
        "html.body.table.tr[last].td[2].txt",
        lambda rows: [rows[-1][3]] if rows[-1][0] == "td" else [],
    ),
    Shape(
        "regex",
        "rpn",
        '(_*.tr){(td|th)[0].txt = "item"}.(td|th)[1-2].txt',
        lambda rows: _once(c for r in rows if r[1] == "item" for c in r[2:]),
    ),
    Shape(
        "record",
        "rpn",
        'html.body.table.tr{td[0].txt = "item"}.(td[1].txt # td[2].txt)',
        lambda rows: _once([[r[2]], [r[3]]] for r in _td_items(rows)),
    ),
    # scan statements: conditions filter first, ranges select among the rest
    Shape(
        "filter_star",
        "vhel",
        'html.body.table.tr[*]{td[0].txt = "item"}.td[2].txt;',
        lambda rows: _once(r[3] for r in _td_items(rows)),
    ),
    Shape(
        "first_ten",
        "vhel",
        'html->tr[0-9]{td[0].txt = "item"}.td[1].txt;',
        lambda rows: _once(r[2] for r in _td_items(rows)[:10]),
    ),
    # evaluated with eval_cut: the scan stops at the first row that fails
    Shape(
        "cut_scan",
        "cut",
        'html.body.table.tr[*]{!td[0].txt = "item"}.td[1].txt;',
        lambda rows: _once(
            r[2] for r in takewhile(lambda r: r[0] == "td" and r[1] == "item", rows)
        ),
    ),
    # a variable statement, desugared before it runs
    Shape(
        "pairs",
        "hel",
        "html.body.table(tr[0].td[0].txt # tr[i:*].td[1].txt) "
        'where html.body.table.tr[i].td[0].txt = "item";',
        lambda rows: [
            [
                [rows[0][1]] if rows[0][0] == "td" else [],
                _once(r[2] for r in _td_items(rows)),
            ]
        ],
    ),
)


def _table_rows(rnd, n_rows: int, item_share: float, lead: int, longest: int):
    """The first `lead` rows are item rows and the next one is not.  Of the
    rows after it, item_share are items and SECTION_SHARE use th cells, at
    seeded positions; the last row is a td row."""
    lead = min(lead, n_rows - 1)
    body = range(lead + 1, n_rows)
    items = set(rnd.sample(body, round(item_share * len(body))))
    sections = set(rnd.sample(body[:-1], round(SECTION_SHARE * len(body[:-1]))))
    rows = []
    for r in range(n_rows):
        label = "item" if r < lead or r in items else rnd.choice(_OTHER_LABELS)
        tag = "th" if r in sections else "td"
        rows.append((tag, label, _text(rnd, longest), _text(rnd, longest)))
    return rows


def _table_doc(rows) -> str:
    parts = ["<html><body><table>"]
    for tag, *cells in rows:
        parts.append("<tr>" + "".join(f"<{tag}>{c}</{tag}>" for c in cells) + "</tr>")
    parts.append("</table></body></html>")
    return "".join(parts)


def _table_job(shape: Shape, rows) -> Job:
    expected = json.dumps(shape.expect(rows), ensure_ascii=False)
    doc = _table_doc(rows)
    return Job(shape.name, shape.kind, shape.text, doc, len(rows), digest(expected))


def table_jobs(seed: int) -> list[Job]:
    layout, rnd = random.Random("tables"), random.Random(seed)
    jobs = []
    for shape in TABLE_SHAPES:
        n = TABLE_JOBS_PER_SHAPE
        strata = (_strata(layout, rnd, n) for _ in range(4))
        for u_rows, u_share, u_lead, u_len in zip(*strata):
            rows = _table_rows(
                rnd,
                n_rows=_log_scale(u_rows, *TABLE_ROWS),
                item_share=0.35 + 0.3 * u_share,
                lead=1 + int(24 * u_lead),
                longest=2 + int(11 * u_len),
            )
            jobs.append(_table_job(shape, rows))
    rnd.shuffle(jobs)
    return jobs


def translatable_table_jobs(seed: int) -> list[Job]:
    """table_jobs' documents and order, without the cut scan, which has no
    datalog counterpart."""
    return [j for j in table_jobs(seed) if j.kind != "cut"]


def _one_row_table_jobs(shapes) -> list[Job]:
    return [_table_job(s, [("td", "item", "a", "b")]) for s in shapes]


# ---------------------------------------------------------------------------
# programs from the package's assets


def _asset(name: str) -> str:
    return (resources.files("wraplab") / "assets" / name).read_text()


PARITY_FANOUT = (10, 48)
PARITY_JOBS = 100


def _parity_doc(rnd, fanout: int, longest: int) -> str:
    items = "".join(f"<i>{_text(rnd, longest)}</i>" for _ in range(fanout))
    return f"<list>{items}</list>"


def _parity_atoms(fanout: int) -> str:
    """All atoms parity.elog derives on <list> with `fanout` text items.
    Preorder ids: #doc 0, list 1, item p at 2+2p, its text at 3+2p.  List
    children alternate odd, even from the first; each text is the first and
    only child of its item; evenmark holds iff the fanout is even."""
    atoms = ["odd(0,1)"]
    for p in range(fanout):
        item = 2 + 2 * p
        atoms.append(f"{'even' if p % 2 else 'odd'}(1,{item})")
        atoms.append(f"odd({item},{item + 1})")
    if fanout % 2 == 0:
        atoms.append("evenmark(0,1)")
    return "\n".join(sorted(atoms))


def _parity_job(program: str, rnd, fanout: int, longest: int) -> Job:
    doc = _parity_doc(rnd, fanout, longest)
    return Job("parity", "elog", program, doc, fanout, digest(_parity_atoms(fanout)))


def parity_jobs(seed: int) -> list[Job]:
    layout, rnd = random.Random("parity"), random.Random(seed)
    program = _asset("parity.elog")
    n = PARITY_JOBS
    return [
        _parity_job(
            program, rnd, _log_scale(u_fan, *PARITY_FANOUT), 1 + int(24 * u_len)
        )
        for u_fan, u_len in zip(_strata(layout, rnd, n), _strata(layout, rnd, n))
    ]


QUADRATIC_ATOMS = (300, 8000)
QUADRATIC_JOBS = 100


def _quadratic_job(program: str, m: int, n: int) -> Job:
    """m nested b elements around n l leaves: ids #doc 0, b 1..m, l after.
    Every b is paired with every l."""
    doc = "<b>" * m + "<l/>" * n + "</b>" * m
    leaves = range(m + 1, m + n + 1)
    atoms = sorted(f"p({b},{leaf})" for b in range(1, m + 1) for leaf in leaves)
    return Job("quadratic", "elog", program, doc, m * n, digest("\n".join(atoms)))


def quadratic_jobs(seed: int) -> list[Job]:
    layout, rnd = random.Random("quadratic"), random.Random(seed)
    program = _asset("quadratic.elog")
    n = QUADRATIC_JOBS
    jobs = []
    for u_size, u_shape in zip(_strata(layout, rnd, n), _strata(layout, rnd, n)):
        size = _log_scale(u_size, *QUADRATIC_ATOMS)
        # chain depth from size**0.25 to size**0.55: at most 140
        m = max(1, round(size ** (0.25 + 0.3 * u_shape)))
        jobs.append(_quadratic_job(program, m, max(1, round(size / m))))
    return jobs


# ---------------------------------------------------------------------------
# the timed region of one job


def run_direct(job: Job) -> str:
    tree = doctree.parse_document(job.doc)
    if job.kind == "rpn":
        value = rpn.eval_rpn(rpn.parse_rpn(job.wrapper.strip()), tree)
    elif job.kind == "hel":
        value = hel.eval_vf(hel.desugar(hel.parse_hel(job.wrapper.strip())), tree)
    else:
        stmt = hel.parse_vhel(job.wrapper)
        value = (hel.eval_cut if job.kind == "cut" else hel.eval_vf)(stmt, tree)
    return objects.json_text(value)


def run_translated(job: Job) -> str:
    tree = doctree.parse_document(job.doc)
    if job.kind == "rpn":
        program, _, _ = rpn.translate_rpn(rpn.parse_rpn(job.wrapper.strip()))
    elif job.kind == "hel":
        stmt = hel.desugar(hel.parse_hel(job.wrapper.strip()))
        program, _, _ = hel.translate_vf(stmt)
    else:
        program, _, _ = hel.translate_vf(hel.parse_vhel(job.wrapper))
    _, value = elog.run_pipeline(program, tree)
    return objects.json_text(value)


def run_program(job: Job) -> str:
    tree = doctree.parse_document(job.doc)
    store, _ = elog.run_pipeline(elog.parse_elog(job.wrapper), tree)
    return elog.dump_atoms(store)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_jobs: Callable[[int], list]  # seed -> jobs, in run order
    run: Callable[[Job], str]  # the timed region
    setup_jobs: Callable[[], list]  # each distinct wrapper on a one-row document


_TRANSLATABLE = tuple(s for s in TABLE_SHAPES if s.kind != "cut")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table_direct",
            "eight statement shapes evaluated directly on tables of 40-500 rows; "
            "document parse, navigation, the three evaluators and objects, no datalog",
            table_jobs,
            run_direct,
            lambda: _one_row_table_jobs(TABLE_SHAPES),
        ),
        Workload(
            "table_pipeline",
            "the same jobs without the cut scan, translated to datalog and run "
            "through fixpoint, aux elimination and rendering",
            translatable_table_jobs,
            run_translated,
            lambda: _one_row_table_jobs(_TRANSLATABLE),
        ),
        Workload(
            "parity_recursive",
            "parity.elog on item lists of fanout 10-48: a recursive component "
            "iterated to its fixpoint with sibling lookups",
            parity_jobs,
            run_program,
            lambda: [_parity_job(_asset("parity.elog"), random.Random(0), 1, 1)],
        ),
        Workload(
            "quadratic_output",
            "quadratic.elog on b-chains with 300-8000 answer atoms: one output-bound "
            "pass with the largest atom store",
            quadratic_jobs,
            run_program,
            lambda: [_quadratic_job(_asset("quadratic.elog"), 1, 1)],
        ),
    )
}
