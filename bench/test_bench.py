"""Self-checks for the benchmark itself:

    python3 -m pytest bench

They run on the smallest jobs of each workload, so they take seconds, except
the last two, which start run.py as the benchmark's caller does.
"""

import json
import shutil
import subprocess
import sys

import pytest

import checkout

checkout.use_src()

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from wraplab import doctree, hel, objects, rpn, testkit  # noqa: E402

BENCHMARK = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, str(checkout.ROOT / "bench" / "run.py")]

# counts that depend only on the inputs, never on timing
DETERMINISTIC = (
    "pathrange.subelem.calls",
    "pathrange.step.calls",
    "elog.fixpoint.atoms",
    "elog.eliminate_aux.atoms_in",
    "objects.setval.calls",
)


def smallest(name: str, per_shape: int = 1, seed: int = 3) -> list:
    jobs = sorted(workloads.WORKLOADS[name].make_jobs(seed), key=lambda j: j.size)
    taken: dict = {}
    for job in jobs:
        if len(taken.setdefault(job.shape, [])) < per_shape:
            taken[job.shape].append(job)
    return [j for group in taken.values() for j in group]


def _as_set(value):
    """A JSON statement value as the testkit oracles give it."""
    return frozenset(
        v if isinstance(v, str) else tuple(_as_set(e) for e in v) for v in value
    )


@pytest.mark.parametrize("job", smallest("table_direct"), ids=lambda j: j.shape)
def test_table_references_agree_with_oracles(job):
    out = workloads.run_direct(job)
    assert workloads.digest(out) == job.expected
    if job.kind == "cut":
        return  # testkit has no cut oracle; the reference above is exact
    tree = doctree.parse_document(job.doc)
    if job.kind == "rpn":
        oracle = testkit.naive_rpn(tree, rpn.parse_rpn(job.wrapper))
    elif job.kind == "hel":
        oracle = testkit.naive_helvf(tree, hel.desugar(hel.parse_hel(job.wrapper)))
    else:
        oracle = testkit.naive_helvf(tree, hel.parse_vhel(job.wrapper))
    assert _as_set(json.loads(out)) == oracle


def test_program_references_agree_with_oracles():
    for job in smallest("parity_recursive", per_shape=2):
        out = workloads.run_program(job)
        assert workloads.digest(out) == job.expected
        tree = doctree.parse_document(job.doc)
        assert ("evenmark(0,1)" in out.splitlines()) == testkit.parity_oracle(tree)
    job = smallest("quadratic_output")[0]
    out = workloads.run_program(job)
    assert workloads.digest(out) == job.expected
    assert len(out.splitlines()) == job.size


def test_seed_names_the_inputs():
    for name, workload in workloads.WORKLOADS.items():
        one = workloads.input_digest(workload.make_jobs(1))
        assert one == workloads.input_digest(workload.make_jobs(1)), name
        assert one != workloads.input_digest(workload.make_jobs(2)), name


def test_pipeline_shares_the_direct_documents():
    direct = workloads.table_jobs(4)
    without_cut = [j for j in direct if j.kind != "cut"]
    assert workloads.translatable_table_jobs(4) == without_cut


def test_counts_repeat_across_traced_runs():
    for name in ("table_pipeline", "parity_recursive"):
        jobs = smallest(name)
        workload = workloads.WORKLOADS[name]
        first = run.run_traced(workload, jobs, 0)[-1]
        second = run.run_traced(workload, jobs, 0)[-1]
        for key in DETERMINISTIC:
            assert first[key] == second[key], (name, key)
    assert first["elog.fixpoint.atoms"] > 0


def test_wrong_output_counts_as_failed(monkeypatch):
    workload = workloads.WORKLOADS["table_direct"]
    jobs = smallest("table_direct")
    assert run.run_plain(workload, jobs, 0)[0].failed == 0
    monkeypatch.setattr(objects, "json_text", lambda value: "[]")
    tally, _, _ = run.run_plain(workload, jobs, 0)
    assert tally.attempted == len(jobs) and 0 < tally.failed
    assert run.e2e_metrics(tally, 1.0)["ok_frac"] < 1


def test_raising_job_counts_as_failed(monkeypatch):
    def broken(stmt, tree, v=None):
        raise RuntimeError("injected")

    monkeypatch.setattr(rpn, "eval_rpn", broken)
    jobs = smallest("table_direct")
    tally, _, _ = run.run_plain(workloads.WORKLOADS["table_direct"], jobs, 0)
    assert tally.attempted == len(jobs)
    assert tally.failed == sum(j.kind == "rpn" for j in jobs)


def test_split_follows_the_workloads():
    def traced(name):
        return run.run_traced(workloads.WORKLOADS[name], smallest(name), 0)[-1]

    direct = traced("table_direct")
    assert direct["elog.self_s"] == 0 and direct["rpn.eval.self_s"] > 0
    for name in ("parity_recursive", "quadratic_output"):
        program = traced(name)
        assert program["rpn.eval.self_s"] == program["hel.eval_vf.self_s"] == 0
        assert program["elog.fixpoint.self_s"] > 0
    assert traced("table_pipeline")["elog.eliminate_aux.atoms_in"] > 0


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(doctree.DocTree, "nextsibling")
    jobs = smallest("table_direct")
    workload = workloads.WORKLOADS["table_direct"]
    trace, _, _, traced, metrics = run.run_traced(workload, jobs, 0)
    assert trace.absent == ["wraplab.doctree:DocTree.nextsibling"]
    assert metrics["trace.absent"] == 1 and metrics["doctree.nextsibling.calls"] == 0
    assert traced.failed == 0


def test_counts_that_no_longer_fit_are_reported_absent(monkeypatch):
    def changed(store):
        raise AttributeError("no pairs")

    monkeypatch.setattr(tracer, "_atoms", changed)
    jobs = smallest("parity_recursive")
    workload = workloads.WORKLOADS["parity_recursive"]
    trace, _, _, traced, metrics = run.run_traced(workload, jobs, 0)
    assert trace.absent == ["elog.fixpoint"]
    assert metrics["elog.fixpoint.atoms"] == 0 and traced.failed == 0


def test_tracer_restores_the_engine():
    before = (rpn.subelem, doctree.DocTree.txt, objects.SetVal.__init__)
    trace = tracer.Tracer()
    trace.install()
    assert rpn.subelem is not before[0]
    trace.uninstall()
    assert (rpn.subelem, doctree.DocTree.txt, objects.SetVal.__init__) == before


def _result(args) -> dict:
    out = subprocess.run(COMMAND + args, stdout=subprocess.PIPE, text=True, timeout=170)
    assert out.returncode == 0
    return json.loads(out.stdout.splitlines()[-1])


def test_command_reports_the_declared_metrics():
    base = ["--workload", "table_direct", "--seed", "5", "--seconds", "1"]
    plain = _result(base + ["--trace", "0"])
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    traced = _result(base + ["--trace", "1"])
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        got = (plain["metrics"] | traced["metrics"])[m["name"]]["unit"]
        assert got == m["unit"], m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(checkout.ROOT / "bench", tmp_path / "bench")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table_direct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )
    assert out.returncode != 0 and out.stdout == ""
