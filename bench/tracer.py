"""Spans and counts at the boundaries of wraplab's public functions.

The tracer wraps each function in HOOKS everywhere a wraplab module binds
it: a function imported by name into another module (``subelem`` into
``rpn``, ``hel`` and ``elog``) is replaced there too, and a method is
replaced on its class.  ``install`` puts the wrappers in, ``uninstall``
puts the originals back, so untraced jobs run the engine unchanged.

A span is (job, span id, parent span id, hook, start, end); spans stay in
memory and ``write_spans`` writes them out at the end of a run.  Self time
is a span's duration minus the time its child spans cover.  Recursive calls
of a folded hook (``eval_rpn``, ``eval_vf``, ``eval_cut``, ``DocTree.txt``)
join the outermost span and are counted as nested calls.  A hook whose
function no longer exists, or whose counts no longer fit the function's
result, is reported as absent; what it cannot measure reads 0.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _atoms(store) -> int:
    return sum(len(s) for s in store.pairs.values()) + sum(
        len(s) for s in store.unary.values()
    )


@dataclass(frozen=True)
class Hook:
    stem: str  # "<layer>.<what>"; hooks may share a stem
    target: str  # "module:attribute" or "module:Class.method"
    report: tuple  # which of calls, nested_calls, s, self_s and counts to report
    span: bool = True  # False: count the calls only
    fold: bool = False  # recursive calls join the outermost span
    top_only: bool = False  # a span only when no other span is open
    counts: Callable | None = None  # (args, result) -> {name: amount}

    @property
    def layer(self) -> str:
        return self.stem.split(".")[0]


HOOKS = (
    Hook("doctree.parse", "wraplab.doctree:parse_document", ("s", "nodes"),
         counts=lambda a, r: {"nodes": len(r)}),
    Hook("doctree.txt", "wraplab.doctree:DocTree.txt", ("calls", "nested_calls", "s"),
         fold=True),
    Hook("doctree.nextsibling", "wraplab.doctree:DocTree.nextsibling", ("calls", "s")),
    Hook("pathrange.subelem", "wraplab.pathrange:subelem", ("calls", "s", "hits"),
         counts=lambda a, r: {"hits": len(r)}),
    Hook("pathrange.step", "wraplab.pathrange:PathAutomaton.step", ("calls",),
         span=False),
    Hook("pathrange.apply_range", "wraplab.pathrange:apply_range", ("calls", "s")),
    Hook("rpn.parse", "wraplab.rpn:parse_rpn", ("s",)),
    Hook("hel.parse", "wraplab.hel:parse_hel", ("s",)),
    Hook("hel.parse", "wraplab.hel:parse_vhel", ("s",)),
    Hook("hel.parse", "wraplab.hel:desugar", ("s",)),
    Hook("elog.parse", "wraplab.elog:parse_elog", ("s",)),
    Hook("rpn.eval", "wraplab.rpn:eval_rpn", ("self_s",), fold=True),
    Hook("hel.eval_vf", "wraplab.hel:eval_vf", ("self_s",), fold=True),
    Hook("hel.eval_cut", "wraplab.hel:eval_cut", ("self_s",), fold=True),
    Hook("rpn.translate", "wraplab.rpn:translate_rpn", ("s",)),
    Hook("hel.translate", "wraplab.hel:translate_vf", ("s",)),
    Hook("elog.fixpoint", "wraplab.elog:eval_fixpoint", ("self_s", "atoms"),
         counts=lambda a, r: {"atoms": _atoms(r)}),
    Hook("elog.eliminate_aux", "wraplab.elog:eliminate_aux",
         ("s", "atoms_in", "atoms_out"),
         counts=lambda a, r: {"atoms_in": _atoms(a[0]), "atoms_out": _atoms(r)}),
    Hook("elog.render", "wraplab.elog:to_complex_object", ("s",)),
    Hook("elog.dump_atoms", "wraplab.elog:dump_atoms", ("s",)),
    # __init__ covers every construction, however the class name is bound;
    # it includes the json.dumps sort key of every element
    Hook("objects.setval", "wraplab.objects:SetVal.__init__", ("calls", "s")),
    # the output text only: json_text called inside another span (the
    # sort keys above) belongs to that span
    Hook("objects.json", "wraplab.objects:json_text", ("s",), top_only=True),
)

LAYERS = ("doctree", "pathrange", "rpn", "hel", "elog", "objects")
KEEP_SPANS = 200_000  # spans kept for write_spans; the totals count them all
_TIMES = ("calls", "nested_calls", "s", "self_s")


def _metric_units() -> dict:
    """Per-layer metric name -> unit, in report order."""
    units = {}
    for hook in HOOKS:
        for field in hook.report:
            units[f"{hook.stem}.{field}"] = "s" if field in ("s", "self_s") else "count"
    units["pathrange.steps_per_hit"] = "ratio"
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["trace.overhead_frac"] = "ratio"
    units["trace.unattributed_frac"] = "ratio"
    units["trace.absent"] = "count"
    return units


METRICS = _metric_units()


def _resolve(target: str):
    """(owner, attribute, function), or None when the target is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    return None if fn is None else (owner, attr, fn)


def _bindings(owner, attr: str, fn) -> list:
    """Every (namespace owner, name) where a wraplab module binds fn."""
    if isinstance(owner, type):
        return [(owner, attr)]
    mods = [m for n, m in sys.modules.items() if n.split(".")[0] == "wraplab"]
    return [(m, name) for m in mods for name, v in list(vars(m).items()) if v is fn]


class Tracer:
    def __init__(self):
        n = len(HOOKS)
        self.calls = [0] * n
        self.nested = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.counts: dict = {}
        self.errors = dict.fromkeys(LAYERS, 0)
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self.job_time = 0.0
        self.attributed = 0.0
        self._next_id = 0
        self._job = -1
        self._stack: list = []
        self._active = [0] * n
        self._sites: list[tuple] = []  # (namespace owner, name, original, wrapper)
        for i, hook in enumerate(HOOKS):
            found = _resolve(hook.target)
            if found is None:
                self.absent.append(hook.target)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(i, hook, fn)
            for where, name in _bindings(owner, attr, fn):
                self._sites.append((where, name, fn, wrapper))

    def install(self) -> None:
        for where, name, _, wrapper in self._sites:
            setattr(where, name, wrapper)

    def uninstall(self) -> None:
        for where, name, original, _ in self._sites:
            setattr(where, name, original)

    def begin_job(self, job: int, start: float) -> None:
        self._job = job
        self._next_id += 1
        self._stack[:] = [[-1, self._next_id, 0.0, start]]

    def end_job(self, end: float) -> None:
        _, sid, child, start = self._stack.pop()
        self.job_time += end - start
        self.attributed += child
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((self._job, sid, 0, -1, start, end))

    def _wrap(self, i: int, hook: Hook, fn):
        calls, nested = self.calls, self.nested
        active, stack = self._active, self._stack

        if not hook.span:
            def counted(*args, **kwargs):
                calls[i] += 1
                return fn(*args, **kwargs)
            return counted

        total, self_time, spans = self.total, self.self_time, self.spans
        fold, top_only, counts = hook.fold, hook.top_only, hook.counts
        layer = hook.layer
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            if (fold and active[i]) or (top_only and len(stack) > 1):
                nested[i] += 1
                return fn(*args, **kwargs)
            self._next_id += 1
            parent = stack[-1]
            frame = [i, self._next_id, 0.0]
            stack.append(frame)
            active[i] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                active[i] -= 1
                took = end - start
                calls[i] += 1
                total[i] += took
                self_time[i] += took - frame[2]
                parent[2] += took
                if len(spans) < KEEP_SPANS:
                    spans.append((self._job, frame[1], parent[1], i, start, end))
            if counts is not None:
                try:
                    measured = counts(args, result)
                except (AttributeError, TypeError):  # the result changed shape
                    if hook.stem not in self.absent:
                        self.absent.append(hook.stem)
                    return result
                for name, amount in measured.items():
                    key = (hook.stem, name)
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result

        return spanned

    def by_stem(self) -> dict:
        """stem -> {calls, nested_calls, s, self_s, and its counts}."""
        out: dict = {}
        for i, hook in enumerate(HOOKS):
            agg = out.setdefault(hook.stem, dict.fromkeys(_TIMES, 0))
            agg["calls"] += self.calls[i]
            agg["nested_calls"] += self.nested[i]
            agg["s"] += self.total[i]
            agg["self_s"] += self.self_time[i]
        for (stem, name), amount in self.counts.items():
            out[stem][name] = out[stem].get(name, 0) + amount
        return out

    def metrics(self, passes: int) -> dict:
        """Every per-layer metric but trace.overhead_frac, per pass over
        the job list."""
        stems = self.by_stem()
        out = {}
        for hook in HOOKS:
            for field in hook.report:
                out[f"{hook.stem}.{field}"] = stems[hook.stem].get(field, 0) / passes
        hits = stems["pathrange.subelem"].get("hits", 0)
        steps = stems["pathrange.step"]["calls"]
        out["pathrange.steps_per_hit"] = steps / hits if hits else 0.0
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer] / passes
            out[f"{layer}.self_s"] = sum(
                a["self_s"] for stem, a in stems.items() if stem.split(".")[0] == layer
            ) / passes
        out["trace.unattributed_frac"] = (
            1 - self.attributed / self.job_time if self.job_time else 0.0
        )
        out["trace.absent"] = len(self.absent)
        return out

    def write_spans(self, path) -> None:
        names = [f"{h.stem}:{h.target.partition(':')[2]}" for h in HOOKS]
        with open(path, "w") as f:
            f.write("job\tspan\tparent\tname\tstart_us\tend_us\n")
            for job, sid, parent, i, start, end in self.spans:
                name = names[i] if i >= 0 else "job"
                times = f"{start * 1e6:.1f}\t{end * 1e6:.1f}"
                f.write(f"{job}\t{sid}\t{parent}\t{name}\t{times}\n")
