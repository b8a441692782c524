"""No engine API is kept alive only by its own unit test.

Every public module-level function or class of an engine module, and every
public method of a class there, must be used outside its own definition
somewhere in ``src/`` or ``bench/``.  A function or class counts as used by
its name or by an attribute of that name (``elog.parse_elog``), a method by
an attribute of its name (``.update``, whatever the object), and either by a
bench tracer target such as ``"wraplab.doctree:DocTree.txt"``.  Names used
only by tests must be listed in ALLOWED, each with the test or acceptance
criterion that needs it.
"""

import ast
import importlib
import pathlib
import re
import typing

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wraplab"
ENGINES = sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "testkit")
)
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
HOOK = re.compile(r"wraplab\.\w+:([\w.]+)")  # a bench tracer target

ALLOWED = {
    "doctree.dump_sexpr": "the tree observer of test_doctree's parse tests",
    "elog.unary_query": "the store observer of test_elog and test_rpn",
    "elog.monadic_collapse": "A8 and test_elog's collapse tests",
    "objects.to_jsonable": (
        "the value observer of A1-A3, A5, A10, test_corpus, test_rpn, test_hel, "
        "test_elog and test_objects, and of README's Library snippet"
    ),
}


def _definitions(module: str):
    """(qualified name, name, file, def node) of each public module-level
    function or class and of each public method, in the module."""
    path = PACKAGE / f"{module}.py"
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, path, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", "." + item.name, path, item


def _uses() -> dict:
    """Each used name ("f" for a name or an attribute, ".f" for an
    attribute) -> the (file, line) places it is used at."""
    uses: dict = {}

    def add(key, path, line):
        uses.setdefault(key, []).append((path, line))

    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                add(node.id, path, node.lineno)
            elif isinstance(node, ast.Attribute):
                add(node.attr, path, node.lineno)
                add("." + node.attr, path, node.lineno)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                for target in HOOK.findall(node.value):
                    for part in target.split("."):
                        add(part, path, node.lineno)
                        add("." + part, path, node.lineno)
    return uses


def _unused() -> list:
    uses = _uses()
    unused = []
    for module in ENGINES:
        for qualified, key, path, node in _definitions(module):
            inside = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in inside for p, line in uses.get(key, ())):
                unused.append(qualified)
    return unused


def test_the_scan_sees_functions_classes_and_methods():
    names = {q for m in ENGINES for q, _, _, _ in _definitions(m)}
    assert {"elog.parse_elog", "elog.Pairs", "elog.Pairs.update", "cli.main"} <= names
    assert len(names) > 150


def test_every_public_engine_name_is_used_outside_tests():
    # an allowed name that src/ or bench/ comes to use leaves the list too
    assert sorted(_unused()) == sorted(ALLOWED)


def test_every_public_engine_annotation_resolves():
    # from __future__ import annotations leaves annotations unevaluated, so
    # one naming what its module does not define shows only here
    failed = []
    for module in ENGINES:
        mod = importlib.import_module(f"wraplab.{module}")
        for qualified, _, _, _ in _definitions(module):
            obj = mod
            for part in qualified.split(".")[1:]:
                obj = getattr(obj, part)
            obj = getattr(obj, "fget", getattr(obj, "func", obj))  # properties
            try:
                typing.get_type_hints(obj)
            except Exception as e:
                failed.append(f"{qualified}: {e!r}")
    assert failed == []
