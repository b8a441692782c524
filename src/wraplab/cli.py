"""wrapctl: run, translate, check, and diff tree wrappers.

Languages are detected by file extension alone: .rpn and .vhel hold one
statement, .hel one statement with variables, .elog a datalog program,
.doc a document.  Wrapper problems and usage errors exit with 1, document
problems with 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from . import elog, hel
from . import objects as ob
from . import rpn
from .doctree import DocTree, MalformedInput, parse_document, serialize
from .pathrange import RangeError, TextError
from .testkit import TreeGenSpec, gen_tree, shrink_tree


class WrapperError(Exception):
    exit_code = 1


class DocumentError(Exception):
    exit_code = 2


_EXTENSIONS = {".rpn": "rpn", ".hel": "hel", ".vhel": "vhel", ".elog": "elog"}


def detect_language(path: str) -> str:
    _, ext = os.path.splitext(path)
    lang = _EXTENSIONS.get(ext)
    if lang is None:
        raise WrapperError(
            f"{path}: unknown wrapper extension {ext!r} "
            f"(expected one of {', '.join(sorted(_EXTENSIONS))})"
        )
    return lang


def _styled(text: str, code: str) -> str:
    if os.environ.get("WRAPCTL_COLOR") == "0" or not sys.stdout.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _read(path: str, err) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise err(f"{path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise err(f"{path}: not UTF-8 text (byte {e.start})") from None


def load_document(path: str) -> DocTree:
    text = _read(path, DocumentError)
    try:
        return parse_document(text)
    except MalformedInput as e:
        raise DocumentError(f"{path}: {e}") from None


# what a wrapper text can fail with: a fault in the text, which names its
# place, a program or a variable statement that reads but is not valid,
# and a text nested deeper than the parsers recurse
_PARSE_ERRORS = (TextError, elog.ElogError, hel.HelError, RecursionError)


class Wrapper:
    """A parsed wrapper file: .hel is desugared on load, so all three
    statement languages evaluate through the same two shapes."""

    def __init__(self, path: str):
        self.path = path
        self.lang = detect_language(path)
        text = _read(path, WrapperError)
        try:
            if self.lang == "rpn":
                self.ast = rpn.parse_rpn(text)
            elif self.lang == "vhel":
                self.ast = hel.parse_vhel(text)
            elif self.lang == "hel":
                self.ast = hel.desugar(hel.parse_hel(text))
            else:
                self.ast = elog.parse_elog(text)
        except _PARSE_ERRORS as e:
            raise WrapperError(f"{path}: {e}") from None

    def evaluate(self, tree: DocTree, strict: bool = True, cut: bool = False):
        """Returns (store-or-None, value-or-None)."""
        try:
            if self.lang == "rpn":
                return None, rpn.eval_rpn(self.ast, tree)
            if self.lang in ("vhel", "hel"):
                fn = hel.eval_cut if cut else hel.eval_vf
                return None, fn(self.ast, tree, strict=strict)
            return elog.run_pipeline(self.ast, tree)
        except (
            elog.ElogError, hel.HelError, RangeError, ValueError, RecursionError
        ) as e:
            raise WrapperError(f"{self.path}: {e}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_run(args) -> int:
    w = Wrapper(args.wrapper)
    tree = load_document(args.document)
    if args.cut and w.lang not in ("vhel", "hel"):
        raise WrapperError("--cut applies to .hel/.vhel wrappers only")
    out = args.out or ("atoms" if w.lang == "elog" else "json")
    if out != "json" and w.lang != "elog":
        raise WrapperError(f"--out {out} applies to .elog wrappers only")
    store, val = w.evaluate(tree, strict=args.strict, cut=args.cut)
    if out == "json":
        if val is None:
            raise WrapperError(
                f"{w.path}: program has no output schema; use --out atoms"
            )
        print(ob.json_text(val))
    elif out == "atoms":
        dump = elog.dump_atoms(store)
        if dump:
            print(dump)
    else:
        print(elog.to_dot(store, tree))
    return 0


def cmd_translate(args) -> int:
    w = Wrapper(args.wrapper)
    if w.lang == "elog":
        raise WrapperError("datalog programs are a target, not a source")
    try:  # a nested condition is rendered and translated one call per level
        if args.to == "vhel":
            out = hel.vhel_to_text(w.ast) + "\n"
        else:
            translate = rpn.translate_rpn if w.lang == "rpn" else hel.translate_vf
            out = elog.serialize_elog(translate(w.ast)[0])
    except (ValueError, elog.ElogError, RecursionError) as e:
        raise WrapperError(f"{w.path}: {e}") from None
    sys.stdout.write(out)
    return 0


def cmd_check(args) -> int:
    w = Wrapper(args.wrapper)
    if w.lang == "rpn":
        print(f"OK: type {ob.type_to_text(rpn.typecheck(w.ast))}")
    elif w.lang == "vhel":
        marks = " with cut marks" if hel.has_cut(w.ast) else ""
        print(f"OK: type {ob.type_to_text(rpn.typecheck(w.ast))}{marks}")
    elif w.lang == "hel":
        print(f"OK: desugars to {hel.vhel_to_text(w.ast)}")
    else:
        preds = w.ast.head_preds()
        print(f"OK: {len(w.ast.rules)} rules, predicates {', '.join(preds)}")
    return 0


def _lenient(w: Wrapper, tree: DocTree):
    """w's value on tree, evaluated lenient, without its warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return w.evaluate(tree, strict=False)[1]


def _diff_pair(a: Wrapper, b: Wrapper, tree: DocTree, label: str) -> bool:
    va, vb = _lenient(a, tree), _lenient(b, tree)
    if ob.equal(va, vb):
        return False
    print(_styled(f"divergence on {label}:", "31"))
    print(f"  {a.path}: {ob.json_text(va)}")
    print(f"  {b.path}: {ob.json_text(vb)}")
    return True


def cmd_diff(args) -> int:
    a, b = Wrapper(args.wrapper_a), Wrapper(args.wrapper_b)
    for w in (a, b):
        if w.lang == "elog" and w.ast.schema is None:
            raise WrapperError(
                f"{w.path}: program has no output schema to compare"
            )
    if args.document:
        if _diff_pair(a, b, load_document(args.document), args.document):
            return 1
        print(_styled("no divergence", "32"))
        return 0
    if args.generate is None:
        raise WrapperError("pass a document or --generate N")
    if args.generate < 1:
        raise WrapperError(f"--generate N needs N >= 1, got {args.generate}")

    def disagree(tree: DocTree) -> bool:
        try:
            va, vb = _lenient(a, tree), _lenient(b, tree)
        except WrapperError:
            return False
        return not ob.equal(va, vb)

    for i in range(args.generate):
        tree = gen_tree(TreeGenSpec(seed=args.seed + i))
        if disagree(tree):
            small = shrink_tree(tree, disagree)
            print(f"seed {args.seed + i}, document {serialize(small)!r}")
            _diff_pair(a, b, small, f"seed {args.seed + i} (shrunk)")
            return 1
    print(_styled(f"no divergence ({args.generate} documents, "
                  f"seeds {args.seed}..{args.seed + args.generate - 1})", "32"))
    return 0


# ---------------------------------------------------------------------------
# argument surface


class _Parser(argparse.ArgumentParser):
    """Its usage errors exit 1 on one wrapctl: line, like a wrapper's."""

    def error(self, message):
        command = self.prog.partition(" ")[2]  # "run" in "wrapctl run"
        raise WrapperError(f"{command}: {message}" if command else message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wrapctl", description="run, translate, check, and diff tree wrappers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_strictness(p):
        g = p.add_mutually_exclusive_group()
        g.add_argument(
            "--strict", dest="strict", action="store_true", default=True,
            help="ambiguous condition paths are errors (default)",
        )
        g.add_argument(
            "--lenient", dest="strict", action="store_false",
            help="ambiguous condition paths degrade to existence checks",
        )

    p = sub.add_parser("run", help="evaluate a wrapper against a document")
    p.add_argument("wrapper")
    p.add_argument("document")
    p.add_argument("--out", choices=["json", "atoms", "dot"],
                   help="json for statements, atoms/dot for programs")
    p.add_argument("--cut", action="store_true",
                   help="stop scans at '!'-marked condition violations")
    add_strictness(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("translate", help="rewrite a wrapper in another language")
    p.add_argument("wrapper")
    p.add_argument("--to", required=True, choices=["vhel", "elog"])
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("check", help="parse and validate a wrapper")
    p.add_argument("wrapper")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("diff", help="compare two wrappers' outputs")
    p.add_argument("wrapper_a")
    p.add_argument("wrapper_b")
    p.add_argument("document", nargs="?")
    p.add_argument("--generate", type=int, metavar="N",
                   help="try N seeded random documents instead")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_diff)

    return parser


def main(argv=None) -> int:
    formatwarning = warnings.formatwarning  # a lenient run's warnings: one line each
    warnings.formatwarning = lambda message, *_: f"wrapctl: warning: {message}\n"
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (WrapperError, DocumentError) as e:
        print(f"wrapctl: {e}", file=sys.stderr)
        return e.exit_code
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
