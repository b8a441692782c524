"""README's tour and Library snippet, replayed against the code."""

import ast
import pathlib
import re
import shlex

import pytest

from wraplab.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
BLOCK = re.compile(r"^```(\w*)\n(.*?)^```$", re.S | re.M)
WRAPPER_OR_DOCUMENT = re.compile(r".*\.(rpn|vhel|hel|elog|doc)")


def _tour() -> list:
    """(command, the output shown under it) for each '$ wrapctl' line."""
    out = []
    for lang, block in BLOCK.findall(README):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if not lang and chunk.startswith("$ wrapctl "):
                command, _, shown = chunk.partition("\n")
                out.append((command[len("$ wrapctl "):], shown))
    return out


TOUR = _tour()


def test_the_tour_is_found():
    assert len(TOUR) == 9
    # `diff a.rpn b.vhel --generate` names no checked-in files: a.rpn and
    # b.vhel stand for any two wrappers, so it is the one line not replayed
    missing = [
        command for command, _ in TOUR
        if any(
            WRAPPER_OR_DOCUMENT.fullmatch(a) and not (ROOT / a).exists()
            for a in shlex.split(command)
        )
    ]
    assert missing == ["diff a.rpn b.vhel --generate 500 --seed 0"]


REPLAYED = {c: s for c, s in TOUR if not c.startswith("diff a.rpn b.vhel")}


@pytest.mark.parametrize("command", REPLAYED)
def test_tour_command_prints_what_readme_shows(command, capsys, monkeypatch):
    shown = REPLAYED[command]
    monkeypatch.chdir(ROOT)
    argv = shlex.split(command)
    main(argv)  # a found divergence exits 1, as README says
    out, err = capsys.readouterr()
    assert err == ""
    if shown.endswith("...\n"):  # a trailing '...' line matches any rest
        shown = shown[: -len("...\n")]
        out = out[: len(shown)]
    assert out == shown


def test_library_snippet_gives_its_commented_values(monkeypatch):
    # each line whose comment is a literal evaluates to it; the rest run
    monkeypatch.chdir(ROOT)
    code = next(block for lang, block in BLOCK.findall(README) if lang == "python")
    scope: dict = {}
    checked = 0
    for line in code.splitlines():
        source, _, comment = line.partition("   # ")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            exec(line, scope)
            continue
        assert eval(source, scope) == expected, line
        checked += 1
    assert checked == 2
