"""docs/formats.md's quoted program faults, replayed against the reader."""

import pathlib
import re

import pytest

from wraplab import elog
from wraplab.pathrange import TextError

ROOT = pathlib.Path(__file__).resolve().parents[1]
FORMATS = (ROOT / "docs" / "formats.md").read_text()
PROGRAMS = FORMATS.split("## Programs (`.elog`)\n", 1)[1].split("\n## ", 1)[0]
# each backquoted span outside the code blocks, a line break in it read as
# a space
PROSE = re.sub(r"^```.*?^```$", "", PROGRAMS, flags=re.S | re.M)
SPANS = [" ".join(s.split()) for s in re.findall(r"`([^`]+)`", PROSE)]

RULE_P = "p(X0, X) :- root(_, X0), subelem[a][*](X0, X).\n"
RULE_Q = "q(X0, X) :- root(_, X0), subelem[a][*](X0, X).\n"
FAULTS = {  # message the section quotes -> (a program, whether it quotes the line)
    "line 3: unknown directive '@record'": ("% p\n" + RULE_P + "@record p\n", False),
    "line 2, column 31: expected '(', got ' [a](X0,X)'": (
        "% p\np(X0,X) :- root(_,X0), subelem [a](X0,X).\n", False
    ),
    "line 1, column 37: unexpected ')'": (
        "p(X0, X) :- root(_, X0), subelem[(b|)](X0, X).\n", True
    ),
    "line 1, column 36: bad range item 'x'": (
        "p(X0, X) :- root(_, X0), subelem[a][0,x](X0, X).\n", True
    ),
    "line 1, column 16: @schema: expected 'str' or 'record'": (
        "@schema set(p, x)\n" + RULE_P, True
    ),
    "line 3: @schema: the program already has a schema": (
        "@schema set(p, str)\n" + RULE_P + "@schema set(p, str)\n", False
    ),
    "line 2: @schema: 'q' is aux and in the schema": (
        "@aux q\n@schema set(q, str)\n" + RULE_Q, False
    ),
    "line 2: @aux: 'q' is aux and in the schema": (
        "@schema set(q, str)\n@aux q\n" + RULE_Q, False
    ),
}


def test_the_section_quotes_these_faults():
    assert [s for s in SPANS if re.match(r"line \d", s)] == list(FAULTS)


@pytest.mark.parametrize("message", FAULTS)
def test_quoted_fault_is_what_the_reader_raises(message):
    program, quoted = FAULTS[message]
    assert message in SPANS
    with pytest.raises(TextError) as e:
        elog.parse_elog(program)
    assert str(e.value) == message
    if quoted:  # the paragraph gives the faulty line itself
        assert program.splitlines()[e.value.line - 1].strip() in SPANS
