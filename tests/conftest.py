"""Prints one PASS/FAIL line per acceptance criterion after the run, and
holds what several test modules share (``from conftest import ...``).

Criteria live in test_acceptance.py as test_a<N>_* functions; each may
attach a human-readable detail via the built-in record_property fixture.
"""

import re

from wraplab import objects as ob

_CRITERION = re.compile(r"test_acceptance\.py::test_(a\d+)_")
_results: dict[str, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if not m:
        return
    crit = m.group(1).upper()
    if report.when == "call" or report.failed:
        detail = dict(report.user_properties).get("detail", "")
        _results[crit] = (report.outcome, detail)


def pytest_terminal_summary(terminalreporter, exitstatus):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for crit in sorted(_results, key=lambda c: int(c[1:])):
        outcome, detail = _results[crit]
        word = "PASS" if outcome == "passed" else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"{crit}: {word}{suffix}")


class CountedList(list):
    """A list that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def plain(val):
    """The value as the naive oracles answer: each set a frozenset."""
    if isinstance(val, ob.SetVal):
        return frozenset(plain(v) for v in val)
    if isinstance(val, tuple):
        return tuple(plain(e) for e in val)
    return val


def _covered(a, b) -> bool:
    """Whether plain value a is contained in b: each set's members are
    covered by members of b's set, and records entry by entry."""
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        return all(any(_covered(x, y) for y in b) for x in a)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_covered(x, y) for x, y in zip(a, b))
    return a == b
