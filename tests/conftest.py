"""Prints one PASS/FAIL line per acceptance criterion after the run, and
holds what several test modules share (``from conftest import ...``).

Criteria live in test_acceptance.py as test_a<N>_* functions; each may
attach a human-readable detail via the built-in record_property fixture.
"""

import re

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
