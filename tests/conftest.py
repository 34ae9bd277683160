"""Shared pytest wiring: a visible pass/fail line for every acceptance criterion,
and fixtures that force a group onto the route without a table or onto the
table route."""

import re

import pytest

from arccover.groups import PermGroup, TableGroup

_CRITERION = re.compile(r"test_criterion_0*(\d+)")
_results: dict[int, bool] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    if report.when == "call":
        _results[num] = _results.get(num, True) and report.passed
    elif report.failed:  # setup/teardown error counts as a failure
        _results[num] = False


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for num in sorted(_results):
        state = "PASS" if _results[num] else "FAIL"
        terminalreporter.write_line(f"  criterion {num}: {state}")


@pytest.fixture
def conjugator_route():
    """Make a fresh copy of a group whose `table()` is None: its wreath entries
    are ids of its entry pool and its decompositions use the conjugator search."""

    def fresh(group: PermGroup) -> PermGroup:
        copy = PermGroup(group.generators, group.degree)
        copy.table = lambda: None
        return copy

    return fresh


@pytest.fixture
def table_route():
    """Make a fresh copy of a group whose `table()` is its multiplication
    table, also where `PermGroup.table` would build none (A7): its wreath
    entries are table indices and its decompositions propagate through the
    table."""

    def fresh(group: PermGroup) -> PermGroup:
        copy = PermGroup(group.generators, group.degree)
        table = TableGroup(copy)
        copy.table = lambda: table
        return copy

    return fresh
