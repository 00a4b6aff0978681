"""Shared fixtures and the acceptance-summary reporter.

The tests in test_acceptance.py are the release gate; the hooks below
collect their outcomes and print one PASS/FAIL line per criterion at the
end of the run, so the gate is visible even when pytest captures stdout.
"""

import pytest

from parabolic_lab import parse_field, parse_series, ParabolicGerm


_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.failed:
        _ACCEPTANCE[name] = "FAIL"
    elif report.when == "call" and report.passed:
        _ACCEPTANCE.setdefault(name, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE[name]}")


@pytest.fixture(scope="session")
def F2():
    return parse_field("GF(2)")


@pytest.fixture(scope="session")
def F3():
    return parse_field("GF(3)")


@pytest.fixture(scope="session")
def F5():
    return parse_field("GF(5)")


@pytest.fixture(scope="session")
def L2():
    return parse_field("Laurent(GF(2))")


@pytest.fixture(scope="session")
def L3():
    return parse_field("Laurent(GF(3))")


@pytest.fixture(scope="session")
def L5():
    return parse_field("Laurent(GF(5))")


def germ(text, ring):
    return ParabolicGerm(parse_series(text, ring))
