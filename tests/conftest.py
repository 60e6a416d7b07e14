"""Shared test fixtures and the acceptance-criteria terminal summary.

The acceptance module records one line per criterion through the
``acceptance`` fixture; ``pytest_terminal_summary`` replays those lines
after the run so they are visible regardless of output capture.
"""
from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from treeperc import limits

# criterion number -> (status, detail); populated by tests/test_acceptance.py
ACCEPTANCE_LINES: dict[int, tuple[str, str]] = {}


@pytest.fixture
def acceptance():
    """Recorder: acceptance(criterion_number, ok, detail) -> ok."""

    def record(number: int, ok: bool, detail: str) -> bool:
        ACCEPTANCE_LINES[number] = ("PASS" if ok else "FAIL", detail)
        return ok

    return record


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG; reseeded per test so ordering never matters."""
    return random.Random(20260819)


@pytest.fixture
def budget(monkeypatch):
    """budget(**caps): a context in which the one binding every size check
    reads, ``limits.DEFAULT_BUDGET``, is ``Budget(**caps)``."""

    @contextmanager
    def shrunk(**caps):
        with monkeypatch.context() as patched:
            patched.setattr(limits, "DEFAULT_BUDGET", limits.Budget(**caps))
            yield

    return shrunk


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_LINES):
        status, detail = ACCEPTANCE_LINES[number]
        terminalreporter.write_line(f"[{status}] criterion {number}: {detail}")
