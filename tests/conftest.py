"""Shared test plumbing: the acceptance-criteria result recorder, and a
child process with a capped address space.

Acceptance tests register one verdict per criterion; the terminal summary
prints one PASS/FAIL line for each so the run's gate status is readable
without digging through tracebacks.
"""

from __future__ import annotations

import subprocess
import sys
from contextlib import contextmanager

ADDRESS_SPACE_CAP = 3 * 10**9  # bytes, as `ulimit -v 3000000`

RESULTS: list[tuple[int, str, bool]] = []


def record_criterion(number: int, name: str, passed: bool) -> None:
    RESULTS.append((number, name, passed))


@contextmanager
def criterion(number: int, name: str):
    """Mark the enclosing checks as one acceptance criterion."""
    try:
        yield
    except BaseException:
        record_criterion(number, name, False)
        raise
    record_criterion(number, name, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed in sorted(RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} ({name}): {verdict}")


def run_capped(*argv: str) -> subprocess.CompletedProcess:
    """`python *argv` in a child whose address space is capped at
    `ADDRESS_SPACE_CAP` (Linux's RLIMIT_AS) and which is killed after 60 s:
    an input that would stall the program or take the host's memory must
    fail fast there instead."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    return subprocess.run([sys.executable, *argv], preexec_fn=cap, capture_output=True, text=True, timeout=60)
