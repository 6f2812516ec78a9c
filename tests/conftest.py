import io

import pytest

from summatoria.verify import run_suite

#: One line per acceptance criterion, replayed at the end of the run so the
#: PASS/FAIL verdicts stay visible even with output capture enabled.
ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def suite_outcome():
    """One full verification run at the acceptance scale, with its wall time."""
    import time

    err = io.StringIO()
    t0 = time.monotonic()
    outcome = run_suite(limit=10**6, threads=2, err=err)
    elapsed = time.monotonic() - t0
    return outcome, elapsed, err.getvalue()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
