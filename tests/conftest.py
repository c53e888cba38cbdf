"""Shared pytest hooks and fixtures: pins BLAS to one thread unless the
caller set a count, collects acceptance-criterion verdicts and prints one
line per criterion in the terminal summary; ``n_threads`` fixes the number
of threads batch renders use."""

import os
import sys

import pytest

# OpenBLAS reads its thread count once, when numpy loads; unpinned, its
# threads oversubscribe the CPUs that batch renders already use
assert "numpy" not in sys.modules, "numpy loaded before the BLAS thread pin"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from semroi import synthetic

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, title: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"[{status}] criterion {number:2d} - {title}: {detail}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(params=[1, 2], ids=["one_thread", "two_threads"])
def n_threads(request, monkeypatch):
    """Batch renders spread over this many threads, whatever the host has."""
    monkeypatch.setattr(synthetic, "_cpu_count", lambda: request.param)
    return request.param
