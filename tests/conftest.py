"""Shared pytest hooks and fixtures: pins BLAS to one thread unless the
caller set a count, collects acceptance-criterion verdicts and prints one
line per criterion in the terminal summary; ``n_threads`` fixes the number
of threads batch renders use, ``renders`` records every render and
``batches`` the size of every batch; ``gradcheck_reports`` runs the 20-seed
full-pipeline gradcheck once per session."""

import os
import sys
import time

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


@pytest.fixture
def renders(monkeypatch):
    """The (label, pose, seed) of every render from here on; a batch's
    renders land in no fixed order."""
    jobs = []
    body = synthetic._render

    def recorded(ctx, label, pose, seed):
        jobs.append((label, pose, seed))
        return body(ctx, label, pose, seed)

    monkeypatch.setattr(synthetic, "_render", recorded)
    return jobs


@pytest.fixture
def batches(monkeypatch):
    """The job count of every ``render_batch`` call from here on."""
    sizes = []
    batch = synthetic.render_batch

    def recorded(jobs):
        sizes.append(len(jobs))
        return batch(jobs)

    monkeypatch.setattr(synthetic, "render_batch", recorded)
    return sizes


@pytest.fixture(scope="session")
def gradcheck_reports():
    """``{seed: full_pipeline_gradcheck(seed)}`` at seeds 0-19, and the wall
    time in seconds that computing them took."""
    from semroi.oracles import full_pipeline_gradcheck

    start = time.time()
    reports = {seed: full_pipeline_gradcheck(seed) for seed in range(20)}
    return reports, time.time() - start
