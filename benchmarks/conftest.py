"""Benchmark-suite options: where the rendered tables go."""

from __future__ import annotations

import helpers
import pytest


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-results", action="store_true",
        help="rewrite the committed benchmarks/results/*.txt tables "
             "(default: render them into the pytest temp dir)")


@pytest.fixture(scope="session", autouse=True)
def results_dir(request, tmp_path_factory):
    """Point :func:`helpers.record` at the pytest temp dir.

    The tables hold machine-local timings, so a plain test run must not
    rewrite the committed copies (it would dirty the tree on every
    tier-1 run); ``--update-results`` is the deliberate refresh.
    """
    if request.config.getoption("--update-results"):
        yield
        return
    committed = helpers.RESULTS_DIR
    helpers.RESULTS_DIR = tmp_path_factory.mktemp("benchmark_results")
    try:
        yield
    finally:
        helpers.RESULTS_DIR = committed
