"""Benchmark-suite options and fixtures: where the rendered tables go,
and the sweeps that several figures read."""

from __future__ import annotations

import functools

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


@pytest.fixture(scope="session")
def shared_sweep():
    """Run each harness sweep once per test session.

    The paper plots time and memory from the same runs, so a memory
    figure reads the cells of the time figure with the same sweep:
    Figure 8 reads Figure 6's sweeps, Figure 9's complete sweep is
    Figure 15's at 6 dims, Figure 17's is Figure 16's at 3 executors
    and Figure 19's is Figure 18's at 6 dims.  Called as ``shared_sweep(sweep, make_workload, *args,
    **kwargs)`` with ``make_workload`` a :func:`functools.partial` of a
    workload factory; the call runs ``sweep(make_workload(), *args,
    **kwargs)`` unless an earlier call passed the same arguments.
    """
    cache: dict[str, dict] = {}

    def run(sweep, make_workload: functools.partial, *args, **kwargs):
        key = repr((sweep.__name__, make_workload.func.__name__,
                    make_workload.args, sorted(make_workload.keywords.items()),
                    args, sorted(kwargs.items())))
        if key not in cache:
            cache[key] = sweep(make_workload(), *args, **kwargs)
        return cache[key]

    return run
