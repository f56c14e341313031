"""Ablation study (beyond the paper's figures): local-node algorithm
choice (BNL vs SFS) and data distribution (independent / correlated /
anti-correlated).

The paper defers sorting-based algorithms (SFS et al.) to future work
(Section 7); this bench quantifies what that future work would buy on
the canonical skyline workload distributions.  Anti-correlated data --
the hard case with large skylines -- is where presorting pays the most,
because the SFS window never shrinks and only one dominance direction
is ever tested.
"""

import pytest

from helpers import record, scaled
from repro.bench.reporting import _render_rows
from repro.datasets import (anticorrelated_rows, correlated_rows,
                            independent_rows)
from repro.datasets.workload import Workload
from repro.engine.types import DOUBLE, INTEGER

ROWS = scaled(3000)
DIMENSIONS = 4
EXECUTORS = 4

DISTRIBUTIONS = {
    "independent": independent_rows,
    "correlated": correlated_rows,
    "anticorrelated": anticorrelated_rows,
}


def make_workload(distribution: str) -> Workload:
    generator = DISTRIBUTIONS[distribution]
    raw = generator(ROWS, DIMENSIONS, seed=17)
    rows = [(i,) + tuple(values) for i, values in enumerate(raw)]
    columns = [("id", INTEGER, False)] + [
        (f"d{i}", DOUBLE, False) for i in range(DIMENSIONS)]
    return Workload(
        table_name=f"ablation_{distribution}",
        columns=columns, rows=rows,
        skyline_dimensions=[(f"d{i}", "min")
                            for i in range(DIMENSIONS)])


def run_strategy(workload: Workload, strategy: str):
    """Run the integrated skyline under a forced local/global strategy."""
    from repro.api.session import connect
    session = connect(num_executors=EXECUTORS,
                      skyline_algorithm=strategy)
    workload.register(session)
    return session.sql(workload.skyline_sql(DIMENSIONS)).run()


@pytest.fixture(scope="module")
def ablation_results():
    table: dict[str, dict[str, float]] = {}
    sizes: dict[str, int] = {}
    for name in DISTRIBUTIONS:
        workload = make_workload(name)
        per_strategy = {}
        for strategy in ("distributed-complete", "sfs",
                         "non-distributed-complete"):
            result = run_strategy(workload, strategy)
            per_strategy[strategy] = result.simulated_time_s
            sizes[name] = len(result.rows)
        table[name] = per_strategy
    rows = [(strategy,
             [f"{table[d][strategy]:.3f}" for d in DISTRIBUTIONS])
            for strategy in ("distributed-complete", "sfs",
                             "non-distributed-complete")]
    rows.append(("skyline size",
                 [str(sizes[d]) for d in DISTRIBUTIONS]))
    record("ablation_bnl_vs_sfs", _render_rows(
        f"Ablation: BNL vs SFS local nodes, {ROWS} tuples x "
        f"{DIMENSIONS} dims, {EXECUTORS} executors -- time [s]",
        "strategy", list(DISTRIBUTIONS), rows))
    return table, sizes


def test_correlated_has_smallest_skyline(ablation_results):
    _, sizes = ablation_results
    assert sizes["correlated"] < sizes["independent"]
    assert sizes["independent"] < sizes["anticorrelated"]


def test_sfs_and_bnl_agree(ablation_results):
    # Correctness is covered by tests; here we just require both ran.
    table, _ = ablation_results
    assert all("sfs" in row for row in table.values())


def test_distribution_hardness_ordering(ablation_results):
    table, _ = ablation_results
    bnl = {d: table[d]["distributed-complete"] for d in table}
    assert bnl["anticorrelated"] > bnl["correlated"]


def test_benchmark_sfs_anticorrelated(benchmark, ablation_results):
    workload = make_workload("anticorrelated")

    def run():
        return run_strategy(workload, "sfs")

    benchmark.pedantic(run, rounds=1, iterations=1)
