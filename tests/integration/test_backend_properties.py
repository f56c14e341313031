"""Property tests: every backend computes the same skyline.

The architectural contract of the backend layer is that execution
strategy (sequential / processes) is invisible in results:
``LocalBackend`` and ``ProcessBackend`` must return bit-identical
skylines for both complete and incomplete semantics.
Hypothesis drives random datasets through the full SQL pipeline on
every backend; the process pool is shared across examples (one fork per
module, not per example) to keep the suite fast.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import connect
from repro.engine.backends import BACKEND_NAMES, create_backend
from repro.engine.types import INTEGER
from tests.conftest import skyline_oracle
from repro.core import make_dimensions

values = st.integers(0, 6)
maybe_values = st.one_of(st.none(), values)
complete_rows = st.lists(st.tuples(values, values, values), max_size=30)
nullable_rows = st.lists(
    st.tuples(maybe_values, maybe_values, maybe_values), max_size=25)

DIMS = make_dimensions([(0, "min"), (1, "max"), (2, "min")])


def canon(rows):
    """Order-insensitive, null-safe canonical form for comparisons."""
    return sorted(rows, key=repr)
SKYLINE_SQL = ("SELECT a, b, c FROM pts "
               "SKYLINE OF a MIN, b MAX, c MIN")


@pytest.fixture(scope="module")
def backends():
    instances = {name: create_backend(name, num_workers=2)
                 for name in BACKEND_NAMES}
    yield instances
    for instance in instances.values():
        instance.close()


def run_on(backend, rows, nullable, strategy="auto", num_executors=3):
    session = connect(num_executors=num_executors,
                      skyline_algorithm=strategy,
                      backend=backend)
    session.create_table(
        "pts", [("a", INTEGER, nullable), ("b", INTEGER, nullable),
                ("c", INTEGER, nullable)], rows)
    return session.sql(SKYLINE_SQL).to_tuples()


class TestCompleteSemantics:
    @given(complete_rows)
    @settings(max_examples=25, deadline=None)
    def test_backends_identical_distributed_complete(self, backends, rows):
        outputs = {name: run_on(instance, rows, nullable=False,
                                strategy="distributed-complete")
                   for name, instance in backends.items()}
        assert outputs["local"] == outputs["process"]
        assert sorted(outputs["local"]) == sorted(
            skyline_oracle(rows, DIMS))

    @given(complete_rows)
    @settings(max_examples=10, deadline=None)
    def test_backends_identical_sfs(self, backends, rows):
        outputs = {name: run_on(instance, rows, nullable=False,
                                strategy="sfs")
                   for name, instance in backends.items()}
        assert outputs["local"] == outputs["process"]

    @given(complete_rows, st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_executor_count_does_not_change_results(self, backends, rows,
                                                    executors):
        outputs = {name: run_on(instance, rows, nullable=False,
                                strategy="distributed-complete",
                                num_executors=executors)
                   for name, instance in backends.items()}
        assert outputs["local"] == outputs["process"]


class TestIncompleteSemantics:
    @given(nullable_rows)
    @settings(max_examples=25, deadline=None)
    def test_backends_identical_distributed_incomplete(self, backends,
                                                       rows):
        outputs = {name: run_on(instance, rows, nullable=True,
                                strategy="distributed-incomplete")
                   for name, instance in backends.items()}
        assert outputs["local"] == outputs["process"]
        assert canon(outputs["local"]) == canon(
            skyline_oracle(rows, DIMS, complete=False))


class TestMetricsAcrossBackends:
    def test_comparisons_and_sizes_agree(self, backends):
        rows = [(i % 7, (i * 3) % 11, (i * 5) % 13) for i in range(60)]
        summaries = {}
        for name, instance in backends.items():
            session = connect(num_executors=3, backend=instance)
            session.create_table(
                "pts", [("a", INTEGER, False), ("b", INTEGER, False),
                        ("c", INTEGER, False)], rows)
            result = session.execute(session.sql(SKYLINE_SQL).plan)
            summaries[name] = (len(result.rows),
                               result.context.dominance_comparisons)
        assert len(set(summaries.values())) == 1

    def test_real_time_recorded_on_every_backend(self, backends):
        rows = [(i, i, i) for i in range(20)]
        for name, instance in backends.items():
            session = connect(num_executors=2, backend=instance)
            session.create_table(
                "pts", [("a", INTEGER, False), ("b", INTEGER, False),
                        ("c", INTEGER, False)], rows)
            plan = session.sql(SKYLINE_SQL).plan
            start = time.perf_counter()
            result = session.execute(plan)
            wall_s = time.perf_counter() - start
            assert result.real_time_s > 0, name
            # The first skyline stage lands within the query's wall time.
            assert 0.0 <= result.time_to_first_batch_s <= wall_s, name
