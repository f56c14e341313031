"""Light-weight statistics-driven algorithm selection (Section 7)."""

import pytest

from repro import connect
from repro.datasets import anticorrelated_rows, correlated_rows
from repro.engine.types import DOUBLE, INTEGER
from repro.plan import logical as L
from repro.plan.cost import (SMALL_INPUT_ROWS, CostModel,
                             estimate_input_rows)
from repro.sql.parser import parse_query


def make_session(rows, nullable=False, n_dims=3):
    session = connect(num_executors=2, adaptive=True)
    columns = [("id", INTEGER, False)] + [
        (f"d{i}", DOUBLE, nullable) for i in range(n_dims)]
    data = [(i,) + tuple(values) for i, values in enumerate(rows)]
    session.create_table("pts", columns, data)
    return session


def analyzed_skyline(session, sql):
    plan = session.analyze(parse_query(sql))
    nodes = [n for n in plan.iter_tree()
             if isinstance(n, L.SkylineOperator)]
    assert nodes
    return nodes[0]


SQL3 = "SELECT id FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN"


class TestEstimateInputRows:
    def test_counts_through_preserving_operators(self):
        session = make_session(correlated_rows(700, 3))
        node = analyzed_skyline(
            session, "SELECT id FROM pts WHERE d0 >= 0 "
                     "SKYLINE OF d0 MIN, d1 MIN")
        estimate = estimate_input_rows(node.child)
        assert estimate == 700

    def test_limit_caps_estimate(self):
        session = make_session(correlated_rows(700, 3))
        plan = session.analyze(parse_query(
            "SELECT id FROM pts LIMIT 10"))
        assert estimate_input_rows(plan) == 10


def choose(session, node):
    """The algorithm the adaptive planner picks on the scalar kernels."""
    return CostModel(session.catalog).decide(node)


class TestAdaptiveAlgorithm:
    def test_nullable_dimensions_force_incomplete(self):
        session = make_session(correlated_rows(1000, 3), nullable=True)
        node = analyzed_skyline(session, SQL3)
        decision = choose(session, node)
        assert decision.algorithm == "distributed-incomplete"
        assert "incomplete" in decision.algorithm_reason

    def test_small_input_skips_distribution(self):
        session = make_session(correlated_rows(SMALL_INPUT_ROWS - 10, 3))
        node = analyzed_skyline(session, SQL3)
        decision = choose(session, node)
        assert decision.algorithm == "non-distributed-complete"

    def test_sparse_skyline_prefers_bnl(self):
        session = make_session(correlated_rows(3000, 3, spread=0.05))
        node = analyzed_skyline(session, SQL3)
        decision = choose(session, node)
        assert decision.algorithm == "distributed-complete"

    def test_dense_skyline_prefers_sfs(self):
        session = make_session(anticorrelated_rows(3000, 3, spread=0.02))
        node = analyzed_skyline(session, SQL3)
        decision = choose(session, node)
        assert decision.algorithm == "sfs"
        assert decision.skyline_density is not None
        assert decision.skyline_density > 0.2


class TestAdaptiveExecution:
    @pytest.mark.parametrize("generator", [correlated_rows,
                                           anticorrelated_rows])
    def test_adaptive_results_match_forced(self, generator):
        rows = generator(800, 3, seed=4)
        session = make_session(rows)
        adaptive = session.sql(SQL3).to_tuples()
        forced = session.with_options(
            skyline_algorithm="distributed-complete").sql(SQL3).to_tuples()
        assert sorted(adaptive) == sorted(forced)

    def test_adaptive_on_nullable_data(self):
        session = make_session(
            [(1.0, None, 2.0), (0.5, 1.0, 1.0), (2.0, 2.0, 2.0)],
            nullable=True)
        rows = session.sql(SQL3).to_tuples()
        assert rows  # null-aware semantics executed without error
