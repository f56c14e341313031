"""Lightweight cost-based skyline strategy selection (Section 7)."""

import pytest

from repro import connect
from repro.datasets import anticorrelated_rows, correlated_rows
from repro.engine.types import DOUBLE, INTEGER
from repro.plan import logical as L
from repro.plan.cost import (SMALL_INPUT_ROWS, choose_strategy,
                             estimate_input_rows)
from repro.sql.parser import parse_query


def make_session(rows, nullable=False, n_dims=3):
    session = connect(num_executors=2,
                      skyline_algorithm="cost-based")
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


class TestChooseStrategy:
    def test_nullable_dimensions_force_incomplete(self):
        session = make_session(correlated_rows(1000, 3), nullable=True)
        node = analyzed_skyline(session, SQL3)
        decision = choose_strategy(node)
        assert decision.strategy == "distributed-incomplete"
        assert "incomplete" in decision.reason

    def test_small_input_skips_distribution(self):
        session = make_session(correlated_rows(SMALL_INPUT_ROWS - 10, 3))
        node = analyzed_skyline(session, SQL3)
        decision = choose_strategy(node)
        assert decision.strategy == "non-distributed-complete"

    def test_sparse_skyline_prefers_bnl(self):
        session = make_session(correlated_rows(3000, 3, spread=0.05))
        node = analyzed_skyline(session, SQL3)
        decision = choose_strategy(node)
        assert decision.strategy == "distributed-complete"

    def test_dense_skyline_prefers_sfs(self):
        session = make_session(anticorrelated_rows(3000, 3, spread=0.02))
        node = analyzed_skyline(session, SQL3)
        decision = choose_strategy(node)
        assert decision.strategy == "sfs"
        assert decision.sample_skyline_fraction is not None
        assert decision.sample_skyline_fraction > 0.2


class TestCostBasedExecution:
    @pytest.mark.parametrize("generator", [correlated_rows,
                                           anticorrelated_rows])
    def test_cost_based_results_match_forced(self, generator):
        rows = generator(800, 3, seed=4)
        session = make_session(rows)
        cost_based = session.sql(SQL3).to_tuples()
        forced = session.with_options(skyline_algorithm="distributed-complete").sql(SQL3).to_tuples()
        assert sorted(cost_based) == sorted(forced)

    def test_cost_based_on_nullable_data(self):
        session = make_session(
            [(1.0, None, 2.0), (0.5, 1.0, 1.0), (2.0, 2.0, 2.0)],
            nullable=True)
        rows = session.sql(SQL3).to_tuples()
        assert rows  # null-aware semantics executed without error
