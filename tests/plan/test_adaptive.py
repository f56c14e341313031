"""Adaptive planning: decisions, explain output, and equivalence of the
adaptive plan with every fixed algorithm."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.core import make_dimensions
from repro.datasets import (anticorrelated_rows, correlated_rows,
                            independent_rows)
from repro.engine.types import DOUBLE, INTEGER
from repro.plan import logical as L
from repro.plan.cost import (DENSE_SKYLINE_FRACTION,
                             DENSE_SKYLINE_FRACTION_VECTORIZED,
                             SMALL_INPUT_ROWS, CostModel)
from repro.sql.parser import parse_query
from tests.conftest import skyline_oracle

SQL3 = "SELECT id FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN"


def make_session(rows, nullable=False, n_dims=3, **kwargs):
    session = connect(num_executors=4, **kwargs)
    columns = [("id", INTEGER, False)] + [
        (f"d{i}", DOUBLE, nullable) for i in range(n_dims)]
    session.create_table(
        "pts", columns, [(i,) + tuple(r) for i, r in enumerate(rows)])
    return session


def skyline_node(session, sql):
    plan = session.analyze(parse_query(sql))
    nodes = [n for n in plan.iter_tree()
             if isinstance(n, L.SkylineOperator)]
    assert nodes
    return nodes[0]


def decide(session, sql=SQL3, vectorized=False):
    model = CostModel(session.catalog, vectorized=vectorized)
    return model.decide(skyline_node(session, sql))


class TestCostModelDecisions:
    def test_nullable_forces_incomplete(self):
        session = make_session(correlated_rows(1000, 3), nullable=True)
        decision = decide(session)
        assert decision.algorithm == "distributed-incomplete"
        assert "per bitmap" in decision.describe()

    def test_small_input_runs_non_distributed(self):
        session = make_session(correlated_rows(SMALL_INPUT_ROWS - 10, 3))
        decision = decide(session)
        assert decision.algorithm == "non-distributed-complete"
        assert "partitions   = 1 " in decision.describe()

    def test_dense_scalar_input_picks_sfs(self):
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02))
        decision = decide(session)
        assert decision.algorithm == "sfs"
        assert decision.skyline_density >= DENSE_SKYLINE_FRACTION

    def test_dense_vectorized_input_skips_the_local_stage(self):
        # On the vectorized kernels BNL and SFS are one block kernel;
        # what pays on dense data is running no local stage at all.
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02))
        decision = decide(session, vectorized=True)
        assert decision.skyline_density >= \
            DENSE_SKYLINE_FRACTION_VECTORIZED
        assert decision.algorithm == "non-distributed-complete"
        assert "vectorized" in decision.algorithm_reason

    def test_sparse_input_runs_distributed_bnl(self):
        session = make_session(independent_rows(8000, 3, seed=2))
        for vectorized in (False, True):
            decision = decide(session, vectorized=vectorized)
            assert decision.algorithm == "distributed-complete"
            assert "inherited" in decision.describe()

    def test_filter_selectivity_shrinks_estimate(self):
        session = make_session(independent_rows(2000, 3, seed=1))
        sql = ("SELECT id FROM pts WHERE d0 <= 0.1 "
               "SKYLINE OF d0 MIN, d1 MIN, d2 MIN")
        decision = decide(session, sql)
        # ~10% of 2000 rows pass the filter -> below the threshold.
        assert decision.estimated_rows <= SMALL_INPUT_ROWS
        assert decision.algorithm == "non-distributed-complete"

    def test_all_keeping_filter_does_not_shrink_estimate_to_zero(self):
        # Regression: 'WHERE c >= <constant value>' keeps every row;
        # the boundary selectivity must not zero out the estimate and
        # demote a large input to the single-task strategy.
        rows = [(5.0, float(i), float(i)) for i in range(2000)]
        session = make_session(rows)
        sql = ("SELECT id FROM pts WHERE d0 >= 5.0 "
               "SKYLINE OF d1 MIN, d2 MIN")
        decision = decide(session, sql)
        assert decision.estimated_rows > SMALL_INPUT_ROWS
        assert decision.algorithm != "non-distributed-complete"

    def test_nan_values_do_not_break_planning(self):
        rows = [(float("nan"), 1.0, 2.0)] + \
            [(float(i), float(i), float(i)) for i in range(600)]
        session = make_session(rows, adaptive=True)
        assert session.sql(SQL3).count() > 0
        assert session.sql("ANALYZE TABLE pts").count() == 4

    def test_detached_table_planning_is_bounded_and_correct(self):
        # A plan holding the old table object across a re-register must
        # profile its own (detached) rows, not the new table's cache.
        session = make_session(correlated_rows(SMALL_INPUT_ROWS + 200, 3))
        node = skyline_node(session, SQL3)  # binds the old table object
        session.create_table("pts", [("id", INTEGER, False)], [(1,)])
        decision = CostModel(session.catalog).decide(node)
        assert decision.estimated_rows == SMALL_INPUT_ROWS + 200

    def test_local_relation_without_catalog(self):
        session = connect(num_executors=4)
        df = session.create_dataframe(
            [(float(i), float(i)) for i in range(50)], ["a", "b"])
        plan = session.analyze(
            df.skyline_of([("a", "min"), ("b", "min")]).plan)
        node = next(n for n in plan.iter_tree()
                    if isinstance(n, L.SkylineOperator))
        decision = CostModel(None).decide(node)
        assert decision.algorithm == "non-distributed-complete"
        assert decision.estimated_rows == 50


#: name -> (rows, nullable dimensions): one input per rule of the
#: decision and per boundary between two rules.
DECISION_INPUTS = {
    "small": (lambda: correlated_rows(SMALL_INPUT_ROWS - 10, 3), False),
    "small-dense": (lambda: anticorrelated_rows(SMALL_INPUT_ROWS - 10, 3,
                                                spread=0.02), False),
    "dense": (lambda: anticorrelated_rows(2000, 3, spread=0.02), False),
    "between-crossovers": (lambda: anticorrelated_rows(2000, 3,
                                                       spread=0.12), False),
    "sparse": (lambda: correlated_rows(2000, 3), False),
    "nullable-small": (lambda: correlated_rows(SMALL_INPUT_ROWS - 10, 3),
                       True),
    "nullable-dense": (lambda: anticorrelated_rows(2000, 3, spread=0.02),
                       True),
    "nullable-sparse": (lambda: correlated_rows(2000, 3), True),
}


class TestDecisionOrder:
    """``decide`` applies its four rules in order -- nullable dimensions,
    small input, dense skyline, distributed BNL -- with the dense rule's
    outcome depending on the kernel family."""

    @pytest.mark.parametrize("data,vectorized,expected", [
        ("nullable-small", False, "distributed-incomplete"),
        ("nullable-small", True, "distributed-incomplete"),
        ("nullable-dense", False, "distributed-incomplete"),
        ("nullable-dense", True, "distributed-incomplete"),
        ("nullable-sparse", False, "distributed-incomplete"),
        ("nullable-sparse", True, "distributed-incomplete"),
        ("small-dense", False, "non-distributed-complete"),
        ("small-dense", True, "non-distributed-complete"),
        ("small", False, "non-distributed-complete"),
        ("small", True, "non-distributed-complete"),
        ("dense", False, "sfs"),
        ("dense", True, "non-distributed-complete"),
        ("between-crossovers", False, "sfs"),
        ("between-crossovers", True, "distributed-complete"),
        ("sparse", False, "distributed-complete"),
        ("sparse", True, "distributed-complete"),
    ])
    def test_first_matching_rule_wins(self, data, vectorized, expected):
        make_rows, nullable = DECISION_INPUTS[data]
        session = make_session(make_rows(), nullable=nullable)
        decision = decide(session, vectorized=vectorized)
        assert decision.algorithm == expected, decision.describe()
        assert decision.algorithm_reason


class TestPartitionsLine:
    """EXPLAIN's ``partitions =`` line names what the local stage runs
    on, and the run agrees: the scan's partitions, no local stage (one
    global task), or one task per null bitmap."""

    @pytest.mark.parametrize("num_executors", (1, 2, 5, 8))
    @pytest.mark.parametrize("algorithm,line", [
        ("distributed-complete", "inherited"),
        ("sfs", "inherited"),
        ("non-distributed-complete", "1"),
        ("distributed-incomplete", "per bitmap"),
    ])
    def test_line_matches_the_local_tasks(self, algorithm, line,
                                          num_executors):
        incomplete = algorithm == "distributed-incomplete"
        # The incomplete leg nulls d1 on every fourth row: two bitmaps.
        rows = [(i,) + tuple(None if incomplete and d == 1 and i % 4 == 0
                             else v for d, v in enumerate(r))
                for i, r in enumerate(independent_rows(800, 3, seed=5))]
        session = connect(num_executors=num_executors,
                          skyline_algorithm=algorithm)
        session.create_table(
            "pts", [("id", INTEGER, False)] + [
                (f"d{i}", DOUBLE, incomplete) for i in range(3)], rows)
        text = session.explain(parse_query(SQL3))
        assert f"partitions   = {line} " in text
        result = session.sql(SQL3).run()
        local = [s for s in result.context.stages
                 if s.name.startswith("SkylineLocalExec")]
        global_ = [s for s in result.context.stages
                   if s.name.startswith("SkylineGlobalExec")]
        assert len(global_) == 1 and len(global_[0].tasks) == 1
        expected_tasks = {"inherited": num_executors, "1": None,
                          "per bitmap": 2}[line]
        if expected_tasks is None:
            assert not local
        else:
            assert len(local) == 1
            assert len(local[0].tasks) == expected_tasks


class TestExplainReportsDecision:
    def test_adaptive_explain_contains_full_decision(self):
        # Scalar kernels: the dense anticorrelated class picks SFS over
        # the scan's partitions.
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02),
                               adaptive=True, vectorized=False)
        text = session.explain(parse_query(SQL3))
        assert "== Skyline Strategy ==" in text
        assert "algorithm    = sfs" in text
        assert "partitions   = inherited" in text
        assert "partitioning =" not in text
        assert "sampled skyline density" in text
        assert "pts: 2000 rows" in text

    def test_forced_strategy_explain_reports_configuration(self):
        session = make_session(correlated_rows(600, 3),
                               skyline_algorithm="sfs")
        text = session.explain(parse_query(SQL3))
        assert "algorithm    = sfs" in text
        assert "forced by session configuration" in text

    def test_auto_selection_is_not_labelled_forced(self):
        session = make_session(correlated_rows(600, 3))  # auto default
        text = session.explain(parse_query(SQL3))
        assert "algorithm    = distributed-complete" in text
        assert "Listing 8" in text
        algorithm_line = next(l for l in text.splitlines()
                              if l.startswith("algorithm"))
        assert "forced" not in algorithm_line

    def test_columnar_explain_has_no_cost_factor_line(self):
        session = make_session(correlated_rows(600, 3), adaptive=True,
                               columnar=True)
        text = session.explain(parse_query(SQL3))
        assert "cost factors" not in text


class TestVectorizedCostModel:
    """The vectorized kernels shift the cost model's crossover."""

    def test_vectorized_raises_the_dense_crossover(self):
        # Density ~0.3 sits between the scalar (0.25) and vectorized
        # (0.5) crossover: scalar picks SFS, vectorized keeps BNL.
        session = make_session(anticorrelated_rows(2000, 3, spread=0.12))
        node = skyline_node(session, SQL3)
        scalar = CostModel(session.catalog).decide(node)
        vector = CostModel(session.catalog, vectorized=True).decide(node)
        density = scalar.skyline_density
        assert density is not None and 0.25 <= density < 0.5, density
        assert scalar.algorithm == "sfs"
        assert vector.algorithm == "distributed-complete"
        assert "vectorized" in vector.algorithm_reason

    def test_planner_threads_the_session_flag(self):
        rows = anticorrelated_rows(2000, 3, spread=0.02)
        scalar = make_session(rows, adaptive=True, vectorized=False)
        text = scalar.explain(parse_query(SQL3))
        assert "algorithm    = sfs" in text
        vector = make_session(rows, adaptive=True, vectorized=True)
        text = vector.explain(parse_query(SQL3))
        assert "algorithm    = non-distributed-complete" in text
        assert "SkylineLocal" not in text


class TestDiffDimensions:
    @pytest.mark.parametrize("algorithm", [
        "distributed-complete", "non-distributed-complete", "sfs",
        "adaptive"])
    def test_rows_dominated_only_across_diff_groups_survive(self,
                                                           algorithm):
        # DIFF dominance requires equal colour: a lone "blue" row that
        # every "red" row beats on price and weight stays.
        from repro.engine.types import STRING
        rows = [(i, "red", 0.1 + i * 0.01, 0.1 + i * 0.01)
                for i in range(20)] + [(99, "blue", 10.0, 10.0)]
        session = connect(num_executors=4, skyline_algorithm=algorithm)
        session.create_table(
            "items",
            [("id", INTEGER, False), ("color", STRING, False),
             ("price", DOUBLE, False), ("weight", DOUBLE, False)],
            rows)
        sql = ("SELECT * FROM items "
               "SKYLINE OF price MIN, weight MIN, color DIFF")
        assert sorted(session.sql(sql).to_tuples()) == [
            (0, "red", 0.1, 0.1), (99, "blue", 10.0, 10.0)]


class TestSessionConfiguration:
    def test_adaptive_flag_sets_algorithm(self):
        session = connect(adaptive=True)
        assert session.adaptive
        assert session.skyline_algorithm == "adaptive"

    def test_adaptive_conflicts_with_forced_algorithm(self):
        with pytest.raises(ValueError):
            connect(adaptive=True, skyline_algorithm="sfs")

    def test_cost_based_is_not_a_strategy(self):
        with pytest.raises(ValueError, match="unknown skyline_algorithm"):
            connect(skyline_algorithm="cost-based")


DIMS = make_dimensions([(1, "min"), (2, "min"), (3, "min")])

FIXED_ALGORITHMS = ["distributed-complete", "sfs",
                    "non-distributed-complete", "distributed-incomplete"]


class TestAdaptiveMatchesFixedAlgorithms:
    """Adaptive plans return the identical skyline as every fixed
    algorithm."""

    @pytest.mark.parametrize("vectorized", (False, True))
    @pytest.mark.parametrize("generator,kwargs", [
        (correlated_rows, {"spread": 0.1}),
        (anticorrelated_rows, {"spread": 0.05}),
        (independent_rows, {}),
    ])
    def test_on_canonical_distributions(self, generator, kwargs,
                                        vectorized):
        # Each kernel family has its own crossover, so adaptive may
        # plan differently under each; the answer may not differ.
        rows = generator(700, 3, seed=11, **kwargs)
        session = make_session(rows, adaptive=True, vectorized=vectorized)
        expected = sorted(session.sql(SQL3).to_tuples())
        oracle = skyline_oracle(
            [(i,) + tuple(r) for i, r in enumerate(rows)], DIMS)
        assert expected == sorted((row[0],) for row in oracle)
        for algorithm in FIXED_ALGORITHMS:
            forced = session.with_options(skyline_algorithm=algorithm)
            assert sorted(forced.sql(SQL3).to_tuples()) == expected, (
                f"{algorithm} disagrees with adaptive")

    values = st.integers(0, 5)
    rows_strategy = st.lists(st.tuples(values, values, values),
                             min_size=0, max_size=30)

    @given(rows_strategy, st.sampled_from(FIXED_ALGORITHMS))
    @settings(max_examples=40, deadline=None)
    def test_property_adaptive_equals_fixed(self, rows, algorithm):
        data = [(i,) + tuple(r) for i, r in enumerate(rows)]
        adaptive = connect(num_executors=3, adaptive=True)
        forced = connect(num_executors=3, skyline_algorithm=algorithm)
        for session in (adaptive, forced):
            session.create_table(
                "pts",
                [("id", INTEGER, False)] + [
                    (f"d{i}", INTEGER, False) for i in range(3)],
                data)
        sql = "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"
        oracle = skyline_oracle(
            data, make_dimensions([(1, "min"), (2, "max"), (3, "min")]))
        assert sorted(adaptive.sql(sql).to_tuples()) == sorted(oracle)
        assert sorted(forced.sql(sql).to_tuples()) == sorted(oracle)
