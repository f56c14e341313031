"""Adaptive planning: decisions, explain output, and equivalence of the
adaptive plan with every fixed (algorithm x partitioning) combination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import connect
from repro.core import make_dimensions
from repro.datasets import (anticorrelated_rows, correlated_rows,
                            independent_rows)
from repro.engine.types import DOUBLE, INTEGER
from repro.plan import logical as L
from repro.plan.cost import (DENSE_SKYLINE_FRACTION, SMALL_INPUT_ROWS,
                             CostModel)
from repro.plan.planner import PARTITIONING_SCHEMES
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


def decide(session, sql=SQL3, max_workers=None):
    model = CostModel(session.catalog, num_executors=4,
                      max_workers=max_workers)
    return model.decide(skyline_node(session, sql))


class TestCostModelDecisions:
    def test_nullable_forces_incomplete(self):
        session = make_session(correlated_rows(1000, 3), nullable=True)
        decision = decide(session)
        assert decision.algorithm == "distributed-incomplete"
        assert decision.partitioning == "keep"

    def test_small_input_runs_non_distributed(self):
        session = make_session(correlated_rows(SMALL_INPUT_ROWS - 10, 3))
        decision = decide(session)
        assert decision.algorithm == "non-distributed-complete"
        assert decision.num_partitions == 1

    def test_dense_uniform_orientation_picks_sfs_and_angle(self):
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02))
        decision = decide(session)
        assert decision.algorithm == "sfs"
        assert decision.partitioning == "angle"
        assert decision.skyline_density >= DENSE_SKYLINE_FRACTION
        # Dense skylines use full parallelism.
        assert decision.num_partitions == 4

    def test_dense_mixed_orientation_rejects_angle(self):
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02))
        sql = "SELECT id FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"
        # MAX flips the orientation of d1: an anti-correlated MIN/MIN
        # band stays dense under MIN/MAX on mirrored data, but the mix
        # of kinds must veto the angular transform either way.
        decision = decide(session, sql)
        if decision.skyline_density is not None and \
                decision.skyline_density >= DENSE_SKYLINE_FRACTION:
            assert decision.partitioning == "random"
        assert decision.partitioning != "angle"

    def test_sparse_small_windows_keep_partitioning(self):
        session = make_session(independent_rows(8000, 3, seed=2))
        decision = decide(session)
        assert decision.algorithm == "distributed-complete"
        assert decision.partitioning == "keep"

    def test_moderate_density_large_input_picks_grid(self):
        session = make_session(
            anticorrelated_rows(20_000, 3, spread=0.35, seed=5))
        decision = decide(session)
        if decision.skyline_density < DENSE_SKYLINE_FRACTION:
            assert decision.partitioning == "grid"
            assert decision.grid_cells_per_dim >= 2
            assert decision.num_partitions == \
                decision.grid_cells_per_dim ** 3

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

    def test_worker_cap_raises_partition_count(self):
        # Dense skylines use one partition per executor/worker, so the
        # backend's pool size directly raises the partition count.
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02))
        few = decide(session, max_workers=None)
        many = decide(session, max_workers=16)
        assert few.num_partitions == 4
        assert many.num_partitions == 16

    def test_grid_partition_count_respects_hard_cap(self):
        from repro.plan.cost import MAX_ADAPTIVE_PARTITIONS
        session = make_session(
            anticorrelated_rows(20_000, 6, spread=0.35, seed=5),
            n_dims=6)
        sql = ("SELECT id FROM pts SKYLINE OF "
               + ", ".join(f"d{i} MIN" for i in range(6)))
        decision = decide(session, sql)
        if decision.num_partitions is not None:
            assert decision.num_partitions <= MAX_ADAPTIVE_PARTITIONS

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
        model = CostModel(session.catalog, num_executors=4)
        decision = model.decide(node)
        assert decision.estimated_rows == SMALL_INPUT_ROWS + 200

    def test_local_relation_without_catalog(self):
        session = connect(num_executors=4)
        df = session.create_dataframe(
            [(float(i), float(i)) for i in range(50)], ["a", "b"])
        plan = session.analyze(
            df.skyline_of([("a", "min"), ("b", "min")]).plan)
        node = next(n for n in plan.iter_tree()
                    if isinstance(n, L.SkylineOperator))
        decision = CostModel(None, num_executors=4).decide(node)
        assert decision.algorithm == "non-distributed-complete"
        assert decision.estimated_rows == 50


class TestExplainReportsDecision:
    def test_adaptive_explain_contains_full_decision(self):
        # Scalar kernels: the dense anticorrelated class picks SFS with
        # an angle repartition (vectorized kernels shift both choices,
        # covered by TestVectorizedCostModel).
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02),
                               adaptive=True, vectorized=False)
        text = session.explain(parse_query(SQL3))
        assert "== Skyline Strategy ==" in text
        assert "algorithm    = sfs" in text
        assert "partitioning = angle" in text
        assert "partitions   = 4" in text
        assert "sampled skyline density" in text
        assert "pts: 2000 rows" in text

    def test_forced_strategy_explain_reports_configuration(self):
        session = make_session(correlated_rows(600, 3),
                               skyline_algorithm="sfs",
                               skyline_partitioning="grid")
        text = session.explain(parse_query(SQL3))
        assert "algorithm    = sfs" in text
        assert "partitioning = grid" in text
        assert "forced by session configuration" in text

    def test_auto_selection_is_not_labelled_forced(self):
        session = make_session(correlated_rows(600, 3))  # auto default
        text = session.explain(parse_query(SQL3))
        assert "algorithm    = distributed-complete" in text
        assert "Listing 8" in text
        algorithm_line = next(l for l in text.splitlines()
                              if l.startswith("algorithm"))
        assert "forced" not in algorithm_line

    def test_physical_plan_shows_repartition(self):
        session = make_session(correlated_rows(600, 3),
                               skyline_algorithm="distributed-complete",
                               skyline_partitioning="angle",
                               skyline_partitions=3)
        text = session.explain(parse_query(SQL3))
        assert "SkylineRepartition(angle, 3 partitions)" in text


class TestVectorizedCostModel:
    """The vectorized kernels shift the cost model's crossovers."""

    def test_vectorized_raises_the_sfs_crossover(self):
        # Density ~0.3 sits between the scalar (0.25) and vectorized
        # (0.5) crossover: scalar picks SFS, vectorized keeps BNL.
        session = make_session(anticorrelated_rows(2000, 3, spread=0.12))
        node = skyline_node(session, SQL3)
        scalar = CostModel(session.catalog, num_executors=4).decide(node)
        vector = CostModel(session.catalog, num_executors=4,
                           vectorized=True).decide(node)
        density = scalar.skyline_density
        assert density is not None and 0.25 <= density < 0.5, density
        assert scalar.algorithm == "sfs"
        assert vector.algorithm == "distributed-complete"
        assert "vectorized" in vector.algorithm_reason

    def test_vectorized_raises_the_repartition_break_even(self):
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02))
        node = skyline_node(session, SQL3)
        scalar = CostModel(session.catalog, num_executors=4).decide(node)
        vector = CostModel(session.catalog, num_executors=4,
                           vectorized=True).decide(node)
        assert scalar.partitioning == "angle"
        assert vector.partitioning == "keep"

    def test_planner_threads_the_session_flag(self):
        from repro.core.vectorized import numpy_available
        if not numpy_available():
            pytest.skip("NumPy not available")
        rows = anticorrelated_rows(2000, 3, spread=0.02)
        forced = make_session(rows, adaptive=True, vectorized=False)
        text = forced.explain(parse_query(SQL3))
        assert "partitioning = angle" in text
        auto = make_session(rows, adaptive=True, vectorized=True)
        text = auto.explain(parse_query(SQL3))
        assert "partitioning = keep" in text
        assert "vectorized" in text


class TestGridPruningWithDiffDimensions:
    def test_grid_keeps_rows_dominated_only_across_diff_groups(self):
        # Regression: cell-dominance pruning ignores DIFF dimensions,
        # so a lone "blue" row in a cell dominated by "red"-only cells
        # must NOT be dropped -- DIFF dominance requires equal colour.
        from repro.engine.types import STRING
        rows = [(i, "red", 0.1 + i * 0.01, 0.1 + i * 0.01)
                for i in range(20)] + [(99, "blue", 10.0, 10.0)]
        session = connect(num_executors=4)
        session.create_table(
            "items",
            [("id", INTEGER, False), ("color", STRING, False),
             ("price", DOUBLE, False), ("weight", DOUBLE, False)],
            rows)
        sql = ("SELECT * FROM items "
               "SKYLINE OF price MIN, weight MIN, color DIFF")
        baseline = sorted(session.sql(sql).to_tuples())
        grid = session.with_options(skyline_partitioning="grid")
        assert sorted(grid.sql(sql).to_tuples()) == baseline
        assert any(row[1] == "blue" for row in baseline)


class TestExplainReportsAppliedChoices:
    def test_cost_based_explain_does_not_claim_unapplied_scheme(self):
        # cost-based selects the algorithm only; EXPLAIN must not
        # report the model's partitioning proposal as if it ran.
        # (vectorized=False so the model proposes a scheme at all --
        # the vectorized break-even keeps the child partitioning here.)
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02),
                               skyline_algorithm="cost-based",
                               vectorized=False)
        text = session.explain(parse_query(SQL3))
        assert "SkylineRepartition" not in text
        assert "partitioning = keep" in text
        assert "cost-based selects the algorithm only" in text

    def test_adaptive_with_forced_scheme_reports_the_forced_one(self):
        session = make_session(anticorrelated_rows(2000, 3, spread=0.02),
                               adaptive=True,
                               skyline_partitioning="random",
                               skyline_partitions=2)
        text = session.explain(parse_query(SQL3))
        assert "partitioning = random" in text
        assert "SkylineRepartition(random, 2 partitions)" in text
        assert "forced by session configuration" in text


class TestSessionConfiguration:
    def test_adaptive_flag_sets_algorithm(self):
        session = connect(adaptive=True)
        assert session.adaptive
        assert session.skyline_algorithm == "adaptive"

    def test_adaptive_conflicts_with_forced_algorithm(self):
        with pytest.raises(ValueError):
            connect(adaptive=True, skyline_algorithm="sfs")

    def test_unknown_partitioning_rejected(self):
        with pytest.raises(ValueError):
            connect(skyline_partitioning="hilbert")

    def test_with_skyline_partitioning_clone(self):
        session = make_session(correlated_rows(100, 3))
        clone = session.with_options(skyline_partitioning="grid", skyline_partitions=9)
        assert clone.skyline_partitioning == "grid"
        assert clone.skyline_partitions == 9
        assert session.skyline_partitioning == "keep"
        assert clone.catalog is session.catalog

    def test_clones_preserve_partitioning(self):
        session = connect(skyline_partitioning="angle",
                          skyline_partitions=5)
        clone = session.with_options(num_executors=8)
        assert clone.skyline_partitioning == "angle"
        assert clone.skyline_partitions == 5


DIMS = make_dimensions([(1, "min"), (2, "min"), (3, "min")])

FIXED_COMBOS = [
    (algorithm, scheme)
    for algorithm in ("distributed-complete", "sfs")
    for scheme in PARTITIONING_SCHEMES
] + [("non-distributed-complete", "keep"),
     ("distributed-incomplete", "keep")]


class TestAdaptiveMatchesFixedCombinations:
    """Adaptive plans return the identical skyline as every fixed
    (algorithm x partitioning) combination."""

    @pytest.mark.parametrize("generator,kwargs", [
        (correlated_rows, {"spread": 0.1}),
        (anticorrelated_rows, {"spread": 0.05}),
        (independent_rows, {}),
    ])
    def test_on_canonical_distributions(self, generator, kwargs):
        rows = generator(700, 3, seed=11, **kwargs)
        session = make_session(rows, adaptive=True)
        expected = sorted(session.sql(SQL3).to_tuples())
        oracle = skyline_oracle(
            [(i,) + tuple(r) for i, r in enumerate(rows)], DIMS)
        assert expected == sorted((row[0],) for row in oracle)
        for algorithm, scheme in FIXED_COMBOS:
            forced = session.with_options(skyline_algorithm=algorithm).with_options(skyline_partitioning=scheme)
            assert sorted(forced.sql(SQL3).to_tuples()) == expected, (
                f"{algorithm}/{scheme} disagrees with adaptive")

    values = st.integers(0, 5)
    rows_strategy = st.lists(st.tuples(values, values, values),
                             min_size=0, max_size=30)

    @given(rows_strategy, st.sampled_from(FIXED_COMBOS))
    @settings(max_examples=40, deadline=None)
    def test_property_adaptive_equals_fixed(self, rows, combo):
        algorithm, scheme = combo
        data = [(i,) + tuple(r) for i, r in enumerate(rows)]
        adaptive = connect(num_executors=3, adaptive=True)
        forced = connect(num_executors=3,
                         skyline_algorithm=algorithm,
                         skyline_partitioning=scheme,
                         skyline_partitions=3)
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
