"""Physical planning: join strategies and Listing 8 algorithm selection."""

import dataclasses
import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.config import SessionConfig
from repro.api.session import SkylineSession, connect
from repro.core import make_dimensions
from repro.datasets import (anticorrelated_rows, correlated_rows,
                            independent_rows)
from repro.engine.types import DOUBLE, INTEGER, STRING
from repro.errors import PlanningError
from repro.plan import physical as P
from repro.plan.planner import SKYLINE_STRATEGIES, Planner
from repro.sql.parser import parse_query
from tests.conftest import ROW_LAYOUTS, lay_out, skyline_oracle


@pytest.fixture
def session():
    session = connect(num_executors=2)
    session.create_table(
        "pts",
        [("id", INTEGER, False), ("x", DOUBLE, False),
         ("y", DOUBLE, True)],
        [(1, 1.0, 2.0), (2, 2.0, 1.0), (3, 3.0, None)])
    session.create_table(
        "tags",
        [("id", INTEGER, False), ("tag", STRING, False)],
        [(1, "a"), (2, "b")])
    return session


def physical_plan(session, sql, strategy="auto"):
    analyzed = session.analyze(parse_query(sql))
    optimized = session.optimize(analyzed)
    return Planner(strategy).plan(optimized)


def find_exec(plan, node_type):
    return [n for n in plan.iter_tree() if isinstance(n, node_type)]


class TestBasicLowering:
    def test_scan_filter_project(self, session):
        plan = physical_plan(
            session, "SELECT x FROM pts WHERE x > 1")
        assert find_exec(plan, P.ScanExec)
        assert find_exec(plan, P.FilterExec)
        assert find_exec(plan, P.ProjectExec)

    def test_sort_limit_distinct(self, session):
        plan = physical_plan(
            session, "SELECT DISTINCT x FROM pts ORDER BY x LIMIT 2")
        assert find_exec(plan, P.SortExec)
        assert find_exec(plan, P.LimitExec)
        assert find_exec(plan, P.DistinctExec)

    def test_explain_tags_the_sort_with_its_plane(self, session):
        # The sort runs on rows on either plane, like the project above
        # it that drops the sort key.
        text = session.explain(parse_query(
            "SELECT x FROM pts ORDER BY y"))
        physical = text.split("== Physical Plan ==\n")[1].splitlines()
        assert physical[0].endswith("Project [row]")
        assert physical[1].endswith("SortExec [row]")
        assert physical[2].endswith("Project [batch]")

    def test_aggregate(self, session):
        plan = physical_plan(
            session, "SELECT id, sum(x) AS s FROM pts GROUP BY id")
        assert find_exec(plan, P.HashAggregateExec)


class TestJoinStrategy:
    def test_equi_join_uses_hash_join(self, session):
        plan = physical_plan(
            session,
            "SELECT x FROM pts JOIN tags ON pts.id = tags.id")
        assert find_exec(plan, P.HashJoinExec)
        assert not find_exec(plan, P.BroadcastNestedLoopJoinExec)

    def test_non_equi_join_uses_nested_loop(self, session):
        plan = physical_plan(
            session,
            "SELECT x FROM pts p JOIN tags t ON p.id < t.id")
        assert find_exec(plan, P.BroadcastNestedLoopJoinExec)

    def test_explain_tags_the_nested_loop_join_with_its_plane(self, session):
        text = session.explain(parse_query(
            "SELECT x FROM pts p JOIN tags t ON p.id < t.id"))
        physical = text.split("== Physical Plan ==\n")[1]
        assert "BroadcastNestedLoopJoin(inner) [row]" in physical

    def test_reference_query_plans_anti_nested_loop(self, session):
        plan = physical_plan(session, """
            SELECT x, y FROM pts AS o WHERE NOT EXISTS(
                SELECT * FROM pts AS i WHERE i.x < o.x AND i.y < o.y)
        """)
        loops = find_exec(plan, P.BroadcastNestedLoopJoinExec)
        assert loops and loops[0].join_type == "left_anti"


def skyline_modes(plan):
    """(local mode, global mode) of a plan's skyline operators."""
    local = find_exec(plan, P.SkylineLocalExec)
    global_ = find_exec(plan, P.SkylineGlobalExec)
    assert len(global_) == 1 and len(local) <= 1
    return (local[0].mode if local else None, global_[0].mode)


#: ``EXPLAIN``'s physical-plan section per strategy, with ``{v}`` the
#: kernel prefix and ``{m}`` the skyline operators' exec mode.  Golden:
#: operator names, algorithm labels, tags and the ``*(N)`` stage marks
#: are a stable surface -- operators sharing a number run in one stage
#: (the scan/project chain inside the local tasks, or as one fused map
#: stage where the consumer needs every row first).
GOLDEN_PLANS = {
    "distributed-complete":
        "*(2) SkylineGlobalComplete({v}BNL, [pts.id MIN, pts.x MIN]) [{m}]\n"
        "  *(1) SkylineLocal({v}BNL, [pts.id MIN, pts.x MIN]) [{m}]\n"
        "    *(1) Project [batch]\n"
        "      *(1) Scan(pts, 3 rows) [batch]\n",
    "non-distributed-complete":
        "*(2) SkylineGlobalComplete({v}BNL, [pts.id MIN, pts.x MIN]) [{m}]\n"
        "  *(1) Project [batch]\n"
        "    *(1) Scan(pts, 3 rows) [batch]\n",
    "distributed-incomplete":
        "*(3) SkylineGlobalIncomplete({v}all-pairs flagged, "
        "[pts.id MIN, pts.x MIN]) [{m}]\n"
        "  *(2) SkylineLocalIncomplete({v}bitmap-partitioned BNL, "
        "[pts.id MIN, pts.x MIN]) [{m}]\n"
        "    *(1) Project [batch]\n"
        "      *(1) Scan(pts, 3 rows) [batch]\n",
    "sfs":
        "*(2) SkylineGlobalSFS({v}SFS, [pts.id MIN, pts.x MIN]) [{m}]\n"
        "  *(1) SkylineLocalSFS({v}SFS, [pts.id MIN, pts.x MIN]) [{m}]\n"
        "    *(1) Project [batch]\n"
        "      *(1) Scan(pts, 3 rows) [batch]\n",
}


class TestListing8AlgorithmSelection:
    SQL_NULLABLE = "SELECT x, y FROM pts SKYLINE OF x MIN, y MAX"
    SQL_COMPLETE_KW = \
        "SELECT x, y FROM pts SKYLINE OF COMPLETE x MIN, y MAX"
    SQL_NON_NULLABLE = "SELECT id, x FROM pts SKYLINE OF id MIN, x MIN"

    @pytest.mark.parametrize("sql, strategy, modes", [
        # Listing 8: nullable dimensions need the incomplete pair ...
        (SQL_NULLABLE, "auto", ("bitmap-local", "flagged")),
        # ... unless COMPLETE is set or no dimension is nullable.
        (SQL_COMPLETE_KW, "auto", ("complete", "complete")),
        (SQL_NON_NULLABLE, "auto", ("complete", "complete")),
        (SQL_COMPLETE_KW, "distributed-complete",
         ("complete", "complete")),
        (SQL_COMPLETE_KW, "non-distributed-complete", (None, "complete")),
        (SQL_NON_NULLABLE, "distributed-incomplete",
         ("bitmap-local", "flagged")),
        (SQL_COMPLETE_KW, "sfs", ("sfs", "sfs")),
    ])
    def test_strategy_selects_operator_modes(self, session, sql, strategy,
                                             modes):
        assert skyline_modes(physical_plan(session, sql, strategy)) == modes

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("strategy", list(GOLDEN_PLANS))
    def test_explain_is_golden(self, session, strategy, vectorized):
        forced = session.with_options(skyline_algorithm=strategy,
                                      vectorized=vectorized, columnar=True)
        text = forced.explain(forced.sql(self.SQL_NON_NULLABLE).plan)
        physical = text.split("== Physical Plan ==\n")[1] \
            .split("== Skyline Strategy ==")[0]
        assert physical == GOLDEN_PLANS[strategy].format(
            v="vectorized " if vectorized else "",
            m="batch" if vectorized else "row")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PlanningError):
            Planner("turbo")

    def test_global_node_has_local_child(self, session):
        plan = physical_plan(session, self.SQL_COMPLETE_KW)
        global_node = find_exec(plan, P.SkylineGlobalExec)[0]
        assert isinstance(global_node.children[0], P.SkylineLocalExec)


class TestExecutionSemantics:
    def test_skyline_results_identical_across_strategies(self, session):
        rows = {}
        for strategy in ("distributed-complete",
                         "non-distributed-complete",
                         "distributed-incomplete", "sfs"):
            forced = session.with_options(skyline_algorithm=strategy)
            result = forced.sql(
                "SELECT id, x FROM pts SKYLINE OF id MIN, x MIN")
            rows[strategy] = sorted(result.to_tuples())
        assert len({tuple(v) for v in rows.values()}) == 1

    def test_local_stage_parallelizable_global_not(self, session):
        result = session.sql(
            "SELECT id, x FROM pts SKYLINE OF id MIN, x MIN").run()
        stages = {s.name: s for s in result.context.stages}
        local = [s for name, s in stages.items()
                 if name.startswith("SkylineLocalExec")]
        global_ = [s for name, s in stages.items()
                   if name.startswith("SkylineGlobalExec")]
        assert local and local[0].parallelizable
        assert global_ and not global_[0].parallelizable

    @pytest.mark.parametrize("num_executors", [2, 5, 10])
    @pytest.mark.parametrize("layout", ROW_LAYOUTS)
    @pytest.mark.parametrize("strategy", list(GOLDEN_PLANS))
    def test_global_phase_is_one_task(self, strategy, layout,
                                      num_executors):
        # Enough rows and local skylines that a multi-round global
        # phase would have been worth planning: there is none, however
        # the rows fall into the scan's partitions.
        session = connect(num_executors=num_executors,
                          skyline_algorithm=strategy)
        session.create_table(
            "big", [("id", INTEGER, False), ("x", DOUBLE, False)],
            lay_out([(i, float((i * 37) % 2500)) for i in range(2500)],
                    layout))
        result = session.sql(
            "SELECT id, x FROM big SKYLINE OF id MIN, x MIN").run()
        global_ = [s for s in result.context.stages
                   if s.name.startswith("SkylineGlobal")]
        assert len(global_) == 1
        assert len(global_[0].tasks) == 1
        assert not global_[0].parallelizable
        assert result.global_merge is None

    def test_incomplete_local_partitions_by_bitmap(self, session):
        result = session.with_options(
            skyline_algorithm="distributed-incomplete").sql(
            "SELECT x, y FROM pts SKYLINE OF x MIN, y MAX").run()
        stages = [s for s in result.context.stages
                  if s.name.startswith("SkylineLocalExec")]
        # Two bitmap groups (y null vs y present), each whole in one of
        # min(num_executors, 2) tasks.
        assert stages and len(stages[0].tasks) == \
            min(session.cluster_config.num_executors, 2)

    def test_scalar_subquery_executes_once(self, session):
        result = session.sql(
            "SELECT id FROM pts WHERE x = (SELECT min(x) AS m FROM pts)")
        assert result.to_tuples() == [(1,)]


class TestGlobalMergeOption:
    """``global_merge`` is a validated name with one behaviour."""

    def test_removed_strategy_and_fan_in_rejected(self):
        with pytest.raises(ValueError, match="removed"):
            SessionConfig(global_merge="hierarchical")
        with pytest.raises(ValueError, match="global_merge"):
            SessionConfig(global_merge="tournament")
        with pytest.raises(TypeError, match="merge_fan_in"):
            SessionConfig(merge_fan_in=2)
        with pytest.raises(TypeError, match="merge_fan_in"):
            connect(merge_fan_in=2)

    def test_both_names_plan_identically(self):
        # Equal plan-cache keys: one session's plan serves the other.
        assert connect(global_merge="auto")._plan_key("SELECT 1") == \
            connect(global_merge="flat")._plan_key("SELECT 1")


class TestExecutionOption:
    """``execution`` is a validated name with one behaviour: there is
    one executor, and the pipelined one it used to select is gone."""

    def test_removed_mode_and_budget_rejected(self):
        with pytest.raises(ValueError, match=r"removed \(PR 18"):
            SessionConfig(execution="pipelined")
        with pytest.raises(ValueError, match="execution"):
            SessionConfig(execution="vectorised")
        with pytest.raises(TypeError, match="operator_memory_mb"):
            SessionConfig(operator_memory_mb=64.0)
        with pytest.raises(TypeError, match="operator_memory_mb"):
            connect(operator_memory_mb=64.0)
        with pytest.raises(TypeError):
            Planner(execution="staged")

    def test_both_names_plan_and_run_identically(self, session):
        assert len(dataclasses.fields(SessionConfig)) == 14
        sql = "SELECT id, x FROM pts WHERE id > 0 SKYLINE OF id MIN, x MIN"
        assert connect(execution="auto")._plan_key(sql) == \
            connect(execution="staged")._plan_key(sql)
        plans, stages = set(), set()
        for execution in ("auto", "staged"):
            forced = session.with_options(execution=execution)
            plans.add(forced.explain(forced.sql(sql).plan))
            result = forced.sql(sql).run()
            stages.add(tuple(s.name.split("-")[0]
                             for s in result.context.stages))
            assert result.pipeline is None
            assert result.time_to_first_batch_s >= 0.0
        assert len(plans) == 1
        assert stages == {("SkylineLocalExec", "SkylineGlobalExec")}


def test_adaptive_option_is_gone():
    """The statistics-driven planner was removed: Listing 8's rule is
    the one planner, and the forced strategies stay."""
    with pytest.raises(ValueError, match="'adaptive' was removed"):
        SessionConfig(skyline_algorithm="adaptive")
    with pytest.raises(ValueError, match="'adaptive' was removed"):
        connect(skyline_algorithm="adaptive")
    with pytest.raises(TypeError, match="unknown session option"):
        connect(**{"adaptive": True})
    with pytest.raises(ValueError, match="unknown skyline_algorithm"):
        connect(skyline_algorithm="cost-based")
    with pytest.raises(PlanningError):
        Planner("adaptive")
    assert len(SKYLINE_STRATEGIES) == 5
    assert len(dataclasses.fields(SessionConfig)) == 14
    assert not hasattr(SkylineSession, "adaptive")
    with pytest.raises(ImportError):
        importlib.import_module("repro.plan.cost")


@pytest.mark.parametrize("option,error,message", [
    ({"skyline_algorithm": "adaptive"}, ValueError, "'adaptive' was removed"),
    ({"adaptive": True}, TypeError, "unknown session option"),
], ids=("strategy", "flag"))
def test_with_options_refuses_the_removed_planner(option, error, message):
    # A derived session goes through the same check as ``connect``.
    session = connect(skyline_algorithm="sfs")
    with pytest.raises(error, match=message):
        session.with_options(**option)
    assert session.skyline_algorithm == "sfs"


SQL3 = "SELECT id FROM pts SKYLINE OF d0 MIN, d1 MIN, d2 MIN"


def points_session(rows, nullable=False, **options):
    session = connect(num_executors=4, **options)
    session.create_table(
        "pts", [("id", INTEGER, False)] + [
            (f"d{i}", DOUBLE, nullable) for i in range(3)],
        [(i,) + tuple(r) for i, r in enumerate(rows)])
    return session


class TestPartitionsLine:
    """EXPLAIN's ``partitions =`` line names what the local stage runs
    on, and the run agrees: the scan's partitions, no local stage (one
    global task), or whole null-bitmap groups packed into at most
    ``num_executors`` tasks."""

    @pytest.mark.parametrize("num_executors", (1, 2, 5, 8))
    @pytest.mark.parametrize("algorithm,line", [
        ("distributed-complete", "inherited"),
        ("sfs", "inherited"),
        ("non-distributed-complete", "1"),
        ("distributed-incomplete", "bitmap-packed"),
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
                          "bitmap-packed": min(num_executors, 2)}[line]
        if expected_tasks is None:
            assert not local
        else:
            assert len(local) == 1
            assert len(local[0].tasks) == expected_tasks


class TestExplainReportsDecision:
    def test_forced_strategy_explain_reports_configuration(self):
        session = points_session(correlated_rows(600, 3),
                                 skyline_algorithm="sfs")
        text = session.explain(parse_query(SQL3))
        assert "algorithm    = sfs" in text
        assert "forced by session configuration" in text

    def test_auto_selection_is_not_labelled_forced(self):
        session = points_session(correlated_rows(600, 3))  # auto default
        text = session.explain(parse_query(SQL3))
        assert "algorithm    = distributed-complete" in text
        assert "Listing 8" in text
        algorithm_line = next(line for line in text.splitlines()
                              if line.startswith("algorithm"))
        assert "forced" not in algorithm_line


class TestDiffDimensions:
    @pytest.mark.parametrize("algorithm", [
        "distributed-complete", "non-distributed-complete", "sfs",
        "distributed-incomplete", "auto"])
    def test_rows_dominated_only_across_diff_groups_survive(self,
                                                           algorithm):
        # DIFF dominance requires equal colour: a lone "blue" row that
        # every "red" row beats on price and weight stays.
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


#: Every strategy a session can force (all but ``auto``).
FORCED_STRATEGIES = [s for s in SKYLINE_STRATEGIES if s != "auto"]


class TestListing8Rule:
    """``auto`` is Listing 8 and nothing else: the complete algorithm
    when ``COMPLETE`` is given or no MIN/MAX dimension is nullable, the
    incomplete one otherwise -- whatever the DIFF dimensions or the
    kernel family -- and the run agrees with the oracle of the chosen
    semantics."""

    @pytest.mark.parametrize("vectorized", (False, True))
    @pytest.mark.parametrize("diff", (False, True), ids=("no-diff", "diff"))
    @pytest.mark.parametrize("nullable", (False, True),
                             ids=("not-nullable", "nullable"))
    @pytest.mark.parametrize("keyword", (False, True),
                             ids=("no-keyword", "complete-keyword"))
    def test_auto_follows_listing_8(self, keyword, nullable, diff,
                                    vectorized):
        complete = keyword or not nullable
        expected = ("distributed-complete" if complete
                    else "distributed-incomplete")
        # NULLs only where the incomplete algorithm runs: COMPLETE
        # asserts there are none.
        rows = [(i, ("red", "blue")[i % 2]) + tuple(
                    None if not complete and d == 1 and i % 5 == 0 else v
                    for d, v in enumerate(r))
                for i, r in enumerate(independent_rows(240, 3, seed=9))]
        session = connect(num_executors=3, vectorized=vectorized)
        session.create_table(
            "pts", [("id", INTEGER, False), ("g", STRING, False)] + [
                (f"d{i}", DOUBLE, nullable) for i in range(3)], rows)
        sql = ("SELECT id FROM pts SKYLINE OF "
               + ("COMPLETE " if keyword else "")
               + "d0 MIN, d1 MIN, d2 MAX" + (", g DIFF" if diff else ""))
        text = session.explain(parse_query(sql))
        algorithm_line = next(line for line in text.splitlines()
                              if line.startswith("algorithm"))
        assert algorithm_line.split()[2] == expected
        assert "Listing 8" in algorithm_line
        dims = make_dimensions([(2, "min"), (3, "min"), (4, "max")]
                               + ([(1, "diff")] if diff else []))
        oracle = skyline_oracle(rows, dims, complete=complete)
        assert sorted(session.sql(sql).to_tuples()) == \
            sorted((row[0],) for row in oracle)

    def test_nullable_dimensions_pack_bitmaps_into_local_tasks(self):
        rows = [(i,) + tuple(None if d == 2 and i % 3 == 0 else v
                             for d, v in enumerate(r))
                for i, r in enumerate(correlated_rows(600, 3))]
        session = connect(num_executors=4)
        session.create_table(
            "pts", [("id", INTEGER, False)] + [
                (f"d{i}", DOUBLE, True) for i in range(3)], rows)
        text = session.explain(parse_query(SQL3))
        assert "algorithm    = distributed-incomplete" in text
        assert "partitions   = bitmap-packed" in text
        # Two bitmap groups on four executors: one task each.
        local = [s for s in session.sql(SQL3).run().context.stages
                 if s.name.startswith("SkylineLocalExec")]
        assert len(local) == 1 and len(local[0].tasks) == 2
        three = [(i,) + tuple(None if d == i % 3 and i % 2 else v
                              for d, v in enumerate(r))
                 for i, r in enumerate(correlated_rows(600, 3))]
        session.create_table(
            "three", [("id", INTEGER, False)] + [
                (f"d{i}", DOUBLE, True) for i in range(3)], three)
        # Four bitmap groups on four executors, then on two: whole
        # groups, at most one task per executor.
        for executors in (4, 2):
            run = session.with_options(num_executors=executors).sql(
                SQL3.replace("pts", "three")).run()
            local = [s for s in run.context.stages
                     if s.name.startswith("SkylineLocalExec")]
            assert len(local) == 1 and len(local[0].tasks) == executors
            assert sorted(run.as_tuples()) == sorted(
                (row[0],) for row in skyline_oracle(
                    three, make_dimensions([(1, "min"), (2, "min"),
                                            (3, "min")]),
                    complete=False))

    def test_nan_values_plan_and_run_like_every_forced_strategy(self):
        rows = [(float("nan"), 1.0, 2.0)] + \
            [(float(i), float(i), float(600 - i)) for i in range(600)]
        session = points_session(rows)
        expected = sorted(session.sql(SQL3).to_tuples())
        assert expected
        for algorithm in FORCED_STRATEGIES:
            forced = session.with_options(skyline_algorithm=algorithm)
            assert sorted(forced.sql(SQL3).to_tuples()) == expected, \
                algorithm


class TestAutoMatchesForcedStrategies:
    """``auto`` returns the identical skyline as every forced strategy,
    and both equal the oracle."""

    @pytest.mark.parametrize("vectorized", (False, True))
    @pytest.mark.parametrize("generator,kwargs", [
        (correlated_rows, {"spread": 0.1}),
        (anticorrelated_rows, {"spread": 0.05}),
        (independent_rows, {}),
    ], ids=("correlated", "anticorrelated", "independent"))
    def test_on_canonical_distributions(self, generator, kwargs,
                                        vectorized):
        rows = generator(700, 3, seed=11, **kwargs)
        session = points_session(rows, vectorized=vectorized)
        expected = sorted(session.sql(SQL3).to_tuples())
        oracle = skyline_oracle(
            [(i,) + tuple(r) for i, r in enumerate(rows)],
            make_dimensions([(1, "min"), (2, "min"), (3, "min")]))
        assert expected == sorted((row[0],) for row in oracle)
        for algorithm in FORCED_STRATEGIES:
            forced = session.with_options(skyline_algorithm=algorithm)
            assert sorted(forced.sql(SQL3).to_tuples()) == expected, (
                f"{algorithm} disagrees with auto")

    values = st.integers(0, 5)
    rows_strategy = st.lists(st.tuples(values, values, values),
                             min_size=0, max_size=30)

    @given(rows_strategy, st.sampled_from(FORCED_STRATEGIES))
    @settings(max_examples=40, deadline=None)
    def test_property_auto_equals_forced(self, rows, algorithm):
        data = [(i,) + tuple(r) for i, r in enumerate(rows)]
        sql = "SELECT * FROM pts SKYLINE OF d0 MIN, d1 MAX, d2 MIN"
        oracle = skyline_oracle(
            data, make_dimensions([(1, "min"), (2, "max"), (3, "min")]))
        for options in ({}, {"skyline_algorithm": algorithm}):
            session = connect(num_executors=3, **options)
            session.create_table(
                "pts",
                [("id", INTEGER, False)] + [
                    (f"d{i}", INTEGER, False) for i in range(3)],
                data)
            assert sorted(session.sql(sql).to_tuples()) == sorted(oracle)
