"""Physical planning: join strategies and Listing 8 algorithm selection."""

import pytest

from repro.api.config import SessionConfig
from repro.api.session import connect
from repro.engine.types import DOUBLE, INTEGER, STRING
from repro.errors import PlanningError
from repro.plan import physical as P
from repro.plan.planner import Planner
from repro.sql.parser import parse_query
from tests.conftest import ROW_LAYOUTS, lay_out


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
        # Two bitmap groups: y null vs y present.
        assert stages and len(stages[0].tasks) == 2

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
        assert SessionConfig(global_merge="auto").fingerprint() == \
            SessionConfig(global_merge="flat").fingerprint()


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
        import dataclasses
        assert len(dataclasses.fields(SessionConfig)) == 15
        assert SessionConfig(execution="auto").fingerprint() == \
            SessionConfig(execution="staged").fingerprint()
        sql = "SELECT id, x FROM pts WHERE id > 0 SKYLINE OF id MIN, x MIN"
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
