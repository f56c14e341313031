"""Optimizer rules, including the skyline rules of Section 5.4."""

import pytest

from repro.engine import expressions as E
from repro.engine.catalog import Catalog, ForeignKey
from repro.engine.row import Field, Schema
from repro.engine.types import DOUBLE, INTEGER, STRING
from repro.plan import logical as L
from repro.plan.analyzer import Analyzer
from repro.plan.optimizer import Optimizer
from repro.sql.parser import parse_query


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.create_table(
        "hotels",
        Schema([Field("name", STRING, False),
                Field("price", DOUBLE, False),
                Field("rating", DOUBLE, True),
                Field("city_id", INTEGER, False)]),
        [("A", 100.0, 4.0, 1)],
        primary_key=("name",),
        foreign_keys=[ForeignKey(("city_id",), "cities", ("id",))])
    catalog.create_table(
        "cities",
        Schema([Field("id", INTEGER, False),
                Field("city_name", STRING, False)]),
        [(1, "Vienna")],
        primary_key=("id",))
    return catalog


@pytest.fixture
def pipeline(catalog):
    analyzer = Analyzer(catalog)
    optimizer = Optimizer(catalog)

    def run(sql):
        return optimizer.optimize(analyzer.analyze(parse_query(sql)))

    return run


def find_all(plan, node_type):
    return [n for n in plan.iter_tree() if isinstance(n, node_type)]


class TestGenericRules:
    def test_subquery_aliases_eliminated(self, pipeline):
        plan = pipeline("SELECT name FROM hotels h")
        assert not find_all(plan, L.SubqueryAlias)

    def test_constant_folding(self, pipeline):
        plan = pipeline("SELECT name FROM hotels WHERE price < 10 * 10")
        filters = find_all(plan, L.Filter)
        literals = [e for f in filters
                    for e in f.condition.iter_tree()
                    if isinstance(e, E.Literal)]
        assert any(lit.value == 100 for lit in literals)

    def test_always_true_filter_pruned(self, pipeline):
        plan = pipeline("SELECT name FROM hotels WHERE 1 < 2")
        assert not find_all(plan, L.Filter)

    def test_filters_combined(self, pipeline):
        # Filter over Filter collapses into one conjunction.
        plan = pipeline(
            "SELECT * FROM (SELECT * FROM hotels WHERE price > 1) t "
            "WHERE rating > 2")
        assert len(find_all(plan, L.Filter)) == 1

    def test_projects_collapsed(self, pipeline):
        plan = pipeline(
            "SELECT name FROM (SELECT name, price FROM hotels) t")
        assert len(find_all(plan, L.Project)) == 1

    def test_predicate_pushed_into_join_side(self, pipeline):
        plan = pipeline(
            "SELECT h.name FROM hotels h JOIN cities c "
            "ON h.city_id = c.id WHERE h.price > 10 AND c.city_name = 'V'")
        join = find_all(plan, L.Join)[0]
        # Both conjuncts moved below the join.
        assert isinstance(join.left, L.Filter) or \
            isinstance(join.left, L.LogicalRelation)
        left_filters = find_all(join.left, L.Filter)
        right_filters = find_all(join.right, L.Filter)
        assert left_filters and right_filters

    def test_boolean_simplification(self, pipeline):
        plan = pipeline("SELECT name FROM hotels WHERE price > 5 AND TRUE")
        condition = find_all(plan, L.Filter)[0].condition
        assert isinstance(condition, E.GreaterThan)


class TestExistsRewrite:
    def test_not_exists_becomes_anti_join(self, pipeline):
        plan = pipeline("""
            SELECT name FROM hotels AS o WHERE NOT EXISTS(
                SELECT * FROM hotels AS i WHERE i.price < o.price)
        """)
        joins = find_all(plan, L.Join)
        assert joins and joins[0].join_type == L.JoinType.LEFT_ANTI
        assert joins[0].condition is not None
        assert not E.contains_outer_reference(joins[0].condition)

    def test_exists_becomes_semi_join(self, pipeline):
        plan = pipeline("""
            SELECT name FROM hotels AS o WHERE EXISTS(
                SELECT * FROM hotels AS i WHERE i.price < o.price)
        """)
        joins = find_all(plan, L.Join)
        assert joins and joins[0].join_type == L.JoinType.LEFT_SEMI

    def test_remaining_conjuncts_stay_as_filter(self, pipeline):
        plan = pipeline("""
            SELECT name FROM hotels AS o WHERE o.price > 1 AND NOT EXISTS(
                SELECT * FROM hotels AS i WHERE i.price < o.price)
        """)
        joins = find_all(plan, L.Join)
        assert joins and joins[0].join_type == L.JoinType.LEFT_ANTI
        # price > 1 is still applied (pushed down or above the join).
        filters = find_all(plan, L.Filter)
        assert filters


class TestSingleDimensionSkyline:
    def test_min_dimension_rewritten_to_scalar_subquery(self, pipeline):
        plan = pipeline("SELECT name FROM hotels SKYLINE OF price MIN")
        assert not find_all(plan, L.SkylineOperator)
        subqueries = [e for node in plan.iter_tree()
                      for x in node.expressions()
                      for e in x.iter_tree()
                      if isinstance(e, E.ScalarSubquery)]
        assert subqueries
        aggregate = find_all(subqueries[0].plan, L.Aggregate)[0]
        alias = aggregate.aggregate_expressions[0]
        assert isinstance(alias.child, E.Min)

    def test_max_dimension_uses_max_aggregate(self, pipeline):
        plan = pipeline("SELECT name FROM hotels SKYLINE OF price MAX")
        subqueries = [e for node in plan.iter_tree()
                      for x in node.expressions()
                      for e in x.iter_tree()
                      if isinstance(e, E.ScalarSubquery)]
        aggregate = find_all(subqueries[0].plan, L.Aggregate)[0]
        assert isinstance(aggregate.aggregate_expressions[0].child, E.Max)

    def test_nullable_dimension_keeps_null_rows(self, pipeline):
        # rating is nullable: incomparable null rows stay in the skyline.
        plan = pipeline("SELECT name FROM hotels SKYLINE OF rating MAX")
        assert not find_all(plan, L.SkylineOperator)
        conditions = [f.condition for f in find_all(plan, L.Filter)]
        assert any(isinstance(c, E.Or) and
                   isinstance(c.left, E.IsNull) for c in conditions)

    def test_complete_keyword_drops_null_guard(self, pipeline):
        plan = pipeline(
            "SELECT name FROM hotels SKYLINE OF COMPLETE rating MAX")
        conditions = [f.condition for f in find_all(plan, L.Filter)]
        assert all(not isinstance(c, E.Or) for c in conditions)

    def test_multi_dimension_skyline_not_rewritten(self, pipeline):
        plan = pipeline(
            "SELECT name FROM hotels SKYLINE OF price MIN, rating MAX")
        assert find_all(plan, L.SkylineOperator)

    def test_diff_dimension_not_rewritten(self, pipeline):
        plan = pipeline("SELECT name FROM hotels SKYLINE OF price DIFF")
        assert find_all(plan, L.SkylineOperator)

    def test_distinct_single_dimension_limits_to_one(self, pipeline):
        plan = pipeline(
            "SELECT name FROM hotels SKYLINE OF DISTINCT price MIN")
        limits = find_all(plan, L.Limit)
        assert limits and limits[0].limit == 1


class TestPushSkylineThroughJoin:
    SQL = ("SELECT h.name FROM hotels h JOIN cities c "
           "ON h.city_id = c.id "
           "SKYLINE OF h.price MIN, h.rating MAX")

    def test_pushed_below_non_reductive_join(self, pipeline):
        plan = pipeline(self.SQL)
        skyline = find_all(plan, L.SkylineOperator)[0]
        join = find_all(plan, L.Join)[0]
        # The skyline now sits below the join, on the hotels side.
        assert skyline in list(join.left.iter_tree()) + \
            list(join.right.iter_tree())

    def test_not_pushed_without_foreign_key(self, catalog):
        # Drop the FK: non-reductiveness can no longer be established.
        catalog.lookup("hotels").foreign_keys.clear()
        analyzer, optimizer = Analyzer(catalog), Optimizer(catalog)
        plan = optimizer.optimize(analyzer.analyze(parse_query(self.SQL)))
        skyline = find_all(plan, L.SkylineOperator)[0]
        join = find_all(plan, L.Join)[0]
        assert join in list(skyline.iter_tree())

    def test_not_pushed_when_dimensions_span_sides(self, pipeline):
        plan = pipeline(
            "SELECT h.name FROM hotels h JOIN cities c "
            "ON h.city_id = c.id "
            "SKYLINE OF h.price MIN, c.id MAX")
        skyline = find_all(plan, L.SkylineOperator)[0]
        join = find_all(plan, L.Join)[0]
        assert join in list(skyline.iter_tree())

    def test_rules_can_be_disabled(self, catalog):
        analyzer = Analyzer(catalog)
        optimizer = Optimizer(catalog, enable_skyline_rules=False)
        plan = optimizer.optimize(analyzer.analyze(
            parse_query("SELECT name FROM hotels SKYLINE OF price MIN")))
        assert find_all(plan, L.SkylineOperator)


class TestOptimizedPlansStillCorrect:
    """Optimizations must not change results (Section 5.9)."""

    def test_single_dimension_results_match_unoptimized(self, catalog):
        from repro.api.session import connect
        session = connect(num_executors=2)
        session.catalog = catalog
        catalog.create_table(
            "pts",
            Schema([Field("x", INTEGER, False),
                    Field("y", INTEGER, True)]),
            [(3, 1), (1, 2), (1, 9), (2, None), (5, None)])
        optimized = session.sql("SELECT x FROM pts SKYLINE OF x MIN")
        plain = session.with_options(skyline_algorithm="auto")
        plain.enable_skyline_optimizations = False
        raw = plain.sql("SELECT x FROM pts SKYLINE OF x MIN")
        assert sorted(optimized.to_tuples()) == sorted(raw.to_tuples())

    def test_nullable_single_dimension_results_match(self, catalog):
        from repro.api.session import connect
        session = connect(num_executors=2)
        session.catalog = catalog
        catalog.create_table(
            "pts",
            Schema([Field("x", INTEGER, True)]),
            [(3,), (1,), (None,), (2,)])
        fast = session.sql("SELECT x FROM pts SKYLINE OF x MIN")
        slow = connect(num_executors=2,
                       enable_skyline_optimizations=False)
        slow.catalog = catalog
        raw = slow.sql("SELECT x FROM pts SKYLINE OF x MIN")
        # Both must keep the null row (incomparable) and the minimum.
        assert sorted(fast.to_tuples(), key=repr) == \
            sorted(raw.to_tuples(), key=repr)
        assert (None,) in fast.to_tuples()
