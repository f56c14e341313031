"""SQL parser, including the SKYLINE OF grammar extension (Listing 5)."""

import pytest

from repro.core.dominance import DimensionKind
from repro.engine import expressions as E
from repro.errors import ParseError
from repro.plan import logical as L
from repro.sql.parser import parse_expression, parse_query


def find_node(plan, node_type):
    nodes = [n for n in plan.iter_tree() if isinstance(n, node_type)]
    assert nodes, f"no {node_type.__name__} in plan"
    return nodes[0]


class TestSelectBasics:
    def test_simple_select(self):
        plan = parse_query("SELECT a, b FROM t")
        project = find_node(plan, L.Project)
        assert [p.name for p in project.projections] == ["a", "b"]
        relation = find_node(plan, L.UnresolvedRelation)
        assert relation.name == "t"

    def test_star(self):
        plan = parse_query("SELECT * FROM t")
        project = find_node(plan, L.Project)
        assert isinstance(project.projections[0], E.UnresolvedStar)

    def test_qualified_star(self):
        plan = parse_query("SELECT t.* FROM t")
        project = find_node(plan, L.Project)
        assert project.projections[0].qualifier == "t"

    def test_aliases_with_and_without_as(self):
        plan = parse_query("SELECT a AS x, b y FROM t")
        project = find_node(plan, L.Project)
        assert [p.display_name for p in project.projections] == ["x", "y"]

    def test_computed_columns_get_auto_alias(self):
        plan = parse_query("SELECT a + 1 FROM t")
        project = find_node(plan, L.Project)
        assert isinstance(project.projections[0], E.Alias)

    def test_distinct(self):
        plan = parse_query("SELECT DISTINCT a FROM t")
        assert isinstance(plan, L.Distinct)

    def test_where_clause(self):
        plan = parse_query("SELECT a FROM t WHERE a > 1")
        filt = find_node(plan, L.Filter)
        assert isinstance(filt.condition, E.GreaterThan)

    def test_limit(self):
        plan = parse_query("SELECT a FROM t LIMIT 10")
        assert isinstance(plan, L.Limit)
        assert plan.limit == 10

    def test_order_by(self):
        plan = parse_query(
            "SELECT a FROM t ORDER BY a DESC NULLS LAST, b ASC")
        sort = find_node(plan, L.Sort)
        assert not sort.order[0].ascending
        assert not sort.order[0].nulls_first
        assert sort.order[1].ascending

    def test_table_alias(self):
        plan = parse_query("SELECT a FROM t AS x")
        alias = find_node(plan, L.SubqueryAlias)
        assert alias.alias == "x"

    @pytest.mark.parametrize("sql", [
        "analyze table t", "analyze table t compute statistics",
        "show tables", "insert into t values (1)"])
    def test_every_statement_is_a_query(self, sql):
        with pytest.raises(ParseError, match="expected SELECT"):
            parse_query(sql)

    def test_analyze_is_an_ordinary_identifier(self):
        plan = parse_query(
            "SELECT analyze FROM analyze SKYLINE OF analyze MIN")
        assert find_node(plan, L.UnresolvedRelation).name == "analyze"
        items = find_node(plan, L.SkylineOperator).skyline_items
        assert [i.kind for i in items] == [DimensionKind.MIN]

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_query("SELECT a FROM t extra stuff ,")


class TestSkylineClause:
    def test_basic_skyline(self):
        plan = parse_query(
            "SELECT price, rating FROM hotels "
            "SKYLINE OF price MIN, rating MAX")
        skyline = find_node(plan, L.SkylineOperator)
        assert not skyline.distinct
        assert not skyline.complete
        kinds = [i.kind for i in skyline.skyline_items]
        assert kinds == [DimensionKind.MIN, DimensionKind.MAX]

    def test_distinct_and_complete_flags(self):
        plan = parse_query(
            "SELECT a FROM t SKYLINE OF DISTINCT COMPLETE a MIN")
        skyline = find_node(plan, L.SkylineOperator)
        assert skyline.distinct
        assert skyline.complete

    def test_complete_without_distinct(self):
        plan = parse_query("SELECT a FROM t SKYLINE OF COMPLETE a MAX")
        skyline = find_node(plan, L.SkylineOperator)
        assert skyline.complete and not skyline.distinct

    def test_diff_dimension(self):
        plan = parse_query("SELECT a FROM t SKYLINE OF a MIN, b DIFF")
        skyline = find_node(plan, L.SkylineOperator)
        assert skyline.skyline_items[1].kind is DimensionKind.DIFF

    def test_expression_dimension(self):
        plan = parse_query("SELECT a FROM t SKYLINE OF a + b MIN")
        skyline = find_node(plan, L.SkylineOperator)
        assert isinstance(skyline.skyline_items[0].child, E.Add)

    def test_skyline_between_having_and_order_by(self):
        plan = parse_query(
            "SELECT a, count(*) AS c FROM t GROUP BY a HAVING count(*) > 1 "
            "SKYLINE OF c MAX ORDER BY a")
        # Structure: Sort > Skyline > Filter(HAVING) > Aggregate.
        assert isinstance(plan, L.Sort)
        assert isinstance(plan.child, L.SkylineOperator)
        assert isinstance(plan.child.child, L.Filter)
        assert isinstance(plan.child.child.child, L.Aggregate)

    def test_missing_kind_rejected(self):
        with pytest.raises(ParseError, match="MIN, MAX or DIFF"):
            parse_query("SELECT a FROM t SKYLINE OF a")

    def test_skyline_requires_of(self):
        with pytest.raises(ParseError, match="expected OF"):
            parse_query("SELECT a FROM t SKYLINE a MIN")

    def test_min_still_usable_as_aggregate_function(self):
        plan = parse_query("SELECT min(a) AS m FROM t")
        aggregate = find_node(plan, L.Aggregate)
        alias = aggregate.aggregate_expressions[0]
        assert isinstance(alias.child, E.UnresolvedFunction)
        assert alias.child.name == "min"


class TestJoins:
    def test_inner_join_on(self):
        plan = parse_query("SELECT a FROM t JOIN u ON t.id = u.id")
        join = find_node(plan, L.Join)
        assert join.join_type == L.JoinType.INNER
        assert isinstance(join.condition, E.EqualTo)

    def test_left_outer_join_using(self):
        plan = parse_query("SELECT a FROM t LEFT OUTER JOIN u USING (id)")
        join = find_node(plan, L.Join)
        assert join.join_type == L.JoinType.LEFT_OUTER
        assert join.using_columns == ("id",)

    def test_join_variants(self):
        for keyword, jt in [("INNER JOIN", L.JoinType.INNER),
                            ("RIGHT JOIN", L.JoinType.RIGHT_OUTER),
                            ("FULL JOIN", L.JoinType.FULL_OUTER),
                            ("CROSS JOIN", L.JoinType.CROSS)]:
            sql = f"SELECT a FROM t {keyword} u"
            if jt is not L.JoinType.CROSS:
                sql += " ON t.id = u.id"
            join = find_node(parse_query(sql), L.Join)
            assert join.join_type == jt

    def test_comma_join_is_cross(self):
        join = find_node(parse_query("SELECT a FROM t, u"), L.Join)
        assert join.join_type == L.JoinType.CROSS

    def test_join_requires_condition(self):
        with pytest.raises(ParseError, match="ON or USING"):
            parse_query("SELECT a FROM t JOIN u")

    def test_subquery_in_from(self):
        plan = parse_query("SELECT a FROM (SELECT a FROM t) sub")
        alias = find_node(plan, L.SubqueryAlias)
        assert alias.alias == "sub"

    def test_chained_joins(self):
        plan = parse_query(
            "SELECT a FROM t JOIN u USING (id) JOIN v USING (id)")
        joins = [n for n in plan.iter_tree() if isinstance(n, L.Join)]
        assert len(joins) == 2


class TestGroupByHaving:
    def test_group_by_builds_aggregate(self):
        plan = parse_query("SELECT a, sum(b) AS s FROM t GROUP BY a")
        aggregate = find_node(plan, L.Aggregate)
        assert len(aggregate.grouping_expressions) == 1

    def test_aggregate_without_group_by(self):
        plan = parse_query("SELECT count(*) AS c FROM t")
        aggregate = find_node(plan, L.Aggregate)
        assert aggregate.grouping_expressions == []

    def test_having_above_aggregate(self):
        plan = parse_query(
            "SELECT a FROM t GROUP BY a HAVING count(*) > 2")
        assert isinstance(plan, L.Filter)
        assert isinstance(plan.child, L.Aggregate)


class TestExpressions:
    def test_precedence_and_parentheses(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, E.Add)
        expr = parse_expression("(1 + 2) * 3")
        assert isinstance(expr, E.Multiply)

    def test_boolean_precedence(self):
        expr = parse_expression("a OR b AND c")
        assert isinstance(expr, E.Or)
        assert isinstance(expr.right, E.And)

    def test_comparison_chain(self):
        expr = parse_expression("a <= 5")
        assert isinstance(expr, E.LessThanOrEqual)

    def test_not_exists(self):
        expr = parse_expression("NOT EXISTS (SELECT a FROM t)")
        assert isinstance(expr, E.Not)
        assert isinstance(expr.children[0], E.Exists)

    def test_scalar_subquery(self):
        expr = parse_expression("(SELECT min(a) AS m FROM t)")
        assert isinstance(expr, E.ScalarSubquery)

    def test_between(self):
        expr = parse_expression("a BETWEEN 1 AND 5")
        assert isinstance(expr, E.And)

    def test_not_between(self):
        expr = parse_expression("a NOT BETWEEN 1 AND 5")
        assert isinstance(expr, E.Not)

    def test_in_list(self):
        expr = parse_expression("a IN (1, 2, 3)")
        assert isinstance(expr, E.Or)

    def test_is_null(self):
        assert isinstance(parse_expression("a IS NULL"), E.IsNull)
        assert isinstance(parse_expression("a IS NOT NULL"), E.IsNotNull)

    def test_case_searched(self):
        expr = parse_expression(
            "CASE WHEN a > 0 THEN 'p' ELSE 'n' END")
        assert isinstance(expr, E.CaseWhen)

    def test_case_simple(self):
        expr = parse_expression("CASE a WHEN 1 THEN 'one' END")
        condition, _ = expr.branches[0]
        assert isinstance(condition, E.EqualTo)

    def test_function_call(self):
        expr = parse_expression("ifnull(a, 0)")
        assert isinstance(expr, E.UnresolvedFunction)
        assert expr.name == "ifnull"

    def test_count_star(self):
        expr = parse_expression("count(*)")
        assert isinstance(expr, E.Count)

    def test_count_distinct(self):
        expr = parse_expression("count(DISTINCT a)")
        assert isinstance(expr, E.UnresolvedFunction)
        assert expr.is_distinct

    def test_star_only_valid_for_count(self):
        with pytest.raises(ParseError):
            parse_expression("sum(*)")

    def test_unary_minus_and_plus(self):
        assert isinstance(parse_expression("-a"), E.Negate)
        assert isinstance(parse_expression("+a"), E.UnresolvedAttribute)

    def test_literals(self):
        assert parse_expression("TRUE").value is True
        assert parse_expression("NULL").value is None
        assert parse_expression("1.5").value == 1.5
        assert parse_expression("'txt'").value == "txt"
