"""Expression trees: three-valued logic, binding, aggregates."""

import pytest

from repro.core.dominance import DimensionKind
from repro.engine import expressions as E
from repro.engine.types import BOOLEAN, DOUBLE, INTEGER, STRING
from repro.errors import AnalysisError


def bound(index, dtype=INTEGER, nullable=True):
    return E.BoundReference(index, dtype, nullable)


class TestLiteral:
    def test_eval_and_type(self):
        assert E.Literal(5).eval(()) == 5
        assert E.Literal(5).dtype == INTEGER
        assert E.Literal("x").dtype == STRING

    def test_null_literal_nullable(self):
        lit = E.Literal(None, STRING)
        assert lit.nullable
        assert not E.Literal(1).nullable

    def test_sql_rendering(self):
        assert E.Literal("o'brien").sql() == "'o''brien'"
        assert E.Literal(None, STRING).sql() == "NULL"

    def test_equality(self):
        assert E.Literal(1) == E.Literal(1)
        assert E.Literal(1) != E.Literal(1.0)


class TestThreeValuedLogic:
    def test_comparison_with_null_is_null(self):
        expr = E.LessThan(bound(0), bound(1))
        assert expr.eval((None, 1)) is None
        assert expr.eval((1, None)) is None
        assert expr.eval((0, 1)) is True

    def test_and_kleene(self):
        a, b = bound(0, BOOLEAN), bound(1, BOOLEAN)
        expr = E.And(a, b)
        assert expr.eval((False, None)) is False
        assert expr.eval((None, False)) is False
        assert expr.eval((True, None)) is None
        assert expr.eval((True, True)) is True

    def test_or_kleene(self):
        a, b = bound(0, BOOLEAN), bound(1, BOOLEAN)
        expr = E.Or(a, b)
        assert expr.eval((True, None)) is True
        assert expr.eval((None, True)) is True
        assert expr.eval((False, None)) is None
        assert expr.eval((False, False)) is False

    def test_not_propagates_null(self):
        expr = E.Not(bound(0, BOOLEAN))
        assert expr.eval((None,)) is None
        assert expr.eval((True,)) is False

    def test_null_safe_equality(self):
        expr = E.EqualNullSafe(bound(0), bound(1))
        assert expr.eval((None, None)) is True
        assert expr.eval((None, 1)) is False
        assert expr.eval((1, 1)) is True

    def test_is_null_checks(self):
        assert E.IsNull(bound(0)).eval((None,)) is True
        assert E.IsNotNull(bound(0)).eval((None,)) is False


class TestArithmetic:
    def test_basic_operations(self):
        a, b = bound(0), bound(1)
        assert E.Add(a, b).eval((2, 3)) == 5
        assert E.Subtract(a, b).eval((2, 3)) == -1
        assert E.Multiply(a, b).eval((2, 3)) == 6
        assert E.Modulo(a, b).eval((7, 3)) == 1

    def test_division_by_zero_yields_null(self):
        assert E.Divide(bound(0), bound(1)).eval((1, 0)) is None
        assert E.Modulo(bound(0), bound(1)).eval((1, 0)) is None

    def test_null_propagation(self):
        assert E.Add(bound(0), bound(1)).eval((None, 3)) is None

    def test_negate(self):
        assert E.Negate(bound(0)).eval((5,)) == -5
        assert E.Negate(bound(0)).eval((None,)) is None

    def test_type_widening(self):
        expr = E.Add(E.Literal(1), E.Literal(2.0))
        assert expr.dtype == DOUBLE

    def test_arithmetic_on_strings_unresolved(self):
        expr = E.Add(E.Literal("a"), E.Literal(1))
        assert not expr.resolved


class TestConditionalFunctions:
    def test_ifnull(self):
        expr = E.IfNull(bound(0), E.Literal(0))
        assert expr.eval((None,)) == 0
        assert expr.eval((7,)) == 7

    def test_coalesce(self):
        expr = E.Coalesce(bound(0), bound(1), E.Literal(9))
        assert expr.eval((None, None)) == 9
        assert expr.eval((None, 5)) == 5

    def test_coalesce_requires_args(self):
        with pytest.raises(AnalysisError):
            E.Coalesce()

    def test_abs(self):
        assert E.Abs(bound(0)).eval((-4,)) == 4

    def test_case_when(self):
        expr = E.CaseWhen(
            [(E.GreaterThan(bound(0), E.Literal(0)), E.Literal("pos")),
             (E.LessThan(bound(0), E.Literal(0)), E.Literal("neg"))],
            E.Literal("zero"))
        assert expr.eval((3,)) == "pos"
        assert expr.eval((-3,)) == "neg"
        assert expr.eval((0,)) == "zero"

    def test_case_when_with_children_roundtrip(self):
        expr = E.CaseWhen([(E.Literal(True), E.Literal(1))], E.Literal(2))
        clone = expr.with_children(list(expr.children))
        assert clone.eval(()) == 1


class TestAggregates:
    def test_min_max_skip_nulls(self):
        m = E.Min(bound(0))
        acc = m.initial()
        for value in (None, 3, 1, None, 2):
            acc = m.update(acc, value)
        assert m.result(acc) == 1
        m = E.Max(bound(0))
        acc = m.initial()
        for value in (None, 3, 1):
            acc = m.update(acc, value)
        assert m.result(acc) == 3

    def test_sum_empty_is_null(self):
        s = E.Sum(bound(0))
        assert s.result(s.initial()) is None

    def test_count_ignores_nulls(self):
        c = E.Count(bound(0))
        acc = c.initial()
        for value in (1, None, 2):
            acc = c.update(acc, value)
        assert c.result(acc) == 2

    def test_count_distinct(self):
        # DISTINCT is the aggregate operator's: it folds each value of a
        # group into the function once.
        import repro
        session = repro.connect(columnar=False)
        session.create_table("t", [("v", INTEGER, True)],
                             [(1,), (1,), (2,), (None,), (2,)])
        assert session.sql(
            "SELECT count(DISTINCT v), sum(DISTINCT v), count(v) FROM t"
        ).to_tuples() == [(2, 3, 4)]

    def test_average(self):
        a = E.Average(bound(0))
        acc = a.initial()
        for value in (2, 4, None):
            acc = a.update(acc, value)
        assert a.result(acc) == 3.0
        assert a.result(a.initial()) is None

    def test_contains_aggregate(self):
        expr = E.Add(E.Min(bound(0)), E.Literal(1))
        assert expr.contains_aggregate()
        assert not E.Literal(1).contains_aggregate()


class TestAttributesAndBinding:
    def test_expr_ids_unique(self):
        a = E.AttributeReference("x", INTEGER)
        b = E.AttributeReference("x", INTEGER)
        assert a.expr_id != b.expr_id
        assert a != b

    def test_equality_by_id_not_name(self):
        a = E.AttributeReference("x", INTEGER)
        same = E.AttributeReference("renamed", INTEGER, expr_id=a.expr_id)
        assert a == same

    def test_with_qualifier_preserves_identity(self):
        a = E.AttributeReference("x", INTEGER)
        qualified = a.with_qualifier("t")
        assert qualified == a
        assert qualified.qualifier == "t"

    def test_bind_expression_by_id(self):
        a = E.AttributeReference("x", INTEGER)
        b = E.AttributeReference("y", INTEGER)
        expr = E.Add(b, a)
        bound_expr = E.bind_expression(expr, [a, b])
        assert bound_expr.eval((10, 20)) == 30

    def test_bind_missing_attribute_raises(self):
        a = E.AttributeReference("x", INTEGER)
        with pytest.raises(AnalysisError, match="not found in input"):
            E.bind_expression(a, [])

    def test_unbound_attribute_eval_raises(self):
        with pytest.raises(AnalysisError):
            E.AttributeReference("x", INTEGER).eval(())


class TestAlias:
    def test_to_attribute_keeps_id(self):
        alias = E.Alias(E.Literal(1), "one")
        attr = alias.to_attribute()
        assert attr.expr_id == alias.expr_id
        assert attr.name == "one"
        assert attr.dtype == INTEGER

    def test_alias_helper_method(self):
        alias = E.Literal(2).alias("two")
        assert isinstance(alias, E.Alias)
        assert alias.display_name == "two"

    def test_named_output_requires_name(self):
        with pytest.raises(AnalysisError):
            E.named_output(E.Add(E.Literal(1), E.Literal(2)))


class TestTreeTransforms:
    def test_transform_up_rebuilds_tree(self):
        expr = E.Add(E.Literal(1), E.Literal(2))

        def bump(node):
            if isinstance(node, E.Literal):
                return E.Literal(node.value + 10)
            return node

        assert expr.transform_up(bump).eval(()) == 23

    def test_iter_tree_preorder(self):
        expr = E.Add(E.Literal(1), E.Literal(2))
        kinds = [type(n).__name__ for n in expr.iter_tree()]
        assert kinds == ["Add", "Literal", "Literal"]

    def test_split_and_rebuild_conjunction(self):
        a, b, c = E.Literal(True), E.Literal(False), E.Literal(True)
        expr = E.And(E.And(a, b), c)
        assert E.split_conjuncts(expr) == [a, b, c]
        assert E.conjunction([]).eval(()) is True
        assert E.disjunction([]).eval(()) is False


class TestOuterReference:
    def test_wraps_without_exposing_reference(self):
        attr = E.AttributeReference("x", INTEGER)
        outer = E.OuterReference(attr)
        assert outer.resolved
        assert outer.dtype == INTEGER
        assert outer.references() == set()

    def test_strip_outer_references(self):
        attr = E.AttributeReference("x", INTEGER)
        expr = E.LessThan(E.OuterReference(attr), E.Literal(1))
        stripped = E.strip_outer_references(expr)
        assert attr in stripped.references()
        assert E.contains_outer_reference(expr)
        assert not E.contains_outer_reference(stripped)


class TestSkylineDimension:
    def test_resolution_requires_orderable_type(self):
        dim = E.SkylineDimension(E.Literal(1), DimensionKind.MIN)
        assert dim.resolved
        assert dim.sql() == "1 MIN"

    def test_copy_replaces_parts(self):
        dim = E.SkylineDimension(E.Literal(1), DimensionKind.MIN)
        flipped = dim.copy(kind=DimensionKind.MAX)
        assert flipped.kind is DimensionKind.MAX
        assert flipped.child is dim.child

    def test_accepts_string_kind(self):
        dim = E.SkylineDimension(E.Literal(1), "diff")
        assert dim.kind is DimensionKind.DIFF
