"""Differential suite for batch expression evaluation.

Every vectorizable expression class is evaluated via ``eval_batch``
against the row-at-a-time ``eval`` reference on generated data covering
nulls, mixed dtypes, ±inf/NaN, big integers (forcing the exactness
fallback) and empty batches -- mirroring the PR-3 oracle-suite pattern
for the skyline kernels.  Any divergence between the columnar forms and
the scalar three-valued-logic semantics surfaces here as a value- or
type-level mismatch.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import expressions as E
from repro.engine.batch import F8, ColumnBatch
from repro.engine.types import DOUBLE, INTEGER

SEED = 20230331


def _value_pool(kind: str) -> list:
    if kind == "float":
        return [0.0, -0.0, 1.5, -2.25, 3.0, 1e16, -1e16,
                float("inf"), float("-inf"), float("nan"), None]
    if kind == "int":
        return [0, 1, -1, 7, 100, -3, 2 ** 40, -2 ** 40, None]
    if kind == "bigint":
        return [0, 5, 2 ** 60, -2 ** 60, 2 ** 70, None]
    if kind == "bool":
        return [True, False, None]
    if kind == "str":
        return ["a", "b", "", None]
    raise AssertionError(kind)


def make_rows(kinds: list[str], n: int, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    pools = [_value_pool(kind) for kind in kinds]
    return [tuple(rng.choice(pool) for pool in pools) for _ in range(n)]


def same_value(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
    if type(a) is not type(b):
        # Identical types required even for numerics: the batch plane
        # must not turn an int into a float (or vice versa).
        return False
    return a == b


def assert_batch_matches_rows(expr: E.Expression, rows: list[tuple],
                              width: int) -> None:
    batch = ColumnBatch.from_rows(rows, width)
    got = expr.eval_batch(batch).to_values()
    want = [expr.eval(row) for row in rows]
    assert len(got) == len(want)
    for g, w, row in zip(got, want, rows):
        assert same_value(g, w), (expr, row, g, w)


def col(i: int, dtype=None) -> E.BoundReference:
    from repro.engine.types import DOUBLE
    return E.BoundReference(i, dtype or DOUBLE)


ARITHMETIC = [
    lambda a, b: E.Add(a, b),
    lambda a, b: E.Subtract(a, b),
    lambda a, b: E.Multiply(a, b),
    lambda a, b: E.Divide(a, b),
    lambda a, b: E.Modulo(a, b),
]

COMPARISONS = [
    lambda a, b: E.EqualTo(a, b),
    lambda a, b: E.NotEqualTo(a, b),
    lambda a, b: E.LessThan(a, b),
    lambda a, b: E.LessThanOrEqual(a, b),
    lambda a, b: E.GreaterThan(a, b),
    lambda a, b: E.GreaterThanOrEqual(a, b),
    lambda a, b: E.EqualNullSafe(a, b),
]

UNARY = [
    lambda a: E.Negate(a),
    lambda a: E.Abs(a),
    lambda a: E.IsNull(a),
    lambda a: E.IsNotNull(a),
]

#: Column-kind pairs every binary operator is exercised on: uniform
#: floats, uniform ints, the int/float mix, big ints (fallback) and
#: strings (fallback for comparisons).
KIND_PAIRS = [("float", "float"), ("int", "int"), ("int", "float"),
              ("bigint", "int"), ("bigint", "float")]


@pytest.mark.parametrize("make", ARITHMETIC + COMPARISONS)
@pytest.mark.parametrize("kinds", KIND_PAIRS)
def test_binary_operators_match_row_eval(make, kinds):
    rows = make_rows(list(kinds), 80, SEED)
    expr = make(col(0), col(1))
    assert_batch_matches_rows(expr, rows, 2)


@pytest.mark.parametrize("make", ARITHMETIC + COMPARISONS)
def test_binary_operators_on_empty_batch(make):
    assert_batch_matches_rows(make(col(0), col(1)), [], 2)


@pytest.mark.parametrize("make", UNARY)
@pytest.mark.parametrize("kind", ["float", "int", "bigint", "bool",
                                  "str"])
def test_unary_operators_match_row_eval(make, kind):
    # Abs/Negate raise on strings in both planes; skip that pairing.
    rows = make_rows([kind], 60, SEED + 1)
    expr = make(col(0))
    if kind == "str" and isinstance(expr, (E.Negate, E.Abs)):
        pytest.skip("arithmetic on strings is a type error in both "
                    "planes")
    assert_batch_matches_rows(expr, rows, 1)


@pytest.mark.parametrize("kinds", [("bool", "bool")])
def test_kleene_logic_matches_row_eval(kinds):
    rows = make_rows(list(kinds), 120, SEED + 2)
    a, b = col(0), col(1)
    for expr in (E.And(a, b), E.Or(a, b), E.Not(a),
                 E.And(E.Not(a), E.Or(a, b))):
        assert_batch_matches_rows(expr, rows, 2)


def test_predicate_trees_over_mixed_columns():
    rows = make_rows(["float", "int", "str", "bool"], 150, SEED + 3)
    a, b, s, flag = col(0), col(1), col(2), col(3)
    predicates = [
        E.And(E.LessThan(a, E.Literal(1.0)),
              E.GreaterThan(b, E.Literal(0))),
        E.Or(E.IsNull(a), E.And(flag, E.IsNotNull(s))),
        E.Not(E.Or(E.EqualTo(a, b), E.IsNull(b))),
        E.And(E.EqualNullSafe(a, b), E.NotEqualTo(b, E.Literal(7))),
    ]
    for predicate in predicates:
        assert_batch_matches_rows(predicate, rows, 4)


def test_conditional_and_null_functions():
    rows = make_rows(["float", "float", "int"], 100, SEED + 4)
    a, b, c = col(0), col(1), col(2)
    exprs = [
        E.IfNull(a, b),
        E.IfNull(a, E.Literal(0.0)),
        E.Coalesce(a, b),
        E.Coalesce(a, b, E.Literal(-1.0)),
        # Mixed kinds: a DOUBLE result, so the int fallback is a float
        # on both planes.
        E.Coalesce(a, c),
        E.CaseWhen([(E.GreaterThan(a, E.Literal(0.0)), b)], a),
    ]
    for expr in exprs:
        assert_batch_matches_rows(expr, rows, 3)


def test_case_when_returns_its_declared_type():
    """Branches mixing INTEGER and DOUBLE give a DOUBLE result: an int
    branch value is a float on both planes, and the per-row batch form
    builds a typed ``f8`` column, not a Python list."""
    rows = make_rows(["float", "int"], 80, SEED + 8)
    a, c = col(0), col(1, INTEGER)
    exprs = [
        E.CaseWhen([(E.GreaterThan(a, E.Literal(0.0)), c)], a),
        E.CaseWhen([(E.IsNull(a), E.Literal(0))], a),
        E.CaseWhen([(E.IsNull(c), E.Literal(1.5))], c),
    ]
    for expr in exprs:
        assert expr.dtype == DOUBLE
        assert_batch_matches_rows(expr, rows, 2)
        column = expr.eval_batch(ColumnBatch.from_rows(rows, 2))
        assert column.kind == F8
    # INTEGER branches only: ints stay ints.
    ints = E.CaseWhen([(E.IsNull(c), E.Literal(0))], c)
    assert ints.dtype == INTEGER
    assert_batch_matches_rows(ints, rows, 2)
    assert {type(ints.eval(row)) for row in rows} == {int}


_COALESCE_COLUMNS = {
    "int": st.one_of(st.none(), st.integers(-2 ** 40, 2 ** 40)),
    "bigint": st.one_of(st.none(), st.integers(-2 ** 63, 2 ** 63 - 1)),
    "float": st.one_of(st.none(), st.floats(allow_nan=True)),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       kinds=st.lists(st.sampled_from(sorted(_COALESCE_COLUMNS)),
                      min_size=1, max_size=3),
       literal=st.one_of(st.none(), st.integers(-9, 9),
                         st.sampled_from([0.0, -0.0, 2.5])),
       two_argument=st.booleans(), num_rows=st.integers(0, 12))
def test_coalesce_and_ifnull_return_the_declared_type(
        data, kinds, literal, two_argument, num_rows):
    """``coalesce``/``ifnull`` over ``i8``/``f8``/NULL columns and an
    int or float literal: the batch plane answers like the row plane to
    the ``repr`` (``0`` is not ``0.0``), a declared DOUBLE is an ``f8``
    column, and ints beyond 2**53 still agree."""
    rows = [tuple(data.draw(_COALESCE_COLUMNS[kind]) for kind in kinds)
            for _ in range(num_rows)]
    args = [col(i, INTEGER if kind != "float" else DOUBLE)
            for i, kind in enumerate(kinds)]
    if literal is not None:
        args.append(E.Literal(literal))
    if two_argument and len(args) >= 2:
        expr = E.IfNull(args[0], args[1])
    else:
        expr = E.Coalesce(*args)
    batch = ColumnBatch.from_rows(rows, len(kinds))
    column = expr.eval_batch(batch)
    got = column.to_values()
    want = [expr.eval(row) for row in rows]
    assert list(map(repr, got)) == list(map(repr, want))
    if expr.dtype == DOUBLE:
        assert all(type(v) is float for v in want if v is not None)
        if any(v is not None for v in want):
            assert column.kind == F8


def test_coalesce_beyond_2_53_matches_the_row_plane():
    """An ``i8`` argument beyond 2**53 cannot promote exactly: the
    per-row path rounds each value as the row plane does."""
    big = [(2 ** 53 + 1, None), (None, 2 ** 63 - 1), (-2 ** 63, 1.5),
           (None, None), (7, -0.0)]
    a, b = col(0, INTEGER), col(1, INTEGER)
    for expr in (E.Coalesce(a, b, E.Literal(0.5)),
                 E.IfNull(a, E.Literal(0.0)),
                 E.Coalesce(col(1), a)):
        assert_batch_matches_rows(expr, big, 2)
    assert E.IfNull(a, E.Literal(0.0)).eval(big[0]) == float(2 ** 53 + 1)


def test_literals_broadcast():
    rows = make_rows(["float"], 10, SEED + 5)
    for value in (1.5, 7, True, "x", None):
        assert_batch_matches_rows(E.Literal(value), rows, 1)


def test_arithmetic_composition():
    rows = make_rows(["float", "int", "float"], 120, SEED + 6)
    a, b, c = col(0), col(1), col(2)
    exprs = [
        E.Add(E.Multiply(a, E.Literal(2.0)), E.Negate(c)),
        E.Divide(E.Subtract(a, c), E.Add(b, E.Literal(1))),
        E.Modulo(b, E.Literal(3)),
        E.Abs(E.Subtract(a, c)),
    ]
    for expr in exprs:
        assert_batch_matches_rows(expr, rows, 3)


def test_int64_overflow_guards_fall_back_exactly():
    # Values big enough that int64 arithmetic would overflow: the
    # batch plane must detect the bound and take the row fallback,
    # where Python's arbitrary precision is the reference.
    near = 2 ** 62 - 10
    rows = [(near, near), (-near, near), (2 ** 35, 2 ** 35), (3, 4)]
    for make in ARITHMETIC:
        assert_batch_matches_rows(make(col(0), col(1)), rows, 2)


def test_int64_min_does_not_defeat_the_overflow_guard():
    # Regression: np.abs(INT64_MIN) overflows to INT64_MIN, so an
    # abs-based magnitude check silently let wrapping arithmetic
    # through; the guards must use min/max bounds instead.
    rows = [(-2 ** 63, 1), (-2 ** 63 + 1, -1), (5, 7)]
    for make in ARITHMETIC + COMPARISONS:
        assert_batch_matches_rows(make(col(0), col(1)), rows, 2)
    for make in UNARY:
        assert_batch_matches_rows(make(col(0)), [r[:1] for r in rows], 1)


def test_division_and_modulo_by_zero_yield_null():
    rows = [(1.0, 0.0), (1.0, -0.0), (5.0, 2.0), (0.0, 0.0),
            (float("inf"), 0.0), (7.0, None), (None, 0.0)]
    assert_batch_matches_rows(E.Divide(col(0), col(1)), rows, 2)
    assert_batch_matches_rows(E.Modulo(col(0), col(1)), rows, 2)
    int_rows = [(7, 0), (7, 2), (-7, 3), (0, 0), (None, 0), (6, None)]
    assert_batch_matches_rows(E.Divide(col(0), col(1)), int_rows, 2)
    assert_batch_matches_rows(E.Modulo(col(0), col(1)), int_rows, 2)


def test_string_comparisons_fall_back():
    rows = make_rows(["str", "str"], 60, SEED + 7)
    for make in COMPARISONS:
        assert_batch_matches_rows(make(col(0), col(1)), rows, 2)
