"""SQL type system."""

import pytest

from repro.engine.types import (BOOLEAN, DOUBLE, INTEGER, NULL, STRING,
                                DoubleType, IntegerType, common_type,
                                infer_type, is_numeric, is_orderable)


class TestSingletons:
    def test_equality_by_class(self):
        assert IntegerType() == INTEGER
        assert DoubleType() == DOUBLE
        assert INTEGER != DOUBLE

    def test_hashable(self):
        assert len({INTEGER, IntegerType(), DOUBLE}) == 2

    def test_names(self):
        assert INTEGER.name == "INTEGER"
        assert STRING.name == "STRING"


class TestAccepts:
    def test_integer_rejects_bool(self):
        assert INTEGER.accepts(5)
        assert not INTEGER.accepts(True)

    def test_double_accepts_int_and_float(self):
        assert DOUBLE.accepts(1.5)
        assert DOUBLE.accepts(2)
        assert not DOUBLE.accepts(True)

    def test_string_and_boolean(self):
        assert STRING.accepts("x")
        assert BOOLEAN.accepts(False)
        assert not BOOLEAN.accepts(0)


class TestPredicates:
    def test_is_numeric(self):
        assert is_numeric(INTEGER)
        assert is_numeric(DOUBLE)
        assert not is_numeric(STRING)

    def test_is_orderable(self):
        assert all(is_orderable(t)
                   for t in (INTEGER, DOUBLE, STRING, BOOLEAN))


class TestCommonType:
    def test_identical_types(self):
        assert common_type(INTEGER, INTEGER) == INTEGER

    def test_numeric_widening(self):
        assert common_type(INTEGER, DOUBLE) == DOUBLE
        assert common_type(DOUBLE, INTEGER) == DOUBLE

    def test_incompatible(self):
        assert common_type(INTEGER, STRING) is None
        assert common_type(BOOLEAN, DOUBLE) is None

    def test_null_takes_the_other_type(self):
        for dtype in (INTEGER, DOUBLE, STRING, BOOLEAN, NULL):
            assert common_type(NULL, dtype) == dtype
            assert common_type(dtype, NULL) == dtype
        assert is_orderable(NULL) and not is_numeric(NULL)
        assert not NULL.accepts(None) and NULL.name == "NULL"


class TestInferType:
    def test_basic_inference(self):
        assert infer_type(1) == INTEGER
        assert infer_type(1.0) == DOUBLE
        assert infer_type("x") == STRING
        assert infer_type(True) == BOOLEAN
        assert infer_type(None) == NULL

    def test_rejects_exotic_values(self):
        with pytest.raises(TypeError):
            infer_type([1, 2])
