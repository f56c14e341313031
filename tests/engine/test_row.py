"""Rows and schemas."""

import pytest

from repro.engine.row import Field, Row, Schema, infer_schema
from repro.engine.types import DOUBLE, INTEGER, STRING


@pytest.fixture
def schema():
    return Schema([Field("id", INTEGER, False), Field("price", DOUBLE),
                   Field("name", STRING)])


class TestSchema:
    def test_index_lookup_case_insensitive(self, schema):
        assert schema.index_of("id") == 0
        assert schema.index_of("PRICE") == 1

    def test_field_access(self, schema):
        assert schema.field("price").dtype == DOUBLE
        assert schema[0].name == "id"

    def test_names_in_order(self, schema):
        assert schema.names == ["id", "price", "name"]

    def test_missing_name_raises(self, schema):
        with pytest.raises(KeyError):
            schema.index_of("ghost")

    def test_equality_and_hash(self, schema):
        clone = Schema(list(schema.fields))
        assert schema == clone
        assert hash(schema) == hash(clone)

    def test_duplicate_names_first_wins(self):
        schema = Schema([Field("x", INTEGER), Field("x", DOUBLE)])
        assert schema.index_of("x") == 0

    def test_len_and_iter(self, schema):
        assert len(schema) == 3
        assert [f.name for f in schema] == ["id", "price", "name"]


class TestInferSchema:
    def test_types_from_first_non_null(self):
        schema = infer_schema(["a", "b"], [(None, "x"), (3, "y")])
        assert schema.field("a").dtype == INTEGER
        assert schema.field("a").nullable
        assert schema.field("b").dtype == STRING
        assert not schema.field("b").nullable

    def test_all_null_column_defaults_to_string(self):
        schema = infer_schema(["a"], [(None,), (None,)])
        assert schema.field("a").dtype == STRING
        assert schema.field("a").nullable


class TestRow:
    def test_access_by_position_name_attribute(self, schema):
        row = Row((1, 9.5, "ok"), schema)
        assert row[0] == 1
        assert row["price"] == 9.5
        assert row.name == "ok"

    def test_unknown_attribute_raises(self, schema):
        row = Row((1, 9.5, "ok"), schema)
        with pytest.raises(AttributeError):
            row.ghost

    def test_as_dict_and_tuple(self, schema):
        row = Row((1, 9.5, "ok"), schema)
        assert row.as_dict() == {"id": 1, "price": 9.5, "name": "ok"}
        assert row.as_tuple() == (1, 9.5, "ok")

    def test_equality_with_rows_and_tuples(self, schema):
        row = Row((1, 9.5, "ok"), schema)
        assert row == Row((1, 9.5, "ok"), schema)
        assert row == (1, 9.5, "ok")
        assert row != (2, 9.5, "ok")

    def test_iteration_and_len(self, schema):
        row = Row((1, 9.5, "ok"), schema)
        assert list(row) == [1, 9.5, "ok"]
        assert len(row) == 3

    def test_repr_contains_names(self, schema):
        assert "price=9.5" in repr(Row((1, 9.5, "ok"), schema))
