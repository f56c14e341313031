"""CSV data source."""

import pytest

from repro import connect
from repro.engine.io import read_csv, write_csv
from repro.engine.row import Field, Schema
from repro.engine.types import DOUBLE, INTEGER, STRING
from repro.errors import AnalysisError


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "hotels.csv"
    path.write_text(
        "name,price,rating\n"
        "Alpha,120.5,4\n"
        "Beach,90,3\n"
        "Gamma,,5\n")
    return path


class TestReadCsv:
    def test_inference(self, csv_file):
        schema, rows = read_csv(csv_file)
        assert schema.names == ["name", "price", "rating"]
        assert schema.field("price").dtype == DOUBLE
        assert schema.field("rating").dtype == INTEGER
        assert schema.field("price").nullable
        assert rows[2] == ("Gamma", None, 5)

    def test_explicit_schema(self, csv_file):
        schema = Schema([Field("name", STRING, False),
                         Field("price", DOUBLE, True),
                         Field("rating", DOUBLE, False)])
        _, rows = read_csv(csv_file, schema=schema)
        assert rows[0] == ("Alpha", 120.5, 4.0)

    def test_no_header(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1,2\n3,4\n")
        schema, rows = read_csv(path, header=False)
        assert schema.names == ["_c0", "_c1"]
        assert rows == [(1, 2), (3, 4)]

    def test_boolean_parsing(self, tmp_path):
        path = tmp_path / "flags.csv"
        path.write_text("flag\ntrue\nfalse\n")
        schema, rows = read_csv(path)
        assert rows == [(True,), (False,)]

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(AnalysisError, match="expected 2 fields"):
            read_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(AnalysisError, match="empty"):
            read_csv(path)

    def test_schema_width_validated(self, csv_file):
        with pytest.raises(AnalysisError, match="width"):
            read_csv(csv_file, schema=Schema([Field("x", STRING)]))


class TestWriteCsv:
    def test_roundtrip(self, tmp_path):
        schema = Schema([Field("a", INTEGER, True),
                         Field("b", STRING, False)])
        rows = [(1, "x"), (None, "y")]
        path = tmp_path / "out.csv"
        write_csv(path, schema, rows)
        back_schema, back_rows = read_csv(path)
        assert back_rows == rows
        assert back_schema.names == ["a", "b"]


class TestSessionIntegration:
    def test_read_csv_into_dataframe(self, csv_file):
        session = connect(num_executors=2)
        df = session.read_csv(csv_file)
        assert df.count() == 3

    def test_read_csv_registers_table_and_skylines(self, csv_file):
        session = connect(num_executors=2)
        session.read_csv(csv_file, table_name="hotels")
        rows = session.sql(
            "SELECT name FROM hotels "
            "SKYLINE OF price MIN, rating MAX").collect()
        # Gamma (null price, top rating) dominates both other hotels on
        # the only commonly non-null dimension -- null-aware semantics.
        names = {r.name for r in rows}
        assert names == {"Gamma"}
