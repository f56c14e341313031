"""Catalog and constraint metadata."""

import pytest

from repro.engine.catalog import Catalog, ForeignKey, Table
from repro.engine.row import Field, Schema
from repro.engine.types import INTEGER, STRING
from repro.errors import AnalysisError


@pytest.fixture
def catalog():
    return Catalog()


def make_schema():
    return Schema([Field("id", INTEGER, False), Field("name", STRING)])


class TestCatalog:
    def test_register_and_lookup_case_insensitive(self, catalog):
        catalog.create_table("Users", make_schema(), [(1, "a")])
        assert catalog.lookup("users").name == "Users"
        assert catalog.exists("USERS")

    def test_lookup_missing_raises(self, catalog):
        with pytest.raises(AnalysisError, match="not found"):
            catalog.lookup("ghost")

    def test_replace_semantics(self, catalog):
        catalog.create_table("t", make_schema(), [(1, "a")])
        catalog.create_table("t", make_schema(), [(2, "b")])
        assert catalog.lookup("t").rows == [(2, "b")]

    def test_register_no_replace(self, catalog):
        catalog.create_table("t", make_schema(), [])
        with pytest.raises(AnalysisError, match="already exists"):
            catalog.register(Table("t", make_schema(), []), replace=False)

    def test_drop_and_names(self, catalog):
        catalog.create_table("a", make_schema(), [])
        catalog.create_table("b", make_schema(), [])
        catalog.drop("a")
        assert catalog.table_names() == ["b"]
        catalog.drop("a")  # idempotent


class Recorder:
    def __init__(self):
        self.kinds = []

    def on_event(self, event):
        self.kinds.append(event.kind)


class TestListeners:
    def test_a_bound_method_is_removed_by_a_fresh_binding(self, catalog):
        # ``recorder.on_event`` builds a new bound method on every
        # access: removal must match it by equality, not identity.
        recorder = Recorder()
        catalog.add_listener(recorder.on_event)
        catalog.create_table("t", make_schema(), [])
        catalog.remove_listener(recorder.on_event)
        catalog.insert_into("t", [(1, "a")])
        assert recorder.kinds == ["register"]
        assert catalog._listeners == []

    def test_removal_keeps_the_other_listeners(self, catalog):
        first, second = Recorder(), Recorder()
        catalog.add_listener(first.on_event)
        catalog.add_listener(second.on_event)
        catalog.remove_listener(first.on_event)
        catalog.create_table("t", make_schema(), [])
        assert (first.kinds, second.kinds) == ([], ["register"])

    def test_removing_an_absent_listener_is_a_no_op(self, catalog):
        catalog.remove_listener(Recorder().on_event)
        assert catalog._listeners == []


class TestTable:
    def test_row_width_validated(self):
        with pytest.raises(AnalysisError, match="row width"):
            Table("t", make_schema(), [(1,)])

    def test_constraints_recorded(self, catalog):
        table = catalog.create_table(
            "orders", make_schema(), [],
            primary_key=("id",),
            foreign_keys=[ForeignKey(("id",), "users", ("id",))],
            unique_keys=[("name",)])
        assert table.primary_key == ("id",)
        assert table.foreign_keys[0].ref_table == "users"
        assert table.unique_keys == [("name",)]

    def test_num_rows(self):
        assert Table("t", make_schema(), [(1, "a")]).num_rows == 1


class TestResidentColumns:
    """The table-owned columnar form: one batch per data version."""

    ROWS = [(i, f"n{i}") for i in range(50)]

    @pytest.fixture
    def table(self, catalog):
        return catalog.create_table("t", make_schema(), list(self.ROWS))

    def test_lazy_then_shared(self, table):
        assert table.resident_column_bytes == 0  # nobody asked yet
        first, built = table.column_batch()
        assert built and first.to_rows() == self.ROWS
        again, built = table.column_batch()
        assert again is first and not built
        assert table.resident_column_bytes == first.nbytes > 0

    def test_every_dml_republishes(self, catalog, table):
        steps = [
            lambda: catalog.insert_into("t", [(99, "new")]),
            lambda: catalog.delete_from("t", rows=[(99, "new")]),
            lambda: catalog.delete_from("t", predicate=lambda r: r[0] < 5),
        ]
        for step in steps:
            stale, _ = table.column_batch()
            before = stale.to_rows()[:]
            step()
            fresh, built = table.column_batch()
            assert not built and fresh is not stale
            assert fresh.to_rows() == table.rows != before
            assert stale.to_rows() == before  # copy-on-write
        assert table.maintenance == {
            "appended": 1, "deleted": 2, "rebuilt": 1,
            "reencoded_kind_drift": 0, "overtaken_by_dml": 0,
            "not_resident": 0}
        # A write behind the catalog's back still rebuilds ...
        table.rows.append((100, "behind the catalog's back"))
        assert table.resident_batch() is None
        fresh, built = table.column_batch()
        assert built and fresh.to_rows() == table.rows
        # ... and a no-op delete changes and publishes nothing.
        assert catalog.delete_from("t", rows=[(12345, "ghost")]) == 0
        assert table.column_batch() == (fresh, False)

    def test_only_a_resident_batch_is_maintained(self, catalog, table):
        catalog.insert_into("t", [(99, "new")])
        assert table.resident_batch() is None  # nobody scanned it yet
        assert table.maintenance["not_resident"] == 1
        table.column_batch()
        table.rows.append((100, "behind the catalog's back"))
        catalog.delete_from("t", rows=[(99, "new")])  # finds it stale
        assert table._columns is None
        assert table.maintenance["not_resident"] == 2

    def test_kind_drift_reencodes_that_column_only(self, catalog):
        from repro.engine.types import DOUBLE
        schema = Schema([Field("i", INTEGER, True),
                         Field("f", DOUBLE, True)])
        table = catalog.create_table("d", schema, [(1, 1.0), (2, 2.0)])
        table.column_batch()
        for row, kinds, drift in [
                ((3, 3.0), ["i8", "f8"], 0),
                ((None, 4.0), ["i8", "f8"], 0),   # gains its null mask
                ((5, 5), ["i8", "obj"], 1),       # an int among floats
                ((2 ** 70, "s"), ["obj", "obj"], 2)]:
            catalog.insert_into("d", [row])
            batch, built = table.column_batch()
            assert not built and batch.to_rows() == table.rows
            assert [c.kind for c in batch.columns] == kinds
            assert table.maintenance["reencoded_kind_drift"] == drift
        assert all(type(a) is type(b) for got, want
                   in zip(batch.to_rows(), table.rows)
                   for a, b in zip(got, want))

    def test_token_is_the_table_fingerprint(self, table):
        from repro.engine.catalog import table_fingerprint
        table.column_batch()
        assert table._columns[0] == table_fingerprint(table)

    @pytest.mark.parametrize("release", ["drop", "replace"])
    def test_drop_and_replace_release_the_store(self, catalog, table,
                                                release):
        import gc
        import weakref
        ref = weakref.ref(table.column_batch()[0])
        if release == "drop":
            catalog.drop("t")
        else:
            catalog.create_table("t", make_schema(), [(1, "a")])
        gc.collect()
        # Released even though the old Table object is still held here.
        assert ref() is None and table.resident_column_bytes == 0

    def test_rows_are_snapshotted_not_aliased(self, table):
        batch, _ = table.column_batch()
        table.rows.clear()
        assert batch.to_rows() == self.ROWS

    def test_store_built_across_a_dml_is_never_published(
            self, catalog, table, monkeypatch):
        """Publish-after-verify: a DML lands (from another thread)
        between the build's two token reads -- after the row snapshot
        was taken -- so the batch being built lacks the new row.  It
        must be used for nothing and cached never."""
        import threading

        from repro.engine import catalog as catalog_module
        real = catalog_module.ColumnBatch.from_rows
        built = []

        overtaken = [1]  # how many builds a DML overtakes

        def hooked(rows, width):
            if len(built) < overtaken[0]:
                writer = threading.Thread(
                    target=catalog.insert_into,
                    args=("t", [(777 + len(built), "dml")]))
                writer.start()
                writer.join(timeout=10)
                assert not writer.is_alive()
            built.append(real(rows, width))
            return built[-1]

        monkeypatch.setattr(catalog_module.ColumnBatch, "from_rows",
                            staticmethod(hooked))
        batch, was_built = table.column_batch()
        assert was_built and len(built) == 2
        assert built[0].num_rows == 50  # the overtaken build: pre-DML
        assert batch is built[1] is table._columns[1]
        assert batch.to_rows()[-1] == (777, "dml")

        # A write-hot table (every build overtaken) does not spin: the
        # reader gets a consistent snapshot and nothing is cached.
        table._columns = None
        del built[:]
        overtaken[0] = 10 ** 6
        batch, was_built = table.column_batch()
        assert was_built
        assert len(built) == catalog_module.COLUMNIZE_ATTEMPTS
        assert table._columns is None
        assert batch.to_rows() == table.rows[:-1]  # all but the last DML

    def test_concurrent_readers_and_writers_stress(self, catalog, table):
        """More threads than cores hammer build/publish against DML.
        Invariant a lost or torn publish would break: every batch a
        reader gets is internally consistent (decoded columns == the
        row snapshot it carries) and a published store's token length
        equals its row count."""
        import sys
        import threading
        import time
        stop = time.monotonic() + 1.0
        errors = []

        def reader():
            while time.monotonic() < stop:
                batch, _ = table.column_batch()
                carried = batch.to_rows()
                ids = batch.column(0).to_values()
                if ids != [row[0] for row in carried]:
                    errors.append("columns disagree with carried rows")
                published = table._columns
                if published is not None and \
                        published[0][1] != published[1].num_rows:
                    errors.append("published token/batch length mismatch")

        def writer():
            i = 1000
            while time.monotonic() < stop:
                catalog.insert_into("t", [(i, "w"), (i + 1, "w")])
                catalog.delete_from("t", rows=[(i, "w")])
                i += 2

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(6)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        final, _ = table.column_batch()
        assert final.to_rows() == table.rows
        # The writer carried resident batches across its deltas (not
        # only ever found the table batch-less) ...
        counts = table.maintenance
        assert counts["appended"] > 0 and counts["deleted"] > 0
        # ... and every delta either republished or said why not.
        assert counts["appended"] + counts["deleted"] \
            + counts["not_resident"] + counts["overtaken_by_dml"] \
            == table.data_version
