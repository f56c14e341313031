"""SkylineSession: configuration and the query pipeline."""

import pytest

from repro import (INTEGER, STRING, BenchmarkTimeout, SkylineSession, connect)
from repro.engine.cluster import ClusterConfig
from repro.engine.row import Field, Schema
from repro.sql.parser import parse_query


class TestConfiguration:
    def test_executor_count_applied(self):
        session = connect(num_executors=7)
        assert session.cluster_config.num_executors == 7

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(ValueError, match="skyline_algorithm"):
            connect(skyline_algorithm="warp")

    def test_with_executors_shares_catalog(self, hotels_session):
        clone = hotels_session.with_options(num_executors=5)
        assert clone.catalog is hotels_session.catalog
        assert clone.cluster_config.num_executors == 5
        # Original unchanged.
        assert hotels_session.cluster_config.num_executors == 2

    def test_with_skyline_algorithm(self, hotels_session):
        clone = hotels_session.with_options(skyline_algorithm="sfs")
        assert clone.skyline_algorithm == "sfs"
        with pytest.raises(ValueError):
            hotels_session.with_options(skyline_algorithm="warp")

    def test_cluster_config_override(self):
        config = ClusterConfig(executor_base_memory_mb=100.0)
        session = connect(num_executors=3, cluster_config=config)
        assert session.cluster_config.executor_base_memory_mb == 100.0
        assert session.cluster_config.num_executors == 3


class TestCatalogManagement:
    def test_create_table_with_tuples(self, session):
        table = session.create_table(
            "t", [("a", INTEGER, False), ("b", STRING)], [(1, "x")])
        assert table.schema.field("a").nullable is False
        assert table.schema.field("b").nullable is True

    def test_create_table_with_schema(self, session):
        schema = Schema([Field("a", INTEGER)])
        session.create_table("t", schema, [(1,)])
        assert session.catalog.lookup("t").schema == schema

    def test_create_dataframe_infers_schema(self, session):
        df = session.create_dataframe([(1, "x"), (2, None)], ["n", "s"])
        rows = df.collect()
        assert rows[0].n == 1
        assert rows[1].s is None

    def test_table_unknown_fails_fast(self, session):
        from repro.errors import AnalysisError
        with pytest.raises(AnalysisError):
            session.table("nope")


class TestQueryExecution:
    def test_sql_end_to_end(self, hotels_session):
        rows = hotels_session.sql(
            "SELECT name FROM hotels WHERE price < 100 "
            "ORDER BY price").collect()
        assert [r.name for r in rows] == ["Far", "Delta", "Beach",
                                          "Exquisite"]

    def test_query_result_metrics(self, hotels_session):
        result = hotels_session.sql("SELECT name FROM hotels").run()
        assert result.simulated_time_s > 0
        assert result.peak_memory_mb > 0
        assert result.schema.names == ["name"]

    def test_time_budget_timeout(self, hotels_session):
        expired = hotels_session.with_options(time_budget_s=0.0)
        with pytest.raises(BenchmarkTimeout):
            expired.sql(
                "SELECT name, price, rating FROM hotels "
                "SKYLINE OF price MIN, rating MAX").collect()

    def test_explain_shows_all_stages(self, hotels_session):
        text = hotels_session.explain(
            hotels_session.sql(
                "SELECT name FROM hotels SKYLINE OF price MIN, "
                "rating MAX").plan)
        assert "Analyzed Logical Plan" in text
        assert "Optimized Logical Plan" in text
        assert "Physical Plan" in text
        assert "Skyline" in text


class TestBackendConfiguration:
    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(ValueError):
            connect(backend="gpu")

    def test_clone_shares_lazily_created_pool(self):
        # The pool must be shared even when the clone is created before
        # the backend is materialised: exactly one pool per session tree.
        session = connect(backend="process", num_workers=2)
        clone = session.with_options(num_executors=5)
        assert session.backend is clone.backend
        session.close()

    def test_close_through_any_sharer_closes_the_one_pool(self):
        from repro.engine.backends import StageTask
        session = connect(backend="process", num_workers=2)
        clone = session.with_options(num_executors=3)
        backend = clone.backend
        # Materialise the pool (a multi-task stage of picklable tasks
        # bypasses the inline short-cut), then close through the
        # *other* sharer.
        backend.run_stage([StageTask(partition=i, rows_in=0, func=list)
                           for i in range(2)])
        assert backend._pool is not None
        session.close()
        assert backend._pool is None

    def test_with_backend_gets_its_own_spec(self):
        session = connect(backend="local")
        clone = session.with_options(backend="process", num_workers=2)
        assert session.backend.name == "local"
        assert clone.backend.name == "process"
        assert session.catalog is clone.catalog
        clone.close()

    def test_backend_instance_passthrough(self):
        from repro.engine.backends import LocalBackend
        backend = LocalBackend()
        session = connect(backend=backend)
        assert session.backend is backend
        assert session.with_options(num_executors=4).backend is backend


class TestVectorizedConfiguration:
    def test_default_is_true(self):
        session = SkylineSession()
        assert session.vectorized is True

    def test_false_disables(self):
        assert connect(vectorized=False).vectorized is False

    def test_invalid_value_rejected(self):
        for bad in ("yes", "auto"):
            with pytest.raises(ValueError, match="vectorized"):
                connect(vectorized=bad)
            with pytest.raises(ValueError, match="vectorized"):
                SkylineSession().with_options(vectorized=bad)

    def test_int_aliases_rejected(self):
        # Regression: 1 == True under membership tests; the flag is a
        # bool, so ints are rejected.
        for bad in (1, 0):
            with pytest.raises(ValueError, match="vectorized"):
                connect(vectorized=bad)
            with pytest.raises(ValueError, match="vectorized"):
                SkylineSession().with_options(vectorized=bad)

    def test_with_vectorized_clones_and_shares_catalog(self):
        session = connect(vectorized=False)
        session.create_table("v", [("a", INTEGER, False)], [(1,), (2,)])
        clone = session.with_options(vectorized=True)
        assert clone.catalog is session.catalog
        assert session.vectorized is False
        assert clone.vectorized is True

    def test_clones_inherit_the_flag(self):
        session = connect(vectorized=False)
        assert session.with_options(num_executors=4).vectorized is False

    def test_explain_labels_the_kernels(self):
        session = connect(vectorized=True)
        session.create_table(
            "pts", [("a", INTEGER, False), ("b", INTEGER, False)],
            [(1, 2), (2, 1)])
        text = session.explain(parse_query(
            "SELECT * FROM pts SKYLINE OF a MIN, b MIN"))
        assert "vectorized BNL" in text
        scalar = session.with_options(vectorized=False)
        assert "vectorized" not in scalar.explain(parse_query(
            "SELECT * FROM pts SKYLINE OF a MIN, b MIN"))


class TestColumnarConfiguration:
    def test_default_is_true(self):
        session = SkylineSession()
        assert session.columnar is True

    def test_invalid_flags_rejected(self):
        for bad in (1, 0, "yes", "auto", None):
            with pytest.raises(ValueError, match="columnar"):
                connect(columnar=bad)
            with pytest.raises(ValueError, match="columnar"):
                SkylineSession().with_options(columnar=bad)

    def test_with_columnar_clones_and_shares_catalog(self):
        session = connect(columnar=False)
        session.create_table("c", [("a", INTEGER, False)], [(1,), (2,)])
        clone = session.with_options(columnar=True)
        assert clone.catalog is session.catalog
        assert session.columnar is False
        assert clone.columnar is True
        assert session.with_options(num_executors=4).columnar is False

    def test_true_runs_skyline_queries(self):
        session = connect(columnar=True)
        session.create_table("c", [("a", INTEGER, False),
                                   ("b", INTEGER, False)],
                             [(1, 2), (2, 1), (3, 3)])
        result = session.sql(
            "SELECT * FROM c SKYLINE OF a MIN, b MIN").to_tuples()
        assert sorted(result) == [(1, 2), (2, 1)]

    def test_explain_reports_per_operator_modes(self):
        session = connect(columnar=True)
        session.create_table(
            "pts", [("a", INTEGER, False), ("b", INTEGER, False)],
            [(1, 2), (2, 1)])
        query = parse_query(
            "SELECT a FROM pts WHERE b > 0 SKYLINE OF a MIN, b MIN")
        text = session.explain(query)
        assert "[batch]" in text
        assert "Filter" in text and "Scan" in text
        row_text = session.with_options(columnar=False).explain(query)
        assert "[row]" in row_text
        assert "[batch]" not in row_text

    def test_complex_query_stays_batch(self):
        """Joins and the aggregate print their tag, and under batch
        scans it is ``[batch]`` from scan to global skyline."""
        from repro.datasets.musicbrainz import (register_musicbrainz,
                                                skyline_query)
        session = connect(columnar=True)
        register_musicbrainz(session, 50, seed=1)
        query = parse_query(skyline_query(6))
        text = session.explain(query)
        assert "HashJoin(left_outer) [batch]" in text
        assert "HashAggregate(keys=[ri.id]) [batch]" in text
        assert "[row]" not in text
        row_text = session.with_options(columnar=False).explain(query)
        assert "HashJoin(inner) [row]" in row_text
        assert "[batch]" not in row_text
