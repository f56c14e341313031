"""SessionConfig, repro.connect, and the deprecation shims."""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro import SessionConfig, SkylineSession
from repro.errors import BenchmarkTimeout


class TestSessionConfig:
    def test_defaults(self):
        config = SessionConfig()
        assert config.num_executors == 2
        assert config.skyline_algorithm == "auto"
        assert config.backend == "local"
        assert config.time_budget_s is None

    def test_frozen(self):
        config = SessionConfig()
        with pytest.raises(AttributeError):
            config.num_executors = 4

    def test_validation_num_executors(self):
        with pytest.raises(ValueError):
            SessionConfig(num_executors=0)

    def test_validation_algorithm(self):
        with pytest.raises(ValueError):
            SessionConfig(skyline_algorithm="nope")

    def test_partitioning_options_are_gone(self):
        with pytest.raises(TypeError):
            SessionConfig(skyline_partitioning="grid")
        with pytest.raises(TypeError, match="unknown session option"):
            repro.connect(skyline_partitions=4)

    def test_validation_backend(self):
        with pytest.raises(ValueError):
            SessionConfig(backend="gpu")

    def test_thread_backend_was_removed(self):
        with pytest.raises(ValueError, match="was removed"):
            SessionConfig(backend="thread")

    def test_validation_vectorized_rejects_ints(self):
        with pytest.raises(ValueError):
            SessionConfig(vectorized=1)

    @pytest.mark.parametrize("field", ("vectorized", "columnar"))
    def test_plane_flags_are_bools_defaulting_to_true(self, field):
        assert getattr(SessionConfig(), field) is True
        assert repro.connect(**{field: False})._plan_key("SELECT 1") != \
            repro.connect()._plan_key("SELECT 1")
        for bad in ("auto", 1, None):
            with pytest.raises(ValueError, match=field):
                SessionConfig(**{field: bad})

    def test_with_options(self):
        config = SessionConfig().with_options(backend="process",
                                              num_workers=2)
        assert config.backend == "process"
        assert config.num_workers == 2
        # the original is untouched
        assert SessionConfig().backend == "local"

    def test_with_options_unknown_name(self):
        with pytest.raises(TypeError, match="unknown session option"):
            SessionConfig().with_options(executors=4)

    def test_as_dict_is_jsonable(self):
        import json
        json.dumps(SessionConfig().as_dict())

    def test_shared_memory_option_is_gone(self):
        # The process backend picks its transport from the platform.
        assert len(dataclasses.fields(SessionConfig)) == 14
        with pytest.raises(TypeError, match="unknown session option"):
            repro.connect(shared_memory=False)


class TestConnect:
    def test_connect_returns_session(self):
        session = repro.connect()
        assert isinstance(session, SkylineSession)

    def test_connect_with_options(self):
        session = repro.connect(num_executors=5, vectorized=False)
        assert session.config.num_executors == 5
        assert session.cluster_config.num_executors == 5

    def test_connect_with_config(self):
        config = SessionConfig(skyline_algorithm="sfs")
        session = repro.connect(config=config)
        assert session.skyline_algorithm == "sfs"

    def test_connect_emits_no_warnings(self, recwarn):
        repro.connect(num_executors=3)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_all_exports(self):
        for name in ("connect", "SessionConfig", "SkylineSession",
                     "QueryResult", "DataFrame", "AnalysisError",
                     "ParseError", "ExecutionError"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_time_budget_config_field(self):
        session = repro.connect(time_budget_s=0.0)
        session.create_table("t", [("x", repro.INTEGER, False)],
                             [(i,) for i in range(100)])
        with pytest.raises(BenchmarkTimeout):
            session.sql("SELECT * FROM t SKYLINE OF x MIN").collect()


class TestDeprecatedSurface:
    def test_legacy_kwargs_and_builders_are_gone(self):
        # The pre-1.1 constructor keywords and with_* builders were
        # deprecation shims; SessionConfig fields go through
        # repro.connect / with_options only.
        with pytest.raises(TypeError):
            SkylineSession(num_executors=7)
        session = SkylineSession(config=SessionConfig(num_executors=3))
        assert session.config.num_executors == 3
        for builder in ("with_executors", "with_backend",
                        "with_skyline_algorithm", "with_vectorized",
                        "with_columnar", "with_skyline_partitioning"):
            assert not hasattr(session, builder)

    def test_with_options_no_warning(self, recwarn):
        session = repro.connect().with_options(skyline_algorithm="sfs")
        assert session.skyline_algorithm == "sfs"
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_with_options_shares_catalog(self):
        base = repro.connect()
        base.create_table("t", [("x", repro.INTEGER, False)], [(1,)])
        derived = base.with_options(num_executors=4)
        assert derived.catalog is base.catalog
        assert derived.sql("SELECT * FROM t").collect()


class TestQueryResultFields:
    def test_benign_defaults(self, hotels_session):
        result = hotels_session.sql(
            "SELECT * FROM hotels SKYLINE OF price MIN, rating MAX"
        ).run()
        assert result.cache_hit is False
        assert result.scheduler_wait_s == 0.0
