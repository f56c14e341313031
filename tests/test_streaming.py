"""Streaming skyline maintenance (Section 7 future work)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DominanceStats, bnl_skyline, make_dimensions
from repro.errors import ExecutionError
from repro.streaming import SkylineStream
from tests.conftest import skyline_oracle

MIN2 = make_dimensions([(0, "min"), (1, "min")])

rows_2d = st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                   max_size=50)
maybe_int = st.one_of(st.none(), st.integers(0, 6))
rows_nullable = st.lists(st.tuples(maybe_int, maybe_int), max_size=30)


class TestSkylineStream:
    def test_empty_stream(self):
        stream = SkylineStream(MIN2)
        assert stream.current() == []
        assert stream.window_size == 0

    def test_requires_dimensions(self):
        with pytest.raises(ExecutionError):
            SkylineStream([])

    def test_add_reports_survival(self):
        stream = SkylineStream(MIN2)
        assert stream.add((2, 2)) is True
        assert stream.add((3, 3)) is False  # dominated on arrival
        assert stream.add((1, 1)) is True   # evicts (2,2)
        assert stream.current() == [(1, 1)]

    def test_counters(self):
        stream = SkylineStream(MIN2)
        stream.add_all([(2, 2), (3, 3), (1, 1)])
        assert stream.rows_seen == 3
        assert stream.rows_dropped == 2

    @given(rows_2d, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_counts_like_bnl(self, rows, distinct):
        # The stream runs BNL's window step: the same window, and the
        # same count of directed dominance tests as DominanceStats.
        stream = SkylineStream(MIN2, distinct=distinct)
        stream.add_all(rows)
        stats = DominanceStats()
        assert stream.current() == bnl_skyline(rows, MIN2, distinct=distinct,
                                               stats=stats)
        assert stream.comparisons == stats.comparisons

    def test_distinct_mode(self):
        stream = SkylineStream(MIN2, distinct=True)
        stream.add_all([(1, 1), (1, 1)])
        assert stream.current() == [(1, 1)]

    def test_null_rows_rejected_by_default(self):
        stream = SkylineStream(MIN2)
        with pytest.raises(ExecutionError, match="allow_nulls"):
            stream.add((None, 1))

    def test_null_rows_buffered_when_allowed(self):
        stream = SkylineStream(MIN2, allow_nulls=True)
        stream.add((2, 5))
        stream.add((None, 1))
        # (None,1) beats (2,5) on the common non-null dimension, so the
        # null-aware skyline keeps only the null row.
        assert sorted(stream.current(), key=repr) == [(None, 1)]

    @given(rows_2d)
    @settings(max_examples=80, deadline=None)
    def test_stream_matches_batch(self, rows):
        stream = SkylineStream(MIN2)
        stream.add_all(rows)
        assert sorted(stream.current()) == \
            sorted(bnl_skyline(rows, MIN2))

    @given(rows_nullable)
    @settings(max_examples=50, deadline=None)
    def test_nullable_stream_matches_oracle(self, rows):
        stream = SkylineStream(MIN2, allow_nulls=True)
        stream.add_all(rows)
        expected = skyline_oracle(rows, MIN2, complete=False)
        assert sorted(stream.current(), key=repr) == \
            sorted(expected, key=repr)


class TestMicroBatches:
    def test_batch_delta_reporting(self):
        stream = SkylineStream(MIN2)
        first = stream.process_batch([(2, 2), (3, 3)])
        assert first["added"] == [(2, 2)]
        assert first["evicted"] == []
        second = stream.process_batch([(1, 1)])
        assert second["added"] == [(1, 1)]
        assert second["evicted"] == [(2, 2)]
        assert second["skyline_size"] == 1

    @given(rows_2d, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_batching_is_transparent(self, rows, batch_size):
        stream = SkylineStream(MIN2)
        for start in range(0, len(rows), batch_size):
            stream.process_batch(rows[start:start + batch_size])
        assert sorted(stream.current()) == \
            sorted(bnl_skyline(rows, MIN2))


class TestCheckpointing:
    def test_checkpoint_restore_roundtrip(self):
        stream = SkylineStream(MIN2, allow_nulls=True)
        stream.add_all([(2, 2), (3, 3), (1, 4)])
        stream.add((None, 0))
        state = stream.checkpoint()
        restored = SkylineStream.restore(MIN2, state, allow_nulls=True)
        assert sorted(restored.current(), key=repr) == \
            sorted(stream.current(), key=repr)
        assert restored.rows_seen == stream.rows_seen
        # The restored stream keeps working.
        restored.add((0, 0))
        assert (0, 0) in restored.current()


class TestNullBuffering:
    """The ``allow_nulls=True`` buffering path (Section 5.7 cost
    profile): null rows are parked and the skyline is recomputed with
    the flag-based algorithm on demand."""

    def test_null_rows_count_as_seen_not_dropped(self):
        stream = SkylineStream(MIN2, allow_nulls=True)
        stream.add_all([(None, 1), (2, 2), (1, None)])
        assert stream.rows_seen == 3
        assert stream.rows_dropped == 0
        # The window holds only the complete row; nulls sit in the
        # buffer and do not inflate window_size.
        assert stream.window_size == 1

    def test_add_reports_survival_for_buffered_nulls(self):
        stream = SkylineStream(MIN2, allow_nulls=True)
        assert stream.add((None, 5)) is True  # buffered, not judged yet
        # Even a row the current skyline would reject is buffered.
        stream.add((0, 0))
        assert stream.add((None, 9)) is True

    def test_current_is_recomputed_after_each_add(self):
        stream = SkylineStream(MIN2, allow_nulls=True)
        stream.add((None, 1))
        assert sorted(stream.current(), key=repr) == [(None, 1)]
        stream.add((3, 0))
        # (3, 0) beats (None, 1) on the common dimension.
        assert sorted(stream.current(), key=repr) == [(3, 0)]
        stream.add((None, 0))
        expected = skyline_oracle([(None, 1), (3, 0), (None, 0)], MIN2,
                                  complete=False)
        assert sorted(stream.current(), key=repr) == \
            sorted(expected, key=repr)

    def test_process_batch_with_nulls_reports_skyline_size(self):
        stream = SkylineStream(MIN2, allow_nulls=True)
        report = stream.process_batch([(2, 2), (None, 1)])
        # The delta tracks the complete-row window; the size reflects
        # the full null-aware skyline.
        assert report["added"] == [(2, 2)]
        assert report["skyline_size"] == len(stream.current())

    def test_distinct_applies_to_buffered_nulls(self):
        stream = SkylineStream(MIN2, distinct=True, allow_nulls=True)
        stream.add_all([(None, 0), (None, 0), (9, 9)])
        assert sorted(stream.current(), key=repr) == [(None, 0)]

    def test_checkpoint_preserves_null_buffer(self):
        stream = SkylineStream(MIN2, allow_nulls=True)
        stream.add_all([(1, 1), (None, 0), (None, 2)])
        state = stream.checkpoint()
        assert sorted(state["null_buffer"]) == [(None, 0), (None, 2)]
        restored = SkylineStream.restore(MIN2, state, allow_nulls=True)
        restored.add((None, 3))
        expected = skyline_oracle(
            [(1, 1), (None, 0), (None, 2), (None, 3)], MIN2,
            complete=False)
        assert sorted(restored.current(), key=repr) == \
            sorted(expected, key=repr)

    def test_restore_preserves_null_mask_window_state(self):
        """Regression: a round trip used to silently restore with
        ``allow_nulls=False``, so a stream whose checkpoint carried a
        null buffer rejected the very rows it had been accepting."""
        stream = SkylineStream(MIN2, allow_nulls=True)
        stream.add_all([(2, 2), (None, 0)])
        restored = SkylineStream.restore(MIN2, stream.checkpoint())
        assert restored.allow_nulls is True
        restored.add((None, 1))  # must buffer, not raise
        expected = skyline_oracle([(2, 2), (None, 0), (None, 1)], MIN2,
                                  complete=False)
        assert sorted(restored.current(), key=repr) == \
            sorted(expected, key=repr)

    def test_restore_preserves_distinct_mode(self):
        stream = SkylineStream(MIN2, distinct=True)
        stream.add((1, 1))
        restored = SkylineStream.restore(MIN2, stream.checkpoint())
        assert restored.distinct is True
        restored.add((1, 1))
        assert restored.current() == [(1, 1)]

    def test_restore_explicit_override_beats_checkpoint_flags(self):
        stream = SkylineStream(MIN2, allow_nulls=True)
        stream.add((2, 2))
        restored = SkylineStream.restore(MIN2, stream.checkpoint(),
                                         allow_nulls=False)
        with pytest.raises(ExecutionError, match="allow_nulls"):
            restored.add((None, 1))

    def test_restore_version1_state_defaults_to_strict(self):
        """Old checkpoints (no mode flags) restore with the historical
        constructor defaults."""
        state = {"window": [(2, 2)], "null_buffer": [],
                 "rows_seen": 1, "rows_dropped": 0}
        restored = SkylineStream.restore(MIN2, state)
        assert restored.allow_nulls is False and \
            restored.distinct is False
        with pytest.raises(ExecutionError, match="allow_nulls"):
            restored.add((None, 1))

    def test_incomplete_dominance_streams_nulls_through_window(self):
        """An explicit restricted
        dominance test lets null rows flow through the window (no
        buffering) -- sound within one null-bitmap partition."""
        from repro.core.dominance import dominates_incomplete
        stream = SkylineStream(MIN2, dominance=dominates_incomplete)
        stream.add_all([(None, 2), (None, 1), (None, 3)])
        assert stream.window_size == 1
        assert stream.current() == [(None, 1)]
        assert stream.comparisons > 0


class TestStreamMatchesBatchEngine:
    """SkylineStream and the batch engine must agree on the same row
    sequence -- the stream is the incremental view of the same query."""

    def _engine_skyline(self, rows, nullable=False):
        from repro import connect
        from repro.engine.types import INTEGER
        session = connect(num_executors=2)
        session.create_table(
            "s", [("a", INTEGER, nullable), ("b", INTEGER, nullable)],
            rows)
        return session.sql(
            "SELECT * FROM s SKYLINE OF a MIN, b MIN").to_tuples()

    @given(rows_2d)
    @settings(max_examples=40, deadline=None)
    def test_complete_sequences_agree(self, rows):
        stream = SkylineStream(MIN2)
        stream.add_all(rows)
        assert sorted(stream.current()) == \
            sorted(self._engine_skyline(rows))

    @given(rows_nullable)
    @settings(max_examples=30, deadline=None)
    def test_nullable_sequences_agree(self, rows):
        stream = SkylineStream(MIN2, allow_nulls=True)
        stream.add_all(rows)
        assert sorted(stream.current(), key=repr) == \
            sorted(self._engine_skyline(rows, nullable=True), key=repr)

    def test_micro_batches_agree_with_engine(self):
        rows = [(i % 7, (i * 3) % 5) for i in range(40)]
        stream = SkylineStream(MIN2)
        for start in range(0, len(rows), 8):
            stream.process_batch(rows[start:start + 8])
        assert sorted(stream.current()) == \
            sorted(self._engine_skyline(rows))

