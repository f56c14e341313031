"""SharedColumnStore: handle round-trips, lifecycle, crash hygiene."""

import gc
import pickle

import pytest

from repro.engine import shm
from repro.engine.batch import ColumnBatch
from repro.engine.shm import (SHM_STATE_TAG, SharedColumnStore, activation,
                              active_store, leaked_segments,
                              shared_memory_available)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="shared memory not available on this platform")


def make_batch(n=4096, width=3):
    rows = [tuple(float(i * width + j) for j in range(width))
            for i in range(n)]
    return ColumnBatch.from_rows(rows, width)


def make_mixed_batch(n=4096):
    rows = [(float(i), None if i % 7 == 0 else i, f"s{i}")
            for i in range(n)]
    return ColumnBatch.from_rows(rows, 3)


@pytest.fixture
def store():
    instance = SharedColumnStore()
    yield instance
    instance.close()


class TestAvailabilityProbe:
    def test_probe_is_cached(self):
        first = shared_memory_available()
        assert shared_memory_available() is first

    def test_probe_reset_hook(self):
        shm._reset_probe()
        assert shm._AVAILABLE is None
        assert isinstance(shared_memory_available(), bool)


class TestRegistration:
    def test_state_for_shares_large_batch(self, store):
        batch = make_batch()
        state = store.state_for(batch)
        assert state is not None
        assert state[0] == SHM_STATE_TAG
        assert state[2] == batch.num_rows
        assert store.stats()["segments_created"] == 1

    def test_repeat_state_for_reuses_segment(self, store):
        batch = make_batch()
        first = store.state_for(batch)
        second = store.state_for(batch)
        assert first is second
        assert store.stats()["segments_created"] == 1
        assert store.stats()["handles_served"] == 2

    def test_small_batch_falls_back(self, store):
        batch = make_batch(n=8)
        assert store.state_for(batch) is None
        assert store.stats()["pickle_fallbacks"] == 1

    def test_zero_row_batch_falls_back(self, store):
        batch = ColumnBatch.from_rows([], 3)
        assert store.state_for(batch) is None

    def test_budget_exhaustion_falls_back(self):
        store = SharedColumnStore(max_bytes=1)
        try:
            assert store.state_for(make_batch()) is None
            assert store.stats()["pickle_fallbacks"] == 1
        finally:
            store.close()

    def test_closed_store_falls_back(self, store):
        store.close()
        assert store.state_for(make_batch()) is None

    def test_object_columns_travel_inline(self, store):
        batch = make_mixed_batch()
        state = store.state_for(batch)
        assert state is not None
        restored = shm.restore_state(state)
        assert restored[1] == batch.num_rows


class TestHandleRoundTrip:
    def test_pickle_round_trip_bit_identical(self, store):
        batch = make_mixed_batch()
        with activation(store):
            blob = pickle.dumps(batch)
        back = pickle.loads(blob)
        assert back.to_rows() == batch.to_rows()
        # The handle is far smaller than the data it stands for.
        assert len(blob) < batch.num_rows * 8

    def test_restored_arrays_are_read_only(self, store):
        batch = make_batch()
        with activation(store):
            back = pickle.loads(pickle.dumps(batch))
        import numpy as np
        for column in back.columns:
            assert isinstance(column.data, np.ndarray)
            assert not column.data.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                column.data[0] = 0.0

    def test_inactive_store_pickles_by_value(self, store):
        batch = make_batch()
        blob = pickle.dumps(batch)  # no activation
        assert pickle.loads(blob).to_rows() == batch.to_rows()
        assert store.stats()["segments_created"] == 0


def _decode(batch):
    """Worker-side payload: decode the shipped columns back to rows
    (the carried row tuples never travel)."""
    return batch.to_rows()


class TestSliceTransport:
    """Zero-copy slices of a read-only resident batch ship like any
    other batch: as shm handles on the process backend, by value
    otherwise, and leave ``/dev/shm`` clean."""

    def test_slices_round_trip_on_process_backend(self):
        from repro.engine.backends import ProcessBackend, StageTask
        from repro.engine.cluster import ExecutionContext
        before = set(leaked_segments())
        whole = make_mixed_batch(n=12000)
        whole.set_read_only()
        rows = whole.to_rows()
        bounds = [(0, 5000), (5000, 5003), (5003, 12000), (12000, 12000)]
        store = SharedColumnStore()
        backend = ProcessBackend(2)
        try:
            ctx = ExecutionContext(backend=backend, shm_store=store)
            tasks = [StageTask(partition=i, rows_in=b - a, func=_decode,
                               args=(whole.slice(a, b),))
                     for i, (a, b) in enumerate(bounds)]
            results = ctx.run_stage("slices", tasks)
            assert results == [rows[a:b] for a, b in bounds]
            stats = store.stats()
            # The two big slices travelled as handles; the 3-row and
            # the empty one fell back to pickling by value.
            assert stats["handles_served"] == 2
            assert stats["pickle_fallbacks"] == 2
            assert stats["active_segments"] == 0  # released at the barrier
        finally:
            backend.close()
            store.close()
        assert set(leaked_segments()) <= before

    def test_slice_registers_only_its_own_bytes(self, store):
        whole = make_batch(n=20000)
        piece = whole.slice(0, 5000)
        assert store.state_for(piece) is not None
        assert store.stats()["active_bytes"] == piece.nbytes


class TestActivation:
    def test_activation_scopes_the_global(self, store):
        assert active_store() is None
        with activation(store):
            assert active_store() is store
        assert active_store() is None

    def test_activation_none_is_a_no_op(self):
        with activation(None):
            assert active_store() is None

    def test_closed_store_never_active(self, store):
        store.close()
        with activation(store):
            assert active_store() is None


class TestLifecycle:
    def test_end_stage_releases_transients(self, store):
        store.state_for(make_batch())
        assert store.stats()["active_segments"] == 1
        store.end_stage()
        assert store.stats()["active_segments"] == 0
        assert store.stats()["segments_released"] == 1

    def test_pinned_survives_end_stage(self, store):
        batch = make_batch()
        assert store.pin([batch]) == 1
        store.end_stage()
        assert store.stats()["active_segments"] == 1
        store.unpin([batch])
        assert store.stats()["active_segments"] == 0

    def test_pin_upgrades_transient(self, store):
        batch = make_batch()
        store.state_for(batch)
        assert store.pin([batch]) == 1
        assert store.stats()["segments_created"] == 1
        store.end_stage()
        assert store.stats()["active_segments"] == 1

    def test_dead_pinned_batch_is_swept(self, store):
        batch = make_batch()
        store.pin([batch])
        del batch
        gc.collect()
        store.end_stage()  # sweeps
        assert store.stats()["active_segments"] == 0

    def test_pin_ignores_non_batches(self, store):
        assert store.pin([None, "rows", 7]) == 0

    def test_close_releases_everything(self, store):
        pinned = make_batch()
        store.pin([pinned])
        store.state_for(make_batch(n=5000))
        names = store.segment_names()
        assert len(names) == 2
        store.close()
        assert store.closed
        assert store.stats()["active_segments"] == 0
        for name in names:
            assert name.lstrip("/") not in leaked_segments()

    def test_no_leaked_segments_after_close(self, store):
        before = set(leaked_segments())
        store.state_for(make_batch())
        store.close()
        assert set(leaked_segments()) <= before


class TestWorkerAttachments:
    def test_released_segments_are_unmapped_on_next_attach(self, store):
        # Worker view of two consecutive stages: the mapping of a
        # segment the driver released at the stage barrier must not
        # stay cached (its pages would stay resident, invisible to
        # leaked_segments()).
        first_name = store.state_for(make_batch())[1]
        first = shm._attach(first_name)
        assert shm._attach(first_name) is first  # cached while linked
        store.end_stage()  # driver unlinks
        assert first_name in shm._ATTACHED
        second_name = store.state_for(make_batch(n=5000))[1]
        try:
            shm._attach(second_name)
            assert first_name not in shm._ATTACHED
            assert first.buf is None  # closed, not merely evicted
            assert second_name in shm._ATTACHED
        finally:
            shm._close_attached(second_name)


class TestStats:
    def test_stats_keys(self, store):
        stats = store.stats()
        for key in ("active_segments", "active_bytes", "segments_created",
                    "segments_released", "bytes_shared", "handles_served",
                    "pickle_fallbacks"):
            assert key in stats

    # -- every pickle fallback is counted under its reason ----------------

    @staticmethod
    def _reasons(store):
        return {key[len("fallback_"):]: value
                for key, value in store.stats().items()
                if key.startswith("fallback_")}

    def _assert_only(self, store, reason):
        stats = store.stats()
        expected = dict.fromkeys(shm.FALLBACK_REASONS, 0)
        expected[reason] = 1
        assert self._reasons(store) == expected
        assert stats["pickle_fallbacks"] == 1
        assert stats["handles_served"] == stats["segments_created"] == 0
        # Flat ints only: consumers difference two snapshots key by key.
        assert all(type(value) is int for value in stats.values())

    def test_fallback_too_small(self, store):
        assert store.state_for(make_batch(n=8)) is None
        self._assert_only(store, "too_small")

    def test_fallback_object_column(self, store):
        strings = ColumnBatch.from_rows(
            [(f"s{i}", f"t{i}") for i in range(4096)], 2)
        assert store.state_for(strings) is None
        self._assert_only(store, "object_column")

    def test_fallback_zero_rows(self, store):
        assert store.state_for(make_batch().take([])) is None
        self._assert_only(store, "zero_rows")

    def test_fallback_budget(self):
        store = SharedColumnStore(max_bytes=1)
        try:
            assert store.state_for(make_batch()) is None
            self._assert_only(store, "budget")
        finally:
            store.close()

    def test_fallback_closed(self, store):
        store.close()
        assert store.state_for(make_batch()) is None
        self._assert_only(store, "closed")

    def test_reasons_sum_to_pickle_fallbacks_and_skip_pins(self, store):
        small, empty = make_batch(n=8), make_batch().take([])
        assert store.pin([small, empty]) == 0  # refused, but not shipped
        assert store.stats()["pickle_fallbacks"] == 0
        for batch in (small, small, empty, make_batch()):
            store.state_for(batch)
        reasons = self._reasons(store)
        assert reasons["too_small"] == 2 and reasons["zero_rows"] == 1
        assert sum(reasons.values()) == store.stats()["pickle_fallbacks"] == 3
        assert store.stats()["handles_served"] == 1

    def test_bytes_accounting_balances(self, store):
        store.state_for(make_batch())
        assert store.stats()["active_bytes"] > 0
        store.end_stage()
        assert store.stats()["active_bytes"] == 0
