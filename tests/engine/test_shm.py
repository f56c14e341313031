"""SharedColumnStore: handle round-trips, lifecycle, crash hygiene."""

import gc
import pickle
import threading

import pytest

from repro import SessionConfig, SkylineSession
from repro.engine import shm
from repro.engine.backends import ProcessBackend, SharedBackend
from repro.engine.batch import ColumnBatch
from repro.engine.faults import FAULT_PLAN_ENV
from repro.engine.shm import (SharedBatch, SharedColumnStore,
                              leaked_segments, shared_memory_available)
from repro.engine.types import DOUBLE

SQL = "SELECT * FROM t SKYLINE OF a MIN, b MIN"

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


def share(store, batch):
    """Export one batch: its handle state (``None`` when it ships by
    value) and the claims :meth:`SharedColumnStore.end_stage` takes."""
    (arg,), claims = store.export((batch,))
    return (arg.state if isinstance(arg, SharedBatch) else None), claims


def state_for(store, batch):
    """Just the handle state of :func:`share`."""
    return share(store, batch)[0]


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
        state = state_for(store, batch)
        assert state is not None
        assert state[0] in store.segment_names()
        assert state[1] == batch.num_rows
        assert store.stats()["segments_created"] == 1

    def test_repeat_state_for_reuses_segment(self, store):
        batch = make_batch()
        first = state_for(store, batch)
        second = state_for(store, batch)
        assert first is second
        assert store.stats()["segments_created"] == 1
        assert store.stats()["handles_served"] == 2

    def test_small_batch_falls_back(self, store):
        batch = make_batch(n=8)
        assert state_for(store, batch) is None
        assert store.stats()["pickle_fallbacks"] == 1

    def test_zero_row_batch_falls_back(self, store):
        batch = ColumnBatch.from_rows([], 3)
        assert state_for(store, batch) is None

    def test_budget_exhaustion_falls_back(self):
        store = SharedColumnStore(max_bytes=1)
        try:
            assert state_for(store, make_batch()) is None
            assert store.stats()["pickle_fallbacks"] == 1
        finally:
            store.close()

    def test_closed_store_falls_back(self, store):
        store.close()
        assert state_for(store, make_batch()) is None

    def test_object_columns_travel_inline(self, store):
        batch = make_mixed_batch()
        state = state_for(store, batch)
        assert state is not None
        restored = shm.restore_batch(state)
        assert restored.num_rows == batch.num_rows
        assert restored.to_rows() == batch.to_rows()


class TestHandleRoundTrip:
    def test_pickle_round_trip_bit_identical(self, store):
        batch = make_mixed_batch()
        (handle,), _ = store.export((batch,))
        blob = pickle.dumps(handle)
        back = pickle.loads(blob)
        assert type(back) is ColumnBatch
        assert back.to_rows() == batch.to_rows()
        # The handle is far smaller than the data it stands for.
        assert len(blob) < batch.num_rows * 8

    def test_restored_arrays_are_read_only(self, store):
        batch = make_batch()
        (handle,), _ = store.export((batch,))
        back = pickle.loads(pickle.dumps(handle))
        import numpy as np
        for column in back.columns:
            assert isinstance(column.data, np.ndarray)
            assert not column.data.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                column.data[0] = 0.0

    def test_unexported_batch_pickles_by_value(self, store):
        batch = make_batch()
        blob = pickle.dumps(batch)  # not exported: by value
        assert pickle.loads(blob).to_rows() == batch.to_rows()
        assert store.stats()["segments_created"] == 0
        assert len(blob) > batch.nbytes


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
        assert state_for(store, piece) is not None
        assert store.stats()["active_bytes"] == piece.nbytes


class TestExport:
    def test_export_swaps_only_the_batches_it_serves(self, store):
        big, small = make_batch(), make_batch(n=8)
        args = (big, small, ("dims",), 7)
        exported, claims = store.export(args)
        assert isinstance(exported[0], SharedBatch)
        assert len(claims) == 1
        assert exported[1:] == args[1:]  # refused: ships by value
        assert store.stats()["handles_served"] == 1
        assert store.stats()["fallback_too_small"] == 1

    def test_export_leaves_no_global_behind(self, store):
        """Exporting is explicit: after it, pickling a batch (on any
        thread) stays by value and registers nothing."""
        batch = make_batch()
        store.export((batch,))
        created = store.stats()["segments_created"]
        assert pickle.loads(pickle.dumps(batch)).to_rows() == \
            batch.to_rows()
        assert len(pickle.dumps(batch)) > batch.nbytes
        assert store.stats()["segments_created"] == created

    def test_closed_store_exports_nothing(self, store):
        store.close()
        batch = make_batch()
        assert store.export((batch,)) == ((batch,), [])
        assert store.stats()["fallback_closed"] == 1


class TestLifecycle:
    def test_end_stage_releases_transients(self, store):
        _, claims = share(store, make_batch())
        assert store.stats()["active_segments"] == 1
        store.end_stage(claims)
        assert store.stats()["active_segments"] == 0
        assert store.stats()["segments_released"] == 1

    def test_end_stage_releases_only_its_own_claims(self, store):
        # Two queries of one session, each in its own stage.
        (ours, ours_claims), (theirs, _) = (share(store, make_batch()),
                                           share(store, make_batch()))
        store.end_stage(ours_claims)
        assert store.segment_names() == [theirs[0]]
        assert ours[0].lstrip("/") not in leaked_segments()

    def test_batch_shipped_by_two_stages_outlives_the_first(self, store):
        batch = make_batch()
        (state, first), (_, second) = share(store, batch), \
            share(store, batch)
        assert store.stats()["segments_created"] == 1
        store.end_stage(first)
        assert store.segment_names() == [state[0]]
        store.end_stage(second)
        assert store.stats()["active_segments"] == 0

    def test_pinned_survives_end_stage(self, store):
        batch = make_batch()
        assert store.pin([batch]) == 1
        store.end_stage([])
        assert store.stats()["active_segments"] == 1
        store.unpin([batch])
        assert store.stats()["active_segments"] == 0

    def test_unpin_waits_for_the_stage_shipping_it(self, store):
        # A cached plan re-pins after DML while another execution of it
        # is still shipping the stale batch.
        batch = make_batch()
        store.pin([batch])
        (state, claims) = share(store, batch)
        store.unpin([batch])
        assert store.segment_names() == [state[0]]
        store.end_stage(claims)
        assert store.stats()["active_segments"] == 0

    def test_pin_upgrades_transient(self, store):
        batch = make_batch()
        _, claims = share(store, batch)
        assert store.pin([batch]) == 1
        assert store.stats()["segments_created"] == 1
        store.end_stage(claims)
        assert store.stats()["active_segments"] == 1

    def test_dead_pinned_batch_is_swept(self, store):
        batch = make_batch()
        store.pin([batch])
        del batch
        gc.collect()
        store.end_stage([])  # sweeps
        assert store.stats()["active_segments"] == 0

    def test_pin_ignores_non_batches(self, store):
        assert store.pin([None, "rows", 7]) == 0

    def test_close_releases_everything(self, store):
        pinned = make_batch()
        store.pin([pinned])
        state_for(store, make_batch(n=5000))
        names = store.segment_names()
        assert len(names) == 2
        store.close()
        assert store.closed
        assert store.stats()["active_segments"] == 0
        for name in names:
            assert name.lstrip("/") not in leaked_segments()

    def test_no_leaked_segments_after_close(self, store):
        before = set(leaked_segments())
        state_for(store, make_batch())
        store.close()
        assert set(leaked_segments()) <= before


class TestWorkerAttachments:
    def test_released_segments_are_unmapped_on_next_attach(self, store):
        # Worker view of two consecutive stages: the mapping of a
        # segment the driver released at the stage barrier must not
        # stay cached (its pages would stay resident, invisible to
        # leaked_segments()).
        state, claims = share(store, make_batch())
        first_name = state[0]
        first = shm._attach(first_name)
        assert shm._attach(first_name) is first  # cached while linked
        store.end_stage(claims)  # driver unlinks
        assert first_name in shm._ATTACHED
        second_name = state_for(store, make_batch(n=5000))[0]
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
        assert state_for(store, make_batch(n=8)) is None
        self._assert_only(store, "too_small")

    def test_fallback_object_column(self, store):
        strings = ColumnBatch.from_rows(
            [(f"s{i}", f"t{i}") for i in range(4096)], 2)
        assert state_for(store, strings) is None
        self._assert_only(store, "object_column")

    def test_fallback_zero_rows(self, store):
        assert state_for(store, make_batch().take([])) is None
        self._assert_only(store, "zero_rows")

    def test_fallback_budget(self):
        store = SharedColumnStore(max_bytes=1)
        try:
            assert state_for(store, make_batch()) is None
            self._assert_only(store, "budget")
        finally:
            store.close()

    def test_fallback_closed(self, store):
        store.close()
        assert state_for(store, make_batch()) is None
        self._assert_only(store, "closed")

    def test_reasons_sum_to_pickle_fallbacks_and_skip_pins(self, store):
        small, empty = make_batch(n=8), make_batch().take([])
        assert store.pin([small, empty]) == 0  # refused, but not shipped
        assert store.stats()["pickle_fallbacks"] == 0
        for batch in (small, small, empty, make_batch()):
            state_for(store, batch)
        reasons = self._reasons(store)
        assert reasons["too_small"] == 2 and reasons["zero_rows"] == 1
        assert sum(reasons.values()) == store.stats()["pickle_fallbacks"] == 3
        assert store.stats()["handles_served"] == 1

    def test_bytes_accounting_balances(self, store):
        _, claims = share(store, make_batch())
        assert store.stats()["active_bytes"] > 0
        store.end_stage(claims)
        assert store.stats()["active_bytes"] == 0


class TestConcurrentSessions:
    """Two sessions on one shared worker pool (the serving tier's
    setup) each export into their own store only -- whichever thread
    pickles the task arguments."""

    class _Gated(SharedBackend):
        """A tenant's handle on the shared pool whose first stage
        announces itself, then waits for the other tenant."""

        def __init__(self, inner, announce, wait_for, finished):
            super().__init__(inner)
            self.announce, self.wait_for = announce, wait_for
            self.finished = finished

        def run_stage(self, tasks, policy=None):
            self.announce.set()
            assert self.wait_for.wait(30), "the other session never came"
            try:
                return super().run_stage(tasks, policy)
            finally:
                self.finished.set()

    @staticmethod
    def _session(backend, offset):
        session = SkylineSession(config=SessionConfig(
            num_executors=2, backend=backend, retry_backoff_s=0.0))
        session.create_table(
            "t", [("a", DOUBLE, False), ("b", DOUBLE, False),
                  ("c", DOUBLE, False)],
            [(offset + (i * 37) % 1000, offset + (i * 91) % 997,
              float(i)) for i in range(6000)])
        return session

    def test_stores_never_cross(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        exported = []   # (store, first value of the exported batch)
        original = SharedColumnStore.export

        def recording(store, args):
            exported.extend((store, float(arg.columns[0].data[0]))
                            for arg in args if isinstance(arg, ColumnBatch))
            return original(store, args)

        monkeypatch.setattr(SharedColumnStore, "export", recording)
        before = set(leaked_segments())
        a_in, b_in, a_done, b_done = (threading.Event() for _ in range(4))
        pool = ProcessBackend(2)
        # A enters its stage first and holds it open until B is inside
        # its own; B then waits for A's stage to finish.
        session_a = self._session(self._Gated(pool, a_in, b_in, a_done),
                                  0.0)
        session_b = self._session(self._Gated(pool, b_in, a_done, b_done),
                                  10_000.0)
        results = {}

        def run_a():
            try:
                results["a"] = session_a.sql(SQL).run()
            except BaseException as exc:  # reported by the main thread
                results["a"] = exc
                a_in.set()
                a_done.set()

        thread = threading.Thread(target=run_a)
        try:
            thread.start()
            assert a_in.wait(30)
            results["b"] = session_b.sql(SQL).run()
            thread.join(30)
            assert not thread.is_alive()
            assert not isinstance(results["a"], BaseException), results["a"]
            # Nothing intercepts a batch pickled after both queries.
            loose = make_batch()
            assert len(pickle.dumps(loose)) > loose.nbytes
            stores = {"a": session_a._shm_store, "b": session_b._shm_store}
        finally:
            thread.join(30)
            session_a.close()
            session_b.close()
            pool.close()
        assert {side for store, _ in exported
                for side, own in stores.items() if store is own} \
            == {"a", "b"}
        for store, value in exported:
            owner = "b" if value >= 10_000.0 else "a"
            assert store is stores[owner], \
                f"session {owner}'s batch was exported into another store"
        for side, offset in (("a", 0.0), ("b", 10_000.0)):
            result = results[side]
            assert result.context.fault_stats.crash_recoveries == 0
            with self._session("local", offset) as reference:
                assert sorted(result.as_tuples()) == \
                    sorted(reference.sql(SQL).run().as_tuples())
        assert set(leaked_segments()) <= before


class TestConcurrentQueries:
    """Two queries in flight on one process-backend session (a tenant
    of the serving tier with several requests in flight) share its
    store: each stage releases only the segments it exported."""

    class _HeldOpen(SharedBackend):
        """Holds the first shm-shipping stage of the ``held`` thread
        open, after its export, until ``release`` is set."""

        def __init__(self, inner, entered, release):
            super().__init__(inner)
            self.entered, self.release = entered, release

        def run_stage(self, tasks, policy=None):
            if threading.current_thread().name == "held" \
                    and not self.entered.is_set() \
                    and any(isinstance(arg, SharedBatch)
                            for task in tasks for arg in task.args):
                self.entered.set()
                assert self.release.wait(30), "never released"
            return super().run_stage(tasks, policy)

    # The join's output partitions are not pinned: every segment the
    # skyline stage ships is transient, released at its stage barrier.
    JOIN_SQL = ("SELECT t.a, t.b, u.d FROM t JOIN u ON t.c = u.c "
                "SKYLINE OF a MIN, b MIN")

    @classmethod
    def _session(cls, backend):
        session = TestConcurrentSessions._session(backend, 0.0)
        session.create_table("u", [("c", DOUBLE, False),
                                   ("d", DOUBLE, False)],
                             [(float(i), float(i % 13))
                              for i in range(6000)])
        return session

    def test_one_query_never_releases_anothers_segments(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        before = set(leaked_segments())
        entered, release = threading.Event(), threading.Event()
        pool = ProcessBackend(2)
        session = self._session(self._HeldOpen(pool, entered, release))
        results = {}

        def run_held():
            try:
                results["held"] = session.sql(self.JOIN_SQL).run()
            except BaseException as exc:  # reported by the main thread
                results["held"] = exc

        thread = threading.Thread(target=run_held, name="held")
        try:
            thread.start()
            assert entered.wait(30)
            held_segments = session._shm_store.segment_names()
            assert held_segments
            # A whole second query runs while the first one's stage is
            # open -- and ends its own stages.
            results["other"] = session.sql(self.JOIN_SQL).run()
            assert set(held_segments) <= \
                set(session._shm_store.segment_names())
            release.set()
            thread.join(30)
            assert not thread.is_alive()
            assert not isinstance(results["held"], BaseException), \
                results["held"]
            assert session._shm_store.stats()["active_segments"] == 0
        finally:
            release.set()
            thread.join(30)
            session.close()
            pool.close()
        with self._session("local") as reference:
            expected = sorted(reference.sql(self.JOIN_SQL).run().as_tuples())
        for result in results.values():
            assert result.context.fault_stats.crash_recoveries == 0
            assert sorted(result.as_tuples()) == expected
        assert set(leaked_segments()) <= before
