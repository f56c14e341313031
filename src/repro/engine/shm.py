"""Zero-copy shared-memory transport for :class:`ColumnBatch`.

The process backend historically shipped every batch by value: the
driver pickles the typed arrays, the bytes cross a pipe, the worker
unpickles a private copy.  For the skyline local stage -- whose task
arguments *are* the partition batches -- that copy dominates end-to-end
time once the kernels are vectorized (ROADMAP item 3; Ray's plasma
object store solves the same problem the same way).

:class:`SharedColumnStore` places the buffers of a batch (f8/i8/b1
arrays plus their null masks) into ``multiprocessing.shared_memory``
segments owned by the **driver**.  The execution context exports the
batches among a shipped task's arguments explicitly, on the thread that
submits the stage and into that session's own store
(:meth:`SharedColumnStore.export`): each becomes a
:class:`SharedBatch` that pickles as a small handle -- ``(segment_name,
num_rows, column_specs)`` -- instead of the buffers, and workers rebuild
the columns as read-only views over the mapped segment: the data itself
never crosses the pipe again.  Nothing global decides which store a
batch lands in, so concurrent sessions sharing one worker pool (the
serving tier) never export into -- or release -- each other's segments.

Ownership and crash safety
--------------------------
Workers never create or unlink segments; every segment is created by
the driver and destroyed by the driver (``release`` / ``end_stage`` /
``close``).  A worker crash therefore cannot leak ``/dev/shm`` entries:
the pool-rebuild recovery of PR 7 re-pickles the surviving task
arguments against the *same* registry entries, and the driver's
``resource_tracker`` still reclaims everything if the driver itself
dies without cleanup.  On the attach side workers suppress the
resource-tracker registration entirely -- fork-started workers share
the driver's tracker, so a worker-side registration (or an explicit
unregister) would either unlink segments the driver still owns or
cancel the driver's own crash-time safety net.

Lifecycle
---------
Entries are *transient* by default: registered when a batch is first
exported, and released by
:meth:`end_stage` once every stage that shipped them has completed
(retries, speculative re-execution and crash recovery re-pickle the
exported task args mid-stage, so release must wait for the stage
barrier).  Each export returns the entries it claimed, and a stage
releases only its own claims: concurrent queries of one session share
the store without freeing each other's segments.  Entries registered via
:meth:`pin` are *persistent*: they survive stage and query boundaries
-- this is what lets prepared queries ship their cached input
partitions as handles on every execution -- and are dropped by
:meth:`unpin` (once no running stage claims them) or :meth:`close`.

Everything degrades gracefully: object columns, zero-row or
tiny batches, exhausted budgets and closed stores all fall back to
ordinary pickling, which remains bit-identical -- and every fallback
is counted under its reason (:data:`FALLBACK_REASONS`) in
:meth:`SharedColumnStore.stats`.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict

import numpy as np

from .batch import _DTYPES, OBJ, Column, ColumnBatch

try:  # pragma: no cover - absent on some exotic platforms
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None
    resource_tracker = None

#: Batches smaller than this pickle faster than they map; ship by value.
MIN_SHARE_BYTES = 32 * 1024

#: Why a batch shipped by value instead of as a handle; ``stats()``
#: reports one ``fallback_<reason>`` counter each.  ``too_small``: the
#: typed buffers total less than the store's ``min_batch_bytes``
#: (pickling is cheaper than mapping); ``object_column``: no column is
#: array-backed at all (strings, mixed types), so there is
#: nothing to place in a segment; ``zero_rows``: an empty batch;
#: ``budget``: ``max_bytes`` (or ``/dev/shm`` itself) is exhausted;
#: ``closed``: the store was closed, or the platform cannot serve
#: segments.
FALLBACK_REASONS = ("too_small", "object_column", "zero_rows", "budget",
                    "closed")

#: Worker-side cap on concurrently mapped segments (LRU).
MAX_ATTACHED_SEGMENTS = 64

_AVAILABLE: bool | None = None


def shared_memory_available() -> bool:
    """True when this platform can actually serve shm segments.

    Probed once per process by creating (and immediately unlinking) a
    tiny segment -- importability alone is not enough: containers
    without ``/dev/shm`` fail only at ``SharedMemory(create=True)``.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        if shared_memory is None:
            _AVAILABLE = False
        else:
            try:
                probe = shared_memory.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _AVAILABLE = True
            except Exception:
                _AVAILABLE = False
    return _AVAILABLE


def _reset_probe() -> None:
    """Test hook: forget the cached platform probe."""
    global _AVAILABLE
    _AVAILABLE = None


class _Entry:
    """One exported batch.

    ``strong`` keeps transient batches alive (so ``id(batch)`` cannot
    be recycled mid-stage); pinned entries drop the strong reference
    and keep only ``ref`` -- the segment then lives exactly as long as
    the physical plan holding the batch, and the store's sweep reclaims
    it once the plan is garbage collected.  Without this, every ad-hoc
    (non-prepared) query of a session would pin partitions forever.
    """

    __slots__ = ("key", "ref", "strong", "segment", "state", "nbytes",
                 "persistent", "claims")

    def __init__(self, batch, segment, state, nbytes, persistent):
        self.key = id(batch)
        self.ref = weakref.ref(batch)
        self.strong = None if persistent else batch
        self.segment = segment
        self.state = state
        self.nbytes = nbytes
        self.persistent = persistent
        #: Stages that shipped this entry and have not ended.
        self.claims = 0

    def batch(self):
        return self.ref()


def _destroy_segment(segment) -> None:
    """Close + unlink, tolerating exported buffers and double unlinks."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a live local view exists
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


class SharedColumnStore:
    """Driver-side registry of batches exported as shm segments."""

    def __init__(self, max_bytes: "int | None" = None,
                 min_batch_bytes: int = MIN_SHARE_BYTES) -> None:
        self.max_bytes = max_bytes
        self.min_batch_bytes = min_batch_bytes
        self._lock = threading.Lock()
        self._entries: dict[int, _Entry] = {}
        self._counter = 0
        self._closed = False
        self._bytes = 0
        # Counters (read via stats()).
        self.segments_created = 0
        self.segments_released = 0
        self.bytes_shared = 0
        self.handles_served = 0
        self.pickle_fallbacks = 0
        #: ``pickle_fallbacks`` split by :data:`FALLBACK_REASONS`.
        self.fallbacks = dict.fromkeys(FALLBACK_REASONS, 0)

    # -- registration -----------------------------------------------------

    def export(self, args: tuple) -> "tuple[tuple, list[_Entry]]":
        """``args`` with every batch this store serves replaced by its
        :class:`SharedBatch` handle -- refused batches stay as they are
        (shipped by value, counted under their fallback reason) -- and
        the transient entries this export claimed, to hand to
        :meth:`end_stage` once the shipping stage is over."""
        exported, claims = [], []
        with self._lock:
            self._sweep_locked()
            for arg in args:
                if isinstance(arg, ColumnBatch):
                    entry = self._share_locked(arg)
                    if entry is not None:
                        arg = SharedBatch(entry.state)
                        entry.claims += 1
                        claims.append(entry)
                exported.append(arg)
        return tuple(exported), claims

    def _share_locked(self, batch: ColumnBatch) -> "_Entry | None":
        """The entry to ship ``batch`` as, registered on first sight, or
        ``None`` -- "pickle by value", counted under the reason the
        registration was refused."""
        entry = self._lookup_locked(batch)
        if entry is None:
            entry, refusal = self._register_locked(batch, persistent=False)
            if entry is None:
                self.pickle_fallbacks += 1
                self.fallbacks[refusal] += 1
                return None
        self.handles_served += 1
        return entry

    def pin(self, batches) -> int:
        """Register ``batches`` persistently (surviving stage/query
        boundaries, reclaimed when the batch itself is garbage
        collected); returns how many were actually shared."""
        pinned = 0
        with self._lock:
            self._sweep_locked()
            for batch in batches:
                if not isinstance(batch, ColumnBatch):
                    continue
                entry = self._lookup_locked(batch)
                if entry is not None:
                    entry.persistent = True
                    entry.strong = None
                    pinned += 1
                elif self._register_locked(batch, persistent=True)[0]:
                    pinned += 1
        return pinned

    def _lookup_locked(self, batch) -> "_Entry | None":
        """The live entry for exactly this batch object, if any.

        ``id()`` keys can be recycled once a pinned batch dies, so a
        hit must re-verify object identity; a stale entry is released
        on the spot.
        """
        entry = self._entries.get(id(batch))
        if entry is None:
            return None
        if entry.batch() is batch:
            return entry
        self._release_locked(id(batch))
        return None

    def _sweep_locked(self) -> None:
        """Release pinned entries whose batch was garbage collected."""
        dead = [key for key, entry in self._entries.items()
                if entry.persistent and entry.batch() is None]
        for key in dead:
            self._release_locked(key)

    def unpin(self, batches) -> None:
        """Release previously pinned batches (e.g. after DML made a
        prepared query's cached input partitions stale).  A batch a
        running stage still ships becomes transient instead, released
        by :meth:`end_stage` once no stage claims it."""
        with self._lock:
            for batch in batches:
                entry = self._entries.get(id(batch))
                if entry is None or entry.batch() is not batch:
                    continue
                if entry.claims > 0:
                    entry.persistent, entry.strong = False, batch
                else:
                    self._release_locked(id(batch))

    def _register_locked(self, batch: ColumnBatch, persistent: bool
                         ) -> "tuple[_Entry | None, str | None]":
        """Export ``batch``: ``(entry, None)``, or ``(None, reason)``
        with the :data:`FALLBACK_REASONS` entry that refused it."""
        if self._closed or shared_memory is None:
            return None, "closed"
        if batch.num_rows == 0:
            return None, "zero_rows"
        arrays = []   # (ndarray, offset)
        specs = []
        total = 0
        for column in batch.columns:
            if column.kind == OBJ:
                specs.append((OBJ, column.data))
                continue
            data = np.ascontiguousarray(column.data)
            offset = (total + 15) & ~15
            total = offset + data.nbytes
            arrays.append((data, offset))
            mask_offset = None
            if column.mask is not None:
                mask = np.ascontiguousarray(column.mask)
                mask_offset = (total + 15) & ~15
                total = mask_offset + mask.nbytes
                arrays.append((mask, mask_offset))
            specs.append((column.kind, offset, mask_offset, len(column)))
        if not arrays:
            return None, "object_column"
        if total < self.min_batch_bytes:
            return None, "too_small"
        if self.max_bytes is not None and \
                self._bytes + total > self.max_bytes:
            return None, "budget"
        self._counter += 1
        try:
            segment = shared_memory.SharedMemory(create=True, size=total)
        except OSError:  # pragma: no cover - /dev/shm full mid-run
            return None, "budget"
        for array, offset in arrays:
            dest = np.frombuffer(segment.buf, dtype=array.dtype,
                                 count=array.size, offset=offset)
            dest[:] = array.reshape(-1)
            del dest
        state = (segment.name, batch.num_rows, tuple(specs))
        entry = self._entries[id(batch)] = _Entry(
            batch, segment, state, total, persistent)
        self._bytes += total
        self.segments_created += 1
        self.bytes_shared += total
        return entry, None

    # -- release ----------------------------------------------------------

    def _release_locked(self, key: int) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        self._bytes -= entry.nbytes
        self.segments_released += 1
        _destroy_segment(entry.segment)

    def end_stage(self, claims: "list[_Entry]") -> None:
        """Drop a stage's ``claims`` (what its :meth:`export` calls
        returned) once the stage -- with all its retries and speculative
        attempts -- is over; a transient entry no other stage still
        claims is released."""
        with self._lock:
            self._sweep_locked()
            for entry in claims:
                entry.claims -= 1
                if entry.claims <= 0 and not entry.persistent and \
                        self._entries.get(entry.key) is entry:
                    self._release_locked(entry.key)

    def close(self) -> None:
        """Destroy every segment; the store refuses new registrations."""
        with self._lock:
            self._closed = True
            for key in list(self._entries):
                self._release_locked(key)

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass

    # -- inspection -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> list[str]:
        with self._lock:
            return [e.segment.name for e in self._entries.values()]

    def stats(self) -> dict:
        """Flat integer counters, cumulative over the store's life (a
        per-query share is the difference of two snapshots)."""
        return {
            "active_segments": len(self._entries),
            "active_bytes": self._bytes,
            "segments_created": self.segments_created,
            "segments_released": self.segments_released,
            "bytes_shared": self.bytes_shared,
            "handles_served": self.handles_served,
            "pickle_fallbacks": self.pickle_fallbacks,
            **{f"fallback_{reason}": count
               for reason, count in self.fallbacks.items()},
        }


class SharedBatch:
    """A batch exported to a :class:`SharedColumnStore`: pickles as its
    segment handle and unpickles, in a worker, as a :class:`ColumnBatch`
    over the mapped segment (:func:`restore_batch`)."""

    __slots__ = ("state",)

    def __init__(self, state: tuple) -> None:
        self.state = state

    def __reduce__(self):
        return restore_batch, (self.state,)


# ---------------------------------------------------------------------------
# Worker side: attach + rebuild
# ---------------------------------------------------------------------------

_ATTACHED: "OrderedDict[str, object]" = OrderedDict()


def _close_attached(name: str) -> None:
    """Drop ``name`` from the cache and unmap it."""
    try:
        _ATTACHED.pop(name).close()
    except BufferError:  # pragma: no cover - views still alive
        pass  # dropped from the cache; GC unmaps when views die


def _attach(name: str):
    """Map a segment by name, LRU-cached so partitions shipped across
    several stages of one query are mapped once per worker."""
    segment = _ATTACHED.get(name)
    if segment is not None:
        _ATTACHED.move_to_end(name)
        return segment
    # A new name means a new stage or query: first unmap the cached
    # segments the driver has released since.  An unlinked segment's
    # pages stay resident until every mapping closes, and no
    # ``/dev/shm`` listing (leaked_segments) shows them.
    try:
        linked = os.listdir("/dev/shm")
    except FileNotFoundError:  # pragma: no cover - non-Linux
        linked = list(_ATTACHED)
    for cached in set(_ATTACHED).difference(linked):
        _close_attached(cached)
    # Attaching registers the segment with the resource tracker
    # (pre-3.13 behaviour, no track=False yet), and fork-started
    # workers share the driver's tracker -- so either the worker's
    # exit would unlink segments the driver still owns, or an explicit
    # unregister here would cancel the *driver's* registration (its
    # crash-time safety net).  Suppress the registration instead.
    if resource_tracker is not None:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    else:  # pragma: no cover - tracker-less platform
        segment = shared_memory.SharedMemory(name=name)
    _ATTACHED[name] = segment
    while len(_ATTACHED) > MAX_ATTACHED_SEGMENTS:
        _close_attached(next(iter(_ATTACHED)))
    return segment


def restore_batch(state: tuple) -> ColumnBatch:
    """Rebuild the batch a handle state tuple stands for.

    Array columns become **read-only** views over the mapped segment
    (kernels never mutate their inputs; read-only flags turn any future
    violation into a hard error instead of silent cross-process
    corruption).  Object columns travelled inline.
    """
    name, num_rows, specs = state
    segment = _attach(name)
    columns = []
    for spec in specs:
        if spec[0] == OBJ:
            columns.append(Column(OBJ, spec[1]))
            continue
        kind, offset, mask_offset, length = spec
        data = np.frombuffer(segment.buf, dtype=_DTYPES[kind],
                             count=length, offset=offset)
        data.flags.writeable = False
        mask = None
        if mask_offset is not None:
            mask = np.frombuffer(segment.buf, dtype=bool, count=length,
                                 offset=mask_offset)
            mask.flags.writeable = False
        columns.append(Column(kind, data, mask))
    return ColumnBatch(columns, num_rows)


def leaked_segments(prefix: str = "psm_") -> list[str]:
    """Names under ``/dev/shm`` matching ``prefix`` (test/chaos helper;
    empty where /dev/shm does not exist)."""
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith(prefix))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []
