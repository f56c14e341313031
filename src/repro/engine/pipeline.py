"""Morsel-driven pipelined execution of the local skyline chain.

The staged executor (:meth:`ExecutionContext.run_stage`) runs one
operator at a time with a barrier between operators: every partition is
scanned before anything is filtered, everything is filtered before any
local skyline starts.  This module provides the alternative the
``execution="pipelined"`` session option selects: the scan is cut
into fixed-size *morsels* (:data:`PIPELINE_MORSEL_ROWS` rows), and a
driver loop keeps the configured backend pool saturated with a mix of
filter/project and local-skyline *fold* tasks, so the operators
overlap instead of running back to back.  The scan is no task: a
morsel is a zero-copy :meth:`ColumnBatch.slice` of the table's resident
columns (a row-list slice on the row plane), admitted onto the queues.

Correctness rests on the fold identity ``skyline(skyline(A) + B) ==
skyline(A + B)``: the local-skyline operator keeps one running window
per partition (per null bitmap for incomplete data) and folds each
arriving morsel into it: ``skyline_task(window + morsels)`` in the
local operator's mode, except for the row-plane window modes, which
stream through :class:`repro.streaming.SkylineStream` -- the
incremental-dominance kernel.
Morsels reach each fold window in their original row order, so window
contents (including DISTINCT representative choice, which is
first-seen) are identical to the staged execution of the same
partition, and the unchanged staged global phase consumes the drained
partials bit-for-bit as before.

Memory is bounded per operator: each operator's input queue has a
byte-denominated budget (``operator_memory_mb``).  The driver does not
schedule an upstream operator while its downstream queue is over
budget (*backpressure*, accounted as stall time), and morsels that
land on an already-full queue -- the overshoot of one in-flight wave
-- are spilled to disk and re-loaded on demand (*out-of-core*), so the
buffered working set never grows with the input.

Every wave executes as a regular ``ctx.run_stage("Pipeline.waveN",
tasks)``, which means retries, worker-crash recovery, deadlines and
deterministic fault injection (``REPRO_FAULT_PLAN`` with
``poison=Pipeline``) apply to pipelined tasks exactly as to staged
ones.
"""

from __future__ import annotations

import functools
import os
import pickle
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from ..core.dominance import dominates_incomplete
from ..core.vectorized import (concat_partitions, skyline_task,
                               split_by_null_bitmap)
from ..streaming import SkylineStream
from .backends import StageTask
from .batch import ColumnBatch
from .rdd import RDD, BatchRDD, partition_bounds

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import ExecutionContext

#: Rows per morsel: the unit of work the driver schedules.  Small
#: enough that a handful of morsels keep a pool busy, large enough
#: that per-task overhead stays negligible.
PIPELINE_MORSEL_ROWS = 2048

#: Default per-operator memory budget when the session does not set
#: ``operator_memory_mb``.
DEFAULT_OPERATOR_MEMORY_MB = 64.0

#: Rough per-value heap cost (bytes) of a row-plane tuple element,
#: used only to drive backpressure/spill accounting on the row plane.
_ROW_VALUE_BYTES = 56


# ---------------------------------------------------------------------------
# Task payload functions (module-level: picklable for process backends)
# ---------------------------------------------------------------------------


def _map_task(morsel, specs):
    """Apply a fused filter/project chain to one morsel (a batch or a
    row list)."""
    from ..plan.physical import _filter_batch
    on_batches = isinstance(morsel, ColumnBatch)
    for kind, payload in specs:
        if kind == "filter" and on_batches:
            morsel = _filter_batch(morsel, payload)
        elif kind == "filter":
            predicate = payload.eval
            morsel = [row for row in morsel if predicate(row) is True]
        elif on_batches:
            morsel = ColumnBatch([p.eval_batch(morsel) for p in payload],
                                 num_rows=morsel.num_rows)
        else:
            evaluators = [p.eval for p in payload]
            morsel = [tuple(ev(row) for ev in evaluators)
                      for row in morsel]
    return morsel


def _fold_task(window, morsels, dims, mode, distinct, vectorized):
    """Fold morsels into a running window: ``skyline(window +
    morsels)`` in the local operator's mode.

    The partition task is exact, so re-running it over the survivors
    plus the new rows equals the skyline of everything seen (fold
    identity); SFS's sorted output order matches the staged SFS local
    stage.  For ``bitmap-local`` the window and morsels are ONE
    null-bitmap group's.
    """
    parts = ([window] if window is not None else []) + list(morsels)
    return skyline_task(concat_partitions(parts), dims, mode, distinct,
                        vectorized)


def _fold_stream_task(state, morsels, dims, distinct, incomplete=False):
    """Row-plane fold through the incremental-dominance kernel.

    Restores the running :class:`~repro.streaming.SkylineStream` window
    from its checkpoint, folds each morsel in arrival order, and
    returns the new checkpoint (the driver-side fold state) plus the
    window peak / comparison counters the engine's metrics track.  For
    incomplete data the restricted ``dominates_incomplete`` test is
    transitive within one null-bitmap group, so null rows stream
    through the window directly -- no buffering.
    """
    dominance = dominates_incomplete if incomplete else None
    if state is None:
        stream = SkylineStream(dims, distinct=distinct,
                               dominance=dominance)
    else:
        stream = SkylineStream.restore(dims, state, dominance=dominance)
    for rows in morsels:
        stream.add_all(rows)
    return stream.checkpoint(), stream.window_peak, stream.comparisons


# ---------------------------------------------------------------------------
# Spill manager (out-of-core morsel buffers)
# ---------------------------------------------------------------------------


class SpillManager:
    """Disk backing for morsels that exceed an operator's budget.

    Spilled payloads are pickled to a private temp directory and
    deleted as soon as they are re-loaded; :meth:`close` removes any
    stragglers (e.g. after a query timeout mid-pipeline).
    """

    def __init__(self) -> None:
        self._dir: str | None = None
        self._seq = 0
        self.spilled_bytes = 0
        self.spill_count = 0

    def spill(self, payload) -> tuple[str, int]:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-pipeline-spill-")
        path = os.path.join(self._dir, f"morsel-{self._seq}.pkl")
        self._seq += 1
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        with open(path, "wb") as handle:
            handle.write(blob)
        self.spilled_bytes += len(blob)
        self.spill_count += 1
        return path, len(blob)

    def load(self, path: str):
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        os.unlink(path)
        return payload

    def close(self) -> None:
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


# ---------------------------------------------------------------------------
# Operator state
# ---------------------------------------------------------------------------


@dataclass
class _Morsel:
    """One queued morsel: in memory (``payload``) or spilled (``path``)."""

    key: object
    payload: object
    nbytes: int
    path: str | None = None


@dataclass
class _Operator:
    """Input queue + metrics of one pipeline operator."""

    name: str
    budget: int
    queue: deque = field(default_factory=deque)
    bytes_mem: int = 0
    bytes_total: int = 0
    peak_bytes: int = 0
    batches_in: int = 0
    batches_out: int = 0
    stall_s: float = 0.0
    spilled_bytes: int = 0

    def enqueue(self, key, payload, nbytes: int,
                spiller: SpillManager) -> None:
        """Queue one morsel, spilling it when over budget.

        At least one morsel always stays in memory so the consumer can
        make progress without touching disk on an otherwise-idle
        queue.
        """
        self.batches_in += 1
        if self.queue and self.bytes_mem + nbytes > self.budget:
            path, _ = spiller.spill(payload)
            self.spilled_bytes += nbytes
            self.queue.append(_Morsel(key, None, nbytes, path=path))
        else:
            self.queue.append(_Morsel(key, payload, nbytes))
            self.bytes_mem += nbytes
        self.bytes_total += nbytes
        self.note_peak()

    def dequeue(self, spiller: SpillManager):
        """Pop the oldest morsel, re-loading it if it was spilled."""
        morsel = self.queue.popleft()
        if morsel.path is not None:
            morsel.payload = spiller.load(morsel.path)
            morsel.path = None
        else:
            self.bytes_mem -= morsel.nbytes
        self.bytes_total -= morsel.nbytes
        return morsel

    def note_peak(self, extra: int = 0) -> None:
        if self.bytes_mem + extra > self.peak_bytes:
            self.peak_bytes = self.bytes_mem + extra

    def over_budget(self) -> bool:
        return self.bytes_total > self.budget

    def report(self) -> dict:
        return {
            "batches_in": self.batches_in,
            "batches_out": self.batches_out,
            "stall_s": round(self.stall_s, 6),
            "spilled_bytes": self.spilled_bytes,
            "peak_bytes": self.peak_bytes,
        }


def _payload_nbytes(payload) -> int:
    """Byte size of a morsel payload for budget accounting."""
    if isinstance(payload, ColumnBatch):
        return payload.nbytes
    width = len(payload[0]) if payload else 1
    return 64 + len(payload) * max(1, width) * _ROW_VALUE_BYTES


def _probe_picklable(*objects) -> bool:
    """Whether task arguments can ship to a process worker."""
    try:
        pickle.dumps(objects, protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except Exception:
        return False


# ---------------------------------------------------------------------------
# The pipelined driver
# ---------------------------------------------------------------------------


class _PipelineDriver:
    """Wave-scheduling driver for one local skyline chain.

    Walks scan -> filter/project -> fold work through per-operator
    queues; each wave admits scan morsels (starved by backpressure),
    then packs runnable tasks (folds first, then maps) into one
    ``ctx.run_stage`` call so the backend pool stays saturated while
    every fault-tolerance feature of the staged path still applies.
    """

    def __init__(self, local, ctx: "ExecutionContext") -> None:
        self.local = local
        self.ctx = ctx
        budget_mb = local.operator_memory_mb \
            if local.operator_memory_mb is not None \
            else DEFAULT_OPERATOR_MEMORY_MB
        self.budget = max(1, int(budget_mb * 1e6))
        self.workers = getattr(ctx.backend, "num_workers", None) or 1
        self.wave_cap = max(2 * self.workers, 4)
        self.spiller = SpillManager()
        self.waves = 0
        # Fold state per key (partition index, or null bitmap in the
        # ``bitmap-local`` mode): checkpoint dict for stream folds, the
        # window itself (rows or ColumnBatch) otherwise.  ``fold_started``
        # distinguishes "no fold ran yet" from an empty window.
        self.fold_state: dict = {}
        self.fold_started: set = set()
        self.fold_inflight: set = set()
        self.key_order: list = []
        self.scan = _Operator("scan", self.budget)
        self.map = _Operator("map", self.budget)
        self.fold = _Operator("fold", self.budget)

    # -- morsel generation ------------------------------------------------

    @staticmethod
    def split_morsels(num_rows: int, num_partitions: int
                      ) -> list[tuple[int, int, int]]:
        """``(partition, start, stop)`` morsel bounds, cut inside the
        staged scan's partition bounds so per-partition folds equal the
        staged local stage (an empty partition emits one empty morsel)."""
        morsels = []
        for p, (lo, hi) in enumerate(partition_bounds(num_rows,
                                                      num_partitions)):
            for start in range(lo, max(hi, lo + 1), PIPELINE_MORSEL_ROWS):
                morsels.append(
                    (p, start, min(hi, start + PIPELINE_MORSEL_ROWS)))
        return morsels

    # -- wave execution ---------------------------------------------------

    def run_wave(self, tasks: list[StageTask], routes: list
                 ) -> tuple[list, float]:
        stage = f"Pipeline.wave{self.waves}"
        self.waves += 1
        started = time.perf_counter()
        results = self.ctx.run_stage(stage, tasks)
        duration = time.perf_counter() - started
        return list(zip(routes, results)), duration

    def route_fold_result(self, key, result, batch_plane: bool) -> None:
        self.fold_inflight.discard(key)
        self.fold_state[key] = result
        self.fold_started.add(key)
        extra = result.nbytes if isinstance(result, ColumnBatch) else 0
        self.fold.note_peak(extra)
        self.fold.batches_out += 1
        self.ctx.note_first_batch()

    # -- fold task construction ------------------------------------------

    def take_fold_morsels(self, key) -> tuple[list, int, int]:
        """Remove ``key``'s queued morsels (up to a budget's worth, at
        least one) from the fold queue, loading any spilled ones."""
        morsels, rows_in, bytes_in = [], 0, 0
        kept = deque()
        deferred = False
        while self.fold.queue:
            morsel = self.fold.queue.popleft()
            if morsel.key != key or deferred:
                kept.append(morsel)
                continue
            if morsels and bytes_in + morsel.nbytes > self.budget:
                # Over a budget's worth: defer the rest of this key --
                # and everything behind it, folds consume in arrival
                # order.
                deferred = True
                kept.append(morsel)
                continue
            if morsel.path is not None:
                morsel.payload = self.spiller.load(morsel.path)
                morsel.path = None
            else:
                self.fold.bytes_mem -= morsel.nbytes
            self.fold.bytes_total -= morsel.nbytes
            morsels.append(morsel.payload)
            bytes_in += morsel.nbytes
            rows_in += len(morsel.payload)
        self.fold.queue = kept
        return morsels, rows_in, bytes_in

    def make_fold_task(self, key, seq: int) -> StageTask:
        """One fold task folding ``key``'s queued morsels into its
        window; folds for one key serialize, so the window state
        transfer is race-free."""
        morsels, rows_in, bytes_in = self.take_fold_morsels(key)
        window = self.fold_state.get(key)
        local = self.local
        if self.batch_plane or local.mode == "sfs":
            func = _fold_task
            args = (window, morsels, local.dims, local.mode,
                    local.distinct, local.vectorized)
        else:
            func = _fold_stream_task
            args = (window, morsels, local.dims, local.distinct,
                    local.mode == "bitmap-local")
        self.fold_inflight.add(key)
        return StageTask(
            partition=seq, rows_in=rows_in, bytes_in=bytes_in,
            fn=functools.partial(func, *args), func=func, args=args,
            kernel=local.kernel)

    # -- main loop --------------------------------------------------------

    def execute(self) -> "RDD | BatchRDD":
        ctx = self.ctx
        local = self.local
        specs, scan_exec = local.morsel_chain()
        incomplete = local.mode == "bitmap-local"
        self.batch_plane = bool(scan_exec.columnar) and local.vectorized
        # What morsels are sliced from (row plane: an atomic snapshot).
        source = scan_exec.whole_batch(ctx) if self.batch_plane \
            else list(scan_exec.rows)
        pending_scans = deque(self.split_morsels(
            len(source), ctx.config.default_parallelism))
        maps_picklable = _probe_picklable(specs) if specs else True
        # Scans feed the map queue, or the fold queue without maps.
        downstream = self.map if specs else self.fold
        # Every partition folds at least once (empty partitions
        # produce the same empty partial the staged stage does).
        if not incomplete:
            for p in range(ctx.config.default_parallelism):
                self.touch_key(p)

        routed_rows = 0
        while True:
            tasks: list[StageTask] = []
            routes: list[tuple] = []
            seq = 0

            # 1. Scans: admit a wave's worth of morsels unless downstream
            #    is over budget (backpressure; the overshoot spills).
            admitted = 0 if downstream.over_budget() \
                else min(len(pending_scans), self.wave_cap)
            self.scan.batches_out += admitted
            for _ in range(admitted):
                p, start, stop = pending_scans.popleft()
                morsel = source.slice(start, stop) if self.batch_plane \
                    else source[start:stop]
                if specs:
                    self.map.enqueue(p, morsel, _payload_nbytes(morsel),
                                     self.spiller)
                else:
                    routed_rows += self.ingest(p, morsel, incomplete)

            # 2. Folds: they release queue memory and advance
            #    time-to-first-batch.  (Keys with no morsels are never
            #    folded -- ``assemble`` emits the staged-identical
            #    empty partial for them.)
            for key in list(self.key_order):
                if key in self.fold_inflight:
                    continue
                if any(m.key == key for m in self.fold.queue):
                    task = self.make_fold_task(key, seq)
                    tasks.append(task)
                    routes.append(("fold", key))
                    seq += 1

            # 3. Maps: blocked while the fold queue is over budget.
            map_blocked = self.fold.over_budget()
            while self.map.queue and not map_blocked and \
                    len(tasks) < self.wave_cap:
                morsel = self.map.dequeue(self.spiller)
                args = (morsel.payload, specs)
                task = StageTask(
                    partition=seq, rows_in=len(morsel.payload),
                    bytes_in=morsel.nbytes,
                    fn=functools.partial(_map_task, *args),
                    func=_map_task if maps_picklable else None,
                    args=args if maps_picklable else (),
                    kernel=self.local.kernel)
                tasks.append(task)
                routes.append(("map", morsel.key))
                seq += 1

            if not tasks:
                if pending_scans:  # only empty morsels were admitted
                    continue
                break

            outcomes, duration = self.run_wave(tasks, routes)

            # Stall accounting: pending work, nothing scheduled, and
            # the reason was a budget gate (the only one scans have).
            if pending_scans and not admitted:
                self.scan.stall_s += duration
            if self.map.queue and map_blocked and \
                    not any(r[0] == "map" for r in routes):
                self.map.stall_s += duration

            for (kind, key), result in outcomes:
                if kind == "fold":
                    self.route_fold_result(key, result, self.batch_plane)
                else:
                    self.map.batches_out += 1
                    routed_rows += self.ingest(key, result, incomplete)

        if incomplete and routed_rows:
            ctx.record_shuffle(local.stage_name(), routed_rows)

        result = self.assemble()
        for op in (self.scan, self.map, self.fold):
            if op.peak_bytes:
                ctx.record_memory(
                    f"Pipeline.{local.stage_name()}.{op.name}",
                    op.peak_bytes)
        ctx.pipeline = {
            "mode": "pipelined",
            "stage": local.stage_name(),
            "algorithm": local.mode,
            "plane": "batch" if self.batch_plane else "row",
            "morsel_rows": PIPELINE_MORSEL_ROWS,
            "budget_bytes": self.budget,
            "waves": self.waves,
            "spilled_bytes": self.spiller.spilled_bytes,
            "spill_count": self.spiller.spill_count,
            "operators": {
                "scan": self.scan.report(),
                "map": self.map.report(),
                "fold": self.fold.report(),
            },
        }
        self.spiller.close()
        return result

    # -- routing ----------------------------------------------------------

    def touch_key(self, key) -> None:
        if key not in self.fold_state:
            self.fold_state[key] = None
            self.key_order.append(key)

    def ingest(self, partition, payload, incomplete: bool) -> int:
        """Route one mapped morsel onto the fold queue.

        Complete/SFS fold per scan partition; the incomplete algorithm
        re-keys rows by null bitmap (the Section 5.7 distribution),
        preserving first-seen bitmap order exactly like the staged
        ``partition_by_key`` because morsels arrive in original row
        order.
        """
        if not incomplete:
            self.touch_key(partition)
            if len(payload):
                self.fold.enqueue(partition, payload,
                                  _payload_nbytes(payload), self.spiller)
            return len(payload)
        for bitmap, piece in split_by_null_bitmap(
                payload, self.local.dims).items():
            self.touch_key(("bitmap", bitmap))
            self.fold.enqueue(("bitmap", bitmap), piece,
                              _payload_nbytes(piece), self.spiller)
        return len(payload)

    # -- output assembly --------------------------------------------------

    def assemble(self) -> "RDD | BatchRDD":
        """The drained fold windows as the local stage's output RDD.

        Key order matches the staged stage: partition index order for
        complete/SFS, first-seen bitmap order for incomplete.
        """
        if self.local.mode == "bitmap-local":
            keys = self.key_order
        else:
            keys = sorted(self.key_order)
        partials = []
        for key in keys:
            state = self.fold_state.get(key)
            if self.batch_plane:
                partials.append(state if state is not None
                                else ColumnBatch.from_rows(
                                    [], len(self.local.output)))
            elif state is None:
                partials.append([])
            elif isinstance(state, dict):
                partials.append([tuple(r) for r in state["window"]])
            else:
                # SFS row plane keeps the sorted survivor list directly.
                partials.append([tuple(r) for r in state])
        if self.batch_plane:
            if not partials:
                partials = [ColumnBatch.from_rows(
                    [], len(self.local.output))]
            return BatchRDD(partials)
        if not partials:
            partials = [[]]
        return RDD(partials)


def run_pipelined_local(local, ctx: "ExecutionContext"
                        ) -> "RDD | BatchRDD":
    """Execute one stamped local skyline chain with the morsel driver.

    Returns the local stage's output (consumed by the unchanged staged
    global phase).
    """
    driver = _PipelineDriver(local, ctx)
    try:
        return driver.execute()
    finally:
        driver.spiller.close()
