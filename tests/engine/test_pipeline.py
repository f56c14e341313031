"""Unit tests for the pipelined executor's building blocks.

The end-to-end bit-identity of the pipelined mode is covered by
``tests/integration/test_pipeline_differential.py``; this module pins
the pieces the driver's correctness argument rests on: morsel splits
that reproduce the staged scan's partition boundaries, spill/reload
round-trips, operator queue accounting, and the fold identity of the
incremental-dominance kernel.
"""

from __future__ import annotations

import os

import pytest

from repro.core import make_dimensions
from repro.engine.pipeline import (DEFAULT_OPERATOR_MEMORY_MB,
                                   PIPELINE_MORSEL_ROWS, SpillManager,
                                   _fold_stream_task, _Operator,
                                   _payload_nbytes, _PipelineDriver)
from repro.engine.rdd import RDD
from tests.conftest import skyline_oracle

DIMS = make_dimensions([(0, "min"), (1, "max")])


def _rows(n: int) -> list[tuple]:
    return [((i * 7) % 53, (i * 11) % 29) for i in range(n)]


class TestSplitMorsels:
    @pytest.mark.parametrize("n,parts", [(0, 3), (5, 3), (154, 3),
                                         (5000, 4), (4097, 2)])
    def test_matches_staged_partition_boundaries(self, n, parts):
        """Concatenating a partition's morsels in order must reproduce
        the exact partition the staged scan would build -- the fold
        windows then see the same rows in the same order."""
        rows = _rows(n)
        staged = RDD.from_rows(rows, parts).partitions
        morsels = _PipelineDriver.split_morsels(len(rows), parts)
        rebuilt: dict[int, list] = {p: [] for p in range(len(staged))}
        for partition, start, stop in morsels:
            assert stop - start <= PIPELINE_MORSEL_ROWS
            rebuilt[partition].extend(rows[start:stop])
        assert [rebuilt[p] for p in sorted(rebuilt)] == staged

    def test_empty_partitions_still_emit_keys(self):
        morsels = _PipelineDriver.split_morsels(2, 4)
        assert {p for p, _, _ in morsels} == {0, 1, 2, 3}


class TestSpillManager:
    def test_round_trip_and_cleanup(self):
        spiller = SpillManager()
        payload = _rows(100)
        path, nbytes = spiller.spill(payload)
        assert os.path.exists(path)
        assert nbytes > 0
        assert spiller.spill_count == 1
        assert spiller.load(path) == payload
        assert not os.path.exists(path)  # reload frees the disk copy
        spiller.close()

    def test_close_removes_stragglers(self):
        spiller = SpillManager()
        path, _ = spiller.spill(_rows(10))
        parent = os.path.dirname(path)
        spiller.close()
        assert not os.path.exists(parent)


class TestOperatorQueue:
    def test_enqueue_within_budget_stays_in_memory(self):
        spiller = SpillManager()
        op = _Operator("fold", budget=10_000)
        op.enqueue(0, _rows(10), 4_000, spiller)
        op.enqueue(0, _rows(10), 4_000, spiller)
        assert op.bytes_mem == 8_000
        assert op.spilled_bytes == 0
        assert not op.over_budget()
        spiller.close()

    def test_overflow_spills_but_head_stays_resident(self):
        spiller = SpillManager()
        op = _Operator("fold", budget=5_000)
        op.enqueue(0, _rows(10), 4_000, spiller)
        op.enqueue(0, _rows(10), 4_000, spiller)  # over budget: spills
        assert op.bytes_mem == 4_000  # only the head is resident
        assert op.bytes_total == 8_000
        assert op.spilled_bytes == 4_000
        assert spiller.spill_count == 1
        assert op.over_budget()  # total includes the spilled morsel
        # FIFO order survives the spill, and dequeue reloads from disk.
        first = op.dequeue(spiller)
        second = op.dequeue(spiller)
        assert first.path is None and second.path is None
        assert second.payload == _rows(10)
        assert op.bytes_mem == 0 and op.bytes_total == 0
        spiller.close()

    def test_first_morsel_never_spills_even_if_huge(self):
        spiller = SpillManager()
        op = _Operator("fold", budget=100)
        op.enqueue(0, _rows(50), 1_000_000, spiller)
        assert op.spilled_bytes == 0  # consumer can always progress
        assert op.bytes_mem == 1_000_000
        spiller.close()

    def test_peak_tracks_high_water(self):
        spiller = SpillManager()
        op = _Operator("fold", budget=1_000_000)
        op.enqueue(0, _rows(5), 300, spiller)
        op.enqueue(0, _rows(5), 500, spiller)
        op.dequeue(spiller)
        op.dequeue(spiller)
        assert op.peak_bytes == 800
        spiller.close()


class TestPayloadBytes:
    def test_rows_scale_with_size_and_width(self):
        small = _payload_nbytes(_rows(10))
        large = _payload_nbytes(_rows(1000))
        assert large > small > 0

    def test_column_batch_uses_real_nbytes(self):
        pytest.importorskip("numpy")
        from repro.engine.batch import ColumnBatch
        batch = ColumnBatch.from_rows(_rows(100), 2)
        assert _payload_nbytes(batch) == batch.nbytes


class TestFoldIdentity:
    def test_streamed_folds_equal_oracle(self):
        """Folding morsels through the incremental kernel one task at a
        time (checkpoint out, checkpoint in) must equal the all-pairs
        skyline of the union -- the invariant that lets local windows
        ship between waves."""
        rows = _rows(500)
        morsels = [rows[i:i + 50] for i in range(0, len(rows), 50)]
        state = None
        for morsel in morsels:
            state, _, comparisons = _fold_stream_task(
                state, [morsel], DIMS, False)
            assert comparisons >= 0
        got = sorted((tuple(r) for r in state["window"]), key=repr)
        want = sorted(skyline_oracle(rows, DIMS), key=repr)
        assert got == want

    def test_default_budget_is_positive(self):
        assert DEFAULT_OPERATOR_MEMORY_MB > 0
