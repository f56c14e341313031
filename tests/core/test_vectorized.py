"""Columnar NumPy kernels: agreement with the scalar reference,
columnization edge cases, and the pinned NaN/±inf semantics."""

import functools
import math
import pickle
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.vectorized as V
from repro.core import (bnl_skyline, dominates, flagged_global_skyline,
                        make_dimensions, sfs_skyline)
from repro.core.bnl import bnl_skyline as bnl
from repro.core.dominance import (DominanceStats, dominates_incomplete,
                                  null_bitmap)
from repro.core.incomplete import bitmap_local_skyline
from repro.core.vectorized import (columnize, pack_by_null_bitmap,
                                   skyline_task)
from repro.datasets import store_sales_workload
from repro.engine.backends import ProcessBackend, StageTask
from repro.engine.batch import ColumnBatch
from repro.engine.catalog import Catalog
from repro.engine.types import BOOLEAN, DOUBLE, INTEGER
from repro.errors import ExecutionError, QueryTimeout

NAN = float("nan")
INF = float("inf")
MIN2 = make_dimensions([(0, "min"), (1, "min")])
MIXED3 = make_dimensions([(0, "min"), (1, "max"), (2, "diff")])

values = st.sampled_from([0, 1, 2, 3, 1.5, -2.0])
rows_2d = st.lists(st.tuples(values, values), max_size=60)
rows_3d = st.lists(st.tuples(values, values, values), max_size=60)
maybe = st.one_of(st.none(), values)
rows_nullable = st.lists(st.tuples(maybe, maybe, maybe), max_size=50)
special = st.sampled_from([0, 1, 2, NAN, INF, -INF])
rows_special = st.lists(st.tuples(special, special), max_size=40)


def srt(rows):
    return sorted(rows, key=repr)


def vectorized_kernel(mode):
    """The vectorized :func:`skyline_task` of ``mode`` on row lists."""
    def kernel(rows, dims, distinct=False, stats=None):
        return skyline_task(rows, dims, mode, distinct, stats=stats)[0]
    return kernel


bitmap_local = vectorized_kernel("bitmap-local")
vec_bnl = vectorized_kernel("complete")
vec_sfs = vectorized_kernel("sfs")
vec_flagged = vectorized_kernel("flagged")


MIN_MAX_MIN = make_dimensions([(0, "min"), (1, "max"), (2, "min")])
any_value = st.one_of(st.none(), values, special)

#: mode -> (rows strategy, dims choices, scalar reference).  The
#: complete-data modes also see NaN/+-inf data and NaN DIFF keys (the
#: vectorized path must defer), the incomplete modes null/NaN DIFF keys
#: and -- ``bitmap-local`` -- heterogeneous null bitmaps in one task,
#: whose local skyline is the union of the per-bitmap skylines.
MODE_CASES = {
    "complete": (st.one_of(rows_3d, st.lists(
        st.tuples(special, special, special), max_size=40)),
        [MIXED3, MIN_MAX_MIN], bnl_skyline),
    "sfs": (st.one_of(rows_3d, st.lists(
        st.tuples(special, special, special), max_size=40)),
        [MIXED3, MIN_MAX_MIN], sfs_skyline),
    "bitmap-local": (st.one_of(
        rows_3d.map(lambda rows: [(None, b, c) for _, b, c in rows]),
        st.lists(st.tuples(any_value, any_value, any_value), max_size=40)),
        [MIXED3, MIN_MAX_MIN], bitmap_local_skyline),
    "flagged": (st.lists(st.tuples(any_value, any_value, any_value),
                         max_size=40),
                [MIXED3, MIN_MAX_MIN], flagged_global_skyline),
}


class TestColumnize:
    def test_orientation_and_shape(self):
        block = columnize([(1, 2, "a"), (3, 4, "b")], MIXED3)
        # (dims, rows), one C-contiguous vector per MIN/MAX dimension.
        assert block.cols.shape == (2, 2)
        assert block.cols.flags.c_contiguous
        # MAX dimension negated so smaller is uniformly better.
        assert list(block.cols[1]) == [-2.0, -4.0]
        assert block.diff_keys == [("a",), ("b",)]

    def test_null_mask_and_nan_encoding(self):
        block = columnize([(None, 1), (2, None)], MIN2)
        assert {j: mask.tolist() for j, mask in block.nulls.items()} == \
            {0: [True, False], 1: [False, True]}
        assert math.isnan(block.cols[0, 0])
        assert not block.has_nan_data  # encoded nulls are not NaN data

    def test_nan_data_is_not_a_null(self):
        block = columnize([(NAN, 1)], MIN2)
        assert block.has_nan_data
        assert not block.nulls

    def test_non_numeric_returns_none(self):
        assert columnize([("x", 1)], MIN2) is None

    def test_big_int_returns_none(self):
        assert columnize([(2 ** 60, 1)], MIN2) is None
        # Exactly representable magnitudes still columnize.
        assert columnize([(2 ** 53, 1)], MIN2) is not None

    def test_empty_input(self):
        block = columnize([], MIN2)
        assert block.num_rows == 0
        assert vec_bnl([], MIN2) == []

    def test_groups_by_null_or_nan_bitmap(self):
        rows = [(None, 1), (1, None), (None, 2), (NAN, 3), (4, 5)]
        assert columnize(rows, MIN2).groups() is None
        assert [g.tolist() for g in columnize(rows, MIN2).groups(
            by_bitmap=True)] == [[0, 2, 3], [1], [4]]
        # DIFF values split further, a null DIFF value is one more key.
        dims = make_dimensions([(0, "min"), (1, "diff")])
        rows = [(None, "x"), (1, None), (None, "y"), (2, None), (3, "x")]
        assert [g.tolist() for g in columnize(rows, dims).groups(
            by_bitmap=True)] == [[0], [1, 3], [2], [4]]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_and_batch_planes_build_bit_identical_columns(self, data):
        # One layout, two builders: the row plane's encoder and the
        # batch's typed arrays (i8 / f8 / b1 / obj, masked or not) must
        # give the same bits -- -0.0 and the sign of NaN included -- and
        # the same null masks, or both refuse.
        cell = st.one_of(
            st.none(), st.booleans(), st.sampled_from(
                [0, 1, -3, 2 ** 53, -2 ** 53, 2 ** 53 + 1]),
            st.sampled_from([0.0, -0.0, 1.5, -2.25, NAN, INF, -INF]))
        column = st.one_of(
            st.just([None]), st.just([0, -1, 2 ** 53]),
            st.just([0.0, -0.0, NAN, INF]), st.just([True, False]),
            st.lists(cell, min_size=1, max_size=4))
        width = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(0, 12))
        pools = [data.draw(column) for _ in range(width)]
        rows = [tuple(data.draw(st.sampled_from(pool)) for pool in pools)
                for _ in range(n)]
        dims = make_dimensions([
            (i, data.draw(st.sampled_from(["min", "max", "diff"])))
            for i in range(width)])
        by_rows = columnize(rows, dims)
        by_batch = V.columnize_batch(ColumnBatch.from_rows(rows, width),
                                     dims)
        if any(type(v) is int and abs(v) > 2 ** 53 for row in rows
               for v, d in zip(row, dims) if not d.is_diff):
            assert by_rows is None and by_batch is None
            return
        assert by_rows is not None and by_batch is not None
        k = sum(not d.is_diff for d in dims)
        for block in (by_rows, by_batch):
            assert block.cols.shape == (k, n)
            assert block.cols.flags.c_contiguous
        assert by_rows.cols.tobytes() == by_batch.cols.tobytes()
        assert {j: m.tolist() for j, m in by_rows.nulls.items()} == \
            {j: m.tolist() for j, m in by_batch.nulls.items()}
        assert all(m.any() for m in by_rows.nulls.values())
        assert repr(by_rows.diff_keys) == repr(by_batch.diff_keys)


class TestKernelAgreement:
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("as_batch", [False, True])
    @pytest.mark.parametrize("mode", list(MODE_CASES))
    @given(data=st.data(), distinct=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_task_matches_scalar_reference(self, mode, as_batch,
                                           vectorized, data, distinct):
        # Same survivors in the same order, in the representation that
        # went in -- whichever of guard, fallback or selector ran.
        strategy, dims_choices, reference = MODE_CASES[mode]
        rows = data.draw(strategy)
        dims = data.draw(st.sampled_from(dims_choices))
        expected = reference(
            rows, dims, distinct=distinct and mode != "bitmap-local")
        partition = ColumnBatch.from_rows(rows, 3) if as_batch else rows
        result, _, _ = skyline_task(partition, dims, mode, distinct,
                                    vectorized)
        assert isinstance(result, ColumnBatch) == as_batch
        out = result.to_rows() if as_batch else result
        assert [repr(row) for row in out] == \
            [repr(row) for row in expected]

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("as_batch", [False, True])
    @pytest.mark.parametrize("mode", ["complete", "sfs"])
    def test_task_refuses_nulls(self, mode, as_batch, vectorized):
        # Once per task, on every path: nulls must not silently switch
        # the complete modes to null-skipping semantics.
        rows = [(2.0, 2.0), (1.0, None)]
        partition = ColumnBatch.from_rows(rows, 2) if as_batch else rows
        with pytest.raises(ExecutionError, match=r"#2 \(MIN\) holds NULL"):
            skyline_task(partition, MIN2, mode, False, vectorized)

    def test_tasks_ship_to_process_workers(self):
        # The mode is a plain string and the task is top level, so a
        # partial pickles and a process worker can run it.
        rows = [(float(i % 7), float(7 - i % 7)) for i in range(60)]
        batch = ColumnBatch.from_rows(rows, 2)
        task = functools.partial(skyline_task, batch, MIN2, "complete",
                                 True, True)
        assert pickle.loads(pickle.dumps(task))()[0].to_rows() == \
            bnl_skyline(rows, MIN2, distinct=True)
        tasks = [
            StageTask(partition=0, rows_in=len(rows), func=skyline_task,
                      args=(batch, MIN2, "sfs", False, True)),
        ]
        with ProcessBackend(num_workers=2) as backend:
            outcomes = backend.run_stage(tasks)
        assert outcomes[0].result[0].to_rows() == sfs_skyline(rows, MIN2)

    @given(rows_3d, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_bnl_matches_scalar(self, rows, distinct):
        assert srt(vec_bnl(rows, MIXED3, distinct=distinct)) == \
            srt(bnl_skyline(rows, MIXED3, distinct=distinct))

    @given(rows_3d, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_sfs_matches_scalar(self, rows, distinct):
        # Exact list equality: the vectorized kernel must reproduce the
        # scalar kernel's global-score-order output, DIFF groups and all.
        assert vec_sfs(rows, MIXED3, distinct=distinct) == \
            sfs_skyline(rows, MIXED3, distinct=distinct)

    def test_sfs_diff_groups_keep_global_score_order(self):
        # Regression: per-DIFF-group processing must not reorder the
        # output -- scalar SFS emits one global score order.
        dims = make_dimensions([(0, "diff"), (1, "min"), (2, "min")])
        rows = [("g2", 5, 5), ("g1", 1, 9), ("g2", 1, 1), ("g1", 9, 1)]
        assert vec_sfs(rows, dims) == sfs_skyline(rows, dims) == \
            [("g2", 1, 1), ("g1", 1, 9), ("g1", 9, 1)]

    def test_sfs_mixed_finite_groups_route_whole_input_to_bnl(self):
        # Scalar SFS falls back to BNL when *any* score is non-finite,
        # even if only one DIFF group is affected -- the vectorized
        # kernel must mirror that, including the input-order output.
        dims = make_dimensions([(0, "diff"), (1, "min"), (2, "min")])
        rows = [("g1", INF, -INF), ("g2", 2, 2), ("g1", 0, 0),
                ("g2", 1, 3)]
        assert vec_sfs(rows, dims) == sfs_skyline(rows, dims)

    @given(rows_nullable, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_flagged_matches_scalar(self, rows, distinct):
        dims = make_dimensions([(0, "min"), (1, "max"), (2, "min")])
        assert srt(vec_flagged(rows, dims, distinct=distinct)) == \
            srt(flagged_global_skyline(rows, dims, distinct=distinct))

    @given(rows_2d)
    @settings(max_examples=80, deadline=None)
    def test_incomplete_bnl_matches_scalar_per_bitmap(self, rows):
        # Uniform null pattern (the engine's per-partition guarantee).
        nulled = [(None, b) for _, b in rows]
        assert srt(bitmap_local(nulled, MIN2)) == \
            srt(bnl(nulled, MIN2, dominance=dominates_incomplete))

    def test_complete_kernels_raise_on_nulls(self):
        # Regression: nulls fed to the complete-data kernels must not
        # silently switch to null-skipping semantics -- the vectorized
        # kernels refuse them by name, the scalar library ones fail on
        # the comparison.
        rows = [(None, 1.0), (2.0, 2.0)]
        for kernel in (vec_bnl, vec_sfs):
            with pytest.raises(ExecutionError, match="#1 \\(MIN\\)"):
                kernel(rows, MIN2)
        for kernel in (bnl_skyline, sfs_skyline):
            with pytest.raises(TypeError):
                kernel(rows, MIN2)

    def test_incomplete_null_diff_key_matches_scalar(self):
        # A null DIFF value is skipped by the null-restricted comparison
        # (cross-group dominance), so a row null there is in a null
        # bitmap of its own: the local phase keeps both rows, on both
        # kernel families, and the global phase drops the dominated one.
        dims = make_dimensions([(0, "min"), (1, "diff")])
        rows = [(1.0, None), (2.0, "x")]
        assert bitmap_local(rows, dims) == \
            bitmap_local_skyline(rows, dims) == rows
        assert flagged_global_skyline(bitmap_local(rows, dims), dims) == \
            [(1.0, None)]

    def test_incomplete_mixed_bitmaps_select_per_bitmap(self):
        # Heterogeneous null patterns in one task: dominance is not
        # transitive across them, so the task's local skyline is the
        # union of the per-bitmap skylines, in input order -- the
        # vectorized selector and the scalar reference alike.
        rows = [(None, 1), (1, None), (2, 2), (None, 0), (0, 3), (3, 3),
                (2, None)]
        expected = [(1, None), (2, 2), (None, 0), (0, 3)]
        for as_batch in (False, True):
            for vectorized in (True, False):
                partition = ColumnBatch.from_rows(rows, 2) if as_batch \
                    else rows
                out = skyline_task(partition, MIN2, "bitmap-local",
                                   vectorized=vectorized)[0]
                assert (out.to_rows() if as_batch else out) == expected

    def test_incomplete_nan_counts_as_null_in_the_local_groups(self):
        # (0, NaN) dominates (1, 4), which alone dominates (None, 5):
        # one window over the NaN row and the numbers would drop the
        # only witness against (None, 5).  NaN compares like a null, so
        # it takes a group of its own and the witness survives.
        rows = [(0.0, NAN), (1.0, 4.0)]
        for vectorized in (True, False):
            assert skyline_task(rows, MIN2, "bitmap-local",
                                vectorized=vectorized)[0] == rows
        local = bitmap_local(rows + [(None, 5.0)], MIN2)
        assert flagged_global_skyline(local, MIN2) == [(0.0, NAN)]

    def test_blocks_larger_than_block_rows(self):
        import random
        rng = random.Random(7)
        rows = [(rng.random(), rng.random())
                for _ in range(V.BLOCK_ROWS * 3 + 17)]
        assert srt(vec_bnl(rows, MIN2)) == \
            srt(bnl_skyline(rows, MIN2))
        assert srt(vec_sfs(rows, MIN2)) == \
            srt(sfs_skyline(rows, MIN2))

    def test_stats_are_populated(self):
        stats = DominanceStats()
        rows = [(i % 5, (i * 7) % 5) for i in range(50)]
        vec_bnl(rows, MIN2, stats=stats)
        assert stats.comparisons > 0
        assert stats.window_peak > 0


def columns(values):
    """A ``(rows, dims)`` test matrix in the kernels' ``(dims, rows)``
    layout."""
    return np.ascontiguousarray(values.T)


def all_pairs_skyline(values):
    """The definition, one row against all others -- no key, no window,
    no order: the oracle the sort-first kernel must match bit for bit."""
    kept = []
    for i, row in enumerate(values):
        worse = (values > row).any(axis=1)
        better = (values < row).any(axis=1)
        if not (~worse & better).any():
            kept.append(i)
    return kept


#: +-inf, signed zeros, neighbours at 1e16 (spacing 2: a raw sum absorbs
#: the small dimension) and a few small values -- draws repeat, so exact
#: duplicates and equal columns are common.
KERNEL_POOL = [0.0, -0.0, 1.0, 2.0, 3.0, 0.4, 0.6, INF, -INF,
               1e16, 1e16 + 2, 1e16 + 4, -1e16]


@st.composite
def kernel_matrices(draw):
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.sampled_from(KERNEL_POOL), min_size=k, max_size=k),
        max_size=150))
    values = np.asarray(rows, dtype=np.float64).reshape(len(rows), k)
    if len(rows) and draw(st.booleans()):
        # One heavy-tailed dimension: 600 orders of magnitude.
        exponents = draw(st.lists(st.integers(-300, 300),
                                  min_size=len(rows), max_size=len(rows)))
        values[:, 0] = 10.0 ** np.asarray(exponents, dtype=np.float64)
    # Uniformly-null columns (a null-bitmap group); all of them null
    # is the all-null group.
    for j in range(k):
        if draw(st.integers(0, 4)) == 0:
            values[:, j] = NAN
    return values


class TestSortFirstKernel:
    """:func:`repro.core.vectorized._block_skyline_indices` against the
    all-pairs oracle."""

    @given(kernel_matrices())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_all_pairs(self, values):
        assert V._block_skyline_indices(columns(values)).tolist() == \
            all_pairs_skyline(values)

    #: Rows consumed when every head block survives whole: 64, +128, ...
    BOUNDARIES = [64, 192, 448, 960, 1984, 3008]

    @pytest.mark.parametrize("twins", [False, True])
    @pytest.mark.parametrize("n", [b + d for b in BOUNDARIES
                                   for d in (-1, 0, 1)])
    def test_sizes_straddling_every_head_block(self, n, twins):
        # An anti-correlated chain at 1e16 magnitudes, every seventh row
        # an exact duplicate of its predecessor: nothing is dominated,
        # every round's head survives whole, so ``n`` lands one short
        # of, on, and one past each block boundary.  With ``twins`` each
        # row also brings a dominated copy the rounds must remove.
        steps = [i - i % 7 // 6 for i in range(n)]
        values = np.asarray([(1e16 + 2.0 * j, -2.0 * j) for j in steps])
        expected = list(range(n))
        if twins:
            values = np.concatenate([values + (4.0, 4.0), values])
            expected = list(range(n, 2 * n))
        assert V._block_skyline_indices(columns(values)).tolist() == expected
        if n <= 192:
            assert all_pairs_skyline(values) == expected

    def test_equal_key_cleanup_makes_weak_keys_exact(self, monkeypatch):
        # The kernel may assume only WEAK monotonicity of its key.  With
        # the classic raw-sum key every row below scores exactly 1e16
        # (the small dimension is absorbed), the stable sort keeps input
        # order, and the one true skyline row -- the last -- sits in a
        # later head block than the best row of the first block.
        n = V.HEAD_ROWS_MIN + 6
        values = np.asarray([(1e16, 0.9 - i * 1e-4) for i in range(n)])
        monkeypatch.setattr(V, "_volume_keys", lambda cols: np.sum(cols, axis=0))
        assert V._block_skyline_indices(columns(values)).tolist() == [n - 1] == \
            all_pairs_skyline(values)
        # Mutation check: without the cleanup the false survivor stays.
        monkeypatch.setattr(
            V, "_equal_key_dominated",
            lambda keys, cols, stats: np.zeros(len(keys), dtype=bool))
        assert V._block_skyline_indices(columns(values)).tolist() == \
            [V.HEAD_ROWS_MIN - 1, n - 1]

    def test_keys_are_scale_free_and_finite(self):
        values = np.asarray([(-INF, 1e300), (0.0, 1e-300), (INF, 5.0),
                             (0.0, 1e-300)])
        keys = V._volume_keys(columns(values))
        assert np.isfinite(keys).all()
        assert keys[1] == keys[3]                  # duplicates tie
        rescaled = values * (1e-5, 1e5)
        assert (V._volume_keys(columns(rescaled)) == keys).all()

    def test_temporaries_stay_bounded(self):
        values = np.random.default_rng(12).random((30_000, 6))
        cols = columns(values)

        def peak_of(call):
            call()  # warm caches outside the measurement
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_of(lambda: V._block_skyline_indices(cols)) \
            <= 4 * 2 ** 20
        # The primitive alone: 2048 x 30000 pairs used to be one
        # 61 MB boolean temporary, three times over.
        assert peak_of(lambda: V._dominated_by(cols, cols[:, :2048])) \
            <= 2 * 2 ** 20

    # -- filter before sort ---------------------------------------------

    @pytest.mark.parametrize("points", [2, 32])
    @given(kernel_matrices())
    @settings(max_examples=200, deadline=None)
    def test_prefiltered_bit_identical_to_all_pairs(self, points, values):
        # An 8-row sample from 32 rows up: every example of any size
        # takes the pre-filter, with and without the best-k cap binding.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(V, "PREFILTER_MIN_ROWS", 32)
            patch.setattr(V, "SAMPLE_ROWS", 8)
            patch.setattr(V, "FILTER_POINTS", points)
            assert V._block_skyline_indices(columns(values)).tolist() == \
                all_pairs_skyline(values)

    @staticmethod
    def adversarial(shape, n):
        i = np.arange(n, dtype=np.float64)
        if shape == "chain":         # nothing dominated: filter is a no-op
            return np.stack([i, -i], axis=1)
        if shape == "duplicates":    # every row equal: nothing dominated
            return np.full((n, 3), 7.0)
        if shape == "periodic":
            # Period = the sampling stride, phase 0 the WORST rows: the
            # sample sees nothing but them.
            phase = i % (n // V.SAMPLE_ROWS)
            return np.stack([-phase, -phase + i % 3, i % 5], axis=1)
        if shape == "inf":
            values = np.stack([i % 11, -(i % 13), i % 7], axis=1)
            values[::5, 0] = -INF
            values[::7, 1] = INF
            return values
        if shape == "null-column":   # one bitmap group: column 1 null
            return np.stack([i % 17, np.full(n, NAN), -(i % 19)], axis=1)
        assert shape == "ties"       # neighbours at 1e16: raw sums tie
        return np.stack([1e16 + 2 * (i % 3), 0.9 - (i % 101) * 1e-4],
                        axis=1)

    @pytest.mark.parametrize("offset", [-1, 0, 1, 517])
    @pytest.mark.parametrize("shape", ["chain", "duplicates", "periodic",
                                       "inf", "null-column", "ties"])
    def test_adversarial_shapes_around_the_threshold(self, shape, offset):
        # One below the threshold (no pre-filter), on it, one above, and
        # a size the sampling stride does not divide.
        values = self.adversarial(shape, V.PREFILTER_MIN_ROWS + offset)
        assert V._block_skyline_indices(columns(values)).tolist() == \
            all_pairs_skyline(values)

    @pytest.mark.parametrize("foreign, lost", [
        # No row of the matrix at all: just better than row 100.
        ((99.5, -100.0), [100]),
        # A row of another null-bitmap group: its null dimension is
        # skipped, so it beats every row below 100 on the other alone.
        ((NAN, -100.0), list(range(100))),
    ])
    def test_foreign_filter_point_breaks_identity(self, monkeypatch,
                                                  foreign, lost):
        # Mutation check of the soundness argument: filter points must
        # be rows of the candidate matrix itself.  A point from outside
        # removes rows that no surviving row dominates.
        values = self.adversarial("chain", V.PREFILTER_MIN_ROWS)
        expected = all_pairs_skyline(values)
        assert V._block_skyline_indices(columns(values)).tolist() == expected
        dominated_by = V._dominated_by

        def planted(cand, by, stats=None):
            if cand.shape[1] == len(values):  # the filter pass
                by = columns(np.asarray([foreign]))
            return dominated_by(cand, by, stats)

        monkeypatch.setattr(V, "_dominated_by", planted)
        assert V._block_skyline_indices(columns(values)).tolist() == \
            [i for i in expected if i not in lost]

    def test_deadline_polled_between_sample_filter_and_peel(
            self, monkeypatch):
        values = np.random.default_rng(5).random((6000, 3))
        events = []
        dominated_by = V._dominated_by

        def spy(cand, by, stats=None):
            events.append("filter" if cand.shape[1] == len(values)
                          else "peel")
            return dominated_by(cand, by, stats)

        monkeypatch.setattr(V, "_dominated_by", spy)
        V._block_skyline_indices(columns(values), None,
                                 lambda: events.append("check"))
        at = events.index("filter")
        assert events.count("filter") == 1
        assert events[at - 1] == events[at + 1] == "check"
        assert "peel" in events[:at] and "peel" in events[at:]
        monkeypatch.undo()
        # A raise at any of the polls propagates.
        for fatal in range(events.count("check")):
            polls = iter(range(len(events)))

            def check():
                if next(polls) == fatal:
                    raise QueryTimeout(1.0, 0.5)

            with pytest.raises(QueryTimeout):
                V._block_skyline_indices(columns(values), None, check)

    def test_sort_sees_a_quarter_of_a_store_sales_partition(
            self, monkeypatch):
        # The regression guard of the lever, on a count: what reaches
        # the ranking and the sort is the sample, then the survivors of
        # its skyline -- never the partition.
        workload = store_sales_workload(30_000, seed=1)
        names = [column[0] for column in workload.columns]
        dims = make_dimensions([(names.index(name), kind) for name, kind
                                in workload.dimensions(6)])
        cols = columnize(workload.rows, dims).cols
        sorted_rows = []
        volume_keys = V._volume_keys
        monkeypatch.setattr(
            V, "_volume_keys",
            lambda cols: sorted_rows.append(len(cols[0]))
            or volume_keys(cols))
        first = V._block_skyline_indices(cols)
        sample, survivors = sorted_rows
        assert sample <= V.SAMPLE_ROWS * 9 // 8
        assert survivors <= cols.shape[1] // 4
        assert V._block_skyline_indices(cols).tolist() == first.tolist()
        assert sorted_rows[2:] == [sample, survivors]  # exact per seed

    # -- the bounded ufunc buffer ----------------------------------------

    def test_ufunc_buffer_bounded_inside_and_restored(self, monkeypatch):
        cols = columns(np.random.default_rng(3).random((3000, 3)))
        default = np.getbufsize()
        assert default != V.UFUNC_BUFFER
        pairwise = V._pairwise_dominated
        seen = set()
        monkeypatch.setattr(
            V, "_pairwise_dominated",
            lambda by, cand: seen.add(np.getbufsize()) or pairwise(by, cand))
        V._dominated_by(cols, cols[:, :64])
        assert seen == {V.UFUNC_BUFFER}
        assert np.getbufsize() == default

        def boom(by, cand):
            raise RuntimeError("inside the primitive")

        monkeypatch.setattr(V, "_pairwise_dominated", boom)
        with pytest.raises(RuntimeError):
            V._dominated_by(cols, cols[:, :64])
        assert np.getbufsize() == default

    def test_ufunc_buffer_never_leaks_to_another_thread(self, monkeypatch):
        cols = columns(np.random.default_rng(4).random((3000, 3)))
        default = np.getbufsize()
        inside, release = threading.Event(), threading.Event()
        pairwise = V._pairwise_dominated

        def parked(by, cand):
            # Hold the primitive open, buffer bounded, until the other
            # thread has looked.
            inside.set()
            assert release.wait(10)
            return pairwise(by, cand)

        monkeypatch.setattr(V, "_pairwise_dominated", parked)
        observed = []

        def observer():
            assert inside.wait(10)
            observed.append(np.getbufsize())
            release.set()

        thread = threading.Thread(target=observer)
        thread.start()
        try:
            V._dominated_by(cols[:, :100], cols[:, :64])
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert observed == [default]
        assert np.getbufsize() == default

    def test_distinct_batch_legs_materialise_only_survivors(
            self, monkeypatch):
        rows = [(float(i % 40), float(40 - i % 40)) for i in range(400)]
        rows += [(100.0 + i, 100.0 + i) for i in range(2000)]
        batch = ColumnBatch.from_rows(rows, 2)
        materialised = []
        to_rows = ColumnBatch.to_rows
        monkeypatch.setattr(
            ColumnBatch, "to_rows",
            lambda self: materialised.append(self.num_rows) or to_rows(self))
        for mode, reference in [
                ("complete", bnl_skyline),
                ("sfs", sfs_skyline),
                ("flagged", flagged_global_skyline)]:
            survivors = skyline_task(batch, MIN2, mode, distinct=True)[0]
            assert to_rows(survivors) == \
                reference(rows, MIN2, distinct=True)
        assert max(materialised) == 400


class TestResidentColumns:
    """No kernel writes into a batch's arrays: a table's resident
    columns are shared by every query on the catalog."""

    @pytest.mark.parametrize("mode", sorted(V.SKYLINE_MODES))
    def test_no_mode_writes_a_resident_column(self, mode):
        columns = [("id", INTEGER, False), ("qty", INTEGER, False),
                   ("price", DOUBLE, False), ("flag", BOOLEAN, False),
                   ("rating", DOUBLE, True), ("stock", INTEGER, True)]
        rows = [(i, (i * 7) % 23, float((i * 5) % 17) + 0.5, i % 3 == 0,
                 None if i % 5 == 0 else float(i % 11),
                 None if i % 7 == 0 else (i * 3) % 13)
                for i in range(600)]
        catalog = Catalog()
        catalog.create_table("t", columns, rows)
        batch, _ = catalog.lookup("t").column_batch()
        assert [c.kind for c in batch.columns] == \
            ["i8", "i8", "f8", "b1", "f8", "i8"]
        before = [(c.data.tobytes(), None if c.mask is None
                   else c.mask.tobytes()) for c in batch.columns]
        # MAX over every storage kind; the null-aware modes also read
        # the masked columns.
        dims = make_dimensions(
            [(1, "max"), (2, "max"), (3, "max"), (0, "min")]
            if mode in ("complete", "sfs") else
            [(1, "max"), (4, "max"), (5, "max"), (2, "min")])
        for partition in (batch, batch.slice(100, 400)):
            result, _, _ = skyline_task(partition, dims, mode)
            assert result.num_rows
        assert [(c.data.tobytes(), None if c.mask is None
                 else c.mask.tobytes()) for c in batch.columns] == before


class TestNullBitmapPacker:
    """:func:`pack_by_null_bitmap`: whole null-bitmap groups, at most
    ``bins`` partitions, the same rows in either representation."""

    @staticmethod
    def bitmaps(rows, dims):
        return {null_bitmap(row, dims) for row in rows}

    @given(st.lists(st.tuples(maybe, maybe, maybe, st.integers(0, 9)),
                    max_size=80), st.integers(1, 8), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_whole_groups_in_at_most_bins(self, rows, bins, pieces):
        dims = MIN_MAX_MIN
        cut = [rows[i::pieces] for i in range(pieces)]
        packed = pack_by_null_bitmap(cut, dims, bins)
        batches = pack_by_null_bitmap(
            [ColumnBatch.from_rows(part, 4) for part in cut], dims, bins)
        assert [b.to_rows() for b in batches] == packed
        groups = self.bitmaps(rows, dims)
        assert len(packed) == max(1, min(bins, len(groups)))
        for part in packed:
            # A bin's groups are disjoint from every other bin's.
            others = [row for other in packed if other is not part
                      for row in other]
            assert not self.bitmaps(part, dims) & self.bitmaps(others, dims)
        whole = [row for part in cut for row in part]
        assert sorted(map(repr, whole)) == \
            sorted(repr(row) for part in packed for row in part)

    def test_largest_group_first_to_the_lightest_bin(self):
        # Group sizes 5, 3, 3, 2, 1 into two bins: 5 | 3, then the
        # second 3 to the lighter bin (5 | 6), 2 to the now lighter
        # first (7 | 6), 1 to the second (7 | 7).
        sizes = {0b000: 5, 0b001: 3, 0b010: 3, 0b100: 2, 0b011: 1}
        rows = [tuple(None if bits >> j & 1 else float(j + i)
                      for j in range(3))
                for bits, n in sizes.items() for i in range(n)]
        packed = pack_by_null_bitmap([rows], MIN_MAX_MIN, 2)
        assert sorted(map(len, packed)) == [7, 7]
        # Bins are ordered by their first row, groups keep first-seen
        # order inside a bin, rows their input order.
        assert packed == [rows[:5] + rows[11:13], rows[5:11] + rows[13:]]

    def test_one_group_and_empty(self):
        dims = MIN_MAX_MIN
        rows = [(1.0, None, 2.0), (0.5, None, 3.0)]
        assert pack_by_null_bitmap([rows[:1], rows[1:]], dims, 4) == [rows]
        assert pack_by_null_bitmap([[]], dims, 4) == [[]]
        empty = pack_by_null_bitmap([ColumnBatch.from_rows([], 3)],
                                    dims, 4)
        assert len(empty) == 1 and empty[0].num_rows == 0


class TestPinnedNaNSemantics:
    """Regression net for the NaN/±inf behaviour pinned in
    :mod:`repro.core.dominance`."""

    def test_nan_dimension_carries_no_information(self):
        assert dominates((1, NAN), (2, 5), MIN2)
        assert dominates((NAN, 1), (NAN, 2), MIN2)
        # NaN itself never blocks and never counts as strictly better.
        assert not dominates((NAN, 1), (1, 1), MIN2)
        assert not dominates((NAN, NAN), (1, 2), MIN2)

    def test_infinities_order_normally(self):
        assert dominates((-INF, 1), (0, 1), MIN2)
        assert not dominates((INF, 0), (0, 0), MIN2)

    def test_scalar_sfs_falls_back_on_nan(self):
        rows = [(NAN, 2), (1, 1), (0, 3), (2, 0)]
        assert srt(sfs_skyline(rows, MIN2)) == srt(bnl_skyline(rows, MIN2))

    def test_sfs_rounding_tie_evicts_dominated_row(self):
        # Regression: float addition absorbs sub-ulp differences (both
        # rows score exactly 1e16), stably sorting the dominated row
        # first -- insertion-is-final must not keep it.
        rows = [(1e16, 0.6), (1e16, 0.4)]
        assert sfs_skyline(rows, MIN2) == [(1e16, 0.4)]
        assert vec_sfs(rows, MIN2) == [(1e16, 0.4)]
        assert srt(bnl_skyline(rows, MIN2)) == srt([(1e16, 0.4)])

    def test_sfs_rounding_tie_across_chunk_boundary(self):
        # The dominator of every earlier row sits in a later chunk of
        # the same equal-score run -- the vectorized windowed scan alone
        # would miss it.
        n = V.BLOCK_ROWS + 5
        rows = [(1e16, 0.9 - i * 1e-4) for i in range(n)]
        expected = [rows[-1]]
        assert sfs_skyline(rows, MIN2) == expected
        assert vec_sfs(rows, MIN2) == expected

    def test_sfs_exact_tie_without_dominance_keeps_all(self):
        # Anti-correlated integers: every row scores exactly the same
        # and none dominates -- the tie cleanup must keep them all, in
        # the stable (input) order.
        n = V.BLOCK_ROWS * 2 + 9
        rows = [(float(i), float(n - i)) for i in range(n)]
        assert vec_sfs(rows, MIN2) == sfs_skyline(rows, MIN2)
        assert len(vec_sfs(rows, MIN2)) == n

    def test_scalar_sfs_falls_back_on_absorbing_inf(self):
        # Regression: -inf absorbs the monotone score, tying the
        # dominated (-inf, 2) with its dominator (-inf, -2) -- without
        # the non-finite fallback SFS kept the dominated row.
        rows = [(-INF, 2), (-INF, -2.0), (0, 0)]
        assert srt(sfs_skyline(rows, MIN2)) == srt([(-INF, -2.0)])

    @given(rows_special, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_vectorized_agrees_on_special_values(self, rows, distinct):
        assert srt(vec_bnl(rows, MIN2, distinct=distinct)) == \
            srt(bnl_skyline(rows, MIN2, distinct=distinct))
        assert srt(vec_sfs(rows, MIN2, distinct=distinct)) == \
            srt(sfs_skyline(rows, MIN2, distinct=distinct))

    @given(st.lists(st.tuples(st.one_of(st.none(), special),
                              st.one_of(st.none(), special)),
                    max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_flagged_agrees_on_special_and_null_values(self, rows):
        assert srt(vec_flagged(rows, MIN2)) == \
            srt(flagged_global_skyline(rows, MIN2))

    def test_distinct_never_merges_nan_rows(self):
        # NaN != NaN: DISTINCT must keep both NaN rows (they are not
        # equal on the dimensions), matching equal_on_dimensions.
        rows = [(NAN, 1), (NAN, 1)]
        assert len(vec_bnl(rows, MIN2, distinct=True)) == 2
        assert len(bnl_skyline(rows, MIN2, distinct=True)) == 2

    def test_distinct_merges_null_rows(self):
        rows = [(None, 1, 0), (None, 1, 5)]
        dims = make_dimensions([(0, "min"), (1, "min")])
        assert len(vec_flagged(rows, dims, distinct=True)) == 1


class TestFallbacks:
    def test_non_numeric_rows_fall_back(self):
        rows = [("b", 2), ("a", 1), ("c", 0)]
        dims = make_dimensions([(0, "min"), (1, "min")])
        assert srt(vec_bnl(rows, dims)) == \
            srt(bnl_skyline(rows, dims))
