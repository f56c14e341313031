"""Differential-testing oracle suite.

Runs every (algorithm x row layout x backend x vectorized) combination
through the full engine pipeline on seeded random datasets -- complete
and incomplete -- and asserts the skyline identical to the naive
all-pairs oracle.  This is the reference correctness net for the
vectorized kernel layer: any divergence between the columnar NumPy
kernels, the scalar reference kernels, the rows each scan partition
holds (its count and the table's row order) and the execution backends
surfaces here as a row-level mismatch.

The process backend is shared at module scope so its pool is spawned
once for the whole grid.  It runs as two legs: ``process`` ships the
grid's few-KiB partitions by value (they sit below the store's share
threshold), ``process-shm`` drops that threshold to zero so every
numeric batch crosses to the workers in a /dev/shm segment.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro import SkylineSession, connect
from repro.core import make_dimensions
from repro.engine import shm
from repro.engine.backends import BACKEND_NAMES, ProcessBackend
from repro.engine.types import DOUBLE, INTEGER, STRING
from tests.conftest import ROW_LAYOUTS, lay_out, skyline_oracle

SEED = 20230331  # EDBT 2023 -- fixed so failures reproduce exactly

#: Session strategies valid on complete data.
COMPLETE_ALGORITHMS = ("distributed-complete", "non-distributed-complete",
                       "distributed-incomplete", "sfs")
#: Strategies whose semantics are defined on incomplete data.
INCOMPLETE_ALGORITHMS = ("distributed-incomplete",)

#: Execution legs: the backends, plus the process backend with every
#: batch shared (see the module docstring).
BACKENDS = BACKEND_NAMES + ("process-shm",)
PROCESS_LEGS = BACKENDS[1:]

VECTORIZED_MODES = (False, True)

DIMS3 = make_dimensions([(1, "min"), (2, "max"), (3, "min")])
SQL3 = "SELECT * FROM t SKYLINE OF a MIN, b MAX, c MIN"
SQL3_DISTINCT = "SELECT * FROM t SKYLINE OF DISTINCT a MIN, b MAX, c MIN"


def _random_rows(n: int, seed: int, null_probability: float = 0.0
                 ) -> list[tuple]:
    """Seeded rows over a small value grid: ties, duplicates, and (for
    incomplete datasets) nulls are all likely."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        def value():
            if null_probability and rng.random() < null_probability:
                return None
            return rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
        rows.append((i, value(), value(), value()))
    # Exact duplicate tail exercises DISTINCT and window duplicates.
    rows.extend(rows[:n // 10])
    return rows


COMPLETE_ROWS = _random_rows(140, SEED)
INCOMPLETE_ROWS = _random_rows(110, SEED + 1, null_probability=0.25)

COMPLETE_ORACLE = sorted(skyline_oracle(COMPLETE_ROWS, DIMS3,
                                        complete=True), key=repr)
INCOMPLETE_ORACLE = sorted(skyline_oracle(INCOMPLETE_ROWS, DIMS3,
                                          complete=False), key=repr)


def _with_planes(legs, planes=(True, False)):
    """``(leg, columnar)`` pairs.  The row plane never meets the shm
    store, so ``process-shm`` runs on the batch plane only."""
    return [(leg, columnar) for leg in legs for columnar in planes
            if columnar or leg != "process-shm"]


@pytest.fixture(scope="module")
def shared_backends():
    """One process pool for the whole module."""
    process = ProcessBackend(2)
    yield {"local": "local", "process": process}
    process.close()


@pytest.fixture
def backend_for(shared_backends, monkeypatch):
    """Resolve a grid leg to the backend its sessions run on.  On the
    ``process-shm`` leg the sessions' stores share every batch; the
    fixture closes them all, so no segment outlives the test."""
    stores = []

    class EveryBatchShared(shm.SharedColumnStore):
        def __init__(self, max_bytes=None, min_batch_bytes=0):
            super().__init__(max_bytes, min_batch_bytes)
            stores.append(self)

    def resolve(leg):
        if leg == "process-shm":
            if not shm.shared_memory_available():
                pytest.skip("shared memory not available")
            monkeypatch.setattr(shm, "SharedColumnStore", EveryBatchShared)
            return shared_backends["process"]
        return shared_backends[leg]

    yield resolve
    for store in stores:
        store.close()


def _make_session(rows, nullable: bool, algorithm: str, backend,
                  vectorized, columnar=True,
                  num_executors: int = 3) -> SkylineSession:
    session = connect(
        num_executors=num_executors, skyline_algorithm=algorithm,
        backend=backend, vectorized=vectorized, columnar=columnar)
    session.create_table(
        "t",
        [("id", INTEGER, False), ("a", DOUBLE, nullable),
         ("b", DOUBLE, nullable), ("c", DOUBLE, nullable)],
        rows)
    return session


@pytest.mark.parametrize(
    "algorithm,layout,backend_name,vectorized",
    list(itertools.product(COMPLETE_ALGORITHMS, ROW_LAYOUTS, BACKENDS,
                           VECTORIZED_MODES)))
def test_complete_data_matches_oracle(algorithm, layout, backend_name,
                                      vectorized, backend_for):
    session = _make_session(lay_out(COMPLETE_ROWS, layout), False,
                            algorithm, backend_for(backend_name),
                            vectorized)
    result = sorted(session.sql(SQL3).to_tuples(), key=repr)
    assert result == COMPLETE_ORACLE, (
        f"{algorithm}/{layout}/{backend_name}/vectorized={vectorized} "
        f"diverged from the all-pairs oracle")


@pytest.mark.parametrize(
    "algorithm,layout,backend_name,vectorized",
    list(itertools.product(INCOMPLETE_ALGORITHMS, ROW_LAYOUTS, BACKENDS,
                           VECTORIZED_MODES)))
def test_incomplete_data_matches_oracle(algorithm, layout, backend_name,
                                        vectorized, backend_for):
    session = _make_session(lay_out(INCOMPLETE_ROWS, layout), True,
                            algorithm, backend_for(backend_name),
                            vectorized)
    result = sorted(session.sql(SQL3).to_tuples(), key=repr)
    assert result == INCOMPLETE_ORACLE, (
        f"{algorithm}/{layout}/{backend_name}/vectorized={vectorized} "
        f"diverged from the null-aware all-pairs oracle")


def _adversarial_rows(seed: int) -> list[tuple]:
    """Values that break naive kernels: +/-inf, signed zeros, 1e16
    neighbours whose sums tie in float64 (SFS scores), exact duplicates,
    and all-NaN rows.  NaN sits in *every* value dimension of a row or
    in none: such a row is incomparable to everything, so dominance
    stays transitive and the all-pairs oracle is order-independent."""
    rng = random.Random(seed)
    grid = [-0.0, 0.0, 1.0, 2.0, 3.0, 1e16, 1e16 + 2]  # best -> worst

    def value(rank: int, maximise: bool = False) -> float:
        if rng.random() < 0.04:
            return rng.choice([float("inf"), float("-inf")])
        return grid[6 - rank] if maximise else grid[rank]

    rows = []
    for i in range(120):
        # Ranks that sum to ~9: anti-correlated, so the skyline is wide.
        ra, rb = rng.randrange(7), rng.randrange(7)
        rc = min(6, max(0, 9 - ra - rb + rng.choice([0, 0, 1, 2])))
        rows.append((i, value(ra), value(rb, maximise=True), value(rc)))
    rows += [(len(rows) + k,) + (float("nan"),) * 3 for k in range(3)]
    rng.shuffle(rows)
    return rows + rows[:40]


def _nan_safe(rows) -> list[tuple]:
    """Sorted rows with NaN spelled out (``nan != nan`` would fail an
    equality of otherwise identical tuples)."""
    return sorted((tuple("NaN" if v != v else v for v in row)
                   for row in rows), key=repr)


ADVERSARIAL_ROWS = _adversarial_rows(SEED + 2)
ADVERSARIAL_ORACLE = _nan_safe(skyline_oracle(ADVERSARIAL_ROWS, DIMS3,
                                              complete=True))


def _check_adversarial(layout, num_executors, vectorized, backend, leg):
    rows = lay_out(ADVERSARIAL_ROWS, layout)
    for algorithm in COMPLETE_ALGORITHMS:
        session = _make_session(
            rows, False, algorithm, backend, vectorized,
            num_executors=num_executors)
        assert _nan_safe(session.sql(SQL3).to_tuples()) == \
            ADVERSARIAL_ORACLE, (
            f"{algorithm}/{layout}/{num_executors} executors/{leg}/"
            f"vectorized={vectorized}")


@pytest.mark.parametrize("vectorized", VECTORIZED_MODES)
@pytest.mark.parametrize("num_executors", (2, 5, 7, 10))
@pytest.mark.parametrize("layout", ROW_LAYOUTS)
def test_adversarial_data_invariant_under_partitioning(
        layout, num_executors, vectorized):
    """However the scan cuts the rows into local skylines -- row order
    x partition count -- the one global task must return the
    all-pairs oracle."""
    _check_adversarial(layout, num_executors, vectorized, "local", "local")


@pytest.mark.parametrize("backend_name", PROCESS_LEGS)
@pytest.mark.parametrize("vectorized", VECTORIZED_MODES)
@pytest.mark.parametrize("num_executors", (2, 5, 7, 10))
@pytest.mark.parametrize("layout", ROW_LAYOUTS)
def test_adversarial_data_invariant_on_process_legs(
        layout, num_executors, vectorized, backend_name, backend_for):
    """The same grid with the partitions reaching the workers by value
    or through a segment, signed zeros, infinities and NaNs included."""
    _check_adversarial(layout, num_executors, vectorized,
                       backend_for(backend_name), backend_name)


def _check_distinct(algorithm, layout, vectorized, backend):
    session = _make_session(lay_out(COMPLETE_ROWS, layout), False,
                            algorithm, backend, vectorized)
    result = session.sql(SQL3_DISTINCT).to_tuples()
    expected = {row[1:] for row in COMPLETE_ORACLE}
    assert {row[1:] for row in result} == expected
    assert len(result) == len(expected)  # exactly one representative


@pytest.mark.parametrize("vectorized", VECTORIZED_MODES)
@pytest.mark.parametrize("layout", ROW_LAYOUTS)
@pytest.mark.parametrize("algorithm", COMPLETE_ALGORITHMS)
def test_distinct_matches_oracle_modulo_representatives(algorithm, layout,
                                                        vectorized):
    """DISTINCT keeps one row per skyline-dimension value set; compare
    on the dimension values, which are representative-independent.
    The layouts put duplicates in one partition (``sorted``) or spread
    them over several (``loaded``, ``shuffled``)."""
    _check_distinct(algorithm, layout, vectorized, "local")


@pytest.mark.parametrize("backend_name", PROCESS_LEGS)
@pytest.mark.parametrize("vectorized", VECTORIZED_MODES)
@pytest.mark.parametrize("layout", ROW_LAYOUTS)
@pytest.mark.parametrize("algorithm", COMPLETE_ALGORITHMS)
def test_distinct_matches_oracle_on_process_legs(
        algorithm, layout, vectorized, backend_name, backend_for):
    """The same, with spread duplicates landing on both workers."""
    _check_distinct(algorithm, layout, vectorized,
                    backend_for(backend_name))


@pytest.mark.parametrize("vectorized", VECTORIZED_MODES)
def test_auto_strategy_matches_oracle_on_both_datasets(vectorized):
    for rows, nullable, oracle in (
            (COMPLETE_ROWS, False, COMPLETE_ORACLE),
            (INCOMPLETE_ROWS, True, INCOMPLETE_ORACLE)):
        session = _make_session(rows, nullable, "auto", "local",
                                vectorized)
        assert sorted(session.sql(SQL3).to_tuples(), key=repr) == oracle


@pytest.mark.parametrize("vectorized", VECTORIZED_MODES)
def test_reference_sql_rewrite_matches_oracle(vectorized):
    """The plain-SQL NOT EXISTS rewrite against the same oracle."""
    session = _make_session(COMPLETE_ROWS, False, "auto", "local",
                            vectorized)
    sql = ("SELECT * FROM t AS o WHERE NOT EXISTS("
           "SELECT * FROM t AS i WHERE i.a <= o.a AND i.b >= o.b "
           "AND i.c <= o.c AND (i.a < o.a OR i.b > o.b OR i.c < o.c))")
    assert sorted(session.sql(sql).to_tuples(), key=repr) == \
        COMPLETE_ORACLE


@pytest.mark.parametrize(
    "algorithm,backend_name,columnar",
    [(algorithm, *leg) for algorithm in COMPLETE_ALGORITHMS
     for leg in _with_planes(BACKENDS)])
def test_columnar_plane_matches_oracle_complete(algorithm, backend_name,
                                                columnar, backend_for):
    """The batch data plane against the all-pairs oracle.

    ``columnar=True`` exchanges ColumnBatches end to end;
    ``columnar=False`` pins the row reference plane.
    Results must be identical across both and every backend.
    """
    session = _make_session(COMPLETE_ROWS, False, algorithm,
                            backend_for(backend_name), True,
                            columnar=columnar)
    result = sorted(session.sql(SQL3).to_tuples(), key=repr)
    assert result == COMPLETE_ORACLE, (
        f"{algorithm}/{backend_name}/columnar={columnar} diverged "
        f"from the all-pairs oracle")


@pytest.mark.parametrize("backend_name,columnar", _with_planes(BACKENDS))
def test_columnar_plane_matches_oracle_incomplete(backend_name, columnar,
                                                  backend_for):
    session = _make_session(INCOMPLETE_ROWS, True,
                            "distributed-incomplete",
                            backend_for(backend_name), True,
                            columnar=columnar)
    result = sorted(session.sql(SQL3).to_tuples(), key=repr)
    assert result == INCOMPLETE_ORACLE, (
        f"columnar={columnar}/{backend_name} diverged from the "
        f"null-aware all-pairs oracle")


@pytest.mark.parametrize("columnar", (True, False))
@pytest.mark.parametrize("num_executors", (2, 7))
@pytest.mark.parametrize("layout", ROW_LAYOUTS)
def test_columnar_plane_matches_oracle_under_partitioning(
        layout, num_executors, columnar):
    session = _make_session(lay_out(COMPLETE_ROWS, layout), False,
                            "distributed-complete", "local", True,
                            columnar=columnar,
                            num_executors=num_executors)
    result = sorted(session.sql(SQL3).to_tuples(), key=repr)
    assert result == COMPLETE_ORACLE


@pytest.mark.parametrize("columnar", (True, False))
def test_columnar_distinct_matches_oracle(columnar):
    session = _make_session(COMPLETE_ROWS, False, "distributed-complete",
                            "local", True, columnar=columnar)
    result = session.sql(SQL3_DISTINCT).to_tuples()
    expected = {row[1:] for row in COMPLETE_ORACLE}
    assert {row[1:] for row in result} == expected
    assert len(result) == len(expected)


def test_batch_mode_actually_ran():
    """Guard against silently testing the row plane twice: with
    columnar=True the data-plane operators must report batch mode."""
    session = _make_session(COMPLETE_ROWS, False, "distributed-complete",
                            "local", True, columnar=True)
    plan = session.sql(SQL3).plan
    text = session.explain(plan)
    assert "Scan(t, 154 rows) [batch]" in text
    assert "[row]" not in text
    row_text = session.with_options(columnar=False).explain(plan)
    assert "[batch]" not in row_text


def test_vectorized_kernels_actually_ran():
    """Guard against silently testing the scalar path twice: with
    vectorized=True and numeric data the skyline stages must record the
    vectorized kernel label."""
    session = _make_session(COMPLETE_ROWS, False, "distributed-complete",
                            "local", True)
    result = session.sql(SQL3).run()
    kernels = {kernel
               for stage in result.context.summary()["stages"]
               if stage["name"].startswith("Skyline")
               for kernel in stage["kernels"]}
    assert kernels == {"vectorized"}


def test_shm_leg_actually_shared(backend_for):
    """Guard against a vacuous ``process-shm`` leg: its partitions must
    reach the workers as segment handles, none pickled as too small."""
    session = _make_session(COMPLETE_ROWS, False, "distributed-complete",
                            backend_for("process-shm"), True)
    stats = session.sql(SQL3).run().context.shm_stats
    assert stats["segments_created"] > 0
    assert stats["handles_served"] > 0
    assert stats["fallback_too_small"] == 0


# -- shared-memory transport (PR 9) ----------------------------------------


def _shm_session(rows=None, nullable=False,
                 algorithm="distributed-complete"):
    from repro import SessionConfig
    config = SessionConfig(
        num_executors=3, skyline_algorithm=algorithm,
        backend="process", num_workers=2, columnar=True)
    session = SkylineSession(config=config)
    session.create_table(
        "t",
        [("id", INTEGER, False), ("a", DOUBLE, nullable),
         ("b", DOUBLE, nullable), ("c", DOUBLE, nullable)],
        COMPLETE_ROWS if rows is None else rows)
    return session


def test_shared_memory_transport_matches_oracle():
    """The zero-copy leg must be bit-identical to the all-pairs oracle
    and must leave /dev/shm clean."""
    from repro.engine.shm import leaked_segments, shared_memory_available
    if not shared_memory_available():
        pytest.skip("shared memory not available")
    before = set(leaked_segments())
    session = _shm_session()
    try:
        text = session.explain(session.sql(SQL3).plan)
        assert "[shm]" in text
        result = sorted(session.sql(SQL3).to_tuples(), key=repr)
        assert result == COMPLETE_ORACLE
    finally:
        session.close()
    assert set(leaked_segments()) <= before


def test_shared_memory_disabled_marks_pickle(monkeypatch):
    """A platform without /dev/shm: batches pickle, EXPLAIN says so,
    and the answers do not change."""
    from repro.engine import shm
    monkeypatch.setattr(shm, "shared_memory_available", lambda: False)
    session = _shm_session()
    try:
        text = session.explain(session.sql(SQL3).plan)
        assert "[pickle]" in text and "[shm]" not in text
        result = sorted(session.sql(SQL3).to_tuples(), key=repr)
        assert result == COMPLETE_ORACLE
    finally:
        session.close()


def test_shared_memory_no_leaks_after_worker_crash(monkeypatch):
    """Chaos leg: injected worker crashes during the skyline stage must
    not leak /dev/shm segments, and recovery stays bit-identical."""
    from repro.engine.faults import FAULT_PLAN_ENV
    from repro.engine.shm import leaked_segments, shared_memory_available
    if not shared_memory_available():
        pytest.skip("shared memory not available")
    before = set(leaked_segments())
    monkeypatch.setenv(FAULT_PLAN_ENV,
                       "seed=7,poison=SkylineLocal,max_injections=1")
    session = _shm_session()
    try:
        result = sorted(session.sql(SQL3).to_tuples(), key=repr)
        assert result == COMPLETE_ORACLE
    finally:
        session.close()
    assert set(leaked_segments()) <= before


@pytest.mark.parametrize("algorithm", ("distributed-complete",
                                       "distributed-incomplete"))
def test_shared_memory_prepared_inputs_stay_resident(algorithm):
    """Re-executing a prepared query must re-serve the pinned input
    segments (no re-registration), and catalog DML must invalidate
    them so the next execution sees the new data -- whether the local
    tasks read scan slices (``distributed-complete``: the chain is
    fused into them) or the executed chain ahead of the null-bitmap
    regroup (``distributed-incomplete``)."""
    from repro.engine.shm import shared_memory_available
    if not shared_memory_available():
        pytest.skip("shared memory not available")
    incomplete = algorithm == "distributed-incomplete"
    # Wide rows so partition batches clear the minimum share size; the
    # incomplete leg nulls c1 on every fifth row (two null bitmaps).
    wide = [(i,) + tuple(None if incomplete and j == 1 and i % 5 == 0
                         else float((i * 7 + j) % 97) for j in range(60))
            for i in range(3000)]
    session = _shm_session(algorithm=algorithm)
    session.create_table(
        "w", [("id", INTEGER, False)] + [(f"c{j}", DOUBLE, incomplete)
                                         for j in range(60)], wide)
    try:
        prepared = session.prepare(session.sql(
            "SELECT * FROM w SKYLINE OF c0 MIN, c1 MIN").plan)
        first = session.execute_prepared(prepared)
        created = first.context.shm_stats["segments_created"]
        assert created > 0
        second = session.execute_prepared(prepared)
        assert second.context.shm_stats["segments_created"] == created
        if incomplete:
            # The pinned partitions stand in for the whole chain.
            assert [s.name.split("-")[0] for s in second.context.stages] \
                == ["SkylineLocalExec", "SkylineGlobalExec"]
        assert second.context.shm_stats["handles_served"] > \
            first.context.shm_stats["handles_served"]
        assert sorted(map(tuple, second.rows)) == \
            sorted(map(tuple, first.rows))
        # DML bumps the table's data_version: the pinned inputs are
        # stale, so new segments must be registered and the dominating
        # row must appear in the result.
        session.catalog.insert_into("w", [(-1,) + (-1.0,) * 60])
        third = session.execute_prepared(prepared)
        assert third.context.shm_stats["segments_created"] > created
        assert any(row[0] == -1 for row in third.rows)
    finally:
        session.close()


# -- stage fusion: scan -> filter -> project inside the consumer's stage ---

#: A filter plus computed columns over the scan (the chain that fuses
#: into the local tasks, reading 4 of the table's 5 columns), and the
#: same with a scalar-subquery predicate, which the driver must prepare
#: before the chain ships to a worker.
FUSED_SQL = {
    "filter+computed":
        "SELECT id, a, a + b AS ab, b * c AS bc FROM t "
        "WHERE c > 0.2 AND id >= 0 SKYLINE OF {distinct}ab MIN, bc MAX",
    "scalar-subquery":
        "SELECT id, a, a + b AS ab, b * c AS bc FROM t "
        "WHERE a <= (SELECT avg(a) FROM t) AND c > 0.2 "
        "SKYLINE OF {distinct}ab MIN, bc MAX",
}


def _fused_rows(kind: str) -> list[tuple]:
    """``(id, a, b, c, pad)`` rows; ``pad`` is never read."""
    rows = [row + (f"pad{row[0]}",) for row in _random_rows(120, SEED + 3)]
    if kind == "all-filtered-partition":
        # With three executors the first partition is exactly these 60
        # rows, and none of them passes ``c > 0.2``.
        rows = [(-i, 9.0, 9.0, 0.0, "x") for i in range(1, 61)] + rows
    elif kind == "empty-partition":
        rows = rows[:2]  # three partitions, two rows
    return rows


FUSED_DATASETS = ("regular", "all-filtered-partition", "empty-partition")

_FUSED_COLUMNS = [("id", INTEGER, False), ("a", DOUBLE, False),
                  ("b", DOUBLE, False), ("c", DOUBLE, False),
                  ("pad", STRING, False)]

#: Strategy x DISTINCT legs: the chain fused into the local tasks
#: (complete, and sfs + DISTINCT, where the representative kept must be
#: the reference's), and as one fused map stage ahead of a consumer
#: that needs every row first (the non-distributed global task, the
#: null-bitmap regroup).
FUSED_LEGS = (("distributed-complete", False), ("sfs", True),
              ("non-distributed-complete", False),
              ("distributed-incomplete", False))


def _fused_answer(dataset, query, algorithm, distinct, backend,
                  vectorized, columnar):
    session = connect(num_executors=3, skyline_algorithm=algorithm,
                      backend=backend, vectorized=vectorized,
                      columnar=columnar)
    session.create_table("t", _FUSED_COLUMNS, _fused_rows(dataset))
    sql = FUSED_SQL[query].format(distinct="DISTINCT " if distinct else "")
    return sorted(map(repr, session.sql(sql).to_tuples()))


@pytest.fixture(scope="module")
def fused_reference():
    """The scalar row-plane answer per (dataset, query, leg), computed
    once: ``vectorized=False, columnar=False`` on the local backend."""
    cache: dict = {}

    def lookup(dataset, query, algorithm, distinct):
        key = (dataset, query, algorithm, distinct)
        if key not in cache:
            cache[key] = _fused_answer(dataset, query, algorithm, distinct,
                                       "local", False, False)
        return cache[key]

    return lookup


@pytest.mark.parametrize(
    "backend_name,vectorized,columnar",
    [(leg, vectorized, columnar)
     for leg in BACKENDS for vectorized in VECTORIZED_MODES
     for columnar in (False, True)
     if (leg, columnar) in _with_planes(BACKENDS)])
@pytest.mark.parametrize("algorithm,distinct", FUSED_LEGS)
@pytest.mark.parametrize("query", list(FUSED_SQL))
@pytest.mark.parametrize("dataset", FUSED_DATASETS)
def test_fused_chain_is_bit_identical_to_the_row_reference(
        dataset, query, algorithm, distinct, backend_name, vectorized,
        columnar, backend_for, fused_reference):
    expected = fused_reference(dataset, query, algorithm, distinct)
    got = _fused_answer(dataset, query, algorithm, distinct,
                        backend_for(backend_name), vectorized, columnar)
    assert got == expected, (
        f"{dataset}/{query}/{algorithm}/{backend_name}/"
        f"vectorized={vectorized}/columnar={columnar} diverged from the "
        f"scalar row-plane reference")
    if dataset == "regular":
        assert expected  # the comparison is not vacuous
