"""Batch-native join / aggregate / distinct / limit vs the row operators.

Every answer of the default session (batch plane: key factorisation,
index arrays, gathers, grouped reductions) must be ``repr``- and
order-identical to the reference session's (``columnar=False,
vectorized=False``: tuples, ``dict`` probes, ``expr.eval(row)``).  Where
the arrays cannot be exact the operator runs its row body and says so:
one test per named reason checks the count *and* the answer.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datasets.musicbrainz import (base_query, register_musicbrainz,
                                        skyline_query)
from repro.engine import batch
from repro.engine import expressions as E
from repro.engine.cluster import ExecutionContext
from repro.engine.types import BOOLEAN, DOUBLE, INTEGER, STRING
from repro.plan import physical as P

INF = math.inf
JOIN_HOWS = ("inner", "left", "right", "full", "semi", "anti")


def _sessions(tables: dict, num_executors: int = 3):
    """The default and the reference session over the same tables."""
    pair = (repro.connect(num_executors=num_executors),
            repro.connect(num_executors=num_executors, columnar=False,
                          vectorized=False))
    for session in pair:
        for name, (columns, rows) in tables.items():
            session.create_table(name, columns, list(rows))
    return pair


def _identical(tables: dict, query, fallbacks=None, num_executors: int = 3):
    """Run ``query`` (SQL text or ``session -> DataFrame``) on both
    sessions; the rows must agree in content, type and order, and the
    default session must have fallen back exactly as ``fallbacks`` says
    (default: not at all)."""
    results = []
    for session in _sessions(tables, num_executors):
        frame = session.sql(query) if isinstance(query, str) \
            else query(session)
        results.append(frame.run())
    default, reference = results
    assert list(map(repr, default.as_tuples())) == \
        list(map(repr, reference.as_tuples()))
    summary = default.context.summary()
    assert summary["fallbacks"] == (fallbacks or {})
    assert reference.context.summary()["fallbacks"] == {}
    return default


def _join(on, how):
    return lambda session: session.table("a").join(
        session.table("b"), on, how)


def _kernels(result, prefix: str) -> set:
    return {kernel for stage in result.context.summary()["stages"]
            if stage["name"].startswith(prefix)
            for kernel in stage["kernels"]}


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------

AB = [("k", INTEGER, True), ("x", INTEGER, True)]
BA = [("k", INTEGER, True), ("y", INTEGER, True)]

#: name -> (columns of a, rows of a, columns of b, rows of b)
JOIN_INPUTS = {
    "null-and-duplicate-keys": (
        AB, [(1, 10), (None, 11), (2, 12), (1, 13), (3, 14), (None, 15),
             (2, 16), (7, 17)],
        BA, [(2, 20), (1, 21), (None, 22), (2, 23), (4, 24), (1, 25),
             (None, 26)]),
    "duplicates-left-only": (
        AB, [(1, 1), (1, 2), (1, 3), (2, 4)], BA, [(1, 5), (2, 6), (3, 7)]),
    "duplicates-right-only": (
        AB, [(1, 1), (2, 2), (3, 3)], BA, [(2, 4), (2, 5), (2, 6), (1, 7)]),
    "empty-left": (AB, [], BA, [(1, 1), (None, 2)]),
    "empty-right": (AB, [(1, 1), (None, 2), (3, 3), (4, 4)], BA, []),
    "both-empty": (AB, [], BA, []),
    "fewer-rows-than-partitions": (AB, [(1, 1)], BA, [(1, 2), (1, 3)]),
    "int-vs-float-keys": (
        AB, [(1, 1), (2, 2), (0, 3), (None, 4), (3, 5)],
        [("k", DOUBLE, True), ("y", INTEGER, True)],
        [(1.0, 1), (2.5, 2), (-0.0, 3), (INF, 4), (-INF, 5), (None, 6),
         (3.0, 7), (1.0, 8)]),
    "infinite-keys": (
        [("k", DOUBLE, True), ("x", INTEGER, True)],
        [(INF, 1), (-INF, 2), (0.0, 3), (INF, 4), (1.5, 5)],
        [("k", DOUBLE, True), ("y", INTEGER, True)],
        [(-INF, 1), (INF, 2), (-0.0, 3), (1.5, 4), (INF, 5)]),
    # Declared INTEGER, stored as bools: a b1 column meeting an i8 one
    # (True == 1 in a dict, so it must match here too).
    "bool-vs-int-keys": (
        AB, [(True, 1), (False, 2), (True, 3), (None, 4)],
        BA, [(1, 1), (0, 2), (2, 3), (1, 4)]),
}


@pytest.mark.parametrize("how", JOIN_HOWS)
@pytest.mark.parametrize("case", sorted(JOIN_INPUTS))
def test_join_on_condition(case, how):
    a_columns, a_rows, b_columns, b_rows = JOIN_INPUTS[case]
    result = _identical({"a": (a_columns, a_rows), "b": (b_columns, b_rows)},
                        _join("a.k = b.k", how))
    assert _kernels(result, "HashJoinExec") == {"vectorized"}


@pytest.mark.parametrize("how", JOIN_HOWS)
def test_join_with_residual_predicate(how):
    a_columns, a_rows, b_columns, b_rows = \
        JOIN_INPUTS["null-and-duplicate-keys"]
    tables = {"a": (a_columns, a_rows), "b": (b_columns, b_rows)}
    # x + y is NULL-free here; b.y > 22 drops some pairs of every key.
    _identical(tables, _join("a.k = b.k AND a.x + b.y > 35", how))
    _identical(tables, _join("a.k = b.k AND b.y > 99", how))  # drops all


@pytest.mark.parametrize("how", JOIN_HOWS)
def test_join_on_two_key_columns(how):
    columns_a = [("k", INTEGER, True), ("j", DOUBLE, True),
                 ("x", INTEGER, False)]
    columns_b = [("k", INTEGER, True), ("j", INTEGER, True),
                 ("y", INTEGER, False)]
    a = [(1, 1.0, 1), (1, 2.0, 2), (2, 1.0, 3), (None, 1.0, 4),
         (1, None, 5), (1, 1.0, 6), (3, 3.0, 7)]
    b = [(1, 1, 1), (1, 2, 2), (1, 1, 3), (2, 2, 4), (None, None, 5),
         (3, 3, 6), (2, 1, 7)]
    _identical({"a": (columns_a, a), "b": (columns_b, b)},
               _join("a.k = b.k AND a.j = b.j", how))


@pytest.mark.parametrize("how", ("inner", "left", "right", "full"))
def test_join_using(how):
    a_columns, a_rows, b_columns, b_rows = \
        JOIN_INPUTS["null-and-duplicate-keys"]
    _identical({"a": (a_columns, a_rows), "b": (b_columns, b_rows)},
               lambda s: s.table("a").join(s.table("b"), ["k"], how))


def test_join_in_sql_with_using_and_on():
    a_columns, a_rows, b_columns, b_rows = \
        JOIN_INPUTS["null-and-duplicate-keys"]
    tables = {"a": (a_columns, a_rows), "b": (b_columns, b_rows)}
    for sql in ("SELECT * FROM a JOIN b USING (k)",
                "SELECT * FROM a LEFT OUTER JOIN b USING (k)",
                "SELECT * FROM a FULL OUTER JOIN b ON a.k = b.k",
                "SELECT a.x, b.y FROM a RIGHT JOIN b ON a.k = b.k "
                "AND a.x < b.y",
                "SELECT * FROM a WHERE EXISTS "
                "(SELECT * FROM b WHERE b.k = a.k)",
                "SELECT * FROM a WHERE NOT EXISTS "
                "(SELECT * FROM b WHERE b.k = a.k)"):
        _identical(tables, sql)


@pytest.mark.parametrize("columnar", [True, False])
def test_full_outer_join_with_one_tuple_stored_twice(columnar):
    """Regression: the row join tracked matched build rows by ``id(row)``,
    so a build side holding the *same tuple object* twice reported the
    second copy as unmatched."""
    session = repro.connect(columnar=columnar, vectorized=columnar)
    shared = (1, 10)
    session.create_table("a", AB, [(1, 1), (2, 2)])
    session.create_table("b", BA, [shared, shared, (3, 30)])
    rows = session.table("a").join(session.table("b"), "a.k = b.k",
                                   "full").to_tuples()
    assert rows == [(1, 1, 1, 10), (1, 1, 1, 10), (2, 2, None, None),
                    (None, None, 3, 30)]


def test_batch_join_emits_the_row_join_partitions():
    """Not only the same rows: the same rows *per partition* (one probe
    task per left partition, FULL OUTER's unmatched right rows last)."""
    a_columns, a_rows, b_columns, b_rows = \
        JOIN_INPUTS["null-and-duplicate-keys"]
    for how in ("inner", "left", "full", "right", "semi", "anti"):
        partitions = []
        for session in _sessions({"a": (a_columns, a_rows),
                                  "b": (b_columns, b_rows)}):
            physical = session.prepare(_join("a.k = b.k", how)(session).plan
                                       ).physical
            join = next(node for node in physical.iter_tree()
                        if isinstance(node, P.HashJoinExec))
            out = join.execute(ExecutionContext(session.cluster_config))
            partitions.append(out.to_row_rdd().partitions
                              if hasattr(out, "batches") else out.partitions)
        assert partitions[0] == partitions[1], how
        assert len(partitions[0]) == {"right": 1, "full": 4}.get(how, 3)


@pytest.mark.parametrize("plane", ("batch", "row"))
@pytest.mark.parametrize("how", JOIN_HOWS)
def test_join_stages_are_the_same_on_both_planes(how, plane):
    """One probe task per left partition, or RIGHT OUTER's one task
    probing from the right, on either plane: no stage runs whose output
    the join throws away."""
    a_columns, a_rows, b_columns, b_rows = \
        JOIN_INPUTS["null-and-duplicate-keys"]
    default, reference = _sessions({"a": (a_columns, a_rows),
                                    "b": (b_columns, b_rows)})
    session = default if plane == "batch" else reference
    physical = session.prepare(_join("a.k = b.k", how)(session).plan
                               ).physical
    join = next(node for node in physical.iter_tree()
                if isinstance(node, P.HashJoinExec))
    ctx = ExecutionContext(session.cluster_config)
    out = join.execute(ctx)
    assert ("[batch]" in join.node_description()) == (plane == "batch")
    stages = [stage for stage in ctx.stages
              if stage.name.startswith(join.stage_name())]
    shape = [(stage.name[len(join.stage_name()):], len(stage.tasks))
             for stage in stages]
    assert shape == ([("", 1)] if how == "right" else [("", 3)])
    tasks = [task for stage in stages for task in stage.tasks]
    partitions = out.partition_sizes()
    assert [task.rows_out for task in tasks] == partitions[:len(tasks)]
    assert len(partitions) == len(tasks) + (how == "full")


@pytest.mark.parametrize("plane", ("batch", "row"))
def test_right_outer_join_is_one_stage_in_the_summary(plane):
    """Regression: RIGHT OUTER ran its task under ``HashJoinExec-N-right``
    and left a 0-task ``HashJoinExec-N`` holding only the shuffle.  The
    shuffle and the task share one stage, which ``summary()`` reports."""
    a_columns, a_rows, b_columns, b_rows = \
        JOIN_INPUTS["null-and-duplicate-keys"]
    default, reference = _sessions({"a": (a_columns, a_rows),
                                    "b": (b_columns, b_rows)})
    session = default if plane == "batch" else reference
    result = session.sql("SELECT * FROM a RIGHT JOIN b ON a.k = b.k").run()
    stages = [(stage["name"].split("-", 1)[0], stage["tasks"],
               stage["shuffled_rows"])
              for stage in result.context.summary()["stages"]
              if stage["name"].startswith("HashJoinExec")]
    assert stages == [("HashJoinExec", 1, len(b_rows))]


# ---------------------------------------------------------------------------
# Aggregates, DISTINCT, LIMIT
# ---------------------------------------------------------------------------

T = [("g", INTEGER, True), ("h", DOUBLE, True), ("v", INTEGER, True),
     ("w", DOUBLE, True), ("f", BOOLEAN, True)]
T_ROWS = [
    (1, 0.5, 3, 1.5, True), (2, 0.5, None, -0.0, False),
    (1, -0.0, 3, 2.5, None), (None, 0.0, 7, None, True),
    (2, None, 4, -0.0, True), (1, 0.5, -2, 1.5, False),
    (None, INF, 7, -INF, None), (3, -INF, None, None, None),
    (2, 0.5, 4, 0.0, False), (1, 0.5, 9, 0.1, True),
    (4, 1.25, 0, INF, True), (4, 1.25, 0, 0.2, True),
    (2, 2.0, 5, 0.3, False),
]
FUNCTIONS = ("count", "sum", "min", "max", "avg")


@pytest.mark.parametrize("distinct", ["", "DISTINCT "])
@pytest.mark.parametrize("function", FUNCTIONS)
def test_grouped_and_global_aggregates(function, distinct):
    tables = {"t": (T, T_ROWS)}
    call = f"{function}({distinct}v), {function}({distinct}w)"
    _identical(tables, f"SELECT g, {call}, count(*) FROM t GROUP BY g")
    _identical(tables, f"SELECT g, h, {call} FROM t GROUP BY g, h")
    _identical(tables, f"SELECT {call}, count(*) FROM t")
    _identical(tables, f"SELECT {call} FROM t WHERE g > 99")
    _identical(tables, f"SELECT g, {call} FROM t WHERE g > 99 GROUP BY g")


def test_aggregate_expressions_and_boolean_inputs():
    tables = {"t": (T, T_ROWS)}
    result = _identical(
        tables,
        "SELECT g, sum(v) / count(*) + 1 AS r, max(w) - min(w) AS spread, "
        "count(v) * 2 AS twice FROM t GROUP BY g")
    assert _kernels(result, "HashAggregateExec") == {"vectorized"}
    _identical(tables, "SELECT v % 3 AS m, count(*), min(h) FROM t "
                       "GROUP BY v % 3")
    _identical(tables, "SELECT f, count(f), min(f), max(f), "
                       "count(DISTINCT f) FROM t GROUP BY f")
    _identical(tables, "SELECT h, count(*) FROM t GROUP BY h")
    _identical(tables, "SELECT g, count(*) AS n FROM t GROUP BY g "
                       "HAVING count(*) > 2")


def test_sum_distinct_is_distinct():
    """``sum``/``avg`` honour DISTINCT (the row operator used to apply
    it to ``count`` only)."""
    result = _identical({"t": (T, T_ROWS)},
                        "SELECT sum(DISTINCT v), sum(v), avg(DISTINCT v) "
                        "FROM t WHERE g = 1")
    assert result.as_tuples() == [(10, 13, 10 / 3)]


def test_sum_of_negative_zeros_keeps_its_sign():
    tables = {"t": ([("g", INTEGER, False), ("w", DOUBLE, True)],
                    [(1, -0.0), (2, -0.0), (1, -0.0), (2, 0.0),
                     (3, None), (4, -0.0), (4, None)])}
    result = _identical(tables, "SELECT g, sum(w), avg(w), min(w), max(w) "
                                "FROM t GROUP BY g")
    assert repr(result.as_tuples()[0]) == "(1, -0.0, 0.0, -0.0, -0.0)"


INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


def test_integer_min_max_at_the_int64_bounds():
    """Integer ``min``/``max`` reduce per group without a sort: the
    int64 extremes, one-row groups, groups an outer join leaves without
    a value and DISTINCT all answer like the row loop."""
    columns = [("g", INTEGER, True), ("v", INTEGER, True)]
    rows = [(1, INT64_MIN), (1, INT64_MAX), (1, 0), (2, INT64_MAX),
            (3, INT64_MIN), (4, None), (5, 7), (5, 7), (5, -7),
            (None, INT64_MAX), (6, INT64_MIN), (6, INT64_MIN)]
    tables = {"t": (columns, rows),
              "k": ([("g", INTEGER, False)], [(g,) for g in range(9)])}
    for distinct in ("", "DISTINCT "):
        call = f"min({distinct}v), max({distinct}v)"
        _identical(tables, f"SELECT g, {call}, count(v) FROM t GROUP BY g")
        _identical(tables, f"SELECT {call} FROM t")
        _identical(tables, f"SELECT {call} FROM t WHERE g = 4")
        _identical(tables, f"SELECT k.g, {call} FROM k LEFT JOIN t "
                           f"ON k.g = t.g GROUP BY k.g")
    result = _identical(tables, "SELECT g, min(v), max(v) FROM t "
                                "WHERE g IS NOT NULL GROUP BY g")
    assert result.as_tuples() == [
        (1, INT64_MIN, INT64_MAX), (2, INT64_MAX, INT64_MAX),
        (3, INT64_MIN, INT64_MIN), (4, None, None), (5, -7, 7),
        (6, INT64_MIN, INT64_MIN)]
    assert _kernels(result, "HashAggregateExec") == {"vectorized"}


def test_distinct_and_limit():
    tables = {"t": (T, T_ROWS)}
    for sql in ("SELECT DISTINCT g, v FROM t",
                "SELECT DISTINCT h FROM t",
                "SELECT DISTINCT g, v FROM t WHERE g > 99",
                "SELECT * FROM t LIMIT 5",
                "SELECT * FROM t LIMIT 0",
                "SELECT * FROM t LIMIT 100",
                "SELECT g, v FROM t WHERE v > 3 LIMIT 2",
                "SELECT DISTINCT g, v, w FROM t "
                "SKYLINE OF v MAX, w MIN LIMIT 3"):
        result = _identical(tables, sql)
    session = _sessions(tables)[0]
    text = session.explain(session.sql(
        "SELECT DISTINCT g, v FROM t LIMIT 3").plan)
    assert "Limit(3) [batch]" in text and "Distinct [batch]" in text
    assert "[row]" not in text
    assert _kernels(result, "LimitExec") == {"vectorized"}


def test_join_aggregate_limit_chain_is_declared_batch():
    """A join feeding an aggregate, DISTINCT and LIMIT stays on batches
    end to end, without a fallback, and answers like the row plane."""
    session = repro.connect(num_executors=3)
    reference = repro.connect(columnar=False, vectorized=False,
                              num_executors=3)
    a_columns, a_rows, b_columns, b_rows = \
        JOIN_INPUTS["null-and-duplicate-keys"]
    for s in (session, reference):
        s.create_table("a", a_columns, list(a_rows))
        s.create_table("b", b_columns, list(b_rows))
    sql = ("SELECT DISTINCT a.k, count(b.y) AS n, sum(a.x) AS total "
           "FROM a LEFT JOIN b ON a.k = b.k GROUP BY a.k LIMIT 4")
    got, expected = session.sql(sql).run(), reference.sql(sql).run()
    assert list(map(repr, got.as_tuples())) == \
        list(map(repr, expected.as_tuples()))
    assert got.context.summary()["fallbacks"] == {}
    text = session.explain(session.sql(sql).plan)
    assert "HashJoin(left_outer) [batch]" in text
    assert "Limit(4) [batch]" in text and "Scan(a, 8 rows) [batch]" in text


# ---------------------------------------------------------------------------
# One property over small random tables
# ---------------------------------------------------------------------------

_keys = st.one_of(st.none(), st.integers(0, 3))
_values = st.one_of(st.none(), st.integers(-5, 5))
_weights = st.one_of(st.none(), st.sampled_from(
    [0.0, -0.0, 0.1, 0.2, 0.3, 1e16, -1e16, 1.0, INF, -INF]))


@settings(max_examples=40, deadline=None)
@given(a=st.lists(st.tuples(_keys, _values), max_size=9),
       b=st.lists(st.tuples(_keys, _values, _weights), max_size=9),
       how=st.sampled_from(JOIN_HOWS), executors=st.integers(1, 4))
def test_random_tables(a, b, how, executors):
    tables = {"a": (AB, a),
              "b": ([("k", INTEGER, True), ("y", INTEGER, True),
                     ("w", DOUBLE, True)], b)}
    _identical(tables, _join("a.k = b.k", how), num_executors=executors)
    _identical(tables, "SELECT k, count(*), count(y), sum(y), sum(w), "
                       "avg(w), min(w), max(y), count(DISTINCT y), "
                       "sum(DISTINCT w) FROM b GROUP BY k",
               num_executors=executors)
    _identical(tables, "SELECT a.k, count(b.y), sum(b.w), min(a.x) "
                       "FROM a LEFT JOIN b ON a.k = b.k GROUP BY a.k",
               num_executors=executors)
    _identical(tables, "SELECT DISTINCT k, y FROM b",
               num_executors=executors)


# ---------------------------------------------------------------------------
# Named fallbacks: counted, labelled, and still the same answer
# ---------------------------------------------------------------------------

def test_fallback_nan_key():
    nan_columns = [("k", DOUBLE, True), ("x", INTEGER, True)]
    tables = {"a": (nan_columns, [(1.0, 1), (float("nan"), 2), (2.0, 3)]),
              "b": ([("k", DOUBLE, True), ("y", INTEGER, True)],
                    [(float("nan"), 1), (1.0, 2), (2.0, 3)])}
    for how in JOIN_HOWS:
        result = _identical(tables, _join("a.k = b.k", how),
                            {"fallback_nan_key": 1})
        assert _kernels(result, "HashJoinExec") == {"scalar"}
    _identical(tables, "SELECT k, count(*) FROM a GROUP BY k",
               {"fallback_nan_key": 1})
    _identical(tables, "SELECT DISTINCT k FROM a", {"fallback_nan_key": 1})


def test_fallback_inexact_cast():
    tables = {"a": (AB, [(2 ** 53 + 1, 1), (2 ** 53, 2), (5, 3)]),
              "b": ([("k", DOUBLE, True), ("y", INTEGER, True)],
                    [(float(2 ** 53), 1), (5.0, 2)])}
    for how in JOIN_HOWS:
        _identical(tables, _join("a.k = b.k", how),
                   {"fallback_inexact_cast": 1})
    _identical(tables, "SELECT avg(k) FROM a", {"fallback_inexact_cast": 1})


def test_fallback_obj_key():
    tables = {"a": ([("k", STRING, True), ("x", INTEGER, True)],
                    [("u", 1), ("v", 2), (None, 3), ("u", 4)]),
              "b": ([("k", STRING, True), ("y", INTEGER, True)],
                    [("v", 1), ("u", 2), ("w", 3), (None, 4)])}
    for how in JOIN_HOWS:
        _identical(tables, _join("a.k = b.k", how), {"fallback_obj_key": 1})
    result = _identical(tables, "SELECT k, sum(x) FROM a GROUP BY k",
                        {"fallback_obj_key": 1})
    assert _kernels(result, "HashAggregateExec") == {"scalar"}
    _identical(tables, "SELECT DISTINCT k FROM a", {"fallback_obj_key": 1})
    _identical(tables, "SELECT x, min(k), count(k) FROM a GROUP BY x",
               {"fallback_obj_aggregate": 1})


def test_fallback_int_overflow():
    tables = {"t": ([("g", INTEGER, False), ("v", INTEGER, False)],
                    [(1, 2 ** 62), (2, 5), (1, 2 ** 62), (1, 2 ** 62)])}
    result = _identical(tables, "SELECT g, sum(v) FROM t GROUP BY g",
                        {"fallback_int_overflow": 1})
    assert result.as_tuples()[0] == (1, 3 * 2 ** 62)
    # Below the bound the int64 sum is exact and stays on arrays.
    _identical(tables, "SELECT g, sum(v) FROM t WHERE v < 9 GROUP BY g")


def test_fallback_nan_aggregate():
    tables = {"t": ([("g", INTEGER, False), ("w", DOUBLE, True)],
                    [(1, 2.0), (1, float("nan")), (1, 1.0), (2, 3.0),
                     (2, float("nan"))])}
    for sql in ("SELECT g, min(w) FROM t GROUP BY g",
                "SELECT g, max(w) FROM t GROUP BY g",
                "SELECT g, count(DISTINCT w) FROM t GROUP BY g"):
        _identical(tables, sql, {"fallback_nan_aggregate": 1})
    # sum/avg/count propagate NaN in input order on both planes.
    _identical(tables, "SELECT g, sum(w), avg(w), count(w) FROM t "
                       "GROUP BY g")


# ---------------------------------------------------------------------------
# The paper's complex queries (Appendix E, Listings 11-14)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def musicbrainz():
    """The default session, the row plane under the vectorized skyline
    kernels, and the reference session (last)."""
    sessions = (repro.connect(), repro.connect(columnar=False),
                repro.connect(columnar=False, vectorized=False))
    for session in sessions:
        register_musicbrainz(session, 500, seed=5)
    return sessions


@pytest.mark.parametrize("complete", [True, False])
@pytest.mark.parametrize("statement", [base_query,
                                       lambda c: skyline_query(6, c)])
def test_musicbrainz_statements(musicbrainz, statement, complete):
    *candidates, reference = (session.sql(statement(complete)).run()
                              for session in musicbrainz)
    shuffled = sum(s["shuffled_rows"]
                   for s in reference.context.summary()["stages"])
    for result in candidates:
        assert list(map(repr, result.as_tuples())) == \
            list(map(repr, reference.as_tuples()))
        summary = result.context.summary()
        assert summary["fallbacks"] == {}
        assert sum(s["shuffled_rows"] for s in summary["stages"]) == shuffled


def test_musicbrainz_skyline_never_leaves_the_column_plane(musicbrainz,
                                                           monkeypatch):
    session = musicbrainz[0]
    sql = skyline_query(6, True)
    assert "[row]" not in session.explain(session.sql(sql).plan)

    def refuse(result):
        raise AssertionError("_rows_rdd entered on the batch plane")

    def refuse_rowwise(*args):
        raise AssertionError("a column left the typed arrays")

    monkeypatch.setattr(P, "_rows_rdd", refuse)
    monkeypatch.setattr(E, "_rowwise_coalesce", refuse_rowwise)
    monkeypatch.setattr(batch, "encode_numeric_column", refuse_rowwise)
    result = session.sql(sql).run()
    assert result.rows and result.context.summary()["fallbacks"] == {}
    assert _kernels(result, "HashJoinExec") == {"vectorized"}
    assert _kernels(result, "HashAggregateExec") == {"vectorized"}
