"""One round of one workload, run in a fresh subprocess.

A round sets the workload up (timed: ``setup_s``), then executes timed
operations until its time budget (or fixed operation count) is spent,
checking every answer, and finally checks that nothing leaked.  The
engine is driven through its public API only; with tracing on, spans are
recorded bench-side around each layer's public entry point and the
engine's own per-stage records are attached as duration-only children.

Every time a round reports is in host-normalised seconds: wall seconds
times ``HostClock.NOMINAL_S`` over the duration of a fixed calibration
kernel run just before and after the timed piece.  The VMs this runs on
slow down and speed up by tens of percent for seconds to minutes at a
time; the kernel slows with the workload, so the ratio stays put.  Raw
wall time is reported beside it (``api.query_wall_s.p50``,
``bench.host_slowdown``).
"""

from __future__ import annotations

import asyncio
import os
import random
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

from workloads import Inputs, generate, rows_digest

#: Fewest timed operations (queries or cycles) a round executes, so
#: that a median exists however slow the host.
MIN_QUERIES = 3


# -- host-speed calibration ------------------------------------------------


class HostClock:
    """A fixed piece of work -- half interpreter loops over tuples, half
    NumPy pairwise comparisons, the engine's two kinds of hot code --
    timed to learn how fast the host is running right now."""

    #: The kernel's duration on a quiet host of the class the baseline
    #: was recorded on; it only sets the scale of normalised seconds.
    NOMINAL_S = 0.006

    def __init__(self) -> None:
        import numpy
        rng = random.Random(0)
        self._rows = [(rng.random(), rng.random(), i)
                      for i in range(20_000)]
        generator = numpy.random.default_rng(0)
        self._a = generator.random((256, 6))
        self._b = generator.random((256, 6))
        self.samples: list[float] = []
        self._kernel()  # the first run pays page faults and lazy set-up

    def _kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            total = 0.0
            for row in self._rows:
                total += row[0] * row[1]
            kept = [row[2] for row in self._rows if row[0] < 0.5]
        del total, kept
        a, b = self._a[:, None, :], self._b[None, :, :]
        dominated = (a <= b).all(axis=2) & (a < b).any(axis=2)
        dominated.any(axis=0)
        return time.perf_counter() - start

    def sample(self) -> float:
        """Median of three kernel runs: slowdowns shorter than a run
        are dropped, longer ones are what the sample is for."""
        elapsed = statistics.median(self._kernel() for _ in range(3))
        self.samples.append(elapsed)
        return elapsed

    def scale(self, *samples: float) -> float:
        """Factor turning wall seconds measured next to ``samples``
        into normalised seconds."""
        return self.NOMINAL_S * len(samples) / sum(samples)


def _scaled(sample: dict, scale: float) -> dict:
    return {key: value * scale if key.endswith("_s") else value
            for key, value in sample.items()}


def _record_setup(out: dict, clock: HostClock, before: float,
                  marks: tuple) -> None:
    """Set-up metrics from the wall-clock ``marks`` (start, tables
    registered, statistics collected, first answer checked)."""
    start, registered, collected, end = marks
    scale = clock.scale(before, clock.sample())
    out["api.import_s"] = out.pop("import_wall_s") * clock.scale(before)
    out["api.register_s"] = (registered - start) * scale
    out["stats.collect_s"] = (collected - registered) * scale
    out["api.first_query_s"] = (end - collected) * scale
    out["setup_s"] = out["api.import_s"] + (end - start) * scale


# -- tracing ---------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent, query id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, query: int, parent: "dict | None" = None):
        record = {"name": name, "query": query, "start": time.perf_counter(),
                  "parent": parent["id"] if parent else None,
                  "id": len(self.spans)}
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()

    def child(self, name: str, parent: dict, offset_s: float,
              duration_s: float) -> None:
        """A duration-only child (the engine's stage records carry no
        timestamps): laid out from ``offset_s`` after the parent's
        start and flagged synthetic."""
        start = parent["start"] + offset_s
        self.spans.append({"name": name, "query": parent["query"],
                           "start": start, "end": start + duration_s,
                           "parent": parent["id"], "id": len(self.spans),
                           "synthetic_start": True})


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


_STAGE_CLASSES = (
    ("Pipeline.", "pipeline_wave"),
    ("ScanExec", "scan"),
    ("FilterExec", "filter_project"),
    ("ProjectExec", "filter_project"),
    ("SkylineLocal", "local_skyline"),
    ("SkylineGlobal", "global_skyline"),
)


def stage_class(name: str) -> str:
    """Operator class of an engine stage record, from its name; joins,
    aggregates and every other relational operator are ``join_agg``."""
    for prefix, cls in _STAGE_CLASSES:
        if name.startswith(prefix):
            return cls
    return "join_agg"


def traced_query(tracer: Tracer, session, sql: str, query: int,
                 base_rows: int, shm_before: "dict | None" = None):
    """Run ``sql`` with a span around each layer's public entry point.

    The ``query`` span covers exactly what ``session.sql(q).run()`` does
    (parse, prepare, execute); analyze and optimize are then repeated as
    isolated siblings so prepare can be split into its three parts.
    ``shm_before`` is the previous result's ``context.shm_stats``: the
    store's counters run for the life of the session, so one query's
    share is the difference.  Returns ``(result, per-layer sample)``.
    """
    from repro.sql.parser import parse_query
    with tracer.span("query", query) as q_span:
        with tracer.span("sql.parse", query, q_span) as parse:
            plan = parse_query(sql)
        with tracer.span("plan.prepare", query, q_span) as prepare:
            prepared = session.prepare(plan)
        with tracer.span("engine.execute", query, q_span) as execute:
            result = session.execute_prepared(prepared)
    fresh = parse_query(sql)  # analysis gets a plan no one has touched
    with tracer.span("plan.analyze", query) as analyze:
        analyzed = session.analyze(fresh)
    with tracer.span("plan.optimize", query) as optimize:
        session.optimize(analyzed)

    ctx = result.context
    staged = [(stage_class(stage.name), stage) for stage in ctx.stages]
    by_class: dict[str, float] = {}
    offset = 0.0
    for cls, stage in staged:
        by_class[cls] = by_class.get(cls, 0.0) + stage.real_time_s
        tracer.child(f"engine.stage.{cls}:{stage.name}", execute, offset,
                     stage.real_time_s)
        offset += stage.real_time_s
    stage_wall = offset
    tasks = [task for stage in ctx.stages for task in stage.tasks]
    busy = sum(task.duration_s for task in tasks)
    skyline_tasks = [
        task for cls, stage in staged for task in stage.tasks
        if cls in ("local_skyline", "global_skyline", "pipeline_wave")]
    local = [stage for cls, stage in staged if cls == "local_skyline"]
    glob = [stage for cls, stage in staged if cls == "global_skyline"]
    survivors = sum(s.rows_out for s in local) if local \
        else (glob[0].rows_in if glob else 0)
    workers = getattr(session.backend, "num_workers", None) or 1
    pipeline = result.pipeline or {}
    planned_pipelined = any(
        getattr(node, "execution", None) == "pipelined"
        for node in prepared.physical.iter_tree())
    shm = {key: value - (shm_before or {}).get(key, 0)
           for key, value in (ctx.shm_stats or {}).items()}
    shipped = shm.get("handles_served", 0) + shm.get("pickle_fallbacks", 0)
    merge = result.global_merge or {}
    query_s = _duration(q_span)
    execute_s = _duration(execute)
    sample = {
        "query_s": query_s,
        "sql.parse_s": _duration(parse),
        "plan.analyze_s": _duration(analyze),
        "plan.optimize_s": _duration(optimize),
        "plan.prepare_s": _duration(prepare),
        # Noise can push the difference below zero when physical
        # planning is a few microseconds.
        "plan.physical_s": max(0.0, _duration(prepare) - _duration(analyze)
                               - _duration(optimize)),
        "plan.prepare_share":
            (_duration(parse) + _duration(prepare)) / query_s,
        "engine.execute_s": execute_s,
        "engine.scan_s": by_class.get("scan", 0.0),
        "engine.filter_project_s": by_class.get("filter_project", 0.0),
        "engine.join_agg_s": by_class.get("join_agg", 0.0),
        "engine.pipeline_wave_s": by_class.get("pipeline_wave", 0.0),
        "engine.driver_s": execute_s - stage_wall,
        "engine.stages": len(ctx.stages),
        "engine.tasks": len(tasks),
        "engine.task_busy_s": busy,
        "engine.worker_utilization":
            busy / (workers * stage_wall) if stage_wall else 0.0,
        "engine.shuffled_rows": sum(s.shuffled_rows for s in ctx.stages),
        "engine.pipeline_waves": pipeline.get("waves", 0),
        "engine.pipeline_spilled_bytes": pipeline.get("spilled_bytes", 0),
        "engine.pipeline_fallbacks":
            int(planned_pipelined and result.pipeline is None),
        "engine.first_batch_s": result.time_to_first_batch_s or 0.0,
        "engine.shm_handles": shm.get("handles_served", 0),
        "engine.shm_pickle_fallbacks": shm.get("pickle_fallbacks", 0),
        "engine.shm_fallback_ratio":
            shm.get("pickle_fallbacks", 0) / shipped if shipped else 0.0,
        "engine.shm_bytes": shm.get("bytes_shared", 0),
        "engine.task_retries": ctx.fault_stats.retries,
        "engine.crash_recoveries": ctx.fault_stats.crash_recoveries,
        "engine.tracked_peak_mb": ctx.tracked_peak_mb() or 0.0,
        "core.local_skyline_s": by_class.get("local_skyline", 0.0),
        "core.global_skyline_s": by_class.get("global_skyline", 0.0),
        "core.dominance_comparisons": ctx.dominance_comparisons,
        "core.comparisons_per_row": ctx.dominance_comparisons / base_rows,
        "core.local_survivors": survivors,
        "core.skyline_rows": len(result.rows),
        "core.merge_rounds": merge.get("rounds_completed", 0),
        "core.merge_shortcuts": merge.get("concat_merges", 0)
        + merge.get("short_circuits", 0),
        "core.kernel_vectorized_ratio":
            sum(t.kernel == "vectorized" for t in skyline_tasks)
            / len(skyline_tasks) if skyline_tasks else 0.0,
    }
    return result, sample


# -- process resources -----------------------------------------------------


def _status(pid: "int | str") -> dict:
    fields = {}
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                fields[key] = value.strip()
    except OSError:  # the process ended between listing and reading
        pass
    return fields


def _children() -> list[int]:
    me = str(os.getpid())
    return [int(pid) for pid in os.listdir("/proc")
            if pid.isdigit() and _status(pid).get("PPid") == me]


def peak_rss_mb() -> float:
    """``VmHWM`` of this process plus its children (the pool workers)."""
    total_kb = 0
    for pid in [os.getpid(), *_children()]:
        hwm = _status(pid).get("VmHWM", "0 kB")
        total_kb += int(hwm.split()[0])
    return total_kb / 1024.0


def _leftover_workers() -> list[int]:
    """Children still alive that are not multiprocessing's resource
    tracker -- pool workers a close() should have reaped."""
    leftover = []
    for pid in _children():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            leftover.append(pid)
    return leftover


def leaks(shm_before: set) -> list[str]:
    """Resource-neutrality violations after the workload closed: shm
    segments it created, files left in its temp dir, live workers."""
    from repro.engine.shm import leaked_segments
    found = [f"shm:{name}"
             for name in set(leaked_segments()) - shm_before]
    found += [f"tmp:{name}" for name in os.listdir(os.environ["TMPDIR"])]
    found += [f"worker:{pid}" for pid in _leftover_workers()]
    return found


# -- session workloads -----------------------------------------------------


def _budget_left(spec: dict, done: int, deadline: float) -> bool:
    if spec.get("ops"):
        return done < spec["ops"]
    return done < MIN_QUERIES or time.perf_counter() < deadline


def session_round(spec: dict, inputs: Inputs, out: dict,
                  clock: HostClock, before: float) -> None:
    import repro
    tracer = Tracer() if spec["trace"] else None
    expected = spec["result_digest"]
    attempted = failed = 0

    def check(result) -> None:
        nonlocal attempted, failed
        attempted += 1
        if result is None or rows_digest(result.as_tuples()) != expected:
            failed += 1

    def run_untraced():
        start = time.perf_counter()
        try:
            result = session.sql(inputs.sql).run()
        except Exception:
            # A failed operation is counted, not fatal to the round.
            traceback.print_exc()
            result = None
        return time.perf_counter() - start, result

    start = time.perf_counter()
    session = repro.connect(**inputs.config)
    inputs.register(session)
    registered = time.perf_counter()
    for name in inputs.tables:
        session.table_stats(name)
    collected = time.perf_counter()
    _, result = run_untraced()
    end = time.perf_counter()
    check(result)
    _record_setup(out, clock, before, (start, registered, collected, end))

    untraced, traced, wall, samples = [], [], [], []
    shm_before = result.context.shm_stats if result else None
    deadline = time.perf_counter() + spec["seconds"]
    before = clock.sample()
    done = 0
    while _budget_left(spec, done, deadline):
        sample = None
        if tracer is not None and done % 2:
            try:
                result, sample = traced_query(
                    tracer, session, inputs.sql, done, inputs.base_rows,
                    shm_before)
            except Exception:
                traceback.print_exc()
                result = None
        else:
            elapsed, result = run_untraced()
        after = clock.sample()
        scale = clock.scale(before, after)
        before = after
        if sample is not None:
            samples.append(_scaled(sample, scale))
            traced.append(samples[-1]["query_s"])
        elif result is not None:
            untraced.append(elapsed * scale)
            wall.append(elapsed)
        check(result)
        if result is not None:
            shm_before = result.context.shm_stats
        done += 1
    out["query_s"] = untraced
    out["traced_query_s"] = traced
    out["query_wall_s"] = wall
    out["busy_s"] = sum(untraced) + sum(traced)
    out["ops"] = len(untraced) + len(traced)
    out["layers"] = samples
    out["peak_rss_mb"] = peak_rss_mb()
    session.close()
    out["attempted"], out["failed"] = attempted, failed
    if tracer is not None:
        out["spans"] = tracer.spans


# -- serve_mixed -----------------------------------------------------------


class _Client:
    """One closed-loop caller: a seeded schedule over its own tenant.

    Every cycle issues exactly ``READS`` free reads per class in a
    seeded order, with a DML operation (and its refresh) after every
    eighth: delete, insert, delete, insert, ... with every third insert
    entering the skyline, so each cycle invalidates the cached entry
    twice per client (the entering insert and, two DML steps later, its
    delete).  A free draw per operation lets the count of expensive
    post-invalidation reads, and how many reads find a freshly changed
    table, swing by a third between seeds and between cycles.
    """

    #: Per 60 operations: 30 % full skyline (12 free + 6 refreshes),
    #: 40 % subset, 20 % uncacheable, 10 % DML.
    READS = (("full", 12), ("subset", 24), ("cold", 12))
    #: Column each client improves to make a row enter the skyline:
    #: wholesale cost / extended sales price, both MIN dimensions.
    ENTERING_COLUMN = (3, 7)

    def __init__(self, index: int, seed: int, inputs: Inputs,
                 skyline: list) -> None:
        self.tenant = f"c{index}"
        self.index = index
        self.rng = random.Random(seed * 1000 + index)
        self.inputs = inputs
        self.table, (_, self.base) = next(iter(inputs.tables.items()))
        self.skyline = skyline
        self.subsets = list(inputs.subset_sql.values())
        self.rng.shuffle(self.subsets)
        self.issued = {"subset": 0, "dml": 0, "insert": 0}
        self.inserted: list[list] = []

    def _insert_row(self) -> list:
        """Two in three: a row strictly worse than an existing one (the
        cached skyline stays valid).  One in three: a skyline member
        made slightly cheaper on this client's dimension, so it enters
        the skyline and invalidates the entry."""
        self.issued["insert"] += 1
        serial = self.issued["insert"]
        entering = serial % 3 == 0
        row = list(self.rng.choice(self.skyline if entering else self.base))
        row[1] = 10_000_000 + self.index * 1_000_000 + serial
        if entering:
            column = self.ENTERING_COLUMN[self.index % 2]
            row[column] = round(row[column] - 0.01 * serial, 2)
        else:
            row[2] = row[2] - 1                    # quantity: MAX
            row[3] = round(row[3] + 1.0, 2)        # wholesale cost: MIN
        return row

    def cycle(self):
        """This cycle's units of work, built as issued (a delete names
        a row this client inserted earlier).  A unit is ``(write,
        [(class, request), ...])``: one read, or a DML operation and
        the full-skyline read that follows it while readers are still
        held back -- the writer refreshes the cached skyline, so a
        subset read always finds it and stays a re-filter hit instead
        of executing cold and leaving an entry of its own behind."""
        classes = [cls for cls, count in self.READS for _ in range(count)]
        self.rng.shuffle(classes)
        for slot in range(8, len(classes) + 6, 9):
            classes.insert(slot, "dml")
        for cls in classes:
            if cls == "full":
                yield False, [(cls, self._query(self.inputs.sql))]
            elif cls == "subset":
                self.issued["subset"] += 1
                sql = self.subsets[self.issued["subset"] % len(self.subsets)]
                yield False, [(cls, self._query(sql))]
            elif cls == "cold":
                yield False, [(cls, self._query(self.inputs.cold_sql))]
            else:
                # Deletes and inserts alternate, so the table stays
                # within a few rows of its initial size.
                self.issued["dml"] += 1
                if self.issued["dml"] % 2 == 0 or not self.inserted:
                    row = self._insert_row()
                    self.inserted.append(row)
                    cls = "insert"
                else:
                    row = self.inserted.pop(0)
                    cls = "delete"
                yield True, [
                    (cls, {"op": cls, "table": self.table, "rows": [row]}),
                    ("full", self._query(self.inputs.sql))]

    def _query(self, sql: str) -> dict:
        return {"op": "query", "tenant": self.tenant, "sql": sql}


_READ_LABEL = {"full": "exact_hit", "subset": "refilter_hit"}


class _WriteGate:
    """Bench-side readers-writer gate: a DML unit waits until no read
    is in flight and holds reads back while it runs.

    Without it the answer check fails: ``CatalogService.execute`` tests
    the catalog version and then stores its result in two steps, so a
    delete landing between them leaves a cached skyline that still
    holds the deleted row, and no later event invalidates it (seed 5
    loses 3 rounds in 6).  The engine may not change in the PR that
    defines the benchmark, and a workload must not fail, so writes are
    serialised here until the serving tier closes that window.
    """

    def __init__(self) -> None:
        self._readers = 0
        self._writing = False
        self._changed = asyncio.Condition()

    async def acquire(self, write: bool) -> None:
        async with self._changed:
            if write:
                await self._changed.wait_for(
                    lambda: not self._writing and not self._readers)
                self._writing = True
            else:
                await self._changed.wait_for(lambda: not self._writing)
                self._readers += 1

    async def release(self, write: bool) -> None:
        async with self._changed:
            if write:
                self._writing = False
            else:
                self._readers -= 1
            self._changed.notify_all()


async def _serve_round(spec: dict, inputs: Inputs, out: dict,
                       clock: HostClock, before: float) -> None:
    from repro.serve import CatalogService, SkylineServer
    tracer = Tracer() if spec["trace"] else None
    table, (columns, rows) = next(iter(inputs.tables.items()))
    statements = {"full": inputs.sql, **inputs.subset_sql,
                  "cold": inputs.cold_sql}
    attempted = failed = 0

    start = time.perf_counter()
    server = SkylineServer(max_inflight=2)
    created = await server.handle({
        "op": "create_table", "table": table,
        "columns": [[name, dtype.name, nullable]
                    for name, dtype, nullable in columns],
        "rows": [list(row) for row in rows]})
    for index in range(spec["clients"]):
        await server.handle({"op": "configure", "tenant": f"c{index}"})
    registered = time.perf_counter()
    server.tenant("c0").session.table_stats(table)
    collected = time.perf_counter()
    first = await server.handle(
        {"op": "query", "tenant": "c0", "sql": inputs.sql})
    end = time.perf_counter()
    attempted += 2
    failed += (not created["ok"]) + (not first["ok"])
    _record_setup(out, clock, before, (start, registered, collected, end))

    clients = [_Client(i, spec["seed"], inputs, first.get("rows", []))
               for i in range(spec["clients"])]
    latencies: dict[str, list[float]] = {}
    reads: dict[bool, list[float]] = {False: [], True: []}
    wall: list[float] = []
    dml_log: list[list] = []        # per cycle: [(op, row), ...]
    checkpoints: list[dict] = []    # per cycle: statement -> digest
    samples: list[dict] = []
    busy_s = 0.0
    ops = 0
    gate = _WriteGate()

    async def run_client(client: _Client, log: list, events: list) -> None:
        nonlocal attempted, failed
        for write, unit in client.cycle():
            await gate.acquire(write)
            try:
                for cls, request in unit:
                    begin = time.perf_counter()
                    response = await server.handle(request)
                    end = time.perf_counter()
                    attempted += 1
                    if not response["ok"]:
                        failed += 1
                        print(f"{cls} failed: {response}", file=sys.stderr)
                    elif request["op"] != "query":
                        log.append((cls, tuple(request["rows"][0])))
                        events.append(("dml", begin, end, client.tenant))
                    else:
                        if cls != "cold" and not response["cache_hit"]:
                            cls = "miss"  # the entry was invalidated
                        events.append((_READ_LABEL.get(cls, cls), begin,
                                       end, client.tenant))
            finally:
                await gate.release(write)

    deadline = time.perf_counter() + spec["seconds"]
    cycle = 0
    while _budget_left(spec, cycle, deadline):
        logs = [[] for _ in clients]
        events: list[tuple] = []
        before = clock.sample()
        begin = time.perf_counter()
        await asyncio.gather(*(run_client(client, log, events)
                               for client, log in zip(clients, logs)))
        cycle_wall = time.perf_counter() - begin
        scale = clock.scale(before, clock.sample())
        busy_s += cycle_wall * scale
        ops += len(events)
        # With tracing on, every other cycle keeps a span per operation;
        # the untraced cycles give the overhead's base.
        record = tracer is not None and cycle % 2 == 1
        for cls, begin, end, tenant in events:
            latencies.setdefault(cls, []).append((end - begin) * scale)
            if cls != "dml":
                reads[record].append((end - begin) * scale)
                wall.append(end - begin)
            if record:
                tracer.spans.append({
                    "name": f"serve.{cls}", "query": len(tracer.spans),
                    "start": begin, "end": end, "parent": None,
                    "id": len(tracer.spans), "client": tenant})
        dml_log.append([entry for log in logs for entry in log])
        # Checkpoint: both clients are idle, so the table is exactly the
        # initial rows plus every logged insert minus every delete.
        answers = {}
        for name, sql in statements.items():
            response = await server.handle(
                {"op": "query", "tenant": "c0", "sql": sql})
            attempted += 1
            if response["ok"]:
                answers[name] = rows_digest(response["rows"])
            else:
                failed += 1
        checkpoints.append(answers)
        if tracer is not None:
            before = clock.sample()
            _, sample = traced_query(
                tracer, server.tenant("c0").session, inputs.cold_sql,
                -cycle - 1, inputs.base_rows)
            samples.append(
                _scaled(sample, clock.scale(before, clock.sample())))
        cycle += 1

    stats = await server.handle({"op": "stats"})
    out["peak_rss_mb"] = peak_rss_mb()
    await server.aclose()

    # Reference: a cache-less service replays the logged DML (order
    # within a cycle does not matter: the table is a multiset) and
    # answers every statement cold at up to three checkpoints.
    verify_start = time.perf_counter()
    last = len(checkpoints) - 1
    verified = {0, last // 2, last}
    service = CatalogService()
    service.result_cache_enabled = False
    reference = service.session_for()
    reference.create_table(table, columns, list(rows))
    for index, answers in enumerate(checkpoints):
        for op, row in dml_log[index]:
            if op == "insert":
                service.catalog.insert_into(table, [row])
            else:
                service.catalog.delete_from(table, rows=[row])
        if index not in verified:
            continue
        for name, sql in statements.items():
            want = rows_digest(service.execute(reference, sql).as_tuples())
            if answers.get(name) != want:
                failed += 1
                print(f"checkpoint {index}: {name} differs from the "
                      f"cache-less reference", file=sys.stderr)
    service.close()
    out["bench.oracle_s"] = time.perf_counter() - verify_start

    plan = stats["service"]["plan_cache"]
    cache = stats["service"]["result_cache"]
    hits = cache["exact_hits"] + cache["refilter_hits"]
    out["query_s"] = reads[False]
    out["traced_query_s"] = reads[True]
    out["query_wall_s"] = wall
    out["busy_s"] = busy_s
    out["ops"] = ops
    out["layers"] = samples
    out["serve"] = {
        **{f"serve.{cls}_s.p50": statistics.median(values)
           for cls, values in latencies.items()},
        "serve.result_cache_miss_ops": len(latencies.get("miss", ())),
        "serve.plan_cache_hit_ratio":
            plan["hits"] / max(1, plan["hits"] + plan["misses"]),
        "serve.result_cache_hit_ratio":
            hits / max(1, hits + cache["misses"]),
        "serve.result_cache_refilter_hits": cache["refilter_hits"],
        "serve.result_cache_invalidations": cache["invalidations"],
        "serve.shed": stats["scheduler"]["shed"],
        "serve.queued": stats["scheduler"]["queued"],
    }
    out["attempted"], out["failed"] = attempted, failed
    if tracer is not None:
        out["spans"] = tracer.spans


# -- entry point -----------------------------------------------------------


def run_round(spec: dict) -> dict:
    """Execute one round described by ``spec``; returns its record."""
    started = time.perf_counter()
    import repro  # noqa: F401  (timed: import cost is part of set-up)
    import repro.serve  # noqa: F401
    out: dict = {"import_wall_s": time.perf_counter() - started}
    from repro.engine.shm import leaked_segments
    shm_before = set(leaked_segments())
    inputs = generate(spec["workload"], spec["seed"], spec["scale"])
    clock = HostClock()
    before = clock.sample()
    if spec["workload"] == "serve_mixed":
        asyncio.run(_serve_round(spec, inputs, out, clock, before))
    else:
        session_round(spec, inputs, out, clock, before)
    out["leaks"] = leaks(shm_before)
    out["bench.host_slowdown"] = \
        statistics.median(clock.samples) / clock.NOMINAL_S
    return out
