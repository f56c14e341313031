#!/usr/bin/env python3
"""Black-box smoke test of the serving endpoint (stdlib-only).

Boots ``python -m repro.serve --demo`` as a real subprocess, waits for
its "listening on" line, then drives N concurrent TCP clients through
the JSON-lines protocol: each client pings, runs the full-preference
demo skyline and a subset-preference variant, and verifies that

* every response is well-formed and ``ok``;
* all clients get identical rows per query;
* the subset query is eventually answered from the dominance-aware
  result cache (``cache_hit``) with the same rows as its cold run.

``--inject-faults`` additionally boots a second server on the process
backend with a seeded ``REPRO_FAULT_PLAN`` in its environment, so
process-pool workers really die mid-stage (``os._exit``), and asserts
the crash-then-recover contract: the faulted server's answers are
bit-identical to the clean server's, its stats report at least one
worker-crash pool recovery, and it keeps serving afterwards -- all
without a restart.  The clean process server must report no recovery
at all: with no fault plan, a pool worker that dies is a bug.

Every server is stopped with SIGTERM, and no child process of it (a
process-pool worker) may outlive it.

Usage: ``PYTHONPATH=src python tools/serve_smoke.py [--clients 8]
[--inject-faults]``
Exits non-zero with a diagnostic on any failure.
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import json
import os
import re
import subprocess
import sys
import time

FULL = ("SELECT * FROM hotels "
        "SKYLINE OF price MIN, rating MAX, distance MIN")
SUBSET = "SELECT * FROM hotels SKYLINE OF price MIN, rating MAX"


async def request(host: str, port: int, payloads: list[dict]
                  ) -> list[dict]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        responses = []
        for payload in payloads:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
        return responses
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def drive(host: str, port: int, clients: int) -> None:
    async def one_client(index: int) -> "tuple[list, list, bool]":
        pong, full, subset = await request(host, port, [
            {"op": "ping"},
            {"op": "query", "sql": FULL, "tenant": f"tenant-{index}"},
            {"op": "query", "sql": SUBSET, "tenant": f"tenant-{index}"},
        ])
        assert pong.get("pong"), f"bad ping response: {pong}"
        for response in (full, subset):
            assert response.get("ok"), f"query failed: {response}"
        return (sorted(map(tuple, full["rows"])),
                sorted(map(tuple, subset["rows"])),
                bool(subset["cache_hit"]))

    results = await asyncio.gather(*(one_client(i)
                                     for i in range(clients)))
    full_answers = {tuple(map(tuple, r[0])) for r in results}
    subset_answers = {tuple(map(tuple, r[1])) for r in results}
    assert len(full_answers) == 1, \
        f"clients disagree on the full skyline: {full_answers}"
    assert len(subset_answers) == 1, \
        f"clients disagree on the subset skyline: {subset_answers}"
    assert any(r[2] for r in results), \
        "no client was served the subset query from the result cache"

    (stats,) = await request(host, port, [{"op": "stats"}])
    cache = stats["service"]["result_cache"]
    assert cache["stores"] >= 1 and cache["refilter_hits"] >= 1, \
        f"unexpected cache counters: {cache}"
    print(f"serve smoke OK: {clients} clients, "
          f"{len(next(iter(full_answers)))} full-skyline rows, "
          f"cache {cache}")


def boot(extra_args: "list[str]", extra_env: "dict | None" = None
         ) -> "tuple[subprocess.Popen, str, int]":
    """Start ``python -m repro.serve`` and wait for its bound address."""
    env = os.environ.copy()
    if extra_env:
        env.update(extra_env)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--demo", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    if not match:
        proc.terminate()
        raise SystemExit(f"server did not start: {line!r}")
    return proc, match.group(1), int(match.group(2))


def _children(pid: int) -> "set[int]":
    """Live child pids of ``pid``, over all of its threads (the server
    forks its pool workers from its query threads)."""
    found: "set[int]" = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path, encoding="ascii") as handle:
                found.update(map(int, handle.read().split()))
        except FileNotFoundError:  # the thread exited meanwhile
            pass
    return found


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def stop(*procs: subprocess.Popen, grace_s: float = 10.0) -> "list[int]":
    """SIGTERM the servers, wait for them, and assert that none of their
    children outlives them; returns how many children each had."""
    children = [_children(proc.pid) for proc in procs]
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.wait(timeout=10)
    pids = set().union(*children)
    deadline = time.monotonic() + grace_s
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = sorted(filter(_alive, pids))
    assert not survivors, f"servers left child processes behind: {survivors}"
    return [len(c) for c in children]


async def drive_faulted(clean: "tuple[str, int]",
                        faulted: "tuple[str, int]") -> None:
    """Crash-then-recover: identical answers, recovery counted, and the
    faulted server stays up -- no restart; the clean server recovered
    nothing."""
    for sql in (FULL, SUBSET):
        (reference,) = await request(*clean, [
            {"op": "query", "sql": sql}])
        (under_test,) = await request(*faulted, [
            {"op": "query", "sql": sql}])
        assert reference.get("ok"), f"clean server failed: {reference}"
        assert under_test.get("ok"), \
            f"faulted server failed: {under_test}"
        assert sorted(map(tuple, reference["rows"])) == \
            sorted(map(tuple, under_test["rows"])), \
            f"faulted server's rows differ for {sql!r}"

    (stats,) = await request(*clean, [{"op": "stats"}])
    clean_faults = stats["service"]["faults"]
    assert clean_faults["crash_recoveries"] == 0, \
        f"the clean process server lost pool workers: {clean_faults}"

    (stats,) = await request(*faulted, [{"op": "stats"}])
    faults = stats["service"]["faults"]
    assert faults["crash_recoveries"] >= 1, \
        f"no worker-crash recovery was exercised: {faults}"
    assert faults["retries"] >= 1, f"no task retries recorded: {faults}"

    # The pool was rebuilt in place: the same server instance keeps
    # answering queries.
    (again,) = await request(*faulted, [{"op": "query", "sql": FULL}])
    assert again.get("ok"), f"faulted server died after recovery: {again}"
    print(f"fault-injection smoke OK: identical answers, "
          f"{faults['crash_recoveries']} pool recoveries, "
          f"{faults['retries']} task retries")


def run_fault_injection(timeout: float, crash_p: float, seed: int) -> None:
    """Boot clean + faulted servers (process backend) and compare."""
    shape = ["--backend", "process", "--workers", "2",
             "--partitions", "6", "--demo-rows", "1500"]
    clean_proc, clean_host, clean_port = boot(shape)
    faulted_proc, faulted_host, faulted_port = boot(
        shape, {"REPRO_FAULT_PLAN": f"seed={seed},crash_p={crash_p}"})
    try:
        asyncio.run(asyncio.wait_for(
            drive_faulted((clean_host, clean_port),
                          (faulted_host, faulted_port)), timeout))
    finally:
        children = stop(clean_proc, faulted_proc)
    assert all(children), f"a process-backend server had no pool: {children}"
    print(f"shutdown OK: {sum(children)} child processes, none outlived "
          f"its server")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--inject-faults", action="store_true",
                        help="also run the crash-then-recover black-box "
                             "check on the process backend")
    parser.add_argument("--crash-p", type=float, default=0.2,
                        help="injected per-task crash probability for "
                             "--inject-faults")
    parser.add_argument("--fault-seed", type=int, default=11,
                        help="fault-plan seed for --inject-faults")
    args = parser.parse_args(argv)

    proc, host, port = boot([])
    try:
        asyncio.run(asyncio.wait_for(
            drive(host, port, args.clients), args.timeout))
    finally:
        stop(proc)
    if args.inject_faults:
        run_fault_injection(max(args.timeout, 60.0), args.crash_p,
                            args.fault_seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
