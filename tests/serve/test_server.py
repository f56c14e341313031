"""End-to-end serving tests: TCP protocol, concurrency, invalidation.

No pytest-asyncio in the environment: tests drive their own event loop
with ``asyncio.run``.  The TCP tests bind port 0 (ephemeral).
"""

from __future__ import annotations

import asyncio
import json

from repro import DOUBLE, INTEGER, SessionConfig
from repro.serve import CatalogService, SkylineServer

from tests.conftest import skyline_oracle
from repro.core import BoundDimension, DimensionKind

POINTS = [(i, float(a), float(b), float(c)) for i, (a, b, c) in enumerate(
    [(1, 9, 5), (2, 8, 1), (3, 7, 9), (4, 6, 2), (5, 5, 8),
     (6, 4, 3), (7, 3, 7), (8, 2, 4), (9, 1, 6), (5, 5, 5)])]

COLUMNS = [("id", INTEGER, False), ("a", DOUBLE, False),
           ("b", DOUBLE, False), ("c", DOUBLE, False)]

FULL = "SELECT * FROM pts SKYLINE OF a MIN, b MIN, c MIN"
SUBSETS = ("SELECT * FROM pts SKYLINE OF a MIN, b MIN",
           "SELECT * FROM pts SKYLINE OF b MIN, c MIN",
           "SELECT * FROM pts SKYLINE OF a MIN, c MIN")


def make_server(**kwargs) -> SkylineServer:
    server = SkylineServer(**kwargs)
    server.tenant("default").session.create_table("pts", COLUMNS, POINTS)
    return server


class TestInProcess:
    def test_concurrent_clients_bit_identical(self):
        """N clients over one server; every answer matches the oracle."""

        async def run():
            server = make_server(max_inflight=4)
            answers: dict[str, list] = {}

            async def client(name: str, offset: int):
                for i in range(6):
                    sql = ([FULL] + list(SUBSETS))[(offset + i) % 4]
                    result = await server.execute(name, sql)
                    answers.setdefault(sql, []).append(
                        sorted(result.as_tuples()))

            await asyncio.gather(*(client(f"tenant-{c}", c)
                                   for c in range(8)))
            await server.aclose()
            return answers

        answers = asyncio.run(run())
        specs = {
            FULL: [(1, DimensionKind.MIN), (2, DimensionKind.MIN),
                   (3, DimensionKind.MIN)],
            SUBSETS[0]: [(1, DimensionKind.MIN), (2, DimensionKind.MIN)],
            SUBSETS[1]: [(2, DimensionKind.MIN), (3, DimensionKind.MIN)],
            SUBSETS[2]: [(1, DimensionKind.MIN), (3, DimensionKind.MIN)],
        }
        for sql, runs in answers.items():
            dims = [BoundDimension(i, kind) for i, kind in specs[sql]]
            expected = sorted(skyline_oracle(POINTS, dims))
            for got in runs:
                assert got == expected, sql

    def test_cached_subset_bit_identical_vs_cold(self):
        """Cache-hit answers equal a cache-less server's, row for row."""

        async def run():
            cached = make_server(max_inflight=2)
            cold_service = CatalogService()
            cold_service.result_cache_enabled = False
            cold = SkylineServer(cold_service, max_inflight=2)
            cold.tenant("default").session.create_table(
                "pts", COLUMNS, POINTS)

            warm = await cached.execute("default", FULL)
            assert not warm.cache_hit
            pairs = []
            for sql in SUBSETS:
                hot = await cached.execute("default", sql)
                ref = await cold.execute("default", sql)
                pairs.append((sql, hot, ref))
            await cached.aclose()
            await cold.aclose()
            return pairs

        for sql, hot, ref in asyncio.run(run()):
            assert hot.cache_hit, sql
            assert not ref.cache_hit, sql
            assert sorted(hot.as_tuples()) == sorted(ref.as_tuples()), sql

    def test_insert_maintenance_end_to_end(self):
        async def run():
            server = make_server(max_inflight=2)
            await server.execute("default", FULL)
            hit = await server.execute("default", FULL)
            assert hit.cache_hit
            # A new overall winner must appear -- the cached skyline is
            # maintained where the table keeps resident columns.
            response = await server.handle(
                {"op": "insert", "table": "pts",
                 "rows": [[99, 0.5, 0.5, 0.5]]})
            assert response["ok"]
            fresh = await server.execute("default", FULL)
            assert fresh.as_tuples() == [(99, 0.5, 0.5, 0.5)]
            service = (await server.handle({"op": "stats"}))["service"]
            maintained = service["result_cache"]["maintained_inserts"]
            assert fresh.cache_hit == bool(maintained)
            assert service["column_maintenance"]["pts"]["appended"] == \
                maintained
            await server.aclose()

        asyncio.run(run())

    def test_per_tenant_sessions_share_catalog(self):
        async def run():
            server = make_server(max_inflight=2)
            server.register_tenant("fast", num_executors=4)
            a = await server.execute("fast", FULL)
            b = await server.execute("other", FULL)
            assert sorted(a.as_tuples()) == sorted(b.as_tuples())
            assert server.tenant("fast").config.num_executors == 4
            await server.aclose()

        asyncio.run(run())


class TestProtocol:
    @staticmethod
    async def roundtrip(reader, writer, request: dict) -> dict:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        return json.loads(line)

    def test_tcp_roundtrip_on_ephemeral_port(self):
        async def run():
            server = SkylineServer(port=0)
            host, port = await server.start()
            assert port != 0
            reader, writer = await asyncio.open_connection(host, port)
            try:
                pong = await self.roundtrip(reader, writer, {"op": "ping"})
                assert pong == {"ok": True, "pong": True}

                created = await self.roundtrip(reader, writer, {
                    "op": "create_table", "table": "pts",
                    "columns": [["id", "INTEGER", False],
                                ["a", "DOUBLE", False],
                                ["b", "DOUBLE", False],
                                ["c", "DOUBLE", False]],
                    "rows": [list(row) for row in POINTS]})
                assert created["ok"] and created["rows"] == len(POINTS)

                cold = await self.roundtrip(
                    reader, writer, {"op": "query", "sql": FULL})
                assert cold["ok"] and not cold["cache_hit"]
                assert cold["columns"] == ["id", "a", "b", "c"]
                hot = await self.roundtrip(
                    reader, writer, {"op": "query", "sql": FULL})
                assert hot["ok"] and hot["cache_hit"]
                assert sorted(map(tuple, hot["rows"])) == \
                    sorted(map(tuple, cold["rows"]))

                stats = await self.roundtrip(reader, writer,
                                             {"op": "stats"})
                assert stats["ok"]
                assert stats["service"]["result_cache"]["exact_hits"] == 1
                assert "pts" in stats["service"]["tables"]
                # One resident columnar form per table, reported in
                # bytes (0 where the row plane is forced: no store).
                resident = stats["service"]["resident_column_bytes"]
                columnar = server.tenant("default").config.columnar
                assert (resident["pts"] > 0) == columnar

                deleted = await self.roundtrip(reader, writer, {
                    "op": "delete", "table": "pts",
                    "rows": [list(POINTS[0])]})
                assert deleted["ok"] and deleted["deleted"] == 1
                dropped = await self.roundtrip(
                    reader, writer, {"op": "drop", "table": "pts"})
                assert dropped["ok"]
            finally:
                writer.close()
                await server.aclose()

        asyncio.run(run())

    def test_stats_op_reports_transport_fallbacks_per_tenant(self):
        """The shm store's counters -- pickle fallbacks split by reason
        -- reach the ``stats`` op unchanged, for the tenants that have a
        store (process backend + shared memory)."""
        async def run():
            server = make_server(port=0)
            server.register_tenant("proc", backend="process",
                                   num_workers=2, columnar=True)
            server.register_tenant("plain")
            try:
                for tenant in ("proc", "plain"):
                    await server.execute(tenant, FULL)
                stats = await server.handle({"op": "stats"})
                session = server.tenant("proc").session
                expected = session.shm_stats()
                if expected is None:  # platform without shared memory
                    assert stats["shm"] == {}
                    return
                assert stats["shm"] == {"proc": expected}
                # POINTS is tiny: every shipped batch is refused as
                # too small, and says so.
                assert expected["pickle_fallbacks"] \
                    == expected["fallback_too_small"] > 0
                assert json.loads(json.dumps(stats)) == stats
            finally:
                await server.aclose()

        asyncio.run(run())

    def test_configure_op(self):
        async def run():
            server = SkylineServer(port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                response = await self.roundtrip(reader, writer, {
                    "op": "configure", "tenant": "t1",
                    "options": {"num_executors": 8,
                                "skyline_algorithm": "sfs"}})
                assert response["ok"]
                assert response["config"]["num_executors"] == 8
                assert response["config"]["skyline_algorithm"] == "sfs"
                assert server.tenant("t1").config.num_executors == 8
            finally:
                writer.close()
                await server.aclose()

        asyncio.run(run())

    def test_error_responses(self):
        async def run():
            server = SkylineServer(port=0)
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                bad_json = {"raw": b"not json\n"}
                writer.write(bad_json["raw"])
                await writer.drain()
                decoded = json.loads(await reader.readline())
                assert not decoded["ok"]
                assert decoded["error"] == "bad_request"

                unknown = await self.roundtrip(reader, writer,
                                               {"op": "frobnicate"})
                assert not unknown["ok"] and "unknown op" in \
                    unknown["message"]

                missing = await self.roundtrip(
                    reader, writer,
                    {"op": "query", "sql": "SELECT * FROM nope"})
                assert not missing["ok"]
                assert missing["error"] == "analysis_error"

                notnull = await self.roundtrip(reader, writer, {
                    "op": "create_table", "table": "t",
                    "columns": [["x", "INTEGER", False]], "rows": []})
                assert notnull["ok"]
                violation = await self.roundtrip(reader, writer, {
                    "op": "insert", "table": "t", "rows": [[None]]})
                assert not violation["ok"]
                assert violation["error"] == "analysis_error"
                assert "NOT NULL" in violation["message"]
            finally:
                writer.close()
                await server.aclose()

        asyncio.run(run())

    def test_default_config_applies_to_new_tenants(self):
        async def run():
            server = SkylineServer(
                port=0,
                default_config=SessionConfig(skyline_algorithm="sfs"))
            assert server.tenant("anyone").config.skyline_algorithm \
                == "sfs"
            await server.aclose()

        asyncio.run(run())
