"""The five named workloads: inputs, statements and session settings.

Inputs come from the ``repro.datasets`` generators, seeded by the
benchmark's ``--seed``; the engine only ever sees the generated rows.
Names are fixed -- later issues refer to them.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

DEFAULT_SEED = 2023

#: SHA-256 of the generated rows at ``DEFAULT_SEED`` and full size.  A
#: run at the default seed whose inputs hash differently is refused, so
#: an edit to a generator cannot silently change what is measured.
PINNED_INPUT_DIGESTS = {
    "store_sales_complete":
        "8ed57749d33c0c2f3d5c2e278ed939742d0fa73568e4d97fd1354cc352e12f9a",
    "airbnb_incomplete":
        "13eed31c74d2a618d7c88372327e5169053592c7b41910781da97bf6d24ee9b9",
    "store_sales_filtered_process":
        "288b6ed570a0241320ce1db667ea25ef18b326841f28a8d89ab8da5483a1ae12",
    "musicbrainz_complete":
        "500755dfeff52595581eba3d250346baffd0eca99491038de9bd2a9623d01e0c",
    "serve_mixed":
        "83b3364c469d839117686314a46b7750f108656303c8f45cc5f8a3ecfce0e26f",
}

#: Rows of the largest table at full size; BENCHMARK.json records why
#: each workload is on the benchmark.
ROWS = {
    "store_sales_complete": 60_000,
    "airbnb_incomplete": 60_000,          # raw: ~31% carry a null dimension
    "store_sales_filtered_process": 100_000,  # ~70% pass the filter
    "musicbrainz_complete": 10_000,       # recordings (+ tracks, meta)
    "serve_mixed": 30_000,
}

_FILTERED_SQL = (
    "SELECT ss_item_sk, ss_ticket_number, ss_quantity, ss_list_price, "
    "ss_sales_price, ss_list_price - ss_sales_price AS discount, "
    "ss_quantity * ss_sales_price AS revenue FROM store_sales "
    "WHERE ss_quantity > 20 AND ss_list_price < 150.0 "
    "AND ss_sales_price > 10.0 "
    "SKYLINE OF ss_quantity MAX, discount MAX, revenue MIN")


@dataclass
class Inputs:
    """What one launch hands to the engine."""

    #: table name -> (column specs, rows), in registration order.
    tables: dict
    #: The session statement (session workloads) or the full-preference
    #: skyline (``serve_mixed``).
    sql: str
    #: ``repro.connect`` options; empty means the defaults.
    config: dict = field(default_factory=dict)
    #: ``serve_mixed`` only: the six 2-dimension subset skylines (one
    #: size, so the re-filter class the read median sits in is
    #: homogeneous) and the uncacheable filter + skyline statement.
    subset_sql: dict = field(default_factory=dict)
    cold_sql: str = ""

    def register(self, session) -> None:
        for name, (columns, rows) in self.tables.items():
            session.create_table(name, columns, rows)

    @property
    def base_rows(self) -> int:
        return max(len(rows) for _, rows in self.tables.values())


def _skyline_of(dims) -> str:
    return ", ".join(f"{name} {kind.upper()}" for name, kind in dims)


def generate(name: str, seed: int, scale: float = 1.0) -> Inputs:
    """Build the named workload's inputs from ``seed``.

    ``scale`` shrinks the row count (the self-test runs tiny inputs).
    """
    from repro.datasets import (airbnb_workload, generate_musicbrainz,
                                musicbrainz_workload, store_sales_workload)
    rows = max(200, int(ROWS[name] * scale))
    if name == "store_sales_complete":
        wl = store_sales_workload(rows, seed=seed)
        return Inputs({wl.table_name: (wl.columns, wl.rows)},
                      wl.skyline_sql(6))
    if name == "airbnb_incomplete":
        wl = airbnb_workload(rows, seed=seed, incomplete=True)
        return Inputs({wl.table_name: (wl.columns, wl.rows)},
                      wl.skyline_sql(6))
    if name == "store_sales_filtered_process":
        wl = store_sales_workload(rows, seed=seed)
        return Inputs({wl.table_name: (wl.columns, wl.rows)},
                      _FILTERED_SQL,
                      config={"backend": "process", "num_workers": 2})
    if name == "musicbrainz_complete":
        return Inputs(generate_musicbrainz(rows, seed=seed),
                      musicbrainz_workload(rows, seed=seed).skyline_sql(6))
    if name == "serve_mixed":
        wl = store_sales_workload(rows, seed=seed)
        # Quantity MAX, wholesale cost MIN, discount amount MAX, extended
        # sales price MIN: the first four dimensions correlate so well
        # that their skyline is 10-15 rows and its size (hence every
        # cached read's cost) swings 50 % with the seed; these four
        # trade off and give ~300 rows, +-7 %.
        dims = [wl.skyline_dimensions[i] for i in (0, 1, 4, 5)]
        head = f"SELECT * FROM {wl.table_name} "
        subsets = {
            "subset_" + "".join(map(str, idx)):
                head + "SKYLINE OF " + _skyline_of([dims[i] for i in idx])
            for idx in itertools.combinations(range(4), 2)}
        return Inputs(
            {wl.table_name: (wl.columns, wl.rows)},
            head + "SKYLINE OF " + _skyline_of(dims),
            subset_sql=subsets,
            cold_sql=head + "WHERE ss_quantity > 50 SKYLINE OF "
            + _skyline_of(dims))
    raise KeyError(name)


def input_digest(inputs: Inputs) -> str:
    """SHA-256 over every generated table's rows, in order."""
    digest = hashlib.sha256()
    for name, (_, rows) in inputs.tables.items():
        digest.update(name.encode())
        digest.update(repr(rows).encode())
    return digest.hexdigest()


def rows_digest(rows) -> str:
    """Order-insensitive SHA-256 of a result (a multiset of rows)."""
    canonical = sorted(repr(tuple(row)) for row in rows)
    return hashlib.sha256("\n".join(canonical).encode()).hexdigest()
