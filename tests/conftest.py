"""Shared fixtures."""

from __future__ import annotations

import random

import pytest

from repro import DOUBLE, INTEGER, STRING, SkylineSession, connect


@pytest.fixture
def session() -> SkylineSession:
    return connect(num_executors=2)


@pytest.fixture
def hotels_session() -> SkylineSession:
    """The running example of the paper: hotels with price and rating."""
    session = connect(num_executors=2)
    session.create_table(
        "hotels",
        [("name", STRING, False), ("price", DOUBLE, False),
         ("rating", DOUBLE, False), ("distance", DOUBLE, False)],
        [
            ("Alpha", 120.0, 4.5, 0.3),
            ("Beach", 90.0, 4.0, 1.2),
            ("Cheap", 150.0, 3.0, 2.0),
            ("Delta", 80.0, 3.5, 0.9),
            ("Exquisite", 95.0, 4.8, 0.5),
            ("Far", 60.0, 3.2, 8.0),
            ("Grand", 200.0, 4.9, 0.1),
        ])
    return session


@pytest.fixture
def nullable_session() -> SkylineSession:
    """A table with nulls in skyline dimensions (incomplete data)."""
    session = connect(num_executors=2)
    session.create_table(
        "items",
        [("id", INTEGER, False), ("a", INTEGER, True),
         ("b", INTEGER, True), ("c", INTEGER, True)],
        [
            (1, 1, None, 10),
            (2, 3, 2, None),
            (3, None, 5, 3),
            (4, 2, 2, 2),
            (5, 9, 9, 9),
        ])
    return session


def skyline_oracle(rows, dims, complete=True):
    """Brute-force skyline oracle used by many tests.

    ``dims`` are BoundDimension descriptors; semantics follow the paper's
    definitions exactly (Definitions 3.1/3.2 and the incomplete variant).
    """
    from repro.core import dominates, dominates_incomplete

    test = dominates if complete else dominates_incomplete
    return [r for r in rows
            if not any(test(s, r, dims) for s in rows)]


#: Orders a table's rows are loaded in.  The scan keeps the table's
#: partitioning (contiguous slices), so the partition a row lands in
#: follows its position: ``loaded`` as generated, ``shuffled`` scatters
#: neighbours, ``sorted`` cuts the value space into slabs along the
#: first value column (the best rows share the first partition), and
#: ``reversed`` puts the worst rows first (every local window fills with
#: rows that are dominated later).
ROW_LAYOUTS = ("loaded", "shuffled", "sorted", "reversed")


def _value_key(row):
    # NULL and NaN sort last: they order against nothing.
    return tuple((1, 0.0) if v is None or v != v else (0, v)
                 for v in row[1:])


def lay_out(rows, layout: str, seed: int = 0) -> list[tuple]:
    """``rows`` (``(id, value, ...)`` tuples) in the order ``layout``
    names.  A permutation: every skyline of it is the same set."""
    if layout == "loaded":
        return list(rows)
    if layout == "shuffled":
        shuffled = list(rows)
        random.Random(seed).shuffle(shuffled)
        return shuffled
    ordered = sorted(rows, key=_value_key)
    if layout == "sorted":
        return ordered
    if layout == "reversed":
        return ordered[::-1]
    raise ValueError(f"unknown layout {layout!r}")
