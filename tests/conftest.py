"""Shared fixtures."""

from __future__ import annotations

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
