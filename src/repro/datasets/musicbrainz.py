"""Synthetic MusicBrainz-like dataset and the Appendix E complex queries.

The paper's "complex query" evaluation joins a recordings subset of the
MusicBrainz database with per-recording track aggregates and rating
metadata (Listings 11-14).  This module generates the three tables
involved (``recording_complete`` / ``recording_incomplete``,
``recording_meta``, ``track``) with the paper's proportions (about one
third of recordings carry ratings) and builds the exact query texts:
base query, integrated skyline query, and the unwieldy plain-SQL
reference rewrite of Listing 13.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..engine.types import DOUBLE, INTEGER

#: (column, kind) per Table 13, in the paper's order.
MUSICBRAINZ_SKYLINE_DIMENSIONS: list[tuple[str, str]] = [
    ("rating", "max"),
    ("rating_count", "max"),
    ("length", "min"),
    ("video", "max"),
    ("num_tracks", "max"),
    ("min_position", "min"),
]


def generate_musicbrainz(num_recordings: int, seed: int = 23) -> dict:
    """Generate the MusicBrainz-like tables.

    Returns ``{table_name: (columns, rows)}`` with tables
    ``recording_complete``, ``recording_incomplete``, ``recording_meta``
    and ``track``.  The complete and incomplete recordings share ids so
    both query variants run against the same universe.
    """
    rng = random.Random(seed)
    recording_complete: list[tuple] = []
    recording_incomplete: list[tuple] = []
    recording_meta: list[tuple] = []
    track: list[tuple] = []
    for recording_id in range(1, num_recordings + 1):
        length = int(rng.gauss(210_000, 60_000))
        length = max(10_000, length)
        video = 1 if rng.random() < 0.06 else 0
        recording_complete.append((recording_id, length, video))
        recording_incomplete.append((
            recording_id,
            None if rng.random() < 0.12 else length,
            None if rng.random() < 0.05 else video,
        ))
        # About a third of recordings have ratings (paper: ~500k of 1.5M).
        if rng.random() < 1.0 / 3.0:
            rating_count = max(1, int(rng.paretovariate(1.1)))
            rating = round(min(100.0, max(
                0.0, rng.gauss(70.0, 18.0))), 1)
            recording_meta.append((recording_id, rating, rating_count))
        else:
            recording_meta.append((recording_id, None, None))
        # Every recording appears on at least one track (so the COMPLETE
        # assertion of the Listing 14 query is actually true, as in the
        # paper's curated subset); popular ones appear on compilations.
        appearances = rng.choices((1, 2, 3, 5, 8),
                                  weights=(60, 20, 10, 7, 3))[0]
        for _ in range(appearances):
            track.append((recording_id, rng.randint(1, 20)))
    return {
        "recording_complete": (
            [("id", INTEGER, False), ("length", INTEGER, True),
             ("video", INTEGER, False)],
            recording_complete),
        "recording_incomplete": (
            [("id", INTEGER, False), ("length", INTEGER, True),
             ("video", INTEGER, True)],
            recording_incomplete),
        "recording_meta": (
            [("id", INTEGER, False), ("rating", DOUBLE, True),
             ("rating_count", INTEGER, True)],
            recording_meta),
        "track": (
            [("recording", INTEGER, False), ("position", INTEGER, False)],
            track),
    }


def register_musicbrainz(session, num_recordings: int,
                         seed: int = 23) -> None:
    """Create all MusicBrainz tables in the session's catalog."""
    for name, (columns, rows) in generate_musicbrainz(
            num_recordings, seed).items():
        session.create_table(name, columns, rows)


def base_query(complete: bool = True) -> str:
    """The Appendix E base query (Listing 11 complete / Listing 12 not)."""
    if complete:
        return """
            SELECT
                r.id,
                ifnull(r.length, 0) AS length,
                r.video,
                ifnull(rm.rating, 0) AS rating,
                ifnull(rm.rating_count, 0) AS rating_count,
                recording_tracks.num_tracks,
                recording_tracks.min_position
            FROM recording_complete r LEFT OUTER JOIN (
                SELECT
                    ri.id AS id,
                    count(ti.recording) AS num_tracks,
                    min(ti.position) AS min_position
                FROM recording_complete ri
                JOIN track ti ON (ti.recording = ri.id)
                GROUP BY ri.id
            ) recording_tracks USING (id)
            JOIN recording_meta rm USING (id)
        """
    return """
        SELECT * FROM recording_incomplete r
        LEFT OUTER JOIN (
            SELECT
                ri.id AS id,
                count(ti.recording) AS num_tracks,
                min(ti.position) AS min_position
            FROM recording_incomplete ri
            JOIN track ti ON (ti.recording = ri.id)
            GROUP BY ri.id
        ) recording_tracks USING (id)
        JOIN recording_meta rm USING (id)
    """


def skyline_query(num_dimensions: int, complete: bool = True) -> str:
    """The integrated complex skyline query (Listing 14 style)."""
    dims = MUSICBRAINZ_SKYLINE_DIMENSIONS[:num_dimensions]
    dims_sql = ", ".join(f"{name} {kind.upper()}" for name, kind in dims)
    keyword = "COMPLETE " if complete else ""
    return (f"SELECT * FROM ({base_query(complete)}) "
            f"SKYLINE OF {keyword}{dims_sql}")


def reference_query(num_dimensions: int, complete: bool = True) -> str:
    """The plain-SQL rewrite of the complex skyline (Listing 13 style)."""
    dims = MUSICBRAINZ_SKYLINE_DIMENSIONS[:num_dimensions]
    weak: list[str] = []
    strict: list[str] = []
    for name, kind in dims:
        if kind == "min":
            weak.append(f"i.{name} <= o.{name}")
            strict.append(f"i.{name} < o.{name}")
        else:
            weak.append(f"i.{name} >= o.{name}")
            strict.append(f"i.{name} > o.{name}")
    inner = base_query(complete)
    return (
        f"SELECT * FROM (SELECT * FROM ({inner})) AS o WHERE NOT EXISTS("
        f"SELECT * FROM (SELECT * FROM ({inner})) AS i WHERE "
        + " AND ".join(weak)
        + " AND (" + " OR ".join(strict) + "))")


@dataclass
class MusicBrainzWorkload:
    """Harness adapter: same surface as :class:`Workload` for complex
    queries (the x-axis "number of input tuples" is the recording count,
    Section E.1)."""

    num_recordings: int
    seed: int = 23
    incomplete: bool = False

    @property
    def table_name(self) -> str:
        return "musicbrainz_incomplete" if self.incomplete else "musicbrainz"

    @property
    def num_rows(self) -> int:
        return self.num_recordings

    @property
    def skyline_dimensions(self) -> list[tuple[str, str]]:
        return list(MUSICBRAINZ_SKYLINE_DIMENSIONS)

    def register(self, session) -> None:
        register_musicbrainz(session, self.num_recordings, self.seed)

    def skyline_sql(self, num_dimensions: int,
                    complete_keyword: bool = False) -> str:
        return skyline_query(num_dimensions,
                             complete=not self.incomplete)

    def reference_sql(self, num_dimensions: int) -> str:
        return reference_query(num_dimensions,
                               complete=not self.incomplete)


# Convenience alias used by benchmarks.
def musicbrainz_workload(num_recordings: int, seed: int = 23,
                         incomplete: bool = False) -> MusicBrainzWorkload:
    return MusicBrainzWorkload(num_recordings, seed, incomplete)
