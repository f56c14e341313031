"""Skylines over complex queries: the MusicBrainz scenario (Appendix E).

The skyline input here is not a base table but a query with an outer
join, a GROUP BY aggregate subquery, and ifnull() projections -- exactly
Listing 11/14 of the paper.  Contrast the concise integrated query with
the unwieldy reference rewrite (Listing 13), then watch the analyzer's
skyline-specific rules (Listings 6/7) handle dimensions that are
aggregates or missing from the projection.

Run with::

    python examples/complex_queries.py
"""

from repro import connect
from repro.datasets.musicbrainz import (musicbrainz_workload,
                                        reference_query, skyline_query)


def main() -> None:
    session = connect(num_executors=4)
    workload = musicbrainz_workload(800)
    workload.register(session)

    integrated_sql = skyline_query(6, complete=True)
    reference_sql = reference_query(6, complete=True)
    print("Integrated query "
          f"({len(integrated_sql.split()) } tokens):\n{integrated_sql}")
    print(f"\nReference rewrite is {len(reference_sql)} characters vs "
          f"{len(integrated_sql)} -- the readability argument of "
          "Appendix E.1 in one number.")

    best = session.sql(integrated_sql).run()
    reference = session.sql(reference_sql).run()
    assert sorted(best.as_tuples()) == sorted(reference.as_tuples())
    print(f"\nBoth return the same {len(best.rows)} recordings; "
          f"integrated simulated time "
          f"{best.simulated_time_s * 1000:.1f} ms vs reference "
          f"{reference.simulated_time_s * 1000:.1f} ms.")

    # Skyline dimensions that are aggregates (Listing 7 machinery):
    # find artists' recordings dominating on track presence.
    print("\nSkyline over aggregates not in the SELECT list:")
    session.sql("""
        SELECT ri.id AS id
        FROM recording_complete ri JOIN track ti
            ON (ti.recording = ri.id)
        GROUP BY ri.id
        SKYLINE OF count(ti.recording) MAX, min(ti.position) MIN
        ORDER BY id LIMIT 10
    """).show()

    # Incomplete variant: SELECT * over the joined pipeline, null-aware.
    incomplete = musicbrainz_workload(800, incomplete=True)
    partial = session.sql(incomplete.skyline_sql(4)).run()
    print(f"\nIncomplete-data complex skyline: {len(partial.rows)} rows "
          f"(bitmap-partitioned local skylines + flag-based global).")


if __name__ == "__main__":
    main()
