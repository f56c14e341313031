"""Multi-criteria accommodation search on the (synthetic) Airbnb data.

The paper's real-world evaluation scenario (Section 6.2): find the
Pareto-optimal listings over up to six dimensions -- cheapest price,
most capacity, most bedrooms/beds, most reviews, best rating.  This
example demonstrates:

* growing the skyline dimension by dimension (the Figure 3 experiment);
* the COMPLETE keyword and what it buys (Section 5.5);
* incomplete data handled with null-aware semantics (Section 5.7).

Run with::

    python examples/airbnb_search.py
"""

from repro import connect
from repro.datasets import airbnb_workload


def main() -> None:
    session = connect(num_executors=4)

    complete = airbnb_workload(2000, seed=7)
    incomplete = airbnb_workload(2000, seed=7, incomplete=True)
    complete.register(session)
    incomplete.register(session)
    print(f"complete listings:   {complete.num_rows}")
    print(f"incomplete listings: {incomplete.num_rows} "
          f"(nulls allowed in skyline dimensions)")

    # Skyline growth with the dimension count (cf. Figure 3).
    print("\nSkyline size by number of dimensions (complete data):")
    for dims in range(1, 7):
        result = session.sql(complete.skyline_sql(dims)).run()
        names = ", ".join(f"{n} {k.upper()}"
                          for n, k in complete.dimensions(dims))
        print(f"  {dims} dim(s): {len(result.rows):4d} listings "
              f"[{names}]")

    # The best price/capacity trade-offs, nicely formatted.
    print("\nBest price-vs-capacity listings:")
    session.sql(
        "SELECT id, price, accommodates FROM airbnb "
        "SKYLINE OF price MIN, accommodates MAX "
        "ORDER BY price").show()

    # COMPLETE keyword: the data is complete, so allow the faster
    # algorithm even though the planner could not prove it.
    fast = session.sql(
        "SELECT id, price, accommodates, review_scores_rating "
        "FROM airbnb SKYLINE OF COMPLETE "
        "price MIN, accommodates MAX, review_scores_rating MAX").run()
    print(f"\nWith COMPLETE keyword: {len(fast.rows)} rows, "
          f"simulated time {fast.simulated_time_s * 1000:.1f} ms")

    # Incomplete data: null-aware dominance keeps incomparable listings.
    partial = session.sql(
        "SELECT id, price, accommodates, review_scores_rating "
        "FROM airbnb_incomplete SKYLINE OF "
        "price MIN, accommodates MAX, review_scores_rating MAX").run()
    print(f"On incomplete data:    {len(partial.rows)} rows, "
          f"simulated time {partial.simulated_time_s * 1000:.1f} ms "
          f"(null-aware algorithm selected automatically)")


if __name__ == "__main__":
    main()
