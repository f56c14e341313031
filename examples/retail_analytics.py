"""Retail decision support on the (synthetic) DSB store_sales data.

Finds Pareto-optimal sales transactions -- large quantities at low
wholesale/list/sales prices with big discounts -- and demonstrates the
optimizer at work:

* the single-dimension skyline rewrite (Section 5.4): ``SKYLINE OF
  ss_quantity MAX`` runs as a scalar-subquery filter, not a skyline;
* algorithm forcing for benchmarking (Section 6.3);
* comparing the integrated operator against the plain-SQL rewrite.

Run with::

    python examples/retail_analytics.py
"""

import time

from repro import connect
from repro.datasets import store_sales_workload


def main() -> None:
    session = connect(num_executors=4)
    workload = store_sales_workload(4000, seed=11)
    workload.register(session)
    print(f"store_sales rows: {workload.num_rows}")

    # Single-dimension skyline: the optimizer turns it into an O(n)
    # optimum computation -- look for Filter + scalar subquery (and no
    # Skyline node) in the optimized plan.
    print("\nOptimized plan of a single-dimension skyline:")
    session.sql("SELECT ss_ticket_number FROM store_sales "
                "SKYLINE OF ss_quantity MAX").explain()

    # The full six-dimension skyline of Table 2.
    sql = workload.skyline_sql(6)
    result = session.sql(sql).run()
    print(f"\n6-dimensional skyline: {len(result.rows)} transactions, "
          f"{result.context.dominance_comparisons} dominance checks, "
          f"simulated time {result.simulated_time_s * 1000:.1f} ms")

    # Compare all four evaluated strategies (Section 6.3).
    print("\nStrategy comparison (same result, different cost):")
    strategies = ("distributed-complete", "non-distributed-complete",
                  "distributed-incomplete")
    for strategy in strategies:
        forced = session.with_options(skyline_algorithm=strategy)
        start = time.perf_counter()
        run = forced.sql(sql).run()
        wall = time.perf_counter() - start
        print(f"  {strategy:26s} simulated {run.simulated_time_s:7.3f} s"
              f"  (wall {wall:5.2f} s, {len(run.rows)} rows)")
    start = time.perf_counter()
    reference = session.sql(workload.reference_sql(6)).run()
    wall = time.perf_counter() - start
    print(f"  {'reference (plain SQL)':26s} simulated "
          f"{reference.simulated_time_s:7.3f} s  (wall {wall:5.2f} s, "
          f"{len(reference.rows)} rows)")

    assert sorted(result.as_tuples()) == sorted(reference.as_tuples())
    print("\nIntegrated skyline and plain-SQL rewrite agree; the "
          "integrated version is the clear winner (cf. Figure 5).")


if __name__ == "__main__":
    main()
