"""Quickstart: the hotel example from the paper's introduction.

Builds the hotels table of Figure 1, runs the extended-syntax skyline
query of Listing 2, the equivalent DataFrame-API query (Section 5.8),
and the plain-SQL rewrite of Listing 1, and shows that all three agree.

Run with::

    python examples/quickstart.py
"""

from repro import DOUBLE, STRING, connect, smax, smin

HOTELS = [
    # (name, price per night, user rating)
    ("Bella Vista", 120.0, 4.5),
    ("Ocean Breeze", 90.0, 4.0),
    ("Grand Palace", 250.0, 4.9),
    ("Budget Inn", 45.0, 2.8),
    ("Cozy Corner", 60.0, 3.9),
    ("Skyline Suites", 180.0, 4.7),
    ("Overpriced Oasis", 200.0, 3.0),
    ("Mediocre Manor", 110.0, 3.5),
]


def main() -> None:
    session = connect(num_executors=4)
    session.create_table(
        "hotels",
        [("name", STRING, False), ("price", DOUBLE, False),
         ("user_rating", DOUBLE, False)],
        HOTELS)

    # --- Listing 2: the extended skyline syntax -------------------------
    print("Skyline query (Listing 2 of the paper):")
    df = session.sql(
        "SELECT name, price, user_rating FROM hotels "
        "SKYLINE OF price MIN, user_rating MAX")
    df.show()

    # --- DataFrame API (Section 5.8) -------------------------------------
    api_result = session.table("hotels").skyline(
        smin("price"), smax("user_rating"))
    print("\nSame skyline via the DataFrame API:")
    api_result.show()

    # --- Listing 1: the plain-SQL rewrite -------------------------------
    reference = session.sql("""
        SELECT name, price, user_rating FROM hotels AS o
        WHERE NOT EXISTS(
            SELECT * FROM hotels AS i WHERE
                i.price <= o.price
                AND i.user_rating >= o.user_rating
                AND (i.price < o.price OR i.user_rating > o.user_rating)
        )
    """)
    assert sorted(df.to_tuples()) == sorted(reference.to_tuples())
    assert sorted(df.to_tuples()) == sorted(api_result.to_tuples())
    print("\nAll three formulations return the same skyline. "
          "Dominated hotels (e.g. 'Overpriced Oasis') were eliminated.")

    # --- Execution backends ----------------------------------------------
    # `num_executors` above drives the *simulated* cluster model; the
    # `backend` setting independently picks how partition tasks really
    # execute: "local" (sequential, default) or "process" (a
    # multiprocessing pool -- the local-skyline phase then runs truly in
    # parallel, isolated from the driver).  Results are identical across
    # backends.
    with connect(num_executors=4, backend="process") as parallel:
        parallel.catalog = session.catalog
        parallel_result = parallel.sql(
            "SELECT name, price, user_rating FROM hotels "
            "SKYLINE OF price MIN, user_rating MAX")
        assert sorted(parallel_result.to_tuples()) == sorted(df.to_tuples())
    print("\nThe 'process' backend returns the same skyline, computed "
          "on a worker pool.")

    # --- Peek under the hood ----------------------------------------------
    print("\nQuery plans of the integrated version:")
    df.explain()


if __name__ == "__main__":
    main()
