"""Using the skyline algorithm library without the SQL engine.

``repro.core`` runs the paper's algorithms over plain Python tuples,
with the same kernels and strategy table as the SQL engine's skyline
operators; this example exercises it directly:

* dominance testing (Definition 3.1) and the incomplete variant;
* the cyclic-dominance counterexample of Appendix A, showing why the
  algorithm of Gulzar et al. [20] is incorrect and the paper's flagged
  global skyline is not;
* one-call skylines over plain Python tuples.

Run with::

    python examples/algorithm_library.py
"""

from repro.core import (Algorithm, dominates, dominates_incomplete,
                        flagged_global_skyline, gulzar_global_skyline,
                        make_dimensions, skyline)


def main() -> None:
    # Dominance on complete data (price MIN, rating MAX).
    dims = make_dimensions([(0, "min"), (1, "max")])
    cheap_good = (90.0, 4.5)
    pricey_bad = (120.0, 4.0)
    print(f"{cheap_good} dominates {pricey_bad}: "
          f"{dominates(cheap_good, pricey_bad, dims)}")

    # One-call skyline over tuples, any of the four strategies.
    points = [(120.0, 4.5), (90.0, 4.0), (150.0, 3.0), (80.0, 3.5),
              (95.0, 4.8), (200.0, 4.9)]
    for algorithm in Algorithm:
        result = skyline(points, dims, algorithm=algorithm,
                         num_partitions=3)
        print(f"{algorithm.value:26s} -> {sorted(result)}")

    # The Appendix A counterexample: cyclic dominance under nulls.
    dims3 = make_dimensions([(0, "min"), (1, "min"), (2, "min")])
    a, b, c = (1, None, 10), (3, 2, None), (None, 5, 3)
    print("\nCyclic dominance with nulls (Appendix A):")
    print(f"  a<b: {dominates_incomplete(a, b, dims3)}, "
          f"b<c: {dominates_incomplete(b, c, dims3)}, "
          f"c<a: {dominates_incomplete(c, a, dims3)}")
    correct = flagged_global_skyline([a, b, c], dims3)
    buggy = gulzar_global_skyline([[a], [b], [c]], dims3)
    print(f"  correct flagged algorithm: {correct}  (empty skyline)")
    print(f"  Gulzar et al. [20]:        {buggy}  (WRONG: keeps c)")


if __name__ == "__main__":
    main()
