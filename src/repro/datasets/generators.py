"""Classic synthetic skyline workload distributions.

The skyline literature (starting with Börzsönyi et al. [5]) evaluates on
three canonical distributions; they are used here by the ablation
benchmarks and the property-based tests:

* *independent*      -- dimensions drawn independently and uniformly;
* *correlated*       -- good values cluster together (small skylines);
* *anti-correlated*  -- good values trade off (large skylines; the hard
  case for window-based algorithms).
"""

from __future__ import annotations

import random


def independent_rows(n: int, dimensions: int, seed: int = 0,
                     null_probability: float = 0.0) -> list[tuple]:
    """Uniform, independent values in [0, 1) per dimension."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = tuple(
            None if null_probability and rng.random() < null_probability
            else rng.random()
            for _ in range(dimensions))
        rows.append(row)
    return rows


def correlated_rows(n: int, dimensions: int, seed: int = 0,
                    spread: float = 0.15) -> list[tuple]:
    """Values correlated along the diagonal: one latent quality factor.

    Each row draws a base quality ``q`` and per-dimension jitter; rows
    with a good ``q`` are good everywhere, so skylines stay tiny.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        base = rng.random()
        row = tuple(
            min(1.0, max(0.0, base + rng.uniform(-spread, spread)))
            for _ in range(dimensions))
        rows.append(row)
    return rows


def anticorrelated_rows(n: int, dimensions: int, seed: int = 0,
                        spread: float = 0.1) -> list[tuple]:
    """Values on an anti-diagonal band: being good in one dimension costs
    in the others, producing large skylines."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        # Sample a point near the hyperplane sum(x) = dimensions / 2.
        raw = [rng.random() for _ in range(dimensions)]
        total = sum(raw)
        target = dimensions / 2.0
        scale = target / total if total else 1.0
        row = tuple(
            min(1.0, max(0.0,
                         value * scale + rng.uniform(-spread, spread)))
            for value in raw)
        rows.append(row)
    return rows
