"""Block-Nested-Loop skyline algorithm (Section 5.6 of the paper).

The algorithm keeps a *window* of tuples holding the skyline of everything
processed so far.  For each incoming tuple ``t``:

* if a window tuple dominates ``t``, drop ``t`` (by transitivity ``t``
  cannot dominate anything in the window);
* otherwise remove every window tuple dominated by ``t`` and insert ``t``.

The same routine serves for both the local skyline (per partition) and
the global skyline (single partition via the ``AllTuples`` distribution);
only the data distribution differs.

Correctness requires transitive dominance, i.e. complete data.  For
incomplete data the window trick is only safe *within* a null-bitmap
partition -- see :mod:`repro.core.incomplete`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .dominance import (BoundDimension, DominanceStats, dominates,
                        equal_on_dimensions)


def bnl_skyline(rows: Iterable[Sequence], dims: Sequence[BoundDimension],
                distinct: bool = False,
                stats: DominanceStats | None = None,
                dominance: Callable = dominates,
                check_deadline: Callable[[], None] | None = None
                ) -> list[Sequence]:
    """Skyline of ``rows`` via Block-Nested-Loop.

    Parameters
    ----------
    rows:
        Input tuples.
    dims:
        Skyline dimensions bound to tuple ordinals.
    distinct:
        If True, implement ``SKYLINE OF DISTINCT``: of several tuples with
        identical values in all skyline dimensions only the first is kept.
    stats:
        Optional counter sink for dominance tests and window peaks.
    dominance:
        The dominance test; must be transitive over the supplied rows
        (the default :func:`dominates` assumes complete data).
    check_deadline:
        Optional callback invoked periodically so callers can abort
        long runs (benchmark timeouts).
    """
    window: list[Sequence] = []
    comparisons = 0
    window_peak = 0
    deadline_tick = 0
    for t in rows:
        if check_deadline is not None:
            deadline_tick += 1
            if deadline_tick % 256 == 0:
                check_deadline()
        window, t_dominated, tests = bnl_step(window, t, dims, distinct,
                                              dominance)
        comparisons += tests
        if not t_dominated and len(window) > window_peak:
            window_peak = len(window)
    if stats is not None:
        stats.comparisons += comparisons
        stats.note_window(window_peak)
    return window


def bnl_step(window: list[Sequence], t: Sequence,
             dims: Sequence[BoundDimension], distinct: bool = False,
             dominance: Callable = dominates
             ) -> tuple[list[Sequence], bool, int]:
    """Fold one tuple ``t`` into a BNL ``window`` -- the one window
    step of :func:`bnl_skyline`, :class:`repro.streaming.SkylineStream`
    and the result cache's insert maintenance.

    Returns ``(window, t_dominated, comparisons)``: a new list of the
    members ``t`` does not dominate, then ``t`` unless a member
    dominates it (or, under ``distinct``, ties it on every dimension);
    whether one did; and the directed dominance tests evaluated.  The
    first member that dominates ``t`` ends the tests, but the members
    ``t`` dominated before it stay evicted: impossible under a
    transitive test, possible with NaN data, and the pinned NaN
    semantics every kernel reproduces.
    """
    t_dominated = False
    survivors: list[Sequence] = []
    comparisons = 0
    for w in window:
        if t_dominated:
            survivors.append(w)
            continue
        comparisons += 1
        if dominance(w, t, dims):
            t_dominated = True
            survivors.append(w)
            continue
        comparisons += 1
        if dominance(t, w, dims):
            # w is dominated by t: drop it.
            continue
        if distinct and equal_on_dimensions(t, w, dims):
            # Same skyline-dimension values: keep the incumbent only.
            t_dominated = True
        survivors.append(w)
    if not t_dominated:
        survivors.append(t)
    return survivors, t_dominated, comparisons
