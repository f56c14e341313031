"""Streaming skyline maintenance -- the incremental-dominance kernel.

Section 7 of the paper names "integration into different Spark modules
such as structured streaming" as desirable future work.  This module
provides that capability for the reproduction: a continuously maintained
skyline over an append-only stream of rows, exposed both as a low-level
accumulator (:class:`SkylineStream`) and as a micro-batch pipe
(:meth:`SkylineStream.process_batch`) in the spirit of structured
streaming's incremental queries.

This is the public incremental API; the query engine does not import
it.  A running window survives process boundaries through
:meth:`checkpoint` / :meth:`restore`.  The ``dominance`` parameter lets
a caller stream incomplete data where that is sound: within one
null-bitmap partition the restricted dominance test
(:func:`repro.core.dominance.dominates_incomplete`) *is* transitive, so
null rows can pass through the window directly instead of being
buffered.

Default semantics are complete-data only: with nulls, general dominance
is not transitive, so dropping dominated tuples online would be
incorrect (Appendix A); ``SkylineStream`` therefore rejects rows with
nulls in skyline dimensions unless ``allow_nulls`` explicitly opts into
buffering them (kept aside, skyline recomputed with the flag-based
algorithm on demand -- correct, but with the cost profile Section 5.7
describes) or an explicit ``dominance`` test takes responsibility for
them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .core.bnl import bnl_step
from .core.dominance import BoundDimension, dominates, has_null_dimension
from .core.incomplete import flagged_global_skyline
from .errors import ExecutionError

#: Checkpoint format version.  Version 2 added the ``distinct`` /
#: ``allow_nulls`` mode flags (restores of version-1 states used to
#: silently fall back to the defaults, losing the null-buffer window
#: semantics across a round trip).
CHECKPOINT_VERSION = 2


class SkylineStream:
    """Continuously maintained skyline over an append-only row stream.

    Each :meth:`add` folds one row into the window in O(window) time
    with the BNL window step (:func:`repro.core.bnl.bnl_step`);
    :meth:`current` returns the skyline of everything seen so far.
    ``distinct`` applies ``SKYLINE OF DISTINCT`` semantics.

    ``dominance`` swaps the dominance test (default
    :func:`repro.core.dominance.dominates`).  An explicit test also
    disables the null check/buffering: the caller asserts the test is
    transitive on its input -- e.g. ``dominates_incomplete`` over rows
    sharing one null bitmap -- so null rows flow through the window like
    any other row.
    """

    def __init__(self, dims: Sequence[BoundDimension],
                 distinct: bool = False,
                 allow_nulls: bool = False,
                 dominance: Callable[..., bool] | None = None) -> None:
        if not dims:
            raise ExecutionError("streaming skyline needs dimensions")
        self.dims = list(dims)
        self.distinct = distinct
        self.allow_nulls = allow_nulls
        self._dominates = dominance if dominance is not None else dominates
        self._custom_dominance = dominance is not None
        self._window: list[Sequence] = []
        self._null_buffer: list[Sequence] = []
        self.rows_seen = 0
        self.rows_dropped = 0
        #: Directed dominance tests evaluated so far (both directions
        #: count, as in every :class:`~repro.core.DominanceStats`).
        self.comparisons = 0
        #: High-water mark of the window size (plus buffered nulls).
        self.window_peak = 0

    def add(self, row: Sequence) -> bool:
        """Fold one row in; returns True if it (currently) survives."""
        self.rows_seen += 1
        if not self._custom_dominance and \
                has_null_dimension(row, self.dims):
            if not self.allow_nulls:
                raise ExecutionError(
                    "null in a skyline dimension of a streaming row; "
                    "construct the stream with allow_nulls=True to "
                    "buffer incomplete rows")
            self._null_buffer.append(row)
            self._note_peak()
            return True
        window, dominated, tests = bnl_step(
            self._window, row, self.dims, self.distinct, self._dominates)
        self.comparisons += tests
        # The members ``row`` evicted, plus ``row`` itself if dominated.
        self.rows_dropped += len(self._window) + 1 - len(window)
        self._window = window
        if dominated:
            return False
        self._note_peak()
        return True

    def _note_peak(self) -> None:
        size = len(self._window) + len(self._null_buffer)
        if size > self.window_peak:
            self.window_peak = size

    def add_all(self, rows: Iterable[Sequence]) -> None:
        for row in rows:
            self.add(row)

    def process_batch(self, rows: Iterable[Sequence]) -> dict:
        """Micro-batch step: fold a batch and report the delta.

        Returns ``{"added": [...], "evicted": [...], "skyline_size": n}``
        -- the rows newly in the skyline, the previously-reported rows
        that the batch displaced, and the current size.  This mirrors
        the update-mode outputs of structured streaming sinks.
        """
        before = {id(r): r for r in self._window}
        for row in rows:
            self.add(row)
        after_ids = {id(r) for r in self._window}
        added = [r for r in self._window if id(r) not in before]
        evicted = [r for key, r in before.items() if key not in after_ids]
        return {
            "added": added,
            "evicted": evicted,
            "skyline_size": len(self.current()),
        }

    def current(self) -> list[Sequence]:
        """The skyline of all rows seen so far."""
        if not self._null_buffer:
            return list(self._window)
        # Incomplete rows buffered: fall back to the correct flag-based
        # computation over window + buffer (Section 5.7 semantics).
        return flagged_global_skyline(
            list(self._window) + list(self._null_buffer), self.dims,
            distinct=self.distinct)

    @property
    def window_size(self) -> int:
        return len(self._window)

    def checkpoint(self) -> dict:
        """Serializable state for restart (structured-streaming style).

        Carries the mode flags (``distinct``, ``allow_nulls``) alongside
        the window so a round trip preserves the stream's semantics:
        restoring a null-buffering stream without them used to silently
        produce a stream that *rejects* the very nulls its buffer holds.
        """
        return {
            "version": CHECKPOINT_VERSION,
            "window": [tuple(r) for r in self._window],
            "null_buffer": [tuple(r) for r in self._null_buffer],
            "rows_seen": self.rows_seen,
            "rows_dropped": self.rows_dropped,
            "distinct": self.distinct,
            "allow_nulls": self.allow_nulls,
        }

    @classmethod
    def restore(cls, dims: Sequence[BoundDimension], state: dict,
                distinct: bool | None = None,
                allow_nulls: bool | None = None,
                dominance: Callable[..., bool] | None = None
                ) -> "SkylineStream":
        """Rebuild a stream from :meth:`checkpoint` output.

        Mode flags default to the values recorded in the checkpoint
        (version-1 states without them restore as ``False``, matching
        their original construction defaults); passing ``distinct=`` /
        ``allow_nulls=`` explicitly overrides the recorded value.
        """
        if distinct is None:
            distinct = bool(state.get("distinct", False))
        if allow_nulls is None:
            allow_nulls = bool(state.get("allow_nulls", False))
        stream = cls(dims, distinct=distinct, allow_nulls=allow_nulls,
                     dominance=dominance)
        stream._window = [tuple(r) for r in state["window"]]
        stream._null_buffer = [tuple(r) for r in state["null_buffer"]]
        stream.rows_seen = state["rows_seen"]
        stream.rows_dropped = state["rows_dropped"]
        stream._note_peak()
        return stream
