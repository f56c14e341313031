"""Rendering benchmark grids the way the paper presents them.

Appendix D tabulates every figure twice: absolute execution times and
times relative to the reference query (reference = 100%), with ``t.o.``
for timeouts and ``n.a.`` for columns whose reference timed out.  The
functions here produce exactly those rows from harness results.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.algorithms import Algorithm
from .harness import RunResult


def _format_cell(value: float, timed_out: bool, unit_scale: float = 1.0,
                 decimals: int = 2) -> str:
    if timed_out:
        return "t.o."
    return f"{value * unit_scale:.{decimals}f}"


def _render_rows(title: str, x_label: str, x_values: Sequence,
                 rows: list[tuple[str, list[str]]]) -> str:
    header = [x_label] + [str(x) for x in x_values]
    table = [header] + [[name] + cells for name, cells in rows]
    widths = [max(len(row[i]) for row in table)
              for i in range(len(header))]
    lines = [title]
    for row_index, row in enumerate(table):
        lines.append("  " + " | ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)))
        if row_index == 0:
            lines.append("  " + "-+-".join("-" * w for w in widths))
    return "\n".join(lines)


def format_time_table(title: str, x_label: str, x_values: Sequence,
                      results: Mapping[Algorithm, list[RunResult]]) -> str:
    """Absolute execution times in (simulated) seconds."""
    rows = []
    for algorithm, cells in results.items():
        rows.append((algorithm.value, [
            _format_cell(c.simulated_time_s, c.timed_out, decimals=3)
            for c in cells]))
    return _render_rows(title, x_label, x_values, rows)


def format_memory_table(title: str, x_label: str, x_values: Sequence,
                        results: Mapping[Algorithm, list[RunResult]]
                        ) -> str:
    """Peak memory consumption in MB (Appendix C figures)."""
    rows = []
    for algorithm, cells in results.items():
        rows.append((algorithm.value, [
            _format_cell(c.peak_memory_mb, c.timed_out, decimals=1)
            for c in cells]))
    return _render_rows(title, x_label, x_values, rows)


def format_percent_table(title: str, x_label: str, x_values: Sequence,
                         results: Mapping[Algorithm, list[RunResult]]
                         ) -> str:
    """Times relative to the reference query (Appendix D convention).

    Reference is 100%; a timed-out reference makes the whole column
    ``n.a.`` because no comparison is possible.
    """
    reference = results.get(Algorithm.REFERENCE)
    if reference is None:
        raise ValueError("percent table requires reference results")
    rows = []
    for algorithm, cells in results.items():
        formatted = []
        for cell, ref in zip(cells, reference):
            if ref.timed_out:
                formatted.append("n.a.")
            elif cell.timed_out:
                formatted.append("t.o.")
            else:
                pct = 100.0 * cell.simulated_time_s / ref.simulated_time_s
                formatted.append(f"{pct:.2f}%")
        rows.append((algorithm.value, formatted))
    return _render_rows(title, x_label, x_values, rows)


def render_sweep(title: str, x_label: str, x_values: Sequence,
                 results: Mapping[Algorithm, list[RunResult]],
                 include_memory: bool = False,
                 include_percent: bool = True) -> str:
    """Full paper-style report for one figure: absolute times, relative
    times and optionally memory."""
    parts = [format_time_table(
        f"{title} -- execution time [s]", x_label, x_values, results)]
    if include_percent and Algorithm.REFERENCE in results:
        parts.append(format_percent_table(
            f"{title} -- relative to reference", x_label, x_values,
            results))
    if include_memory:
        parts.append(format_memory_table(
            f"{title} -- peak memory [MB]", x_label, x_values, results))
    return "\n\n".join(parts)
