"""Benchmark harness regenerating the paper's tables and figures."""

from .harness import (ALGORITHMS_COMPLETE, ALGORITHMS_INCOMPLETE, RunResult,
                      dimensions_sweep, executors_sweep, run_query,
                      tuples_sweep)
from .reporting import (format_memory_table, format_percent_table,
                        format_time_table, render_sweep)

__all__ = [
    "ALGORITHMS_COMPLETE",
    "ALGORITHMS_INCOMPLETE",
    "RunResult",
    "dimensions_sweep",
    "executors_sweep",
    "format_memory_table",
    "format_percent_table",
    "format_time_table",
    "render_sweep",
    "run_query",
    "tuples_sweep",
]
