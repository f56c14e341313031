"""Benchmark harness regenerating the paper's tables and figures."""

from .harness import (ALGORITHMS_COMPLETE, ALGORITHMS_INCOMPLETE, RunResult,
                      backends_sweep, dimensions_sweep, executors_sweep,
                      run_query, tuples_sweep)
from .reporting import (format_backend_table, format_memory_table,
                        format_percent_table, format_time_table,
                        render_sweep)
from .smoke import run_smoke

__all__ = [
    "ALGORITHMS_COMPLETE",
    "ALGORITHMS_INCOMPLETE",
    "RunResult",
    "backends_sweep",
    "dimensions_sweep",
    "executors_sweep",
    "format_backend_table",
    "format_memory_table",
    "format_percent_table",
    "format_time_table",
    "render_sweep",
    "run_query",
    "run_smoke",
    "tuples_sweep",
]
