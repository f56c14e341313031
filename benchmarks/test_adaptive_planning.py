"""Mixed-workload ablation: adaptive planning vs fixed algorithms.

The statistics-driven adaptive planner (Section 7's light-weight
algorithm selection) is run over a mix of workload classes with
opposing needs, against every fixed algorithm, all keeping the scan's
partitioning.  Asserts bounded regret: on every class adaptive is within
``MAX_REGRET`` of the best fixed algorithm for that class, on
interleaved best-of-3 runs.
"""

from helpers import SCALE, record

from repro.bench.adaptive import (MAX_REGRET, render_report,
                                  run_adaptive_bench)


def test_adaptive_regret_is_bounded():
    report = run_adaptive_bench(scale=SCALE)
    text = render_report(report)
    record("ablation_adaptive_planning", text)

    for name, regret in report["regret"].items():
        best = min(report["fixed"], key=lambda label:
                   report["fixed"][label][name])
        assert regret <= MAX_REGRET, (
            f"adaptive ({report['adaptive'][name]:.3f}s) is {regret:.2f}x "
            f"the best fixed algorithm {best} "
            f"({report['fixed'][best][name]:.3f}s) on class {name!r}")
