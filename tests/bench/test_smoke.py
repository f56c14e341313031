"""Smoke bench mode, the bench CLI and the backend comparison table."""

import json

from repro.bench import backends_sweep, format_backend_table
from repro.bench.smoke import main, run_smoke
from repro.core.algorithms import Algorithm
from repro.datasets import store_sales_workload


class TestRunSmoke:
    def test_report_is_json_serialisable(self):
        report = run_smoke(num_rows=80, num_workers=2)
        encoded = json.loads(json.dumps(report))
        assert encoded["kind"] == "smoke"
        # two workloads x two backends
        assert len(encoded["runs"]) == 4
        assert {run["backend"] for run in encoded["runs"]} == \
            {"local", "process"}
        assert all(run["result_rows"] > 0 for run in encoded["runs"])
        # Every backend run reports when its first skyline stage landed.
        assert all(0.0 <= run["time_to_first_batch_s"]
                   <= run["wall_time_s"] + 1.0 for run in encoded["runs"])

    def test_backends_agree_per_workload(self):
        report = run_smoke(num_rows=60, num_workers=2)
        by_dataset = {}
        for run in report["runs"]:
            by_dataset.setdefault(run["num_tuples"], set()).add(
                run["result_rows"])
        assert all(len(sizes) == 1 for sizes in by_dataset.values())


class TestCli:
    def test_smoke_flag_writes_report(self, tmp_path):
        out = tmp_path / "BENCH_smoke.json"
        status = main(["--smoke", "--rows", "60", "--workers", "2",
                       "--out", str(out)])
        assert status == 0
        report = json.loads(out.read_text())
        assert report["num_rows"] == 60

    def test_requires_a_mode(self, capsys):
        import pytest
        with pytest.raises(SystemExit):
            main([])


class TestBackendTable:
    def test_real_vs_simulated_side_by_side(self):
        workload = store_sales_workload(120)
        results = backends_sweep(workload, Algorithm.DISTRIBUTED_COMPLETE,
                                 num_dimensions=2, num_executors=2,
                                 num_workers=2)
        assert set(results) == {"local", "process"}
        text = format_backend_table("Backends", results)
        assert "real [s]" in text and "simulated [s]" in text
        assert "process" in text and "1.00x" in text

