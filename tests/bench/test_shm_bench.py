"""Shared-memory transport ablation bench (`repro.bench --shm`)."""

import json

import pytest

from repro.bench.shm import measure_shm_speedup, render_shm_report
from repro.bench.smoke import main
from repro.engine.shm import shared_memory_available

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="shared memory not available on this platform")

SMALL = dict(num_rows=4000, num_executors=4, num_workers=2, repeats=1,
             wide_columns=8)


class TestMeasureShmSpeedup:
    def test_report_shape_and_invariants(self):
        report = measure_shm_speedup(**SMALL)
        encoded = json.loads(json.dumps(report))
        assert encoded["kind"] == "shm"
        assert encoded["bit_identical"] is True
        assert encoded["leaked_segments"] == []
        assert encoded["speedup"] > 0
        assert encoded["pickle_s"] > 0 and encoded["shm_s"] > 0
        assert encoded["skyline_rows"] > 0
        # The shm leg really used the zero-copy path.
        assert encoded["shm_stats"]["handles_served"] > 0
        assert encoded["shm_stats"]["segments_created"] > 0

    def test_render_report(self):
        report = measure_shm_speedup(**SMALL)
        text = render_shm_report(report)
        assert "shared-memory transport ablation" in text
        assert "pickle" in text and "shm" in text
        assert "bit-identical: True" in text


class TestCli:
    def test_shm_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        status = main(["--shm", "--rows", "4000"])
        assert status == 0
        report = json.loads((tmp_path / "BENCH_shm.json").read_text())
        assert report["bit_identical"] is True
        assert report["leaked_segments"] == []
        assert "shared-memory transport ablation" in \
            capsys.readouterr().out

    def test_min_shm_speedup_gate_fails_when_unmet(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        status = main(["--shm", "--rows", "4000",
                       "--min-shm-speedup", "1000000"])
        assert status == 1
        assert "FAIL" in capsys.readouterr().err
