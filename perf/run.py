#!/usr/bin/env python3
"""The repo's end-to-end benchmark: five named workloads, checked answers,
gated query metrics and a traced layer-by-layer profile.

    python3 perf/run.py --workload W --seed N --seconds T --trace 0|1
        one workload, one run; the last stdout line is the result JSON
        (end-to-end metrics untraced, per-layer metrics traced)
    python3 perf/run.py [--seed N] [--seconds T] [--out DIR]
        all five workloads, untraced then traced; with --out writes
        DIR/baseline.json (the full report) and DIR/trace.json
    python3 perf/run.py --compare A.json B.json
    python3 perf/run.py --selftest

A run is ROUNDS rounds; each round is a fresh subprocess (own RSS, pool,
shm segments and lazy state) that sets the workload up and then executes
timed operations for seconds/ROUNDS.  A timing's value for the run is
the median over rounds of the per-round median.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = 3
#: Stage-class and planning times that partition a traced query; the
#: report names the three largest per workload.
TIME_SINKS = (
    "sql.parse_s", "plan.analyze_s", "plan.optimize_s", "plan.physical_s",
    "engine.scan_s", "engine.filter_project_s", "engine.join_agg_s",
    "engine.pipeline_wave_s", "engine.driver_s",
    "core.local_skyline_s", "core.global_skyline_s")


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _percentile(values: list, fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def _spread(values: list) -> float:
    """(max - min) / median of a run's per-round values."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


# -- one run of one workload -------------------------------------------------


def _oracle(inputs) -> str:
    """Digest of the statement's answer on the reference configuration:
    scalar kernels, row plane, one process, staged, flat merge."""
    import repro
    from workloads import rows_digest
    session = repro.connect(vectorized=False, columnar=False,
                            backend="local", execution="staged",
                            global_merge="flat")
    try:
        inputs.register(session)
        return rows_digest(session.sql(inputs.sql).run().as_tuples())
    finally:
        session.close()


def _launch_round(spec: dict, index: int) -> "dict | None":
    """Run one round in a fresh interpreter whose temp dir is a private
    directory inside the checkout; ``None`` if the round crashed."""
    tmp = ROOT / ".perf_tmp" / f"{os.getpid()}-{index}"
    tmp.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child",
             json.dumps(spec)],
            stdout=subprocess.PIPE, text=True, check=False,
            env={**os.environ, "TMPDIR": str(tmp)},
            timeout=spec["seconds"] + 150)
    except subprocess.TimeoutExpired:
        print(f"round {index} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run's rounds are still using it
            pass
    if proc.returncode != 0:
        print(f"round {index} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 rounds: int = ROUNDS, scale: float = 1.0,
                 ops: "int | None" = None, clients: int = 2) -> dict:
    """One run: generate, answer on the reference, launch the rounds,
    aggregate.  Returns the workload's record for the report."""
    from workloads import (DEFAULT_SEED, PINNED_INPUT_DIGESTS, generate,
                           input_digest)
    start = time.perf_counter()
    inputs = generate(name, seed, scale)
    generate_s = time.perf_counter() - start
    digest = input_digest(inputs)
    if seed == DEFAULT_SEED and scale == 1.0 \
            and digest != PINNED_INPUT_DIGESTS[name]:
        sys.exit(f"{name}: generated inputs no longer match the pinned "
                 f"digest (got {digest}); a generator changed")
    start = time.perf_counter()
    result_digest = None if name == "serve_mixed" else _oracle(inputs)
    oracle_s = time.perf_counter() - start
    del inputs

    spec = {"workload": name, "seed": seed, "scale": scale,
            "seconds": seconds / rounds, "ops": ops, "trace": trace,
            "clients": clients, "result_digest": result_digest}
    launched = [_launch_round(spec, index) for index in range(rounds)]
    done = [r for r in launched if r is not None]
    if not done:
        sys.exit(f"{name}: every round crashed")

    attempted = failed = rounds - len(done)  # a crashed round: one failure
    for record in done:
        attempted += record["attempted"]
        # A launch that leaks fails as a whole.
        failed += record["attempted"] if record["leaks"] \
            else record["failed"]
        for leak in record["leaks"]:
            print(f"{name}: leaked {leak}", file=sys.stderr)

    def per_round(getter) -> list:
        return [getter(record) for record in done]

    end_to_end = {
        "query_s.p50": per_round(
            lambda r: statistics.median(r["query_s"])),
        "qps": per_round(lambda r: r["ops"] / r["busy_s"]),
        "setup_s": per_round(lambda r: r["setup_s"]),
        "peak_rss_mb": per_round(lambda r: r["peak_rss_mb"]),
    }
    record = {
        "input_digest": digest, "result_digest": result_digest,
        "attempted": attempted, "failed": failed,
        "rounds": len(done), "ops": sum(r["ops"] for r in done),
        "end_to_end": {
            key: {"value": statistics.median(values), "rounds": values,
                  "spread": _spread(values)}
            for key, values in end_to_end.items()},
    }
    if not trace:
        return record

    layers: dict[str, list] = {}
    for r in done:
        values = {key: r[key] for key in r
                  if key.startswith(("api.", "stats.", "bench."))}
        values.update(r.get("serve", {}))
        values["engine.shm_leaked_segments"] = sum(
            leak.startswith("shm:") for leak in r["leaks"])
        for key in r["layers"][0] if r["layers"] else ():
            values[key] = statistics.median(
                sample[key] for sample in r["layers"])
        if r["traced_query_s"]:
            values["bench.trace_overhead_frac"] = \
                statistics.median(r["traced_query_s"]) \
                / statistics.median(r["query_s"]) - 1.0
        values["api.query_wall_s.p50"] = \
            statistics.median(r["query_wall_s"])
        for key, value in values.items():
            layers.setdefault(key, []).append(value)
    pooled = [s for r in done for s in r["query_s"] + r["traced_query_s"]]
    per_layer = {key: {"value": statistics.median(values),
                       "rounds": values}
                 for key, values in layers.items()}
    if "bench.oracle_s" not in per_layer:
        per_layer["bench.oracle_s"] = {"value": oracle_s}
    per_layer["bench.generate_s"] = {"value": generate_s}
    per_layer["bench.round_spread"] = {
        "value": record["end_to_end"]["query_s.p50"]["spread"]}
    for label, fraction in (("p75", .75), ("p95", .95), ("p99", .99)):
        per_layer[f"api.query_s.{label}"] = {
            "value": _percentile(pooled, fraction)}
    per_layer["api.query_samples"] = {"value": len(pooled)}
    record["per_layer"] = per_layer
    traced = per_layer.get("query_s", {}).get("value")
    if traced:
        shares = sorted(((per_layer[key]["value"] / traced, key)
                         for key in TIME_SINKS if key in per_layer),
                        reverse=True)
        record["top_time_sinks"] = [
            {"metric": key, "share_of_traced_query": share}
            for share, key in shares[:3]]
        record["span_coverage"] = sum(
            per_layer[key]["value"] for key in
            ("sql.parse_s", "plan.prepare_s", "engine.execute_s")) / traced
    record["spans"] = [r["spans"] for r in done]
    return record


def _emit(spec: dict, name: str, record: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the result
    object the driver reads (exactly the metrics BENCHMARK.json lists
    for this mode)."""
    group = "per_layer" if trace else "end_to_end"
    measured = record[group]
    metrics = {}
    print(f"== {name} ({'traced' if trace else 'untraced'}): "
          f"{record['ops']} timed operations in {record['rounds']} "
          f"rounds, {record['failed']}/{record['attempted']} failed")
    for metric in spec[group]:
        # A layer the workload never enters measures nothing: 0.
        entry = measured.get(metric["name"], {"value": 0})
        metrics[metric["name"]] = {"value": entry["value"],
                                   "unit": metric["unit"]}
        rounds = "  rounds " + " ".join(
            f"{v:.6g}" for v in entry["rounds"]) \
            if "rounds" in entry else ""
        print(f"{metric['name']:<36} {entry['value']:>14.6g} "
              f"{metric['unit']:<6}{rounds}")
    for sink in record.get("top_time_sinks", ()):
        print(f"time sink: {sink['metric']} "
              f"{sink['share_of_traced_query']:.1%} of the traced query")
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


# -- the full report ---------------------------------------------------------


def _manifest(seed: int, seconds: float) -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "git_commit": commit, "seed": seed, "seconds": seconds,
            "rounds": ROUNDS}


def _chrome_trace(all_spans: dict) -> dict:
    """Spans as Chrome trace events: one process per workload, one
    thread per round, times relative to the round's first span."""
    events = []
    for pid, (name, rounds) in enumerate(all_spans.items()):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": name}})
        for tid, spans in enumerate(rounds):
            origin = min((s["start"] for s in spans), default=0.0)
            for span in spans:
                args = {k: v for k, v in span.items()
                        if k not in ("name", "start", "end")}
                events.append({
                    "name": span["name"], "ph": "X", "pid": pid,
                    "tid": tid, "ts": (span["start"] - origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def run_all(spec: dict, seed: int, seconds: float,
            out: "Path | None") -> int:
    report = {"manifest": _manifest(seed, seconds), "workloads": {}}
    all_spans = {}
    failed = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        untraced = run_workload(name, seed, seconds, False)
        _emit(spec, name, untraced, False)
        traced = run_workload(name, seed, seconds, True)
        _emit(spec, name, traced, True)
        all_spans[name] = traced.pop("spans")
        untraced["per_layer"] = traced["per_layer"]
        untraced["traced"] = {
            key: traced[key] for key in
            ("attempted", "failed", "top_time_sinks", "span_coverage")
            if key in traced}
        report["workloads"][name] = untraced
        failed += untraced["failed"] + traced["failed"]
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "baseline.json", "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        with open(out / "trace.json", "w") as handle:
            json.dump(_chrome_trace(all_spans), handle)
        print(f"wrote {out / 'baseline.json'} and {out / 'trace.json'}")
    return 1 if failed else 0


# -- compare -----------------------------------------------------------------


def compare(spec: dict, path_a: str, path_b: str) -> int:
    """Apply each end-to-end metric's bound per (metric, workload)."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    status = 0
    print(f"{'workload':<30} {'metric':<13} {'A':>11} {'B':>11} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a or name not in b:
            continue
        for metric in spec["end_to_end"]:
            ma = a[name]["end_to_end"][metric["name"]]
            mb = b[name]["end_to_end"][metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (mb["value"] - ma["value"]) / ma["value"]
            overlap = min(ma["rounds"]) <= max(mb["rounds"]) and \
                min(mb["rounds"]) <= max(ma["rounds"])
            noisy = max(ma["spread"], mb["spread"]) > metric["bound"]
            if abs(worse) <= metric["bound"]:
                verdict = "unchanged"
            elif noisy and overlap:
                verdict = "unresolved"
            elif worse > 0:
                verdict = "regressed"
                status = 1
            else:
                verdict = "improved"
            print(f"{name:<30} {metric['name']:<13} "
                  f"{ma['value']:>11.5g} {mb['value']:>11.5g} "
                  f"{worse:>+9.1%} {metric['bound']:>6.2f}  {verdict}")
        frac_a = a[name]["failed"] / a[name]["attempted"]
        frac_b = b[name]["failed"] / b[name]["attempted"]
        if frac_b > frac_a:
            print(f"{name:<30} failed_frac rose {frac_a:.4f} -> "
                  f"{frac_b:.4f}  regressed")
            status = 1
    return status


# -- self-test ---------------------------------------------------------------

#: Counters that must repeat exactly between two runs of one seed.
EXACT_COUNTERS = (
    "core.dominance_comparisons", "engine.tasks", "core.skyline_rows",
    "serve.result_cache_refilter_hits", "serve.result_cache_invalidations")


def selftest(spec: dict) -> int:
    """Tiny inputs, 2 rounds, fixed operation counts: every metric
    BENCHMARK.json names is emitted on every workload, names are well
    formed, exact counters repeat, and another seed changes the inputs."""
    from workloads import generate, input_digest
    problems = []
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            if not name_ok.match(entry["name"]):
                problems.append(f"bad name {entry['name']!r}")
    small = {"rounds": 2, "scale": 0.05, "ops": 4, "clients": 1}
    for workload in spec["workloads"]:
        name = workload["name"]
        untraced = run_workload(name, 7, 1.0, False, **small)
        first = run_workload(name, 7, 1.0, True, **small)
        again = run_workload(name, 7, 1.0, True, **small)
        # Only what the workload's layers measure can be missing: serve
        # metrics off the serving workload, engine/core/plan/sql on it
        # only when no traced query ran.
        for metric in spec["end_to_end"]:
            if metric["name"] not in untraced["end_to_end"]:
                problems.append(f"{name}: no {metric['name']}")
        serving = name == "serve_mixed"
        for metric in spec["per_layer"]:
            if metric["name"].startswith("serve.") and not serving:
                continue
            if metric["name"] not in first["per_layer"]:
                problems.append(f"{name}: no {metric['name']}")
        for run in (untraced, first, again):
            if run["failed"]:
                problems.append(f"{name}: {run['failed']} failed")
        for counter in EXACT_COUNTERS:
            one = first["per_layer"].get(counter, {}).get("value")
            two = again["per_layer"].get(counter, {}).get("value")
            if one != two:
                problems.append(
                    f"{name}: {counter} differs between two runs of one "
                    f"seed: {one} vs {two}")
        if first["input_digest"] != again["input_digest"] or \
                first["input_digest"] == input_digest(
                    generate(name, 8, small["scale"])):
            problems.append(f"{name}: input_digest does not follow seed")
        print(f"selftest {name}: ok" if not problems
              else f"selftest {name}: {len(problems)} problem(s) so far")
    for problem in problems:
        print("selftest:", problem, file=sys.stderr)
    return 1 if problems else 0


# -- command line ------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="with no --workload: directory for "
                             "baseline.json and trace.json (nothing is "
                             "written without it)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = _load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit("perf/run.py must run from a checkout of the repository: "
                 f"{ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        from rounds import run_round
        print(json.dumps(run_round(json.loads(args.child))))
        return 0
    if args.selftest:
        return selftest(spec)

    from workloads import DEFAULT_SEED
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload is None:
        return run_all(spec, seed, seconds, args.out)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    record = run_workload(args.workload, seed, seconds, bool(args.trace))
    print(json.dumps(_emit(spec, args.workload, record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
