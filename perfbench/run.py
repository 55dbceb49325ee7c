#!/usr/bin/env python3
"""The iotsan repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the `iotsan` CLI into
.bench_build/ (the first run configures and compiles; later runs are
incremental), generates the workload's inputs from --seed, sets the
workload up nine times (the median is `setup_s`), warms it up, and
measures it in a closed loop for --seconds.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 the program runs with its telemetry on (--trace-out,
--metrics-out, GET /v1/metrics) and the metrics are the per-layer ones;
the benchmark's own spans are written to .bench_build/traces/.

Workloads, metrics and bounds are described in perfbench/README.md.
"""
import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import Inputs  # noqa: E402
from tracing import ProgramTelemetry, Tracer, ratio  # noqa: E402
from workloads import WORKLOADS, BenchError, measure  # noqa: E402

SETUP_REPS = 9
BUILD_TIMEOUT_S = 850


def build(root):
    """Configures (once) and builds the CLI; returns the binary's path."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError("no iotsan source tree in %s" % root)
    out = root / ".bench_build"
    out.mkdir(exist_ok=True)
    log_path = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(root), "-B", str(out), *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "iotsan_cli_tool",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                status = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                status = -1
            if status != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                raise BenchError("build failed: %s" % " ".join(step))
    binary = out / "tools" / "iotsan"
    if not binary.is_file():
        raise BenchError("build produced no %s" % binary)
    return binary


class Run:
    """State shared by one benchmark run's workload and its metrics."""

    def __init__(self, iotsan, work, seed, seconds, trace):
        self.iotsan = str(iotsan)
        self.work = work
        self.seconds = seconds
        self.trace = trace
        self.inputs = Inputs(seed)
        self.tracer = Tracer(trace)
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.program_ops = 0  # operations the program telemetry covers
        self.warmup_seconds = 0.0
        # Program telemetry by process role: "cli", "front", "workers".
        self.telemetry = defaultdict(ProgramTelemetry)
        self._files = itertools.count()

    def path(self, stem, suffix):
        return self.work / ("%s-%d%s" % (stem, next(self._files), suffix))

    def record(self, latency):
        self.attempted += 1
        self.program_ops += 1
        if latency is None:
            self.failed += 1
        else:
            self.latencies.append(latency)


def end_to_end(run, setup_times):
    # The mean, not the median: on a shared host one operation's time is
    # bimodal, and the median of a run flips between the modes as their
    # mix drifts, where the mean follows the mix smoothly.
    return {
        "latency_mean_ms": statistics.mean(run.latencies) * 1000.0,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(run):
    """Per-operation layer costs from the program's own telemetry."""
    every = ProgramTelemetry()
    for part in run.telemetry.values():
        every.merge(part)
    front = run.telemetry["front"]
    workers = run.telemetry["workers"]
    ops = run.program_ops
    states = every.metric("search_states_explored")
    matched = every.metric("search_states_matched")
    # Client-side time of every covered operation minus the in-program
    # time at its entry point: the CLI's pipeline span, or the front
    # server's request handling.
    client_ms = (sum(run.latencies) + run.warmup_seconds) * 1000.0
    inside_ms = (every.span_ms("pipeline") if run.telemetry["cli"].span_us
                 else front.metric("server_request_duration_us_sum") / 1000.0)
    return {
        "parse_ms": every.span_ms("parse") / ops,
        "type_infer_ms": every.span_ms("type_infer") / ops,
        "dependency_analysis_ms": every.span_ms("dependency_analysis") / ops,
        "model_build_ms": every.span_ms("model_build") / ops,
        "search_ms": every.span_ms("check") / ops,
        "pipeline_ms": every.span_ms("pipeline", "registry_check") / ops,
        "outside_program_ms": (client_ms - inside_ms) / ops,
        "group_check_ms": every.mean_ms("search_group_check_duration_us"),
        "groups_per_op": every.metric("pipeline_checks_run") / ops,
        "states_per_op": states / ops,
        "transitions_per_op": every.metric("search_transitions") / ops,
        "handler_dispatches_per_op": every.metric("search_handler_dispatches") / ops,
        "invariant_evals_per_op": every.metric("search_invariant_evals") / ops,
        "search_states_per_s": ratio(states, every.span_ms("check") / 1000.0),
        "store_new_state_ratio": ratio(states, states + matched),
        "cache_hit_ratio": ratio(every.metric("cache_hits"), every.metric("cache_lookups")),
        "server_request_ms": front.mean_ms("server_request_duration_us"),
        "server_queue_wait_ms": front.mean_ms("server_queue_wait_us"),
        "cluster_dispatch_ms": front.mean_ms("cluster_dispatch_latency_us"),
        "cluster_unit_ms": workers.mean_ms("server_request_duration_us"),
        "cluster_units_per_op": front.metric("cluster_units_dispatched") / ops,
        "cluster_redispatched": front.metric("cluster_units_redispatched"),
        "peak_rss_mb": every.metric("memory_peak_rss_bytes") / 2**20,
    }


def run_workload(run, workload):
    setup_times = []
    for rep in range(SETUP_REPS):
        with run.tracer.span("setup", rep=rep):
            start = time.perf_counter()
            workload.setup(run)
            setup_times.append(time.perf_counter() - start)
        if rep < SETUP_REPS - 1:
            workload.teardown(run)
    try:
        measure(run, workload)
        if run.trace:
            workload.collect(run)
    finally:
        workload.teardown(run)
    return setup_times


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    iotsan = build(root)
    work = root / ".bench_build" / "work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True)
    run = Run(iotsan, work, args.seed, args.seconds, bool(args.trace))
    try:
        setup_times = run_workload(run, WORKLOADS[args.workload]())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not run.latencies:
        raise BenchError("no operation succeeded (%d attempted)" % run.attempted)

    if run.trace:
        values = per_layer(run)
        wanted = declared["per_layer"]
        run.tracer.write(root / ".bench_build" / "traces" /
                         ("%s-seed%d.jsonl" % (args.workload, args.seed)))
    else:
        values = end_to_end(run, setup_times)
        wanted = declared["end_to_end"]
    if sorted(values) != sorted(m["name"] for m in wanted):
        raise BenchError("computed metrics do not match BENCHMARK.json")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        sys.stderr.write("perfbench: %s\n" % error)
        sys.exit(1)
