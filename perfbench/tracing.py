"""Tracing for a benchmark run.

Two sources feed the per-layer numbers of a traced run (`--trace 1`):

* Tracer: spans the benchmark records around each call into the
  program (one CLI invocation, one HTTP request), kept in memory and
  written out as JSONL when the run ends.
* ProgramTelemetry: the program's own telemetry, summed over every
  process of the run: the `--trace-out` span files (parse, type_infer,
  dependency_analysis, model_build, check, pipeline, ...) and the
  Prometheus text of `--metrics-out` or `GET /v1/metrics`.
"""
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name, parent=0, **attrs):
        if not self.enabled:
            yield 0
            return
        span_id = next(self._ids)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start_ns": start, "dur_ns": time.perf_counter_ns() - start,
                "attrs": attrs})

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class ProgramTelemetry:
    def __init__(self):
        self.span_us = defaultdict(int)
        self.metrics = defaultdict(float)

    def add_spans(self, path):
        if not path.exists():
            return
        with open(path) as spans:
            for line in spans:
                if line.strip():
                    record = json.loads(line)
                    self.span_us[record["name"]] += record["dur_us"]

    def add_prometheus(self, text):
        """Sums unlabelled samples; gauges named *peak* keep the maximum."""
        for line in text.splitlines():
            if not line or line.startswith("#") or "{" in line:
                continue
            name, value = line.split()
            self.add_metric(name, float(value))

    def add_metric(self, name, value):
        if "peak" in name:
            self.metrics[name] = max(self.metrics[name], value)
        else:
            self.metrics[name] += value

    def merge(self, other):
        for name, value in other.span_us.items():
            self.span_us[name] += value
        for name, value in other.metrics.items():
            self.add_metric(name, value)

    def span_ms(self, *names):
        return sum(self.span_us[n] for n in names) / 1000.0

    def metric(self, name):
        return self.metrics["iotsan_" + name]

    def mean_ms(self, histogram):
        """Mean of a microsecond histogram, in milliseconds."""
        count = self.metric(histogram + "_count")
        return self.metric(histogram + "_sum") / count / 1000.0 if count else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
