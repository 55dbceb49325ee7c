"""The benchmark's workloads and the closed loop that measures them.

Every workload sets up what it needs (timed, as `setup_s`), runs one
untimed warm-up operation, then repeats its operation in a closed loop
until the measuring window closes.  Each operation's output is checked against
the verdict its template expects; a wrong verdict, a non-200 response,
an unexpected exit code or a timeout counts the operation as failed.
"""
import http.client
import json
import re
import select
import signal
import subprocess
import time

from inputs import load

VIOLATED = re.compile(r"^violated property (P\d+)", re.M)
RESULT = re.compile(r"^RESULT: ", re.M)
OP_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def verdict_ok(text, expected):
    return RESULT.search(text) is not None and VIOLATED.findall(text) == expected


def check_body(deployment):
    return json.dumps({"schema": "iotsan.request/1", "deployment": deployment})


def check_response(status, data):
    """The decoded body of a 200 /v1/check response, else None."""
    if status != 200:
        return None
    try:
        return json.loads(data)
    except ValueError:
        return None


# ---- Calls into the program -------------------------------------------------


def cli_check(run, deployment, expected, parent):
    """One `iotsan check` process; returns its latency, or None on failure."""
    path = run.path("deployment", ".json")
    path.write_text(json.dumps(deployment))
    cmd = [run.iotsan, "check", str(path)]
    if run.trace:
        metrics = run.path("metrics", ".prom")
        spans = run.path("spans", ".jsonl")
        cmd += ["--metrics-out", str(metrics), "--trace-out", str(spans)]
    with run.tracer.span("iotsan_check", parent, deployment=deployment["name"]):
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        latency = time.perf_counter() - start
    if run.trace:
        if metrics.exists():
            run.telemetry["cli"].add_prometheus(metrics.read_text())
        run.telemetry["cli"].add_spans(spans)
    ok = (proc.returncode == (1 if expected else 0)
          and verdict_ok(proc.stdout, expected))
    return latency if ok else None


class Client:
    """One keep-alive HTTP connection to a local server."""

    def __init__(self, port):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=OP_TIMEOUT_S)

    def call(self, method, path, body=None):
        """(status, body bytes, latency); status 0 on a transport error."""
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
            return response.status, data, time.perf_counter() - start
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=OP_TIMEOUT_S)
            return 0, b"", time.perf_counter() - start

    def close(self):
        self.conn.close()


class Server:
    """An `iotsan serve` process on a kernel-assigned loopback port."""

    def __init__(self, run, role, *flags):
        self.run, self.role = run, role
        cmd = [run.iotsan, "serve", "--port", "0", *flags]
        self.spans = run.path(role + "-spans", ".jsonl")
        if run.trace:
            cmd += ["--trace-out", str(self.spans)]
        self.log = open(run.path(role, ".log"), "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[^:/]+:(\d+)/", line)
        if match is None:
            self.stop()
            raise BenchError("%s server did not start: %r" % (role, line))
        self.port = int(match.group(1))
        client = Client(self.port)
        status, _, _ = client.call("GET", "/v1/health")
        client.close()
        if status != 200:
            self.stop()
            raise BenchError("%s server is not healthy" % role)

    def collect(self):
        """Adds the server's counters and histograms to the run's totals."""
        client = Client(self.port)
        status, data, _ = client.call("GET", "/v1/metrics?format=prometheus")
        client.close()
        if status != 200:
            raise BenchError("%s server metrics unavailable" % self.role)
        self.run.telemetry[self.role].add_prometheus(data.decode())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.log.close()
        if self.run.trace:
            self.run.telemetry[self.role].add_spans(self.spans)


# ---- Workloads ----------------------------------------------------------------


class Workload:
    def setup(self, run):
        """Starts what the operations need; `teardown` undoes it."""

    def teardown(self, run):
        pass

    def collect(self, run):
        """Adds long-running processes' telemetry before they stop."""

    def op(self, run, parent):
        """One operation; returns its latency in seconds, or None."""
        raise NotImplementedError


class MarketCorpus(Workload):
    """One operation checks each of the six 25-app expert groups of the
    market corpus (paper Table 5), in file order, one `iotsan check` each
    on a fresh renaming; its latency is their sum.  It runs parsing, type
    inference, dependency analysis and 221 small related-set searches;
    the searches take nine tenths of the time."""

    def setup(self, run):
        self.templates = load("market_groups.json")
        probe_cli(run)

    def op(self, run, parent):
        total = 0.0
        for template in self.templates:
            deployment, expected = run.inputs.renamed(template)
            latency = cli_check(run, deployment, expected, parent)
            if latency is None:
                return None
            total += latency
        return total


class ClusterCorpus(Workload):
    """A coordinator `iotsan serve --coordinator` over two worker servers.
    One operation checks the six expert groups, freshly renamed, as six
    /v1/check requests: 221 work units, each dispatched to a worker.  Its
    latency is their sum."""

    def setup(self, run):
        self.templates = load("market_groups.json")
        self.servers = []
        try:
            for _ in range(2):
                self.servers.append(Server(run, "workers", "--jobs", "1",
                                           "--http-workers", "2"))
            endpoints = ",".join("127.0.0.1:%d" % s.port for s in self.servers)
            self.servers.append(Server(run, "front", "--jobs", "1",
                                       "--coordinator", "--workers", endpoints))
        except BaseException:
            for server in self.servers:
                server.stop()
            raise
        self.client = Client(self.servers[-1].port)

    def teardown(self, run):
        self.client.close()
        for server in self.servers:
            server.stop()

    def collect(self, run):
        for server in self.servers:
            server.collect()

    def op(self, run, parent):
        total = 0.0
        for template in self.templates:
            deployment, expected = run.inputs.renamed(template)
            with run.tracer.span("post_check", parent):
                status, data, latency = self.client.call(
                    "POST", "/v1/check", check_body(deployment))
            response = check_response(status, data)
            if response is None or not verdict_ok(response.get("text", ""), expected):
                return None
            # A unit run on the coordinator means the workers were bypassed.
            cluster = response.get("cluster", {})
            if cluster.get("units_local", 1) != 0 or cluster.get("degraded_local"):
                return None
            total += latency
        return total


def probe_cli(run):
    """The CLI starts and lists its bundled corpus."""
    proc = subprocess.run([run.iotsan, "apps"], capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)
    if proc.returncode != 0 or "Unlock Door" not in proc.stdout:
        raise BenchError("iotsan apps failed")


WORKLOADS = {
    "market_corpus": MarketCorpus,
    "cluster_corpus": ClusterCorpus,
}


# ---- The measuring loop -------------------------------------------------------


def measure(run, workload):
    """One untimed warm-up operation, then a closed loop until the window
    closes."""
    with run.tracer.span("warmup") as span:
        latency = workload.op(run, span)
    if latency is None:
        raise BenchError("warm-up operation failed")
    run.warmup_seconds += latency
    run.program_ops += 1

    start = time.perf_counter()
    while time.perf_counter() - start < run.seconds:
        with run.tracer.span("op") as span:
            run.record(workload.op(run, span))
