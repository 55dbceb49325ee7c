#!/usr/bin/env python3
"""Cluster smoke test: two `iotsan serve` workers, the `cluster check`
CLI and a coordinator server, driven end to end.

    python3 tests/cluster_smoke_test.py path/to/iotsan

It checks that a 2-worker cluster prints what a single node prints, that
a coordinator's /v1/check completes every unit remotely and reports its
workers in /v1/status and /v1/metrics, that killing a worker in the
middle of a check loses no work, and that the coordinator and the
surviving worker drain cleanly on SIGTERM.  Every server listens on a
port the kernel picks (`serve --port 0`), so the test runs beside others
under `ctest -j`.  Python 3 standard library only.
"""
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from smoke_support import TIMEOUT_S, Server, mask_time


def home(name, pairs, cold):
    """The Table 5 shape: `pairs` copies of the paper's violating
    presence/lock pair plus `cold` independent "It's Too Cold" apps."""
    devices, apps = [], []
    for i in range(pairs):
        devices += [{"id": f"presence{i}", "type": "presenceSensor",
                     "roles": ["presence"]},
                    {"id": f"lock{i}", "type": "smartLock",
                     "roles": ["mainDoorLock"]}]
        apps += [{"app": "Auto Mode Change",
                  "inputs": {"people": [f"presence{i}"],
                             "homeMode": "Home", "awayMode": "Away"}},
                 {"app": "Unlock Door", "inputs": {"lock1": [f"lock{i}"]}}]
    for i in range(cold):
        devices += [{"id": f"temp{i}", "type": "motionTempSensor"},
                    {"id": f"heater{i}", "type": "smartSwitch"}]
        apps.append({"app": "It's Too Cold",
                     "inputs": {"temperatureSensor1": [f"temp{i}"],
                                "temperature1": 40,
                                "switch1": [f"heater{i}"]}})
    return {"name": name, "devices": devices, "apps": apps}


def run(cmd):
    """(exit code, stdout, stderr) of a CLI run; exit 1 = violations."""
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    assert proc.returncode in (0, 1), (cmd, proc.returncode, proc.stderr)
    return proc.returncode, proc.stdout, proc.stderr


def main(iotsan, work):
    small = work / "cluster_home.json"
    big = work / "cluster_big.json"
    # 8 related sets for the equality runs; 16 pairs for the worker kill.
    small.write_text(json.dumps(home("ci cluster home", 1, 6)))
    big.write_text(json.dumps(home("ci big cluster home", 16, 0)))

    servers = []
    try:
        workers = [Server(iotsan, "--jobs", "1") for _ in range(2)]
        servers += workers
        endpoints = ",".join(w.endpoint for w in workers)

        # Equality: the cluster CLI prints what a single node prints once
        # the wall-clock time is scrubbed (verdicts, violation ordering,
        # traces, state counts).
        single_code, single, _ = run([iotsan, "check", str(small)])
        cluster_code, clustered, summary = run(
            [iotsan, "cluster", "check", str(small), "--workers", endpoints])
        assert single_code == cluster_code == 1
        assert mask_time(single) == mask_time(clustered), (single, clustered)
        assert "re-dispatched" in summary, summary

        # Coordinator serve: a healthy fleet completes every unit
        # remotely with zero re-dispatches, and /v1/status grows
        # per-worker rows.
        coord = Server(iotsan, "--coordinator", "--workers", endpoints)
        servers.append(coord)
        request = json.dumps({"schema": "iotsan.request/1",
                              "deployment": json.loads(small.read_text())})
        status, body = coord.call("POST", "/v1/check", request)
        assert status == 200, (status, body)
        result = json.loads(body)
        assert result["verdict"] == "violations" and result["exit_code"] == 1
        cluster = result["cluster"]
        assert cluster["units_redispatched"] == 0, cluster
        assert cluster["units_local"] == 0, cluster
        assert not cluster["degraded_local"], cluster
        assert cluster["units_remote"] == cluster["units_total"] >= 7, cluster
        assert result["text"].splitlines()[-1] == single.splitlines()[-1]
        rows = coord.call_json("GET", "/v1/status")["cluster"]["workers"]
        assert len(rows) == 2 and all(r["healthy"] for r in rows), rows
        assert sum(r["units_done"] for r in rows) == cluster["units_total"]
        counters = coord.call_json("GET", "/v1/metrics")["counters"]["cluster"]
        assert counters["units_redispatched"] == 0, counters
        assert counters["units_completed"] >= cluster["units_total"]

        # Kill one worker mid-check: its units re-dispatch to the
        # survivor and the verdicts still match a single-node run.  Four
        # events make the check long enough to catch a batch in flight.
        _, big_single, _ = run([iotsan, "check", str(big), "--events", "4"])
        check = subprocess.Popen(
            [iotsan, "cluster", "check", str(big), "--events", "4",
             "--workers", endpoints],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        victim = workers[1]
        deadline = time.monotonic() + TIMEOUT_S
        # The poll itself is one connection; a second one is a batch.
        while victim.call_json("GET", "/v1/health")["active_connections"] < 2:
            assert time.monotonic() < deadline, "no batch reached the worker"
            assert check.poll() is None, "the check ended before the kill"
            time.sleep(0.005)
        victim.kill()
        big_clustered, big_summary = check.communicate(timeout=TIMEOUT_S)
        assert check.returncode == 1, (check.returncode, big_summary)
        assert mask_time(big_single) == mask_time(big_clustered)
        print(big_summary, end="")

        # Clean SIGTERM drain of the coordinator and surviving worker.
        coord.terminate()
        workers[0].terminate()
    finally:
        for server in servers:
            server.kill()
    print("cluster smoke: ok")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory(prefix="iotsan-cluster-smoke-") as tmp:
        main(sys.argv[1], Path(tmp))
