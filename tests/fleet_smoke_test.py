#!/usr/bin/env python3
"""Fleet smoke test: a registry-backed `iotsan serve`, the
/v1/deployments surface and the `iotsan fleet` CLI, driven end to end.

    python3 tests/fleet_smoke_test.py path/to/iotsan

A 150-app deployment is stored and checked, then edited in one app input
and checked again.  The test checks that the create answers 201, that the
first check reuses nothing, that the delta searches the one edited
related set and reuses the rest (and `registry.groups_reused` in
/v1/metrics says so), that its verdict, exit code and text (time masked)
equal a /v1/check of the same config, that a check pinned to the
superseded revision answers 409, that `iotsan fleet list` shows the id,
and that after a restart on the same `--registry-dir`, with no
`--cache-dir`, a re-check searches nothing.  Every server drains on
SIGTERM with exit code 0.  The server listens on a port the kernel picks
(`serve --port 0`), so the test runs beside others under `ctest -j`.
Python 3 standard library only.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_support import TIMEOUT_S, Server, mask_time


def deployment(threshold):
    """The paper's violating presence/lock pair plus 148 "It's Too Cold"
    instances on private device pairs, each its own related set, so a
    `threshold` edit on instance 0 changes exactly one set."""
    devices = [{"id": "presence0", "type": "presenceSensor",
                "roles": ["presence"]},
               {"id": "lock0", "type": "smartLock",
                "roles": ["mainDoorLock"]}]
    apps = [{"app": "Auto Mode Change",
             "inputs": {"people": ["presence0"],
                        "homeMode": "Home", "awayMode": "Away"}},
            {"app": "Unlock Door", "inputs": {"lock1": ["lock0"]}}]
    for i in range(148):
        devices += [{"id": f"temp{i}", "type": "motionTempSensor"},
                    {"id": f"heater{i}", "type": "smartSwitch"}]
        apps.append({"app": "It's Too Cold",
                     "inputs": {"temperatureSensor1": [f"temp{i}"],
                                "temperature1": threshold if i == 0 else 40,
                                "switch1": [f"heater{i}"]}})
    return json.dumps({"schema": "iotsan.request/1",
                       "deployment": {"name": "fleet smoke home",
                                      "devices": devices, "apps": apps}})


def main(iotsan, work):
    registry = str(work / "registry")
    check_path = "/v1/deployments/smoke-home/check"
    servers = []
    try:
        server = Server(iotsan, "--jobs", "2", "--registry-dir", registry)
        servers.append(server)
        status, body = server.call("PUT", "/v1/deployments/smoke-home",
                                   deployment(40))
        assert status == 201, (status, body)
        full = server.call_json("POST", check_path)
        assert full["delta"]["groups_reused"] == 0, full["delta"]

        # Revision 2 edits one app input: the delta searches that app's
        # related set and takes every other one from the cache.
        status, body = server.call("PUT", "/v1/deployments/smoke-home",
                                   deployment(35))
        assert status == 200, (status, body)
        delta = server.call_json("POST", check_path)
        assert delta["revision"] == 2, delta["revision"]
        assert delta["delta"]["groups_recomputed"] == 1, delta["delta"]
        assert delta["delta"]["groups_reused"] == \
            delta["delta"]["groups_total"] - 1, delta["delta"]
        counters = server.call_json("GET", "/v1/metrics")["counters"]
        assert counters["registry"]["groups_reused"] > 0, counters["registry"]

        # A from-scratch check of the same config through /v1/check.
        scratch = server.call_json("POST", "/v1/check", deployment(35))
        assert delta["verdict"] == scratch["verdict"] == "violations"
        assert delta["exit_code"] == scratch["exit_code"] == 1
        assert mask_time(delta["text"]) == mask_time(scratch["text"]), \
            (delta["text"], scratch["text"])

        # A check pinned to the superseded revision is refused.
        status, body = server.call("POST", check_path,
                                   headers={"If-Match": '"1"'})
        assert status == 409, (status, body)
        listing = subprocess.run(
            [iotsan, "fleet", "list", "--port", str(server.port)],
            capture_output=True, text=True, timeout=TIMEOUT_S)
        assert listing.returncode == 0, listing.stderr
        assert "smoke-home" in listing.stdout, listing.stdout
        server.terminate()

        # The result cache lives in <registry-dir>/.cache, so reuse
        # survives a restart.
        server = Server(iotsan, "--jobs", "2", "--registry-dir", registry)
        servers.append(server)
        again = server.call_json("POST", check_path)
        assert again["delta"]["groups_recomputed"] == 0, again["delta"]
        assert again["text"] == delta["text"]
        server.terminate()
    finally:
        for server in servers:
            server.kill()
    print("fleet smoke: ok")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory(prefix="iotsan-fleet-smoke-") as tmp:
        main(sys.argv[1], Path(tmp))
