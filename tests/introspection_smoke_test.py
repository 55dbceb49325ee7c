#!/usr/bin/env python3
"""Live introspection smoke test: /v1/health, /v1/status polled during a
check, the SSE event feed, `iotsan top`, access-log rotation on SIGHUP,
and `iotsan_trace tail`.

    python3 tests/introspection_smoke_test.py path/to/iotsan path/to/iotsan_trace

One `iotsan serve --jobs 2 --access-log FILE` checks a scaled deployment
of 16 presence/lock pairs (32 related sets) at `jobs` 1 while the test
polls /v1/status and listens on /v1/events.  It checks that /v1/health
reports the version, the build and no in-flight work; that the polled
rows name 32 sets, that their `groups_done` never decreases and takes at
least two values, and that a non-zero `store_memory_bytes` shows; that
the SSE feed carries at least one `progress` event of the check, with
non-decreasing `groups_done`, then exactly one `verdict` (violations,
completed); that `iotsan top --once` renders a frame; that after SIGHUP
the server writes new access-log lines to a fresh file while the moved
one keeps the earlier ones; and that SIGTERM drains the server with exit
code 0.  Last, `iotsan_trace tail --once` prints a span trace that
`iotsan check --trace-out` writes.  The server listens on a port the
kernel picks (`serve --port 0`), so the test runs beside others under
`ctest -j`.  Python 3 standard library only.
"""
import http.client
import json
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from smoke_support import ROOT, TIMEOUT_S, Server

CHECK_ID = "ci-slow-1"
MARKER_ID = "ci-marker-1"


def scaled_request(pairs):
    """`pairs` copies of the paper's violating presence/lock pair: two
    related sets per pair, checked on one lane."""
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
    return json.dumps({"schema": "iotsan.request/1",
                       "deployment": {"name": "ci scaled home",
                                      "devices": devices, "apps": apps},
                       "options": {"jobs": 1}})


class EventReader(threading.Thread):
    """Reads /v1/events until the marker check's verdict arrives."""

    def __init__(self, port):
        super().__init__(daemon=True)
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=TIMEOUT_S)
        self.conn.request("GET", "/v1/events")
        self.response = self.conn.getresponse()
        assert self.response.status == 200, self.response.status
        self.events = []
        self.hello = threading.Event()

    def run(self):
        name = data = None
        try:
            while True:
                line = self.response.readline().decode()
                if not line:
                    return
                line = line.rstrip("\n")
                if line.startswith("event: "):
                    name = line[7:]
                elif line.startswith("data: "):
                    data = json.loads(line[6:])
                elif line == "" and name is not None:
                    self.events.append((name, data))
                    if name == "hello":
                        self.hello.set()
                    if name == "verdict" and data["request_id"] == MARKER_ID:
                        return
                    name = data = None
        finally:
            self.conn.close()


def check_health(server):
    doc = server.call_json("GET", "/v1/health")
    assert doc["version"] and doc["build"]["compiler"], doc
    assert doc["inflight_requests"] == 0, doc
    assert doc["event_subscribers"] == 0, doc


def poll_check(server):
    """Runs the scaled check while polling /v1/status; returns the
    check's response and its status rows."""
    outcome = {}

    def run_check():
        outcome["status"], outcome["body"] = server.call(
            "POST", "/v1/check", scaled_request(16),
            {"X-Request-Id": CHECK_ID})

    check = threading.Thread(target=run_check)
    check.start()
    rows = []
    while check.is_alive():
        for entry in server.call_json("GET", "/v1/status")["inflight"]:
            if entry["request_id"] == CHECK_ID:
                rows.append(entry)
    check.join()
    assert outcome["status"] == 200, outcome
    return json.loads(outcome["body"]), rows


def check_rows(rows):
    # A row polled before the check has planned its sets reports none.
    unplanned = [row for row in rows if row["groups_total"] == 0]
    assert all(row["groups_done"] == row["states_explored"] == 0
               for row in unplanned), unplanned
    planned = rows[len(unplanned):]
    assert all(row["groups_total"] == 32 for row in planned), planned
    done = [row["groups_done"] for row in rows]
    assert done == sorted(done), done
    planned_done = [row["groups_done"] for row in planned]
    assert len(set(planned_done)) >= 2, \
        f"groups_done never advanced: {planned_done}"
    assert any(row["store_memory_bytes"] > 0 for row in planned), \
        "no in-flight store_memory_bytes observed"


def check_events(events):
    progress = [d for n, d in events
                if n == "progress" and d["request_id"] == CHECK_ID]
    verdicts = [d for n, d in events
                if n == "verdict" and d["request_id"] == CHECK_ID]
    assert len(progress) >= 1, events[:5]
    done = [p["groups_done"] for p in progress]
    assert done == sorted(done), done
    assert len(verdicts) == 1, verdicts
    assert verdicts[0]["verdict"] == "violations", verdicts
    assert verdicts[0]["completed"] is True, verdicts


def access_ids(path):
    return [json.loads(line)["id"] for line in path.read_text().splitlines()
            if line.strip()]


def main(iotsan, iotsan_trace, work):
    access_log = work / "introspect-access.jsonl"
    server = Server(iotsan, "--jobs", "2", "--log-level", "info",
                    "--access-log", str(access_log))
    try:
        check_health(server)
        reader = EventReader(server.port)
        reader.start()
        assert reader.hello.wait(TIMEOUT_S), "no SSE hello event"
        response, rows = poll_check(server)
        assert response["verdict"] == "violations", response
        check_rows(rows)
        # A small check after the first closes the event capture: every
        # event of the first check precedes the marker's verdict.
        status, body = server.call("POST", "/v1/check", scaled_request(1),
                                   {"X-Request-Id": MARKER_ID})
        assert status == 200, (status, body)
        reader.join(TIMEOUT_S)
        assert not reader.is_alive(), "no marker verdict on the SSE feed"
        check_events(reader.events)

        top = subprocess.run([iotsan, "top", "--port", str(server.port),
                              "--once"], capture_output=True, text=True,
                             timeout=TIMEOUT_S)
        assert top.returncode == 0, (top.returncode, top.stderr)
        assert "iotsan top" in top.stdout, top.stdout

        # SIGHUP rotates the access log: move it aside, signal, and the
        # server reopens its configured path and keeps serving.
        rotated = work / "introspect-access.jsonl.1"
        access_log.rename(rotated)
        server.proc.send_signal(signal.SIGHUP)
        time.sleep(0.5)
        status, _ = server.call("GET", "/v1/health",
                                headers={"X-Request-Id": "post-rotate"})
        assert status == 200, status
        server.terminate()
    finally:
        server.kill()
    new, old = access_ids(access_log), access_ids(rotated)
    assert "post-rotate" in new, new
    assert CHECK_ID in old, old
    assert "post-rotate" not in old, old

    trace = work / "trace.jsonl"
    checked = subprocess.run([iotsan, "check",
                              str(ROOT / "configs" / "alice_home.json"),
                              "--trace-out", str(trace)],
                             capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    assert checked.returncode == 1, (checked.returncode, checked.stderr)
    tail = subprocess.run([iotsan_trace, "tail", "--once", str(trace)],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    assert tail.returncode == 0, (tail.returncode, tail.stderr)
    assert "check" in tail.stdout, tail.stdout
    print("introspection smoke: ok")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory(prefix="iotsan-introspect-") as tmp:
        main(sys.argv[1], sys.argv[2], Path(tmp))
