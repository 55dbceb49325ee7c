#!/usr/bin/env python3
"""Hang smoke test: parallel checks that meet in-flight cache keys, and a
JSON nesting bomb, against the CLI and one `iotsan serve`.

    python3 tests/hang_smoke_test.py path/to/iotsan

The climate expert group plans 168 related sets over only 118 distinct
app-index sets, so parallel set checks meet keys another lane is still
computing.  The test checks that `iotsan check --jobs 4` with a fresh
`--cache-dir` finishes within the time budget and prints what `--jobs 1`
prints (time masked); that one `serve` at its default lane count answers
a /v1/check, and a fleet PUT followed by a check, with that same text;
that a body of 100 000 `[` characters gets a 400 `bad_json` while
/v1/health still answers; and that SIGTERM drains the server with exit
code 0.  The server listens on a port the kernel picks (`serve --port
0`), so the test runs beside others under `ctest -j`.  Python 3 standard
library only.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_support import TIMEOUT_S, Server, climate_group, mask_time


def check(iotsan, deployment, *flags):
    """stdout of `iotsan check`, which must finish within TIMEOUT_S."""
    proc = subprocess.run([iotsan, "check", str(deployment), *flags],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode in (0, 1), (flags, proc.returncode, proc.stderr)
    return proc.stdout


def main(iotsan, work):
    group = climate_group()
    climate = work / "climate.json"
    climate.write_text(json.dumps(group))
    serial = mask_time(check(iotsan, climate, "--jobs", "1"))
    parallel = check(iotsan, climate, "--jobs", "4",
                     "--cache-dir", str(work / "hang-cache"))
    assert mask_time(parallel) == serial, (serial, parallel)

    request = json.dumps({"schema": "iotsan.request/1", "deployment": group})
    server = Server(iotsan)
    try:
        checked = server.call_json("POST", "/v1/check", request)
        assert mask_time(checked["text"]) == serial, checked["text"]
        status, body = server.call("PUT", "/v1/deployments/climate", request)
        assert status == 201, (status, body)
        fleet = server.call_json("POST", "/v1/deployments/climate/check")
        assert mask_time(fleet["text"]) == serial, fleet["text"]

        status, body = server.call("POST", "/v1/check", "[" * 100000)
        assert status == 400, (status, body)
        assert json.loads(body)["error"]["code"] == "bad_json", body
        server.call_json("GET", "/v1/health")
        server.terminate()
    finally:
        server.kill()
    print("hang smoke: ok")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory(prefix="iotsan-hang-smoke-") as tmp:
        main(sys.argv[1], Path(tmp))
