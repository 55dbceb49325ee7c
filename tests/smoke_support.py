"""Shared pieces of the script tests (tests/*_smoke_test.py): the time
budget of each call, time masking, the climate expert group, and one
`iotsan serve --port 0` process.  Python 3 standard library only.
"""
import http.client
import json
import re
import select
import signal
import subprocess
from pathlib import Path

TIMEOUT_S = 120
ROOT = Path(__file__).resolve().parent.parent
_TIME = re.compile(r" in [0-9]+\.[0-9]+s$", re.M)


def mask_time(text):
    """Output without the wall-clock time of the "explored" line."""
    return _TIME.sub("", text)


def climate_group():
    """The climate expert group as deployment JSON: 168 related sets
    over only 118 distinct app-index sets."""
    groups = json.loads((ROOT / "perfbench" / "data" /
                         "market_groups.json").read_text())
    group = groups[1]
    group.pop("expect")
    return group


class Server:
    """One `iotsan serve --port 0` process and the port it bound."""

    def __init__(self, iotsan, *flags):
        self.proc = subprocess.Popen([iotsan, "serve", "--port", "0", *flags],
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://[^:/]+:(\d+)/", line)
        if match is None:
            self.kill()
            raise AssertionError("server did not start: %r" % line)
        self.port = int(match.group(1))
        self.endpoint = "127.0.0.1:%d" % self.port

    def call(self, method, path, body=None, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=TIMEOUT_S)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read().decode()
        finally:
            conn.close()

    def call_json(self, method, path, body=None):
        status, text = self.call(method, path, body)
        assert status == 200, (method, path, status, text)
        return json.loads(text)

    def terminate(self):
        """SIGTERM and wait: the graceful drain must exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        assert self.proc.wait(TIMEOUT_S) == 0, self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(TIMEOUT_S)
