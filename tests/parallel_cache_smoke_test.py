#!/usr/bin/env python3
"""Parallel and cache smoke test: the `iotsan check` CLI at several lane
counts and over a result cache, driven end to end.

    python3 tests/parallel_cache_smoke_test.py path/to/iotsan

It checks that a check of several related sets prints the same report
at the default lane count, `--jobs 1` and `--jobs 4` once the time is
masked, on configs/alice_home.json and on the climate expert group
(read from perfbench/data/market_groups.json); that a warm `--cache-dir`
re-check at the default lane count prints the cold output byte for
byte, time included, and records cache hits; that a warm run with an
option the cache was not filled with (`--state-compression`) reports
the `store:` line of a cold run with it; and that `iotsan cache stats`
and `cache prune` succeed.  Python 3 standard library only.
"""
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_support import ROOT, TIMEOUT_S, climate_group, mask_time


def check(iotsan, deployment, *flags):
    """stdout of `iotsan check`; exit 1 = violations, expected here."""
    proc = subprocess.run([iotsan, "check", str(deployment), *flags],
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 1, (deployment, flags, proc.returncode,
                                  proc.stderr)
    return proc.stdout


def store_line(stats):
    lines = [l for l in stats.splitlines() if l.startswith("store:")]
    assert len(lines) == 1, stats
    return lines[0]


def main(iotsan, work):
    alice = ROOT / "configs" / "alice_home.json"
    climate = work / "climate.json"
    climate.write_text(json.dumps(climate_group()))

    for deployment in (alice, climate):
        # Several related sets, each searched on one lane: only the
        # measured time may differ between lane counts.
        serial = mask_time(check(iotsan, deployment, "--jobs", "1"))
        for jobs in ([], ["--jobs", "4"]):
            report = mask_time(check(iotsan, deployment, *jobs))
            assert report == serial, (deployment, jobs, serial, report)

        # A warm re-check replays each set's search seconds, so even the
        # time line matches the cold run.
        cache = work / ("cache-" + deployment.stem)
        cold = check(iotsan, deployment, "--cache-dir", str(cache))
        warm = check(iotsan, deployment, "--cache-dir", str(cache))
        assert warm == cold, (deployment, cold, warm)

    cache = str(work / "cache-alice_home")
    stats = check(iotsan, alice, "--cache-dir", cache, "--stats")
    hits = int(re.search(r"cache\.hits\s+(\d+)", stats).group(1))
    assert hits > 0, "warm run recorded no cache hits"

    # The key covers --state-compression when on, so a warm run from a
    # cache the defaults filled reports what a cold run does.
    sc_cold = check(iotsan, alice, "--state-compression", "--stats")
    sc_warm = check(iotsan, alice, "--cache-dir", cache,
                    "--state-compression", "--stats")
    assert store_line(sc_warm) == store_line(sc_cold), (sc_cold, sc_warm)

    for command in ("stats", "prune"):
        proc = subprocess.run([iotsan, "cache", command, cache],
                              capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        assert proc.returncode == 0, (command, proc.stdout, proc.stderr)
        assert "entries:" in proc.stdout, (command, proc.stdout)
    print("parallel and cache smoke: ok")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory(prefix="iotsan-check-smoke-") as tmp:
        main(sys.argv[1], Path(tmp))
