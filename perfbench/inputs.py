"""Seeded benchmark inputs drawn from the deployment templates in data/.

A template is a deployment document plus the verdict it must produce
(`expect.violated`, the violated property ids in report order).  Every
input the benchmark sends is a template with all device ids and the
deployment name suffixed by a fresh tag from the seeded generator.
Renaming leaves the related sets, the state space and the verdict
unchanged, so every seed costs the same work, while no two inputs share
a result-cache key.
"""
import copy
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


def load(name):
    """The template list in data/<name> (a single template is wrapped)."""
    doc = json.loads((DATA / name).read_text())
    return doc if isinstance(doc, list) else [doc]


class Inputs:
    """The seeded source of every input one benchmark run sends."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def renamed(self, template):
        """(deployment, expected violated ids) for a fresh renaming."""
        tag = "%08x" % self.rng.getrandbits(32)
        ids = {d["id"]: "%s_%s" % (d["id"], tag) for d in template["devices"]}
        deployment = {k: copy.deepcopy(v) for k, v in template.items()
                      if k != "expect"}
        deployment["name"] = "%s #%s" % (template["name"], tag)
        for device in deployment["devices"]:
            device["id"] = ids[device["id"]]
        for app in deployment["apps"]:
            for key, value in app.get("inputs", {}).items():
                if isinstance(value, list):
                    app["inputs"][key] = [ids[v] for v in value]
        return deployment, template["expect"]["violated"]
