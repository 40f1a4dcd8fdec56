#!/usr/bin/env python3
"""Self-test of the wire benchmark: every workload, in its small mode,
traced and untraced, passes its correctness gate and prints every metric
BENCHMARK.json names, with the unit it names.

    python3 wirebench/test_run.py        # from the repository root

Takes about 20 seconds; it builds first, as run.py does.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    p = subprocess.run(
        [sys.executable, "wirebench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return p


class Metrics(unittest.TestCase):
    def check(self, workload, trace):
        s = spec()
        want = s["per_layer" if trace else "end_to_end"]
        p = run(workload, trace)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        out = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(out["correct"], p.stdout[-3000:])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(set(out["metrics"]), {m["name"] for m in want})
        for m in want:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_workloads_named(self):
        self.assertEqual({w["name"] for w in spec()["workloads"]},
                         {"read", "replicate"})


for _w in ("read", "replicate"):
    for _t in (0, 1):
        setattr(Metrics, f"test_{_w}_trace{_t}",
                lambda self, w=_w, t=_t: self.check(w, t))

if __name__ == "__main__":
    unittest.main()
