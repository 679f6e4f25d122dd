"""Run one workload on several seeds, each in a fresh process, and print
each metric's median, quartiles and spread (quartile distance over median).

    python3 perfbench/spread.py --workload grid_inter --seeds 1-10

Each run gets ``--seconds`` from ``BENCHMARK.json``'s ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        doc = json.loads(lines[-1])
        digest = next(l for l in lines if l.startswith("digest ")).split()[-1]
        print(f"seed {seed}: {digest} wall {wall:.1f} s attempted "
              f"{doc['attempted']} failed "
              f"{doc['failed']} " + " ".join(
                  f"{k}={m['value']:.4g}" for k, m in doc["metrics"].items()))
        for name, metric in doc["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (med, med, med))
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
