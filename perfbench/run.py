"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload grid_intra --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  A run measures one whole round of its
workload's operations, however long that takes.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is 0 only when every output
check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid_intra", "grid_inter", "fault_campaign")

#: Settings that would change what the program does; every run measures
#: its defaults.
REFUSED_ENV = ("REPRO_CACHE", "REPRO_COMPILE_CACHE", "REPRO_WORKERS",
               "REPRO_VECTOR", "REPRO_FUSION", "REPRO_FAULT_WINDOW")


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes (host-speed diagnostic)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="the declared run length (BENCHMARK.json's "
                    "run_seconds); a run is always one whole round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="two kernels and few trials (the benchmark's tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: the benchmark "
              f"measures the program's defaults", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    import workloads
    import spans

    work_dir = HERE / "out"
    work_dir.mkdir(exist_ok=True)
    probe_before = host_probe()
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        result = workloads.run_workload(args.workload, args.seed, work_dir,
                                        quick=args.quick)
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe_after = host_probe()

    correct = not result.problems and not result.failed
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    for note in result.notes:
        print(note)
    tail_p, _ = result.tail()
    print(f"host probe: {probe_before:.4f} s before, {probe_after:.4f} s after")
    print(f"ops: {len(result.op_s)}, {result.measured_s:.3f} s measured; "
          f"op_tail_ms is p{tail_p}")
    print(f"digest {args.workload} seed={args.seed}: {result.digest}")
    stem = f"{args.workload}-{args.seed}.json"
    (work_dir / f"digest-{stem}").write_text(
        json.dumps(result.digest_doc, sort_keys=True, indent=1))
    (work_dir / f"ops-{stem}").write_text(json.dumps(
        list(zip(result.op_names, result.op_s)), indent=0))

    if tracer is not None:
        pairs = tracer.metrics(result.measured_s)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        pairs = result.end_to_end(rss_mb)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in pairs.items()}
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
