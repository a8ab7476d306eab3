"""Request benchmark: local, service and routed induction, one command.

    python3 reqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client thread drives the workload in
a closed loop (each caller waits for its schedule before asking for the
next), checks every reply with :mod:`reqbench.replycheck`, and prints one
JSON object as its last line: the end-to-end metrics with ``--trace 0``,
the per-layer ledger with ``--trace 1``.  See ``reqbench/README.md`` for
the workloads, the metrics and how host drift is divided out.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"reqbench: no program source at {SRC}/repro; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Byte-compile once so import timings never include compilation.
    compileall.compile_dir(str(SRC), quiet=1)
    from reqbench.workloads import (BASELINE, END_TO_END_UNITS, LAYER_UNITS,
                                 MUST_REACH, WORKLOADS, Run, top_percentile)
    from reqbench.replycheck import dependence_counts
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    # One CPU for the client and every daemon it starts, so the host probe
    # times the CPU that all of the workload's work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args)
    kind = args.workload.split("-")[0]
    began = perf_counter()
    rss = run.run_local() if kind == "local" else run.run_served(kind)
    elapsed = perf_counter() - began

    print(f"reqbench {args.workload} seed={args.seed} slots={run.slots} "
          f"passes={run.passes} timed_requests="
          f"{run.requests[False] + run.requests[True]} "
          f"attempted={run.attempted} elapsed={elapsed:.1f}s")
    print(f"inputs sha256={run.digest}")
    print(run.probe.summary())
    print("checked dependences: " + ", ".join(
        f"{kind} {count}" for kind, count in
        dependence_counts(run.parsed.values()).items()))
    for note in run.notes:
        print(note)
    for failure in run.failures[:10]:
        print(f"FAILED {failure}")
    ok = not run.failures
    if args.trace:
        metrics = run.per_layer()
        units = LAYER_UNITS
        zero = [name for name in MUST_REACH[args.workload]
                if not metrics[name] > 0]
        if zero:
            print(f"self-check FAILED: layers this workload must reach "
                  f"report zero: {', '.join(zero)}")
            ok = False
        print("baseline counts (today -> measured): " + ", ".join(
            f"{name} {want} -> {metrics[name]:.3f}"
            for name, want in BASELINE[args.workload].items()))
    else:
        metrics = run.end_to_end(rss)
        units = END_TO_END_UNITS
        top = top_percentile(run.slots)
        print(f"latency samples: {len(run.latency)} slots, each the median "
              f"of {run.passes} probe-scaled sends; p{top:g} is the highest "
              f"percentile with >= 10 samples beyond it")
        print("estimators: req_per_s = requests / probe-scaled timed wall; "
              "latency = percentiles of per-slot medians, probe-scaled "
              "outside the reply's queue_wait_s; setup_s = median of "
              f"{run.setups} probe-scaled set-ups; cost_ratio, optimal_share "
              "= exact over replies; peak_rss_mb = sum of VmHWM")
        if top != 95:
            print(f"self-check FAILED: p95 is not the top percentile at "
                  f"{run.slots} samples")
            ok = False
    print(json.dumps({
        "correct": ok,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
