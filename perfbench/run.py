"""Run one convlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-analytic --seed 0 --seconds 30 --trace 0

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the human-readable
report.  `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads  # noqa: E402

WORKLOADS = ("sweep-analytic", "grid-generic", "cli-cold")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-edge", default=None, metavar="SOURCE,TARGET",
                   help="add a false implication before sweep-analytic "
                        "(fault injection: must show as failed ops)")
    return p.parse_args(argv)


def run_workload(name, args):
    if args.trace:
        return workloads.traced_run(name, args.seed, args.seconds)
    if name == "sweep-analytic":
        return workloads.sweep_analytic(args.seed, args.seconds, args.inject_edge)
    if name == "grid-generic":
        return workloads.grid_generic(args.seed, args.seconds)
    return workloads.cli_cold(args.seed, args.seconds)


def report(name, args, result, env):
    print(f"== {name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    print("   env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for metric, (value, unit, samples) in result.metrics.items():
        print(f"   {metric} = {value:.6g} {unit} (n={samples})")
    for key, value in result.notes.items():
        print(f"   {key}: {value}")
    failed = len(result.failures)
    print(f"   ops_attempted = {len(result.ops)}  ops_failed = {failed}  "
          f"(executions checked: {result.executions})")
    for op, (why, known) in list(result.failures.items())[:20]:
        print(f"   FAILED{' (known defect)' if known else ''} {op}: {why}")
    if failed > 20:
        print(f"   ... {failed - 20} more")
    return {
        "correct": not any(not known for _, known in result.failures.values()),
        "attempted": max(len(result.ops), 1),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in result.metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        workloads.import_convlab()
    except (workloads.BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.chdir(workloads.ROOT)
    env = workloads.environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        summary = report(name, args, run_workload(name, args), env)
        print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
