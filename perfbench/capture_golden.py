"""Write golden_seed0.json: the seed-0 reference the oracle compares with.

    python3 perfbench/capture_golden.py

Records the analytic sweep's verdict grid and every probe's
[class, sum_estimate, tail_bound].  Re-capture only when a verdict or
interval change is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import gen, oracle, workloads  # noqa: E402


def main():
    convlab = workloads.import_convlab()
    specs = gen.family_specs(0)
    grid, probes = oracle.sweep_tables(
        workloads.sweep_pass(convlab, specs, convlab.mode_diagram()))
    golden = {"grid": grid, "probes": probes, "hash": oracle.grid_hash(grid)}
    oracle.GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
    print(f"wrote {oracle.GOLDEN_PATH.name}: verdict grid hash {golden['hash']}")


if __name__ == "__main__":
    main()
