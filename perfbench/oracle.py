"""Correctness checks for every workload.

A failure is a (cell or command, reason, known) triple.  `known` marks the
defects the seed commit already has (a generic `fails` against an analytic
`holds`, the odd-index indicator stream classified `converges`, a cell
raising AccuracyError).  Known defects count as failed operations like any
other; a run reports `correct: false` only for failures outside them, i.e.
for a regression against the golden reference or a broken oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_seed0.json"

HOLDING = ("holds", "not_falsified")


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def grid_hash(grid):
    blob = json.dumps(grid, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def probe_intervals(mode_report):
    """{probe key: [class, sum_estimate, tail_bound]} for series probes."""
    out = {}
    for key, verdict in mode_report.probe_results.items():
        d = verdict.to_dict()
        out[key] = [d["class"], d.get("sum_estimate"), d.get("tail_bound")]
    return out


def sweep_tables(report):
    """Verdict grid and probe intervals of a SweepReport, keyed by family
    name then diagram node."""
    grid, probes = {}, {}
    for (fam, node), rep in report.verdicts.items():
        grid.setdefault(fam, {})[node] = rep.verdict
        probes.setdefault(fam, {})[node] = probe_intervals(rep)
    return grid, probes


def intervals_meet(lo1, w1, lo2, w2, rel=1e-12):
    """Do [lo1, lo1 + w1] and [lo2, lo2 + w2] intersect (up to rounding)?"""
    slack = rel * max(abs(lo1), abs(lo2), 1e-300)
    return lo1 <= lo2 + w2 + slack and lo2 <= lo1 + w1 + slack


def check_sweep(families, report, expected_verdicts, verdict_matches, golden=None):
    """Failures of one soundness sweep: expected-verdict mismatches, diagram
    violations, non-finite intervals and, with a golden reference, verdict
    or interval drift."""
    fails = []
    grid, probes = sweep_tables(report)
    for fam in families:
        for node, want in expected_verdicts(fam).items():
            got = grid[fam.name][node]
            if not verdict_matches(want, got):
                fails.append(((fam.name, node), f"expected {want}, got {got}", False))
    for v in report.violations:
        names = [f.name for f in families if v.family in (f.name, f.meta.kind)]
        for name in names:
            fails.append(((name, v.target), f"violation {v.source}->{v.target}: "
                                            f"{v.detail}", False))
    for fam, nodes in probes.items():
        for node, table in nodes.items():
            for key, (klass, est, width) in table.items():
                if klass == "converges" and not (
                        math.isfinite(est) and math.isfinite(width) and width >= 0):
                    fails.append(((fam, node), f"{key}: bad interval {est}+{width}", False))
    if golden is not None:
        fails += _golden_drift(grid, probes, golden)
    return fails


def _golden_drift(grid, probes, golden):
    fails = []
    for fam, nodes in golden["grid"].items():
        for node, want in nodes.items():
            got = grid.get(fam, {}).get(node)
            if got != want:
                fails.append(((fam, node), f"golden verdict {want}, got {got}", False))
    for fam, nodes in golden["probes"].items():
        for node, table in nodes.items():
            for key, (klass, est, width) in table.items():
                if klass != "converges":
                    continue
                now = probes.get(fam, {}).get(node, {}).get(key)
                if now is None or now[0] != "converges":
                    fails.append(((fam, node), f"{key}: golden converges, got "
                                               f"{now and now[0]}", False))
                elif not intervals_meet(now[1], now[2], est, width):
                    fails.append(((fam, node), f"{key}: [{now[1]}, +{now[2]}] misses "
                                               f"golden [{est}, +{width}]", False))
    return fails


def route_disagreements(generic_grid, analytic_grid):
    """Cells where one route says `fails` and the other holds (Holds or
    NotFalsified): a known defect of the generic route."""
    fails = []
    for fam, nodes in generic_grid.items():
        for node, got in nodes.items():
            ref = analytic_grid[fam][node]
            if (got == "fails" and ref in HOLDING) or (ref == "fails" and got in HOLDING):
                fails.append(((fam, node), f"generic {got}, analytic {ref}", True))
    return fails


def check_series(kind, param, terms_sum, verdict, zeta):
    """Failure reason for one `series` verdict against the stream's truth,
    or None.  `terms_sum` is the exact sum of a finite stream."""
    klass = verdict["class"]
    truth = "converges" if kind in ("power_converges", "eventually_zero") else "diverges"
    if klass != truth:
        return f"classified {klass}, truth {truth}"
    if kind == "power_converges":
        lo, width = verdict["sum_estimate"], verdict["tail_bound"]
        z = zeta(param)
        if not intervals_meet(lo, width, z, 0.0, rel=1e-9):
            return f"zeta({param}) = {z!r} outside [{lo!r}, +{width!r}]"
    if kind == "eventually_zero":
        if abs(verdict["sum_estimate"] - terms_sum) > 1e-9 * max(1.0, terms_sum):
            return f"sum {verdict['sum_estimate']!r}, exact {terms_sum!r}"
    return None
