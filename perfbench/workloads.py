"""The three workloads, each closed loop with one caller.

sweep-analytic  soundness_sweep(mode_diagram(), families) with families
                built fresh for every pass (cold Family caches).
grid-generic    check_mode(..., use_analytic=False) over the same 78 cells.
cli-cold        a fresh `python -m convlab.cli` process per command.

Each workload returns a Result; `run.py` turns it into the report.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import gen, oracle, pace, spans, stats

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
SETUP_REPS = 5
IMPORTTIME_REPS = 3
CHILD_TIMEOUT = 120


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, wrong import path)."""


def import_convlab():
    """Import convlab from this checkout's src/ and refuse any other copy."""
    if not (SRC / "convlab" / "__init__.py").is_file():
        raise BenchError(f"no convlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import convlab

    where = Path(convlab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"convlab imported from {where}, not from {SRC}")
    return convlab


def environment():
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "convlab").glob("*.py")))
    v = sys.version_info
    return {
        "python": f"{v.major}.{v.minor}.{v.micro}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


@dataclass
class Result:
    """Metrics and checked ops of one run.

    An op is a distinct unit of the run's fixed work list (a family x node
    cell, a CLI command).  Each op runs at least once and every execution
    is checked; an op failed if any of its executions did.  So the attempted
    and failed counts depend on the seed's inputs, not on how many
    repetitions fit into the run."""

    metrics: dict = field(default_factory=dict)    # name -> (value, unit, samples)
    ops: set = field(default_factory=set)
    failures: dict = field(default_factory=dict)  # op -> (reason, known), first seen
    executions: int = 0                           # op executions checked
    notes: dict = field(default_factory=dict)     # extra report lines

    def add(self, name, value, unit, samples=1):
        self.metrics[name] = (value, unit, samples)

    def checked(self, ops, failures=()):
        """Record one checked execution of each of `ops` and the
        (op, reason, known) failures found in them."""
        ops = list(ops)
        self.ops.update(ops)
        self.executions += len(ops)
        for op, reason, known in failures:
            self.ops.add(op)
            self.failures.setdefault(op, (reason, known))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv):
    """Run one child process from the checkout root; returns (wall, proc)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0, proc


SETUP_CODE = (
    "import json, sys\n"
    "import convlab\n"
    "from convlab.registry import build_family\n"
    "[build_family(k, **p) for k, p in json.loads(sys.argv[1])]\n"
)


def child_wall(argv):
    """Wall time of a child that must succeed."""
    wall, proc = run_child(argv)
    if proc.returncode != 0:
        raise BenchError(f"child {argv[1:3]} failed: {proc.stderr.strip()[-500:]}")
    return wall


def measure_setup(specs, result):
    """setup_s: fresh interpreter to ready workload (import convlab plus
    family construction) at the reference speed, median of SETUP_REPS after
    one warm-up run that leaves the bytecode cache as an installed package
    would have it."""
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(specs)]
    children = pace.ChildPace(child_wall)
    child_wall(argv)
    walls = []
    for _ in range(SETUP_REPS):
        walls.append(child_wall(argv))
        children.sample()
    result.add("setup_s", children.scale(statistics.median(walls)), "s", len(walls))
    result.notes["setup_s raw"] = f"{statistics.median(walls):.4f} s (n={len(walls)})"
    result.notes["setup speed"] = f"{children.speed():.4f} x reference"


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def add_latency(result, samples_s):
    """Latency percentiles go to the report, not to the bounded metrics:
    one run holds too few slow ops for a steady p90 (a grid-generic pass
    has 78 cells, so 7 lie beyond its p90)."""
    n = len(samples_s)
    result.notes["op_p50_ms"] = f"{1e3 * statistics.median(samples_s):.4f} ms (n={n})"
    tail = "" if stats.tail_ok(n, 90) else ", fewer than ten: not a tail estimate"
    result.notes["op_p90_ms"] = (f"{1e3 * stats.percentile(samples_s, 90):.4f} ms "
                                 f"(n={n}, {stats.beyond(n, 90)} beyond{tail})")


def throughput(latencies):
    """Ops per second from each distinct op's median latency, so a slow
    repetition of an op shifts one sample of it, not the rate."""
    return len(latencies) / sum(statistics.median(d) for d in latencies.values())


def speed_notes(result, raw, speed):
    """Report the raw rate from `raw` {op: [wall, ...]} and the machine
    speed the timed work ran at."""
    result.notes["ops_per_s raw"] = f"{throughput(raw):.6g} 1/s"
    result.notes["machine speed"] = f"{speed.speed():.4f} x reference"


# ---------------------------------------------------------------------------
# Cell timing shared by the in-process workloads


class CellTimer:
    """Wraps registry.node_report (the per-cell call soundness_sweep makes)
    and TermSource.terms (term count only).  With a Pace, each cell's time
    is also scaled to the reference speed (untraced runs only: the kernel
    slices would dilute the tracing overhead)."""

    def __init__(self, tracer=None, speed=None):
        self.latency = {}   # cell -> scaled walls (raw walls without a Pace)
        self.raw = {}       # cell -> raw walls
        self.terms = 0
        self.tracer = tracer
        self.speed = speed
        self.cells = 0

    def __call__(self, fn, key):
        if self.tracer is not None:
            self.tracer.request_id = self.cells
        self.cells += 1
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        self.raw.setdefault(key, []).append(wall)
        scaled = self.speed.scale(wall) if self.speed else wall
        self.latency.setdefault(key, []).append(scaled)
        return out

    @contextlib.contextmanager
    def installed(self, convlab):
        registry = convlab.registry
        term_cls = convlab.series.TermSource
        node_report, terms = registry.node_report, term_cls.terms

        def timed_node_report(family, node, policy=convlab.DEFAULT_POLICY):
            return self(lambda: node_report(family, node, policy), (family.name, node))

        def counted_terms(src, lo, hi):
            out = terms(src, lo, hi)
            self.terms += len(out)
            return out

        with spans.patched([(registry, "node_report", timed_node_report),
                             (term_cls, "terms", counted_terms)]):
            yield self


def build_families(convlab, specs):
    return [convlab.build_family(k, **p) for k, p in specs]


def sweep_pass(convlab, specs, diagram):
    return convlab.soundness_sweep(diagram, build_families(convlab, specs))


def generic_pass(convlab, specs, timer):
    """All 13 nodes of every family through the generic quadrature route;
    a cell raising AccuracyError is recorded as 'error'."""
    from convlab.modes import ModeParams
    from convlab.registry import NODE_MODES

    grid = {}
    for fam in build_families(convlab, specs):
        for node in gen.MODE_NODES:
            mode, overrides = NODE_MODES[node]
            params = ModeParams.defaults(fam, **overrides)
            try:
                rep = timer(lambda: convlab.check_mode(fam, mode, params,
                                                       use_analytic=False),
                            (fam.name, node))
                verdict = rep.verdict
            except convlab.AccuracyError as exc:
                verdict = f"error: {exc}"
            grid.setdefault(fam.name, {})[node] = verdict
    return grid


def room_for_another(t0, seconds, units):
    """Start another unit of work only if one more of the average length
    still ends within `seconds` of t0; the first unit always runs."""
    if not units:
        return True
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / units <= seconds


def timed_passes(seconds, one_pass):
    """Run whole passes for about `seconds` (at least one)."""
    t0 = time.perf_counter()
    outs = []
    while room_for_another(t0, seconds, len(outs)):
        outs.append(one_pass())
    return outs


def cell_metrics(result, timer):
    pooled = [dt for dts in timer.latency.values() for dt in dts]
    result.add("ops_per_s", throughput(timer.latency), "1/s", len(pooled))
    speed_notes(result, timer.raw, timer.speed)
    add_latency(result, pooled)
    result.notes["terms evaluated"] = timer.terms


# ---------------------------------------------------------------------------
# sweep-analytic


def sweep_analytic(seed, seconds, inject_edge=None):
    convlab = import_convlab()
    specs = gen.family_specs(seed)
    result = Result()
    measure_setup(specs, result)
    diagram = _diagram(convlab, inject_edge)
    with CellTimer(speed=pace.Pace()).installed(convlab) as timer:
        reports = timed_passes(seconds, lambda: sweep_pass(convlab, specs, diagram))
    result.add("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB")
    cell_metrics(result, timer)
    _check_sweeps(convlab, seed, specs, reports, result)
    result.notes["passes"] = len(reports)
    result.notes["terms evaluated"] //= len(reports)
    return result


def _diagram(convlab, inject_edge):
    diagram = convlab.mode_diagram()
    if inject_edge:
        a, b = inject_edge.split(",")
        diagram = diagram.with_edge(a.strip(), b.strip())
    return diagram


def _check_sweeps(convlab, seed, specs, reports, result):
    """Seed 0 is also held to the golden reference captured from the seed
    commit; other seeds have no golden."""
    from convlab.registry import verdict_matches

    golden = oracle.load_golden() if seed == 0 else None
    families = build_families(convlab, specs)
    for rep in reports:
        result.checked(rep.verdicts, oracle.check_sweep(
            families, rep, convlab.expected_verdicts, verdict_matches, golden))
    grid, _ = oracle.sweep_tables(reports[0])
    result.notes["verdict grid hash"] = oracle.grid_hash(grid)


# ---------------------------------------------------------------------------
# grid-generic


def grid_generic(seed, seconds):
    convlab = import_convlab()
    specs = gen.family_specs(seed)
    result = Result()
    measure_setup(specs, result)
    with CellTimer(speed=pace.Pace()).installed(convlab) as timer:
        grids = timed_passes(seconds, lambda: generic_pass(convlab, specs, timer))
    result.add("peak_rss_mb", peak_rss_mb(resource.RUSAGE_SELF), "MB")
    cell_metrics(result, timer)
    result.notes["terms evaluated"] //= len(grids)
    _check_generic(convlab, specs, grids, result)
    return result


def _check_generic(convlab, specs, grids, result):
    analytic, _ = oracle.sweep_tables(sweep_pass(convlab, specs, convlab.mode_diagram()))
    for grid in grids:
        cells = [(fam, node) for fam, nodes in grid.items() for node in nodes]
        errors = [((fam, node), v, True) for fam, nodes in grid.items()
                  for node, v in nodes.items() if v.startswith("error")]
        result.checked(cells, errors + oracle.route_disagreements(grid, analytic))
    result.notes["passes"] = len(grids)
    result.notes["verdict grid hash"] = oracle.grid_hash(grids[0])


# ---------------------------------------------------------------------------
# cli-cold

LIST_ARGV = ["list", "--format", "json"]


def cli_commands(seed, workdir):
    """Write the seeded CSV streams under `workdir` (relative to ROOT) and
    return the fixed command list as (kind, argv, payload): one `list`, the
    seed's `diagnose` commands and a `series` per stream, the series spread
    among the diagnoses."""
    streams = []
    for i, (kind, param) in enumerate(gen.stream_specs(seed)):
        terms = gen.stream_terms(seed, i, kind, param)
        path = workdir / f"stream{i}.csv"
        (ROOT / path).write_text(gen.csv_text(terms))
        streams.append((kind, param, math.fsum(terms), str(path)))
    diagnoses = gen.diagnose_commands(seed)
    every = max(1, len(diagnoses) // len(streams))
    commands = [("list", LIST_ARGV, None)]
    for i, (spec, nodes, argv) in enumerate(diagnoses):
        commands.append(("diagnose", argv, (spec, nodes)))
        if i % every == every - 1 and i // every < len(streams):
            s = streams[i // every]
            commands.append(("series", ["series", "--input", s[3], "--format", "json"], s))
    return commands


@contextlib.contextmanager
def scratch_dir():
    """A per-process directory under the checkout, removed afterwards."""
    rel = Path(TMP.name) / str(os.getpid())
    (ROOT / rel).mkdir(parents=True, exist_ok=True)
    try:
        yield rel
    finally:
        shutil.rmtree(ROOT / rel, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()


def cold_command(argv):
    """One CLI command in a fresh interpreter: (wall, exit code, stdout, stderr)."""
    wall, proc = run_child([sys.executable, "-m", "convlab.cli", *argv])
    return wall, proc.returncode, proc.stdout, proc.stderr


def in_process_command(main):
    """The same command through `main(argv)` in this process."""

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()

    return call


def run_command(commands, index, call, runs):
    """Run commands[index % len]; runs gets (index, kind, payload, argv,
    wall, code, stdout, stderr)."""
    index %= len(commands)
    kind, argv, payload = commands[index]
    runs.append((index, kind, payload, argv, *call(argv)))
    return runs[-1]


def cli_cold(seed, seconds):
    convlab = import_convlab()
    result = Result()
    measure_setup(gen.family_specs(seed), result)
    children = pace.ChildPace(child_wall)
    raw = {}  # command index -> walls
    with scratch_dir() as work:
        commands = cli_commands(seed, work)
        runs = []
        t0 = time.perf_counter()
        # the whole list always runs once, then as much more as fits;
        # a reference child follows every other command
        while len(runs) < len(commands) or room_for_another(t0, seconds, len(runs)):
            run = run_command(commands, len(runs), cold_command, runs)
            raw.setdefault(run[0], []).append(run[4])
            if len(runs) % 2:
                children.sample()
    result.add("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    scaled = {i: [children.scale(w) for w in walls] for i, walls in raw.items()}
    result.add("ops_per_s", throughput(scaled), "1/s", len(runs))
    speed_notes(result, raw, children)
    add_latency(result, [dt for dts in scaled.values() for dt in dts])
    by_kind = {}
    for index, kind, *_ in runs:
        by_kind.setdefault(kind, []).append(statistics.median(raw[index]))
    for kind, walls in by_kind.items():
        result.notes[f"{kind}_s raw"] = f"{statistics.median(walls):.4f} s (n={len(walls)})"
    result.notes["commands"] = f"{len(runs)} ({len(commands)} distinct)"
    check_cli(convlab, runs, result)
    return result


def check_cli(convlab, runs, result):
    from scipy.special import zeta

    catalog = json.loads(json.dumps(convlab.export_catalog(), sort_keys=True))
    reference = {}
    for index, kind, payload, argv, _, code, stdout, stderr in runs:
        op = f"#{index} {kind} {payload[0] if kind == 'series' else ' '.join(argv[1:3])}"
        fails = _cli_failures(convlab, catalog, reference, zeta, kind, payload,
                              code, stdout, stderr)
        result.checked([op], [(op, why, known) for why, known in fails])


def _cli_failures(convlab, catalog, reference, zeta, kind, payload, code, stdout, stderr):
    """(reason, known) failures of one command's output."""
    if code != 0:
        return [(f"exit {code}: {stderr[-200:]}", False)]
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [(f"bad JSON: {exc}", False)]
    if kind == "list":
        if out != catalog:
            return [("catalog differs from export_catalog()", False)]
    elif kind == "diagnose":
        key = json.dumps(payload)
        if key not in reference:
            reference[key] = _diagnose_in_process(convlab, *payload)
        got = {r["mode"]: r["verdict"] for r in out["reports"]}
        if got != reference[key]:
            return [(f"verdicts {got} != in-process {reference[key]}", False)]
    else:
        s_kind, param, exact, _ = payload
        why = oracle.check_series(s_kind, param, exact, out["verdict"], zeta)
        if why:
            return [(why, s_kind == "odd_indicator")]
    return []


def _diagnose_in_process(convlab, spec, nodes):
    from convlab.modes import ModeParams
    from convlab.registry import NODE_MODES

    fam = convlab.build_family(spec[0], **spec[1])
    out = {}
    for node in nodes:
        mode, overrides = NODE_MODES[node]
        out[node] = convlab.check_mode(fam, mode, ModeParams.defaults(fam, **overrides)).verdict
    return out


# ---------------------------------------------------------------------------
# Traced runs: per-layer metrics


def importtime(result):
    """cli.import_s and cli.import_scipy_s from `python -X importtime`."""
    conv, scipy_int = [], []
    for _ in range(IMPORTTIME_REPS):
        _, proc = run_child([sys.executable, "-X", "importtime", "-c", "import convlab"])
        cum = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cum[parts[2]] = int(parts[1]) / 1e6
        conv.append(cum["convlab"])
        scipy_int.append(cum.get("scipy.integrate", 0.0))
    result.add("cli.import_s", statistics.median(conv), "s", len(conv))
    result.add("cli.import_scipy_s", statistics.median(scipy_int), "s", len(scipy_int))


def alternate(seconds, one_pass, tracer, at_least=1):
    """Alternate untraced and traced passes of the same work for about
    `seconds` (at least `at_least` pairs), swapping which goes first in
    every other pair so warm-up favours neither.  one_pass(traced) returns
    the pass output; returns (untraced walls, traced walls, outputs)."""
    plain, traced, outputs = [], [], []
    start = time.perf_counter()
    while len(traced) < at_least or room_for_another(start, seconds, len(traced)):
        for with_spans in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            with spans.instrument(tracer) if with_spans else contextlib.nullcontext():
                t0 = time.perf_counter()
                outputs.append(one_pass(with_spans))
                (traced if with_spans else plain).append(time.perf_counter() - t0)
    return plain, traced, outputs


# Spans whose call counts are per-layer metrics.
COUNTED_SPANS = (
    "space.quad", "space.expectation", "space.expectation_joint", "space.char_fn",
    "space.diff_abs", "space.cdf", "series.analyze_series",
    "series.null_sequence_test", "series.terms", "modes.check_mode",
    "modes.generic_term",
)
# Spans whose self time is a per-layer metric: those every workload enters,
# so no reported time is structurally zero.  The others' self times are in
# their layer's total and in the report lines.
TIMED_SPANS = (
    "space.quad", "space.char_fn", "space.cdf", "series.analyze_series",
    "series.null_sequence_test", "series.terms", "modes.check_mode",
)
# Layers with a summed self time; the cli layer is measured by cli.import_s
# (cold) and the cli.main span (in-process, cli-cold only).
LAYERS = ("space", "series", "registry", "modes")


def layer_metrics(result, tracer, plain, traced):
    """Per-pass layer figures from the traced passes; ratios carry their
    base as the sample count."""
    k = len(traced)
    summary = tracer.summary()
    counts = tracer.counts
    for name in COUNTED_SPANS:
        result.add(f"{name}.calls", summary.get(name, (0, 0.0))[0] / k, "count", k)
    for name in TIMED_SPANS:
        result.add(f"{name}.self_s", summary.get(name, (0, 0.0))[1] / k, "s", k)
    for layer in LAYERS:
        result.add(f"{layer}.self_s", sum(s for n, (_, s) in summary.items()
                                          if n.startswith(layer + ".")) / k, "s", k)
    for name, (calls, self_s) in sorted(summary.items()):
        if name not in TIMED_SPANS:
            result.notes[f"{name}.self_s"] = f"{self_s / k:.6g} s ({calls / k:g} calls)"
    result.add("space.quad.max_err", tracer.maxima["space.quad.max_err"], "abs", k)
    result.add("series.terms.count", counts["series.terms.count"] / k, "count", k)
    result.add("series.n_used.sum", counts["series.n_used.sum"] / k, "count", k)
    probes = (summary.get("series.analyze_series", (0, 0))[0]
              + summary.get("series.null_sequence_test", (0, 0))[0])
    result.add("registry.term_source.calls",
               counts["registry.term_source.calls"] / k, "count", k)
    result.add("registry.term_source.analytic_ratio",
               counts["registry.term_source.analytic"] / probes if probes else 0.0,
               "ratio", probes)
    diff_builds = summary.get("space.diff_abs", (0, 0))[0]
    for cache, builds in (("member", counts["modes.member_cache.builds"]),
                          ("diff", diff_builds)):
        lookups = counts[f"modes.{cache}_cache.lookups"]
        result.add(f"modes.{cache}_cache.hit_ratio",
                   (lookups - builds) / lookups if lookups else 0.0, "ratio", lookups)
        result.add(f"modes.{cache}_cache.lookups", lookups / k, "count", k)
    result.add("trace.overhead_ratio",
               statistics.median(traced) / statistics.median(plain), "ratio", k)
    result.add("trace.coverage_ratio", sum(s for _, s in summary.values()) / sum(traced),
               "ratio", k)
    result.notes["traced passes"] = k
    result.notes["spans"] = len(tracer.start)


def traced_run(workload, seed, seconds):
    """Per-layer metrics: the workload's unit of work run alternately
    without and with spans (cli-cold runs its commands in-process through
    convlab.cli.main), outputs checked as in the untraced run."""
    convlab = import_convlab()
    specs = gen.family_specs(seed)
    result = Result()
    importtime(result)
    tracer = spans.Tracer()
    timer = CellTimer(tracer)
    if workload == "sweep-analytic":
        diagram = convlab.mode_diagram()
        with timer.installed(convlab):
            plain, traced, reports = alternate(
                seconds, lambda _: sweep_pass(convlab, specs, diagram), tracer)
        _check_sweeps(convlab, seed, specs, reports, result)
    elif workload == "grid-generic":
        plain, traced, grids = alternate(
            seconds, lambda _: generic_pass(convlab, specs, timer), tracer)
        _check_generic(convlab, specs, grids, result)
    else:
        import convlab.cli

        main = tracer.wrap("cli.main", convlab.cli.main)
        with scratch_dir() as work:
            commands = cli_commands(seed, work)
            runs = []

            def one_round(traced):
                # both halves of an untraced/traced pair run the same command
                tracer.request_id = len(runs)
                run_command(commands, len(runs) // 2,
                            in_process_command(main if traced else convlab.cli.main), runs)

            plain, traced, _ = alternate(seconds, one_round, tracer, len(commands))
        check_cli(convlab, runs, result)
    layer_metrics(result, tracer, plain, traced)
    return result
