"""Tests for the benchmark's own machinery (not for convlab).

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gen, oracle, pace, spans, stats, workloads

RUN = [sys.executable, str(Path(workloads.ROOT) / "perfbench" / "run.py")]


# ---------------------------------------------------------------------------
# self time


def test_self_time_nested():
    # root [0,10] > a [1,4] > b [2,3]; root > c [5,9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_overlapping_children_counted_once():
    # children [1,5] and [3,7] overlap on [3,5]; [8,12] sticks out of [0,10]
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [-1, 0, 0, 0]
    out = spans.self_times(starts, ends, parents)
    assert out[0] == pytest.approx(10.0 - 6.0 - 2.0)
    assert out[1:] == [4.0, 4.0, 4.0]


def test_tracer_spans_nest_and_sum():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    summary = tracer.summary()
    # outer [0,5] holds inner [1,2] and [3,4]
    assert summary == {"inner": (2, 2.0), "outer": (1, 3.0)}
    assert list(tracer.parent) == [-1, 0, 0]


def test_instrument_restores_originals():
    convlab = workloads.import_convlab()
    before = (convlab.modes.check_mode, convlab.series.TermSource.terms,
              convlab.space.quad, convlab.modes.Family.member)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert convlab.modes.check_mode is not before[0]
        fam = convlab.build_family("ex31", alpha=2.0)
        convlab.check_mode(fam, "s2d")
    after = (convlab.modes.check_mode, convlab.series.TermSource.terms,
             convlab.space.quad, convlab.modes.Family.member)
    assert after == before
    summary = tracer.summary()
    assert summary["modes.check_mode"][0] == 1
    assert tracer.counts["registry.term_source.analytic"] > 0


# ---------------------------------------------------------------------------
# percentile rule


def test_percentile_needs_ten_samples_beyond():
    assert stats.beyond(100, 90) == 10 and stats.tail_ok(100, 90)
    assert stats.beyond(99, 90) == 9 and not stats.tail_ok(99, 90)
    assert stats.beyond(78, 90) == 7
    assert stats.percentile(list(range(1, 101)), 90) == 90
    assert stats.percentile([3.0], 90) == 3.0


# ---------------------------------------------------------------------------
# seeded inputs


def test_seed0_is_default_registry():
    convlab = workloads.import_convlab()
    built = workloads.build_families(convlab, gen.family_specs(0))
    assert [f.describe() for f in built] == [f.describe() for f in convlab.default_registry()]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_same_seed_same_inputs(seed):
    def inputs():
        streams = gen.stream_specs(seed)
        return json.dumps({
            "families": gen.family_specs(seed),
            "argv": [argv for _, _, argv in gen.diagnose_commands(seed)],
            "csv": [gen.csv_text(gen.stream_terms(seed, i, k, p, count=2000))
                    for i, (k, p) in enumerate(streams)],
        }).encode()

    assert inputs() == inputs()
    assert gen.family_specs(seed + 1) != gen.family_specs(seed)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_diagnoses_cover_every_cell_once(seed):
    cells = [(spec[0], tuple(sorted(spec[1].items())), node)
             for spec, nodes, _ in gen.diagnose_commands(seed) for node in nodes]
    assert len(cells) == len(set(cells)) == 6 * len(gen.MODE_NODES)
    assert len(gen.diagnose_commands(seed)) == 6 * gen.DIAGNOSE_GROUPS


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_every_seed_draws_each_stream_kind(seed):
    assert [k for k, _ in gen.stream_specs(seed)] == list(gen.STREAM_KINDS)


def test_cli_command_list_is_fixed():
    with workloads.scratch_dir() as work:
        commands = workloads.cli_commands(0, work)
        assert all((workloads.ROOT / a[2]).is_file() for k, a, _ in commands if k == "series")
    kinds = [k for k, _, _ in commands]
    assert kinds[0] == "list" and kinds.count("list") == 1
    assert kinds.count("diagnose") == 6 * gen.DIAGNOSE_GROUPS
    assert kinds.count("series") == len(gen.STREAM_KINDS)


@pytest.mark.parametrize("seed", range(1, 30))
def test_redraws_stay_in_regime(seed):
    (_, ex31), (_, bnd), (_, hold), _, _, (_, shift) = gen.family_specs(seed)
    assert ex31["alpha"] > 1.0
    assert (1.0 - bnd["alpha"]) * bnd["beta"] <= 1.0 < bnd["beta"]
    assert (1.0 - hold["alpha"]) * hold["beta"] > 1.0
    assert shift["beta"] > 1.0


# ---------------------------------------------------------------------------
# op accounting and speed scaling


def test_ops_are_counted_once_however_often_they_run():
    result = workloads.Result()
    result.checked(["a", "b"])
    result.checked(["a", "b"], [("b", "late failure", True)])
    result.checked(["a", "b"], [("b", "other reason", False)])
    assert result.ops == {"a", "b"} and result.executions == 6
    assert result.failures == {"b": ("late failure", True)}


def test_pace_scales_wall_time_to_reference_speed():
    now = [0.0]

    def slow_kernel():  # twice as slow as the reference slice
        now[0] += 2 * pace.REF_SLICE_S

    speed = pace.Pace(clock=lambda: now[0], kernel=slow_kernel)
    assert speed.scale(0.5) == pytest.approx(0.25)
    assert speed.slices == 1 + int(0.5 / pace.SLICE_EVERY_S)
    assert speed.speed() == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# oracle and fault injection


@pytest.fixture(scope="module")
def seed0_sweep():
    convlab = workloads.import_convlab()
    specs = gen.family_specs(0)
    report = workloads.sweep_pass(convlab, specs, convlab.mode_diagram())
    return convlab, workloads.build_families(convlab, specs), report


def _check(convlab, families, report, golden):
    from convlab.registry import verdict_matches

    return oracle.check_sweep(families, report, convlab.expected_verdicts,
                              verdict_matches, golden)


def test_seed0_sweep_matches_golden(seed0_sweep):
    convlab, families, report = seed0_sweep
    assert _check(convlab, families, report, oracle.load_golden()) == []


def test_flipped_golden_verdict_is_a_failed_op(seed0_sweep):
    convlab, families, report = seed0_sweep
    golden = oracle.load_golden()
    fam = families[1].name
    golden["grid"][fam]["s2d"] = "holds" if golden["grid"][fam]["s2d"] != "holds" else "fails"
    fails = _check(convlab, families, report, golden)
    assert [(op, known) for op, _, known in fails] == [((fam, "s2d"), False)]


def test_shifted_golden_interval_is_a_failed_op(seed0_sweep):
    convlab, families, report = seed0_sweep
    golden = oracle.load_golden()
    table = golden["probes"][families[5].name]["slinf"]
    key = next(k for k, v in table.items() if v[0] == "converges")
    table[key][1] += 10 * table[key][2] + 1e-3
    fails = _check(convlab, families, report, golden)
    assert len(fails) == 1 and "misses golden" in fails[0][1]


def test_intervals_meet():
    assert oracle.intervals_meet(1.0, 0.5, 1.4, 0.0)
    assert oracle.intervals_meet(1.0, 0.0, 1.0, 0.0)
    assert not oracle.intervals_meet(1.0, 0.1, 1.2, 0.05)


def test_route_disagreement_is_known_failure():
    generic = {"f": {"cc": "fails", "s1d": "inconclusive", "s2d": "holds"}}
    analytic = {"f": {"cc": "holds", "s1d": "holds", "s2d": "not_falsified"}}
    assert oracle.route_disagreements(generic, analytic) == [
        (("f", "cc"), "generic fails, analytic holds", True)]


def test_series_truth():
    from scipy.special import zeta

    odd = {"class": "converges", "sum_estimate": 50000.0, "tail_bound": 0.0}
    assert "truth diverges" in oracle.check_series("odd_indicator", None, 5e4, odd, zeta)
    good = {"class": "converges", "sum_estimate": float(zeta(2.0)) - 1e-7, "tail_bound": 2e-7}
    assert oracle.check_series("power_converges", 2.0, None, good, zeta) is None
    bad = dict(good, tail_bound=1e-8)
    assert "outside" in oracle.check_series("power_converges", 2.0, None, bad, zeta)


def test_inject_edge_registers_failed_op():
    out = subprocess.run(RUN + ["--workload", "sweep-analytic", "--seed", "0",
                                "--seconds", "0.1", "--inject-edge", "s2d,s1d"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["failed"] >= 1 and last["correct"] is False
    assert "violation s2d->s1d" in out.stdout


def test_guard_refuses_missing_source(monkeypatch):
    monkeypatch.setattr(workloads, "SRC", workloads.ROOT / "no-such-src")
    with pytest.raises(workloads.BenchError):
        workloads.import_convlab()
