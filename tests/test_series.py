"""Series engine: classification, hints, tails, CSV input, null sequences.

Oracles: exact p-series behavior, sum(1/n^2) = pi^2/6, geometric sums, and
hand-built finite term streams.
"""

import gzip
import importlib.util
import math
import os
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.errors import ParameterError
from convlab.modes import ModeParams, probe_source, probes_for
from convlab.registry import ex31
from convlab.series import (DEFAULT_POLICY, AnalyticHint, EnginePolicy,
                            TermSource, _power_tail, _read_terms_by_line,
                            analyze_series, fit_exponent, load_terms_csv,
                            null_sequence_test)


def power_source(p, hint=None):
    return TermSource(
        lambda ns, p=p: ns.astype(float) ** -p, hint=hint
    )


def test_policy_validation():
    with pytest.raises(ParameterError):
        EnginePolicy(n_max=0)
    with pytest.raises(ParameterError):
        EnginePolicy(exponent_margin=-1.0)
    with pytest.raises(ParameterError):
        EnginePolicy(n_max=10, dyadic_window=8)  # n_max < 2**window


def test_calibration_grid():
    # the engine's headline calibration: D / D / C / C / C
    expected = {0.8: "diverges", 1.0: "diverges", 1.1: "converges",
                1.5: "converges", 2.0: "converges"}
    for p, want in expected.items():
        v = analyze_series(power_source(p))
        assert v.klass == want, f"p={p}: got {v.klass}"


def test_basel_sum_estimate():
    v = analyze_series(power_source(2.0))
    assert v.converges
    assert abs(v.sum_estimate - math.pi ** 2 / 6.0) < 1e-6
    assert v.tail_bound < DEFAULT_POLICY.tail_tolerance


def test_harmonic_diverges_with_fitted_exponent():
    v = analyze_series(power_source(1.0))
    assert v.diverges
    assert abs(v.p_hat - 1.0) < 0.01


def test_geometric_converges():
    v = analyze_series(
        TermSource(lambda ns: 0.5 ** ns.astype(float))
    )
    assert v.converges
    # oracle: sum 2^-n = 1
    assert abs(v.sum_estimate - 1.0) < 1e-9


def test_blowup_detection():
    v = analyze_series(
        TermSource(lambda ns: np.full(len(ns), 10.0))
    )
    assert v.diverges
    assert v.evidence["method"] == "partial_sum_blowup"


def test_all_zero_converges():
    v = analyze_series(
        TermSource(lambda ns: np.zeros(len(ns)))
    )
    assert v.converges
    assert v.sum_estimate == 0.0
    assert v.tail_bound == 0.0


def test_negative_terms_rejected():
    src = TermSource(lambda ns: -np.ones(len(ns)))
    with pytest.raises(ParameterError):
        src.terms(1, 10)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_terms_rejected(bad):
    src = TermSource(lambda ns: np.where(ns == 3, bad, 1.0))
    with pytest.raises(ParameterError, match="non-finite term at n=3"):
        src.terms(1, 10)


def test_tiny_negative_noise_clamped():
    src = TermSource(lambda ns: np.full(len(ns), -1e-14))
    assert np.all(src.terms(1, 10) == 0.0)


def test_hint_eventually_zero():
    src = TermSource(
        lambda ns: (ns <= 5).astype(float),
        hint=AnalyticHint("eventually_zero", start=5),
    )
    v = analyze_series(src)
    assert v.converges
    assert v.tail_bound == 0.0
    assert abs(v.sum_estimate - 5.0) < 1e-12


def test_hint_eventually_constant_diverges():
    src = TermSource(
        lambda ns: np.ones(len(ns)),
        hint=AnalyticHint("eventually_constant", level=1.0),
    )
    assert analyze_series(src).diverges


def test_hint_power_boundary():
    assert analyze_series(
        power_source(1.0, hint=AnalyticHint("power", exponent=1.0))
    ).diverges
    v = analyze_series(
        power_source(1.2, hint=AnalyticHint("power", exponent=1.2))
    )
    assert v.converges
    # oracle: zeta(1.2)
    from scipy.special import zeta

    assert abs(v.sum_estimate - zeta(1.2)) < 1e-5


def test_hinted_power_stops_at_tight_sandwich():
    v = analyze_series(power_source(2.0, hint=AnalyticHint("power", exponent=2.0)))
    assert v.converges
    assert v.n_used < 2 ** 13
    assert v.tail_bound < 0.1 * DEFAULT_POLICY.tail_tolerance
    # oracle: the interval holds pi^2/6
    assert v.sum_estimate - 1e-12 <= math.pi ** 2 / 6.0
    assert math.pi ** 2 / 6.0 <= v.sum_estimate + v.tail_bound + 1e-12


def test_hinted_power_does_not_stop_inside_plateau():
    # ex31(2) at eps=0.01: terms are 1 up to n = 10^4, then exactly n^-2
    from scipy.special import zeta

    src = ex31(2.0).meta.term_source("tail", 0.01, 1.0)
    v = analyze_series(src)
    assert v.converges
    assert v.n_used > 10 ** 4
    exact = 1e4 + zeta(2.0, 1e4 + 1.0)
    assert v.sum_estimate - 1e-9 <= exact <= v.sum_estimate + v.tail_bound + 1e-9


def test_power_tail_huge_exponent_is_finite():
    est, bound = _power_tail(1.0, 1e-300, 1023, 1e300)
    assert math.isfinite(est) and math.isfinite(bound)
    assert est == 1.0 and 0.0 <= bound < 1e-300


def test_hint_validation():
    with pytest.raises(ParameterError):
        AnalyticHint("power")
    with pytest.raises(ParameterError):
        AnalyticHint("nope")
    with pytest.raises(ParameterError):
        AnalyticHint("eventually_constant")


@given(p=st.floats(1.3, 3.0))
@settings(max_examples=30, deadline=None)
def test_supercritical_powers_converge(p):
    assert analyze_series(power_source(p)).converges


@given(p=st.floats(0.2, 0.9))
@settings(max_examples=30, deadline=None)
def test_subcritical_powers_diverge(p):
    assert analyze_series(power_source(p)).diverges


def test_fit_exponent():
    p_hat, ci = fit_exponent(power_source(1.7))
    assert abs(p_hat - 1.7) < 1e-6
    assert ci < 1e-3


@pytest.mark.parametrize("length", (4, 5, 8, 9, 1000, 1024, 1025, 4095))
def test_fit_exponent_anchors_are_powers_of_two_up_to_horizon(length):
    from convlab import series

    ns = np.arange(1, length + 1, dtype=float)
    vals = ns ** -1.3 * (1.5 + np.sin(ns))
    anchor_ns = [2 ** k for k in range(int(math.log2(length)) + 1)]
    policy = EnginePolicy(n_max=10_000, dyadic_window=4)
    if len(anchor_ns) < 4:  # lengths 4 and 5: three anchors, fewer than the window
        with pytest.raises(series.TooFewAnchors):
            fit_exponent(TermSource.from_values(vals), policy)
        return
    want = series._anchor_fit(anchor_ns, vals[np.array(anchor_ns) - 1], 4)
    assert fit_exponent(TermSource.from_values(vals), policy) == want


def test_fit_exponent_needs_three_positive_anchors():
    from convlab import series

    vals = np.zeros(64)
    vals[[0, 1]] = 1.0  # positive at anchors 1 and 2 only
    with pytest.raises(series.TooFewAnchors):
        fit_exponent(TermSource.from_values(vals))
    vals[[0, 1]] = 0.0
    vals[[2, 6]] = 1.0  # positive off the anchors only
    with pytest.raises(series.TooFewAnchors):
        fit_exponent(TermSource.from_values(vals))


def test_sum_estimate_nondecreasing_in_horizon():
    src = power_source(2.0)
    est_small = analyze_series(src, EnginePolicy(n_max=10_000)).sum_estimate
    est_big = analyze_series(src, EnginePolicy(n_max=1_000_000)).sum_estimate
    assert est_big + 1e-12 >= est_small


def test_determinism():
    a = analyze_series(power_source(1.5)).to_dict()
    b = analyze_series(power_source(1.5)).to_dict()
    assert a == b


def test_null_sequence_basic():
    assert null_sequence_test(power_source(1.0)).tends_to_zero
    v = null_sequence_test(
        TermSource(lambda ns: np.full(len(ns), 0.5))
    )
    assert v.klass == "stays_above"
    assert abs(v.level - 0.5) < 1e-12


def test_fit_inside_the_margin_above_one_is_inconclusive():
    # p = 1.03: the fit's interval lies wholly in (1, 1 + exponent_margin],
    # so it shows neither divergence nor a summable tail
    v = analyze_series(power_source(1.03))
    assert v.klass == "inconclusive"
    assert v.evidence == {"method": "exponent_near_boundary"}
    assert 1.0 < v.p_hat - v.ci_halfwidth
    assert v.p_hat + v.ci_halfwidth <= 1.0 + DEFAULT_POLICY.exponent_margin
    # an interval reaching 1 still diverges
    assert analyze_series(power_source(1.0)).diverges


def test_slowly_decaying_stream_does_not_stay_above():
    # n^-0.01 tends to 0: a fit that is flat within 0.02 but whose interval
    # stays above 0 is inconclusive, not stays_above
    v = null_sequence_test(power_source(0.01))
    assert v.klass == "inconclusive"
    assert v.p_hat - v.ci_halfwidth > 0.0


def test_null_sequence_hints():
    assert null_sequence_test(
        power_source(0.3, hint=AnalyticHint("power", exponent=0.3))
    ).tends_to_zero
    v = null_sequence_test(
        TermSource(
            lambda ns: np.ones(len(ns)),
            hint=AnalyticHint("eventually_constant", level=1.0),
        )
    )
    assert v.klass == "stays_above"


def test_from_values_and_length():
    src = TermSource.from_values([1.0, 0.5, 0.25])
    assert src.effective_n_max(DEFAULT_POLICY) == 3
    assert list(src.terms(1, 4)) == [1.0, 0.5, 0.25]
    for values in ([], [0.5]):
        with pytest.raises(ParameterError, match=f"got {len(values)}"):
            TermSource.from_values(values)


def test_load_terms_csv(tmp_path):
    path = tmp_path / "terms.csv"
    path.write_text("term\n1.0\n0.5\n\n0.25\n")
    src = load_terms_csv(path)
    assert list(src.terms(1, 4)) == [1.0, 0.5, 0.25]


def test_load_terms_csv_errors(tmp_path):
    bad_num = tmp_path / "bad.csv"
    bad_num.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ParameterError, match="line 2"):
        load_terms_csv(bad_num)
    neg = tmp_path / "neg.csv"
    neg.write_text("1.0\n-0.5\n")
    with pytest.raises(ParameterError, match="negative"):
        load_terms_csv(neg)
    for i, cell in enumerate(("nan", "inf")):
        non_finite = tmp_path / f"non_finite{i}.csv"
        non_finite.write_text(f"1.0\n{cell}\n0.25\n")
        with pytest.raises(ParameterError, match="line 2: non-finite"):
            load_terms_csv(non_finite)
    empty = tmp_path / "empty.csv"
    empty.write_text("header\n")
    with pytest.raises(ParameterError, match="no terms"):
        load_terms_csv(empty)


def test_harmonic_csv_roundtrip(tmp_path):
    path = tmp_path / "harmonic.csv"
    path.write_text("\n".join(repr(1.0 / n) for n in range(1, 100_001)))
    v = analyze_series(load_terms_csv(path))
    assert v.diverges
    assert abs(v.p_hat - 1.0) < 0.02


def test_byte_order_mark_is_not_a_header(tmp_path):
    path = tmp_path / "bom.csv"
    for text in ("\ufeff0.5\n0.25\n", "\ufeffterm\n0.5\n0.25\n"):
        path.write_text(text, encoding="utf-8")
        src = load_terms_csv(path)
        assert src.horizon == 2
        assert list(src.terms(1, 3)) == [0.5, 0.25]


# every corner of the CSV dialect the two readers must agree on
CSV_CORPUS = {
    "plain": "0.5\n0.25\n0.125\n",
    "header": "term\n0.5\n0.25\n",
    "header_only": "term\n",
    "empty": "",
    "blank_lines_only": "\n\n  \n\t\n",
    "blank_first_line": "\nterm\n0.5\n0.25\n",
    "blank_first_line_no_header": "\n0.5\n0.25\n",
    "header_then_blank_lines": "term\n\n \n",
    "header_on_line_2": "0.5\nterm\n0.25\n",
    "one_term": "term\n0.5\n",
    "crlf": "term\r\n0.5\r\n0.25\r\n",
    "lone_cr": "0.5\r0.25\r",
    "tabs_and_spaces": "\t0.5 ,x\n  0.25\t\n 0.125 \n",
    "blank_lines_between": "0.5\n   \n\n0.25\n",
    "blank_first_cell": "0.5\n,3\n0.25\n",
    "leading_plus": "+0.5\n+0.25\n",
    "quoted": '"term"\n"0.5"\n" 0.25 "\n',
    "quote_after_space": ' "0.5"\n0.25\n',
    "quote_inside_cell": '0.5\n0.25"x"\n',
    "quoted_newline": '"0.5\n"\n0.25\n',
    "quoted_header_over_two_lines": '"ab\n0.5"\n0.25\n0.125\n',
    "unclosed_quote_in_column_2": '0.5,"x\n0.25\n0.125\n',
    "extra_columns": "term,other\n0.5,1\n0.25,x,y\n",
    "underscore": "1_000\n0.5\n",
    "negative_zero": "-0.0\n0.5\n",
    "negative": "0.5\n-0.25\n",
    "hex_header": "0x1p-1\n0.5\n0.25\n",
    "hex": "0.5\n0x1p-1\n",
    "nan": "0.5\nNaN\n",
    "infinity": "0.5\nInfinity\n",
    "infinity_line_1": "Infinity\n0.5\n",
    "comment_header": "# terms\n0.5\n0.25\n",
    "comment_line": "0.5\n# note\n0.25\n",
    "semicolons": "0.5;1\n0.25;2\n",
    "fortran_exponent": "0.5\n1.0D-1\n",
    "fullwidth_digits": "\uff10.\uff15\n0.25\n",
    "no_break_space": "\xa00.5\n0.25\xa0\n",
    "nul": "0.5\x00\n0.25\n",
    "bom": "\ufeff0.5\n0.25\n",
    "bom_header": "\ufeffterm\n0.5\n0.25\n",
    "long_cell": "0.5\n" + "x" * 200_000 + "\n",
    "binary": bytes(range(256)) * 4,
    "latin1": b"0.5\n\xe90.25\n",
    "bad_byte_past_first_chunk": b"0.5\n" * 5000 + b"\xff\n",
}


def _load_outcome(read):
    """The terms' bytes, or the ParameterError message."""
    try:
        src = read()
    except ParameterError as exc:
        return str(exc)
    return src.generator(np.arange(1, src.horizon + 1)).tobytes()


def _assert_readers_agree(path):
    want = _load_outcome(lambda: TermSource.from_values(_read_terms_by_line(path)))
    assert _load_outcome(lambda: load_terms_csv(path)) == want


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(CSV_CORPUS))
def test_fast_reader_agrees_with_line_reader(tmp_path, name):
    body = CSV_CORPUS[name]
    path = tmp_path / f"{name}.csv"
    if isinstance(body, str):
        path.write_text(body, encoding="utf-8", newline="")
    else:
        path.write_bytes(body)
    _assert_readers_agree(path)


@pytest.mark.filterwarnings("error")
def test_compressed_name_is_read_as_plain_bytes(tmp_path):
    # numpy's DataSource would decompress it; the stream's bytes are not UTF-8
    path = tmp_path / "terms.csv.gz"
    path.write_bytes(gzip.compress(b"0.5\n0.25\n"))
    with pytest.raises(ParameterError, match="cannot read"):
        load_terms_csv(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_named_pipe_is_read_once(tmp_path):
    fifo = tmp_path / "terms.pipe"
    os.mkfifo(fifo)
    loaded = []
    reader = threading.Thread(target=lambda: loaded.append(load_terms_csv(fifo)),
                              daemon=True)
    reader.start()
    deadline = time.monotonic() + 30
    while True:  # the write end opens once the reader has opened the pipe
        try:
            fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            break
        except OSError:
            assert time.monotonic() < deadline
            time.sleep(0.01)
    with os.fdopen(fd, "w") as fh:
        fh.write("term\n0.5\n0.25\n0.125\n")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert list(loaded[0].terms(1, 4)) == [0.5, 0.25, 0.125]


def _perfbench_gen():
    # gen.py is plain Python with no convlab import; load it by path
    gen_py = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", gen_py)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(10))
def test_fast_reader_agrees_on_benchmark_streams(tmp_path, seed):
    gen = _perfbench_gen()
    for i, (kind, param) in enumerate(gen.stream_specs(seed)):
        path = tmp_path / f"stream{i}.csv"
        path.write_text(gen.csv_text(gen.stream_terms(seed, i, kind, param)))
        _assert_readers_agree(path)


def test_dense_cap_limits_scan():
    calls = []

    def slow(n):
        calls.append(n)
        return 1.0 / n ** 2

    src = TermSource.from_scalar(slow, horizon=256)
    analyze_series(src)
    assert max(calls) <= 256


def recording_source(p, sizes):
    def gen(ns):
        sizes.append(len(ns))
        return ns.astype(float) ** -p

    return TermSource(gen)


def test_long_blocks_are_generated_in_chunks():
    # one generator call never spans more than series._CHUNK terms, and the
    # chunked block sums equal np.sum over whole dyadic blocks to the bit
    from convlab import series

    sizes = []
    v = analyze_series(recording_source(1.5, sizes))
    assert v.n_used == DEFAULT_POLICY.n_max
    assert max(sizes) <= series._CHUNK
    blocks = [float(np.sum(np.arange(lo, hi, dtype=float) ** -1.5))
              for lo, hi in series._dyadic_blocks(DEFAULT_POLICY.n_max)]
    est, _ = _power_tail(series._neumaier(blocks), DEFAULT_POLICY.n_max ** -1.5,
                         DEFAULT_POLICY.n_max, v.p_hat)
    assert v.sum_estimate == est

    sizes.clear()
    assert null_sequence_test(recording_source(0.5, sizes)).tends_to_zero
    assert max(sizes) <= series._CHUNK


def test_chunked_block_matches_whole_block(monkeypatch):
    # bit-identical for every chunk of at least numpy's pairwise block size
    from convlab import series

    for cap in (128, 1 << 10, 1 << 13, 1 << 16):
        monkeypatch.setattr(series, "_CHUNK", cap)
        rng = np.random.default_rng(7)
        for n in (1, 7, cap, cap + 1, cap + 3, 2 * cap + 6, 3 * cap + 5) * 3:
            vals = rng.random(n) * 10.0 ** rng.uniform(-12, 3, n)
            src = TermSource(lambda ns, vals=vals: vals[ns - 1])
            assert series._block(src, 1, n + 1) == (
                float(np.sum(vals)), vals[0], vals[-1], vals.min(), vals.max()), (cap, n)


def test_warm_unhinted_scan_reuses_its_heap():
    # a 10**6-term two-atom scan: its per-chunk numpy temporaries must stay
    # small enough for the allocator to reuse rather than map in afresh.  A
    # source keeps its block sums, so each warm scan runs on a fresh family.
    def fresh_source():
        fam = ex31(2.0)
        params = ModeParams.defaults(fam)
        return probe_source(fam, "s1d", probes_for("s1d", params)[0], params)

    src = fresh_source()
    assert src.hint is None
    assert analyze_series(src).n_used == DEFAULT_POLICY.n_max
    if sys.platform.startswith("linux"):
        import resource

        src = fresh_source()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        analyze_series(src)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
    src = fresh_source()
    tracemalloc.start()
    try:
        analyze_series(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("values", ([0.5, 0.25], [1.0, 0.0, 1.0], [0.3, 0.2, 0.1],
                                    [0.0, 0.0, 1.0], [0.5] * 5))
def test_short_stream_with_too_few_positive_anchors_is_inconclusive(values):
    src = TermSource.from_values(values)
    v = analyze_series(src)
    assert v.klass == "inconclusive"
    assert v.evidence == {"method": "too_few_positive_anchors"}
    assert v.sum_estimate is None and v.tail_bound is None
    assert null_sequence_test(src).klass == "inconclusive"


@pytest.mark.parametrize("values", ([0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]))
def test_stream_zero_to_its_end_still_converges(values):
    src = TermSource.from_values(values)
    v = analyze_series(src)
    assert v.klass == "converges" and v.tail_bound == 0.0
    assert v.sum_estimate == sum(values)
    assert null_sequence_test(src).tends_to_zero


class Recorder:
    """Term streams that log each generator call as (name, lo, hi)."""

    def __init__(self):
        self.calls = []

    def source(self, name, fn, **kwargs):
        def gen(ns):
            self.calls.append((name, int(ns[0]), int(ns[-1]) + 1))
            return fn(ns)

        return TermSource(gen, **kwargs)

    def terms(self, name):
        return sum(hi - lo for who, lo, hi in self.calls if who == name)


def _mixed_sources(rec):
    """A hinted, unhinted, blowing-up, capped and finite-length mix."""
    rng = np.random.default_rng(3)
    short = rng.random(3000) * np.arange(1, 3001) ** -2.0
    longer = rng.random(5000) * np.arange(1, 5001) ** -1.1
    return {
        "hinted": rec.source("hinted", lambda ns: ns.astype(float) ** -1.5,
                             hint=AnalyticHint("power", exponent=1.5)),
        "p2": rec.source("p2", lambda ns: ns.astype(float) ** -2.0),
        "p12": rec.source("p12", lambda ns: ns.astype(float) ** -1.2),
        "p05": rec.source("p05", lambda ns: ns.astype(float) ** -0.5),
        "blowup": rec.source("blowup", lambda ns: np.full(len(ns), 2.0)),
        "capped": rec.source("capped", lambda ns: ns.astype(float) ** -3.0,
                             horizon=4096),
        "zeros": rec.source("zeros", lambda ns: (ns < 40) * 1.0),
        "short": rec.source("short", lambda ns: short[ns - 1], horizon=short.size),
        "longer": rec.source("longer", lambda ns: longer[ns - 1], horizon=longer.size),
    }


@pytest.mark.parametrize("test", (analyze_series, null_sequence_test))
def test_grouped_scans_equal_ungrouped(test):
    # every source gets the same verdict, field for field, and evaluates the
    # same terms, whether or not it scans alongside the rest of its group
    policy = EnginePolicy(n_max=50_000, blowup_threshold=1e3)
    alone, together = Recorder(), Recorder()
    lone = _mixed_sources(alone)
    want = {name: test(src, policy) for name, src in lone.items()}
    grouped = _mixed_sources(together)
    group = tuple(grouped.values())
    got = {name: test(src, policy, group) for name, src in grouped.items()}
    for name in grouped:
        assert got[name] == want[name], name
        assert got[name].to_dict() == want[name].to_dict(), name
        assert together.terms(name) == alone.terms(name), name
    # unhinted members with one horizon took their chunks in turn: in a
    # scan the hinted source went alone and the blown-up one had stopped; in
    # a null test the hinted one read no terms
    if test is analyze_series:
        lo, want_names = 8192, ["hinted", "p2", "p12", "p05", "zeros"]
        assert want["blowup"].klass == "diverges"
        assert together.terms("p12") == 50_000
    else:
        lo, want_names = 32768, ["p2", "p12", "p05", "blowup", "zeros"]
    assert [who for who, start, end in together.calls
            if start == lo and end > lo + 1] == want_names
    # a second pass reads every block from the sources' memos
    before = len(together.calls)
    again = {name: test(src, policy, group) for name, src in grouped.items()}
    assert again == got
    assert all(start != lo or end == lo + 1
               for _, start, end in together.calls[before:])
