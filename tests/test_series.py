"""Series engine: classification, hints, tails, CSV input, null sequences.

Oracles: exact p-series behavior, sum(1/n^2) = pi^2/6, geometric sums, and
hand-built finite term streams.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlab.errors import ParameterError
from convlab.registry import ex31
from convlab.series import (DEFAULT_POLICY, AnalyticHint, EnginePolicy,
                            TermSource, _power_tail, analyze_series,
                            fit_exponent, load_terms_csv, null_sequence_test)


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

    src = ex31(2.0).meta.term_source("cc", ("eps", 0.01), None)
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
    want = series._anchor_fit(anchor_ns, vals[np.array(anchor_ns) - 1], 4)
    assert fit_exponent(TermSource.from_values(vals), policy) == want


def test_fit_exponent_needs_three_positive_anchors():
    from convlab import series

    vals = np.zeros(64)
    vals[[0, 1]] = 1.0  # positive at anchors 1 and 2 only
    with pytest.raises(series.AllTermsZero):
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
    with pytest.raises(ParameterError):
        TermSource.from_values([])


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


def test_dense_cap_limits_scan():
    calls = []

    def slow(n):
        calls.append(n)
        return 1.0 / n ** 2

    src = TermSource.from_scalar(slow, dense_cap=256)
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


def test_chunked_block_matches_whole_block():
    from convlab import series

    rng = np.random.default_rng(7)
    cap = series._CHUNK
    for n in (1, 7, cap, cap + 1, cap + 3, 2 * cap + 6, 3 * cap + 5) * 3:
        vals = rng.random(n) * 10.0 ** rng.uniform(-12, 3, n)
        src = TermSource.from_values(vals)
        assert series._block(src, 1, n + 1) == (
            float(np.sum(vals)), vals[0], vals[-1], vals.min(), vals.max())
