"""Series engine: classification, term laws, tails, CSV input, null sequences.

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
from convlab.series import (DEFAULT_POLICY, DYADIC_WINDOW, EXPONENT_MARGIN,
                            TAIL_TOLERANCE, EnginePolicy, TermLaw, TermSource,
                            _power_tail, _read_terms_by_line, analyze_series,
                            fit_exponent, load_terms_csv, null_sequence_test)
from convlab.testfuncs import ClampedAffine


def power_source(p, law=None):
    return TermSource(
        lambda ns, p=p: ns.astype(float) ** -p, law=law
    )


def rate(p, level=None):
    """The rate law level * n^-p, which holds only eventually."""
    return TermLaw(None, ((level, p),))


def test_policy_validation():
    with pytest.raises(ParameterError):
        EnginePolicy(n_max=0)
    with pytest.raises(ParameterError):
        EnginePolicy(n_max=10)  # n_max < 2**DYADIC_WINDOW
    assert EnginePolicy(n_max=2 ** DYADIC_WINDOW).n_max == 256
    # the engine rules stay in the printed policy beside its one setting
    assert EnginePolicy(n_max=4096).to_dict() == {
        "n_max": 4096, "dyadic_window": 8, "exponent_margin": 0.05,
        "tail_tolerance": 1e-6, "blowup_threshold": 1e6, "null_tolerance": 1e-8}


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
    assert v.tail_bound < TAIL_TOLERANCE


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
        law=TermLaw(start=6),
    )
    v = analyze_series(src)
    assert v.converges
    assert v.tail_bound == 0.0
    assert abs(v.sum_estimate - 5.0) < 1e-12


def test_zero_law_starting_past_the_horizon_is_inconclusive():
    # the terms are 1 up to n = 5000: a sum to the horizon 4096 would miss
    # the last 904 and still claim tail_bound 0
    calls = []

    def gen(ns):
        calls.append(len(ns))
        return (ns <= 5000).astype(float)

    law = TermLaw(start=5001)
    for src, policy in ((TermSource(gen, law=law), EnginePolicy(n_max=4096)),
                        (TermSource(gen, law=law, horizon=4096), DEFAULT_POLICY)):
        assert analyze_series(src, policy).to_dict() == {
            "class": "inconclusive", "n_used": 0,
            "evidence": {"method": "analytic_hint",
                         "hint": {"start": 5001, "terms": []}}}
    assert calls == []
    v = analyze_series(TermSource(gen, law=law), EnginePolicy(n_max=8192))
    assert v.converges and (v.sum_estimate, v.tail_bound, v.n_used) == (5000.0, 0.0, 5000)


def test_hint_eventually_constant_diverges():
    src = TermSource(
        lambda ns: np.ones(len(ns)),
        law=rate(0.0, 1.0),
    )
    assert analyze_series(src).diverges


def test_hint_power_boundary():
    assert analyze_series(
        power_source(1.0, law=rate(1.0))
    ).diverges
    v = analyze_series(
        power_source(1.2, law=rate(1.2))
    )
    assert v.converges
    # oracle: zeta(1.2)
    from scipy.special import zeta

    assert abs(v.sum_estimate - zeta(1.2)) < 1e-5


def test_hinted_power_stops_at_tight_sandwich():
    v = analyze_series(power_source(2.0, law=rate(2.0)))
    assert v.converges
    assert v.n_used < 2 ** 13
    assert v.tail_bound < 0.1 * TAIL_TOLERANCE
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
    # a rate law states nonnegative terms: no negative exponent or level; no
    # law starts before n = 1, and a law from a start knows its constants
    for bad in (dict(start=None, terms=((None, -1.0),)),
                dict(start=1, terms=((1.0, -1.0),)), dict(start=0),
                dict(start=None, terms=((-1.0, 2.0),)),
                dict(start=None, terms=((0.0, 0.0),)),
                dict(start=None, terms=((1.0, 2.0), (1.0, 3.0))),
                dict(start=None, terms=((1.0, 2.0),), remainder=(1.0, 3.0)),
                dict(start=None, terms=()),
                dict(start=1, terms=((None, 2.0),)),
                dict(start=1, terms=((1.0, 2.0),), remainder=(0.0, 3.0)),
                dict(start=1, terms=((1.0, 2.0),), remainder=(-1.0, 3.0))):
        with pytest.raises(ParameterError):
            TermLaw(**bad)


@pytest.mark.parametrize("law", (
    dict(start=None, terms=((None, math.nan),)), dict(start=None, terms=((math.nan, 2.0),)),
    dict(start=None, terms=((math.inf, 2.0),)), dict(start=None, terms=((-math.inf, 0.0),)),
    dict(terms=((math.nan, 2.0),)), dict(terms=((1.0, math.inf),)),
    dict(terms=((1.0, 2.0),), remainder=(1.0, math.nan)),
    dict(terms=((1.0, 2.0),), remainder=(math.inf, 3.0))))
def test_law_rejects_nan_exponent_and_non_finite_level(law):
    # a NaN exponent used to give `converges` with a nan sum_estimate
    with pytest.raises(ParameterError, match="term law"):
        TermLaw(**law)


def test_law_merges_its_terms_by_exponent():
    # n^-2 + n^-2 - n^-4 + 0 n^-3 is 2 n^-2 - n^-4; terms of one exponent
    # that cancel drop out
    law = TermLaw(terms=((-1.0, 4.0), (1.0, 2.0), (0.0, 3.0), (1.0, 2.0)))
    assert law.terms == ((2.0, 2.0), (-1.0, 4.0))
    assert (law.exponent, law.level) == (2.0, 2.0)
    assert TermLaw(terms=((1.0, 5.0), (-1.0, 5.0))) == TermLaw()
    assert law.to_dict() == {"start": 1, "terms": [[2.0, 2.0], [-1.0, 4.0]]}


def test_zero_law_prints_the_last_term_its_scan_reads():
    # a_n = 0 from start on: the evidence prints the law's own start, and
    # the scan reads the terms before it, up to start - 1
    assert TermLaw(start=10 ** 9).to_dict() == {"start": 10 ** 9, "terms": []}
    assert TermLaw(start=2).to_dict() == {"start": 2, "terms": []}
    v = analyze_series(TermSource(lambda ns: (ns < 6).astype(float), law=TermLaw(start=6)))
    assert (v.n_used, v.evidence["hint"]) == (5, {"start": 6, "terms": []})
    # a law from a start prints it; a rate law prints start None, and None
    # for a constant it does not know
    assert TermLaw(start=3, terms=((1.0, 2.0),)).to_dict() == {
        "start": 3, "terms": [[1.0, 2.0]]}
    assert rate(2.0, 1.0).to_dict() == {"start": None, "terms": [[1.0, 2.0]]}
    assert rate(0.5).to_dict() == {"start": None, "terms": [[None, 0.5]]}


def test_law_from_a_start_sums_the_terms_before_it_and_zeta_after():
    # 1 up to n = 4, then exactly n^-2 - n^-3: the sum is 4 + zeta(2, 5) -
    # zeta(3, 5), and the scan reads the first 4 terms only
    from scipy.special import zeta

    calls = []

    def gen(ns):
        calls.append((int(ns[0]), int(ns[-1])))
        nsf = ns.astype(float)
        return np.where(ns < 5, 1.0, nsf ** -2.0 - nsf ** -3.0)

    law = TermLaw(start=5, terms=((1.0, 2.0), (-1.0, 3.0)))
    v = analyze_series(TermSource(gen, law=law))
    exact = 4.0 + zeta(2.0, 5.0) - zeta(3.0, 5.0)
    assert v.converges and v.n_used == 4 and v.tail_bound == 0.0
    assert abs(v.sum_estimate - exact) <= 4.0 * math.ulp(exact)
    assert (v.p_hat, v.ci_halfwidth) == (2.0, 0.0)
    assert max(hi for _, hi in calls) == 4
    # past the horizon the law's start leaves the sum out of reach
    far = TermLaw(start=5000, terms=((1.0, 2.0),))
    v = analyze_series(TermSource(gen, law=far), EnginePolicy(n_max=4096))
    assert v.klass == "inconclusive" and v.n_used == 0
    assert analyze_series(TermSource(gen, law=far), EnginePolicy(n_max=4096)) is v


def test_law_remainder_widens_the_interval_around_the_zeta_sum():
    # n^-2 within 0.5 n^-3 either way: the sum lies within 0.5 zeta(3) of zeta(2)
    from scipy.special import zeta

    law = TermLaw(terms=((1.0, 2.0),), remainder=(0.5, 3.0))
    v = analyze_series(TermSource(lambda ns: np.full(len(ns), np.nan), law=law))
    assert v.converges and v.n_used == 0
    assert abs(v.sum_estimate - (zeta(2.0) - 0.5 * zeta(3.0))) <= 1e-15
    assert abs(v.tail_bound - zeta(3.0)) <= 1e-15
    assert law.to_dict() == {"start": 1, "terms": [[1.0, 2.0]],
                             "remainder": [0.5, 3.0]}


@pytest.mark.parametrize("law, klass", [
    # the leading term decides when it is positive and the rest is faster
    (TermLaw(terms=((1.0, 0.5), (-1.0, 2.5), (1.0, 2.0))), "diverges"),
    (TermLaw(terms=((2.0, 1.0),), remainder=(1.0, 1.5)), "diverges"),
    (TermLaw(terms=((1.0, 0.0),)), "diverges"),
    # a remainder no faster than the leading term, or a negative leading
    # constant, decides nothing
    (TermLaw(terms=((1.0, 0.5),), remainder=(1.0, 0.5)), "inconclusive"),
    (TermLaw(terms=((-1.0, 0.5), (2.0, 3.0))), "inconclusive"),
    (TermLaw(terms=((1.0, 2.0), (1.0, 1.0))), "diverges"),
    (TermLaw(terms=((1.0, 2.0),), remainder=(1.0, 1.0)), "inconclusive"),
])
def test_law_alone_decides_divergence_only_from_its_leading_term(law, klass):
    def gen(ns):
        raise AssertionError("a law from n = 1 reads no term")

    v = analyze_series(TermSource(gen, law=law))
    assert v.klass == klass and v.n_used == 0
    assert v is analyze_series(TermSource(gen, law=law))  # built once, by the law


@pytest.mark.parametrize("a", (1, 2, 7, 1000, 10 ** 6 + 1))
def test_hurwitz_zeta_matches_scipy(a):
    from scipy.special import zeta

    from convlab.series import hurwitz_zeta

    s = np.concatenate([1.0 + np.logspace(-9, 0, 60), np.linspace(2.0, 60.0, 59)])
    want = zeta(s, float(a))
    got = hurwitz_zeta(s, a)
    keep = want > 1e-290
    assert np.all(np.abs(got - want)[keep] <= 1e-15 * want[keep])
    # a huge exponent leaves the first term alone, with no nan on the way
    assert hurwitz_zeta([1e300, 1e15], 1).tolist() == [1.0, 1.0]
    assert hurwitz_zeta([1e300], 2).tolist() == [0.0]


def test_rate_law_whose_terms_are_zero_to_the_horizon_is_inconclusive():
    # ex31(0.9)'s truncated moment at eps = 1e-7 keeps the second atom only
    # once n^-(1/0.9) < 1e-7, from n ~ 2e6 on: every term to 10^6 is 0, yet
    # the series sums to about 1.8, so [0, +0] would not hold it
    v = analyze_series(ex31(0.9).meta.term_source("trunc_l1", 1e-7, 1.0))
    assert v.klass == "inconclusive" and v.sum_estimate is None
    assert v.n_used == DEFAULT_POLICY.n_max


def test_constant_law_decides_null_test_without_a_scan():
    calls = []

    def gen(ns):
        calls.append(len(ns))
        return np.ones(len(ns))

    src = TermSource(gen, law=rate(0.0))
    v = null_sequence_test(src)
    assert v.klass == "stays_above" and v.n_used == 0 and v.level is None
    s = analyze_series(src)
    assert s.klass == "diverges" and s.n_used == 0
    assert calls == []
    with_level = TermSource(gen, law=rate(0.0, 0.5))
    assert null_sequence_test(with_level).to_dict() == {
        "class": "stays_above", "n_used": 0, "level": 0.5}
    assert calls == []


@given(p=st.floats(1.3, 3.0))
@settings(max_examples=30, deadline=None)
def test_supercritical_powers_converge(p):
    assert analyze_series(power_source(p)).converges


@given(p=st.floats(0.2, 0.9))
@settings(max_examples=30, deadline=None)
def test_subcritical_powers_diverge(p):
    assert analyze_series(power_source(p)).diverges


def test_terms_of_an_empty_range_are_empty():
    assert power_source(2.0).terms(5, 5).size == 0


def test_null_verdicts_carry_no_evidence():
    # one Verdict type serves both tests; a null test's verdict has no
    # evidence, and its class answers only for its own test
    v = null_sequence_test(power_source(1.0))
    assert v.tends_to_zero and not v.converges and not v.diverges
    assert v.evidence is None and "evidence" not in v.to_dict()
    v = null_sequence_test(power_source(1.0, law=rate(0.0, 2.0)))
    assert v.to_dict() == {"class": "stays_above", "n_used": 0, "level": 2.0}
    assert analyze_series(power_source(2.0)).to_dict()["evidence"] == {
        "method": "exponent_fit"}


def test_fit_exponent():
    p_hat, ci = fit_exponent(power_source(1.7))
    assert abs(p_hat - 1.7) < 1e-6
    assert ci < 1e-3


@pytest.mark.parametrize("length", (4, 5, 8, 9, 64, 127, 128, 129,
                                    1000, 1024, 1025, 4095))
def test_fit_exponent_anchors_are_powers_of_two_up_to_horizon(length):
    from convlab import series

    ns = np.arange(1, length + 1, dtype=float)
    vals = ns ** -1.3 * (1.5 + np.sin(ns))
    anchor_ns = [2 ** k for k in range(int(math.log2(length)) + 1)]
    policy = EnginePolicy(n_max=10_000)
    # lengths up to 127 have too few anchors, 64 and 127 one too few, and 128
    # and 129 exactly the window
    if len(anchor_ns) < DYADIC_WINDOW:
        with pytest.raises(series.TooFewAnchors):
            fit_exponent(TermSource.from_values(vals), policy)
        return
    want = series._anchor_fit(anchor_ns, vals[np.array(anchor_ns) - 1], DYADIC_WINDOW)
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
    # p = 1.03: the fit's interval lies wholly in (1, 1 + EXPONENT_MARGIN],
    # so it shows neither divergence nor a summable tail
    v = analyze_series(power_source(1.03))
    assert v.klass == "inconclusive"
    assert v.evidence == {"method": "exponent_near_boundary"}
    assert 1.0 < v.p_hat - v.ci_halfwidth
    assert v.p_hat + v.ci_halfwidth <= 1.0 + EXPONENT_MARGIN
    # an interval reaching 1 still diverges
    assert analyze_series(power_source(1.0)).diverges


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the fit over the last dyadic anchors reads a steeper power than "
           "the drifting local slope 1 + 2/ln n (ROADMAP item 6)")
def test_log_squared_series_interval_holds_its_sum():
    # sum 1/(n ln^2(n+1)) converges: its terms to 10^6 sum to 3.3153531, and
    # the rest to more than the integral of 1/(x ln^2 x) from 10^6 + 2, so
    # the sum is at least 3.3877355.  The engine reports converges with
    # [3.3431326, +5.2e-9].
    src = TermSource(
        lambda ns: 1.0 / (ns.astype(float) * np.log(ns.astype(float) + 1.0) ** 2))
    v = analyze_series(src)
    assert not v.converges or v.sum_estimate + v.tail_bound >= 3.3877355


def test_slowly_decaying_stream_does_not_stay_above():
    # n^-0.01 tends to 0: a fit that is flat within 0.02 but whose interval
    # stays above 0 is inconclusive, not stays_above
    v = null_sequence_test(power_source(0.01))
    assert v.klass == "inconclusive"
    assert v.p_hat - v.ci_halfwidth > 0.0


def test_null_sequence_hints():
    assert null_sequence_test(
        power_source(0.3, law=rate(0.3))
    ).tends_to_zero
    v = null_sequence_test(
        TermSource(
            lambda ns: np.ones(len(ns)),
            law=rate(0.0, 1.0),
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


# clamped inside [0, 1], so no one power series states its two-atom gaps,
# which have no law and are scanned
_CLAMPED_INSIDE = ClampedAffine(K=2.0, M=0.5)


def test_warm_unhinted_scan_reuses_its_heap():
    # a 10**6-term two-atom scan: its per-chunk numpy temporaries must stay
    # small enough for the allocator to reuse rather than map in afresh.  A
    # source keeps its block sums, so each warm scan runs on a fresh family.
    def fresh_source():
        fam = ex31(2.0)
        params = ModeParams.defaults(fam, test_functions=(_CLAMPED_INSIDE,))
        return probe_source(fam, "s1d", probes_for("s1d", params)[0], params)

    src = fresh_source()
    assert src.law is None
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


def _counted_sources(calls):
    """A lawful, lawless, blowing-up, capped and finite-length mix, each of
    whose generator calls appends its number of terms to calls."""
    rng = np.random.default_rng(3)
    short = rng.random(3000) * np.arange(1, 3001) ** -2.0

    def source(fn, **kwargs):
        def gen(ns):
            calls.append(len(ns))
            return fn(ns)

        return TermSource(gen, **kwargs)

    return [
        source(lambda ns: ns.astype(float) ** -1.5, law=rate(1.5)),
        source(lambda ns: ns.astype(float) ** -2.0),
        source(lambda ns: ns.astype(float) ** -0.5),
        source(lambda ns: np.full(len(ns), 200.0)),
        source(lambda ns: ns.astype(float) ** -3.0, horizon=4096),
        source(lambda ns: (ns < 40) * 1.0),
        source(lambda ns: short[ns - 1], horizon=short.size),
    ]


@pytest.mark.parametrize("test", (analyze_series, null_sequence_test))
def test_a_second_check_of_a_source_reads_its_blocks_from_the_memo(test):
    # the same check again gives the same verdict and evaluates no term: a
    # scan reads every term again from the source's block summaries, and a
    # null test's decay fit reads its anchors there too, the single-term
    # blocks of the anchors whose dyadic block it never evaluated included
    policy = EnginePolicy(n_max=50_000)
    calls = []
    sources = _counted_sources(calls)
    first = [test(src, policy) for src in sources]
    assert max(calls) > 1
    calls.clear()
    assert [test(src, policy) for src in sources] == first
    assert calls == []


def test_a_law_shared_by_many_sources_keeps_a_bounded_number_of_verdicts():
    # one rate law, 200 sources with 200 different sums: the first verdict
    # is handed out again, also on an equal law object, and the engine's one
    # verdict cache stays bounded
    from convlab import series

    law = rate(2.0)
    policy = EnginePolicy(n_max=256)
    got = [analyze_series(power_source(2.0 + k / 1000.0, law=law), policy) for k in range(200)]
    assert len({v.sum_estimate for v in got}) == 200
    assert analyze_series(power_source(2.0, law=law), policy) is got[0]
    assert analyze_series(power_source(2.0, law=rate(2.0)), policy) is got[0]
    info = series._law_verdict.cache_info()
    assert info.currsize <= info.maxsize
