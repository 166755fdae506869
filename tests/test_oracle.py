"""Closed-form oracle: a converging interval must hold the true sum.

Many catalog terms are, exactly, a finite sum of powers of n after a
plateau of constant terms, so their sums are Hurwitz zeta values:
zeta(s, n0 + 1) is the sum of n^-s over n > n0.  Each probe below with such
a closed form must be reported `converges`, and its interval
[sum_estimate, sum_estimate + tail_bound] must hold the exact sum.

A plateau's length n0 is counted with the generator's own float
comparisons, on numpy arrays as the generator evaluates them: at n = 1000,
n^(-1/3) is 0.1 in numpy's array pow and 0.10000000000000002 in Python's
scalar pow, so a count in exact arithmetic would be off by one there.

Oracles: scipy.special.zeta, which only these tests import.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import zeta

from convlab.modes import ModeParams, check_mode, mode_spec, probe_key, probes_for
from convlab.registry import NODE_MODES, ex31, ex32, node_report, shift_uniform
from convlab.series import analyze_series
from convlab.testfuncs import ClampedAffine, ClampedIdentity, Sine

# every plateau of the families below ends before this index; the longest,
# ex31(4)'s tail at eps = 0.01, ends at 10^8
_PLATEAU_CAP = 1 << 28
_PLATEAU_CHUNK = 1 << 20


def _plateau(on_plateau):
    """The length n0 of the plateau: on_plateau maps a float array of
    indices n to the generator's own comparison, true from n = 1 to n0 and
    false from there on.  It is read chunk by chunk up to the chunk where
    the plateau ends."""
    for lo in range(1, _PLATEAU_CAP, _PLATEAU_CHUNK):
        ns = np.arange(lo, lo + _PLATEAU_CHUNK, dtype=np.int64).astype(float)
        flags = on_plateau(ns)
        k = int(np.count_nonzero(flags))
        if k < len(flags):
            assert flags[:k].all(), "the plateau must be one run from n = 1"
            return lo - 1 + k
    raise AssertionError("the plateau must end before the cap")


def _after_plateau(n0, s):
    """The sum of n^-s over n > n0."""
    return float(zeta(s, n0 + 1.0))


def _two_atom_sum(alpha, kind, value):
    """ex31: X_n = 1 with mass n^-2, v = n^(-1/alpha) otherwise.  Tail and
    CDF-gap terms are 1 while v lies beyond the probe value, then the first
    atom's mass n^-2.  The p-th moment is n^-2 + v^p - n^-2 v^p, a mixture of
    two powers, and the clamped test functions' gaps are their slopes times
    the first moment, since both atoms lie in their linear ranges.  The sine
    gap is n^-2 sin(1) + (1 - n^-2) sin(v), summed term by term of sin's
    Taylor series, whose terms past v^29 / 29! add below 1e-30."""
    q = 1.0 / alpha
    if kind == "tail":
        n0 = _plateau(lambda ns: ns ** -q >= value)
    elif kind == "cdf_gap":
        n0 = _plateau(lambda ns: ~(ns ** -q <= value))
    elif kind == "moment" or isinstance(value, (ClampedIdentity, ClampedAffine)):
        pq = value * q if kind == "moment" else q
        if pq <= 1.0:
            return None
        slope = value.K if isinstance(value, ClampedAffine) else 1.0
        return slope * float(zeta(2.0) + zeta(pq) - zeta(2.0 + pq))
    elif isinstance(value, Sine) and q > 1.0:
        return math.sin(1.0) * float(zeta(2.0)) + math.fsum(
            (-1.0) ** k / math.factorial(j) * float(zeta(j * q) - zeta(2.0 + j * q))
            for k, j in ((k, 2 * k + 1) for k in range(15)))
    else:
        return None
    return n0 + _after_plateau(n0, 2.0)


def _shift_sum(family, kind, value, power):
    """X_n = X + s with s = n^-beta: |X_n - X| = s, so sup, moment and
    pointwise terms are powers of s, and tails are 1 while s >= eps.  For
    the uniform base, CDF gaps are x while s >= x and s after, and the
    clamped test functions' gaps are their slopes times s."""
    beta = family.params["beta"]
    if kind in ("sup", "moment", "pointwise"):
        k = {"sup": 1.0, "moment": value, "pointwise": power}[kind]
        return float(zeta(beta * k))
    if kind == "tail":
        return float(_plateau(lambda ns: ns ** -beta >= value))
    if family.meta.kind != "shift_uniform":
        return None
    if kind == "cdf_gap":
        n0 = _plateau(lambda ns: value - ns ** -beta <= 0.0)
        return value * n0 + _after_plateau(n0, beta)
    if kind in ("expect_gap", "coupled_gap"):
        if isinstance(value, ClampedIdentity):
            return float(zeta(beta))
        if isinstance(value, ClampedAffine):
            return value.K * float(zeta(beta))
    return None


def _exact_sum(family, kind, value, power):
    if family.meta.kind == "ex31":
        return _two_atom_sum(family.params["alpha"], kind, value)
    return _shift_sum(family, kind, value, power)


_FAMILIES = ([shift_uniform(b) for b in (1.2, 1.5, 2.0, 3.0)]
             + [ex31(a) for a in (0.5, 0.6, 0.8, 0.95, 1.5, 2.0, 2.5, 3.0, 4.0)]
             + [ex32(0.5, 2.0), ex32(0.4, 2.0)])
_SERIES_NODES = [node for node, (mode, _) in NODE_MODES.items() if mode_spec(mode).series]


def _cases():
    """(family, node, probe, exact sum) for every series probe with a
    closed form."""
    cases = []
    for family in _FAMILIES:
        for node in _SERIES_NODES:
            mode, overrides = NODE_MODES[node]
            spec = mode_spec(mode)
            params = ModeParams.defaults(family, **overrides)
            for probe in probes_for(mode, params):
                exact = _exact_sum(family, spec.term(probe[0]), probe[1],
                                   spec.exponent(params))
                if exact is not None:
                    cases.append((family, node, probe, exact))
    return cases


# The ex31(3) tail at eps = 0.01 is 1 up to n = 10^6 = n_max, then n^-2,
# and ex31(4)'s is 1 up to n = 10^8, past the horizon: each law from a start
# states its plateau's level, so its sum is the plateau's length and a zeta
# tail, wherever the plateau ends.
_CASES = _cases()


@functools.lru_cache(maxsize=None)
def _report(family, node):
    return node_report(family, node)


def test_every_family_has_closed_form_probes():
    counts = {}
    for family, *_ in _CASES:
        counts[family.name] = counts.get(family.name, 0) + 1
    assert set(counts) == {family.name for family in _FAMILIES}
    assert min(counts.values()) >= 12


@pytest.mark.parametrize("family, node, probe, exact", _CASES, ids=[
    f"{family.name}-{node}-{probe_key(probe)}" for family, node, probe, _ in _CASES])
def test_converging_interval_holds_the_exact_sum(family, node, probe, exact):
    v = _report(family, node).probe_results[probe_key(probe)]
    assert v.converges, v.to_dict()
    # float64 rounding: of each term evaluated, and of their sum
    slack = 2.3e-16 * v.n_used + 8.0 * math.ulp(exact)
    assert v.sum_estimate - slack <= exact, (v.sum_estimate, exact)
    assert exact <= v.sum_estimate + v.tail_bound + slack, (
        v.sum_estimate, v.tail_bound, exact)


@pytest.mark.parametrize("alpha, exact", [
    (0.4, zeta(2.5) - zeta(4.5)),
    (0.25, zeta(4.0) - zeta(6.0)),
])
def test_truncated_moment_interval_holds_the_exact_sum(alpha, exact):
    # at eps = 0.5 the first atom, at 1, is truncated away: the terms are
    # (1 - n^-2) n^-q with q = 1/alpha, and 0 at n = 1, where n^-q = 1
    v = analyze_series(ex31(alpha).meta.term_source("trunc_l1", 0.5, 1.0))
    assert v.converges, v.to_dict()
    slack = 2.3e-16 * v.n_used + 8.0 * math.ulp(exact)
    assert v.sum_estimate - slack <= exact <= v.sum_estimate + v.tail_bound + slack, (
        v.sum_estimate, v.tail_bound, exact)


def test_overflowed_pointwise_exponent_keeps_the_plateau():
    # ex31(0.25)'s pointwise terms are 1 while omega < n^-2, then v^alpha
    # with v = n^-4: at alpha = 1e308 their exponent 4 * alpha overflows to
    # inf, and every term past the plateau is 0, so each sum is the
    # plateau's length
    family = ex31(0.25)
    params = ModeParams.defaults(family, alpha=1e308)
    report = check_mode(family, "sa_as", params)
    lengths = set()
    for probe in probes_for("sa_as", params):
        omega = probe[1]
        n0 = _plateau(lambda ns: omega < np.minimum(ns ** -2.0, 1.0))
        v = report.probe_results[probe_key(probe)]
        assert v.converges and (v.sum_estimate, v.tail_bound) == (n0, 0.0), (
            probe, v.to_dict())
        lengths.add(n0)
    assert max(lengths) > 1


# Plateaus of terms 1 past the horizon, then n^-2.  ex31(2)'s pointwise
# terms at omega are 1 while omega < n^-2, then v^alpha = n^-(alpha / 2):
# at omega = 1e-40 the plateau lasts to n = 10^20, past int64.  ex31(8)'s
# tails at eps are 1 while n^(-1/8) >= eps, to n = eps^-8 in exact
# arithmetic, past 2**53: at eps = 2^-7 the generator's pow ends the plateau
# 40 indices past 2^56, inside the slack.
@pytest.mark.parametrize("alpha, mode, axis, value, n0", [
    (2.0, "sa_as", "omega_points", 1e-20, 10 ** 10 - 1),
    (2.0, "sa_as", "omega_points", 1e-40, 10 ** 20 - 1),
    (8.0, "cc", "epsilons", 0.01, 10 ** 16),
    (8.0, "cc", "epsilons", 2.0 ** -7, 2 ** 56),
])
def test_plateau_past_the_horizon_holds_the_exact_sum(alpha, mode, axis, value, n0):
    family = ex31(alpha)
    params = ModeParams.defaults(family, alpha=4.0, **{axis: (value,)})
    (v,) = check_mode(family, mode, params).probe_results.values()
    assert v.converges, v.to_dict()
    exact = n0 + _after_plateau(n0, 2.0)
    slack = 2.3e-16 * v.n_used + 8.0 * math.ulp(exact)
    assert v.sum_estimate - slack <= exact <= v.sum_estimate + v.tail_bound + slack, (
        v.sum_estimate, v.tail_bound, exact)


# ex32's CDF gap at x = 1 is F(1) - F(1 - s) = s^(1 - alpha) with
# s = n^-beta, exactly n^-((1 - alpha) beta).  Its terms are computed as
# 1 - (1 - s)^(1 - alpha), so they carry the rounding of 1 - s, which the
# rate law's one-power tail multiplies by 1 / (p - 1).
_ROUNDED_AT_ONE = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="PowerAtOne.cdf rounds 1 - (1 - s), and the tail model "
           "carries the loss (ROADMAP item 1)")


@pytest.mark.parametrize("alpha, beta", [
    (0.2, 2.0),
    (0.25, 4.0),
    pytest.param(0.4, 2.0, marks=_ROUNDED_AT_ONE),  # misses by 4.2e-6
    pytest.param(0.5, 3.0, marks=_ROUNDED_AT_ONE),  # by 1.8e-7
    pytest.param(0.5, 2.0 + 1e-9, marks=_ROUNDED_AT_ONE),  # by 2.2e4
    pytest.param(0.5, 2.5, marks=_ROUNDED_AT_ONE),  # by 4.2e-4, bound 7.1e-8
])
def test_cdf_gap_at_one_interval_holds_the_exact_sum(alpha, beta):
    v = analyze_series(ex32(alpha, beta).meta.term_source("cdf_gap", 1.0, 1.0))
    assert v.converges, v.to_dict()
    exact = float(zeta((1.0 - alpha) * beta))
    slack = 2.3e-16 * v.n_used + 8.0 * math.ulp(exact)
    assert v.sum_estimate - slack <= exact <= v.sum_estimate + v.tail_bound + slack, (
        v.sum_estimate, v.tail_bound, exact)
