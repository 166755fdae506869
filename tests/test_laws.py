"""Every exact term law against the terms it describes.

A law from a start states a_n = sum c * n^-p (within C * n^-p_r) for every
n >= start, so it must agree with its source's own generator there.  It is
read at n = start and at the powers of two 2^k >= start, k <= 20, as the
generator evaluates them, to 1e-12 relative.  The two-atom gap generators
subtract g(0) from m1 g(1) + m2 g(v2), so they also carry a rounding error
of a few ulps of |g(0)|, which the check allows for.  A law's head must be
the generator's term, exactly, at n = 1, at n = start - 1 and at every
2^k < start.  Every law a sweep prints as a hint must rebuild from its print.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from convlab.modes import ModeParams, mode_spec, probe_key, probe_source, probes_for
from convlab.registry import (NODE_MODES, build_family, ex31, ex32, mode_diagram,
                              shift_uniform, soundness_sweep)
from convlab.series import TermLaw, analyze_series
from perfbench import gen

_FAMILIES = {}
for _seed in range(10):
    for _kind, _params in gen.family_specs(_seed):
        _family = build_family(_kind, **_params)
        _FAMILIES.setdefault(_family.name, _family)
for _alpha in (0.6, 0.8, 0.95):
    _family = ex31(_alpha)
    _FAMILIES[_family.name] = _family


def _exact_sources(family):
    """(label, source, probe value) of every default probe whose law has
    a start, each source once."""
    out = {}
    for node, (mode, overrides) in NODE_MODES.items():
        spec = mode_spec(mode)
        params = ModeParams.defaults(family, **overrides)
        for probe in probes_for(mode, params):
            kind, value, power = spec.term(probe[0]), probe[1], spec.exponent(params)
            src = family.meta.term_source(kind, value, power)
            if src is not None and src.law is not None and src.law.start is not None:
                out.setdefault((kind, probe_key(probe), power), (src, value))
    return out


def _mismatches(family, kind, value, src, law):
    """The n at which law and src.generator disagree beyond the tolerance,
    or before start, where the law has a head, at all."""
    bad = []
    if law.head is not None:
        heads = sorted({1, law.start - 1} | {2 ** k for k in range(53) if 2 ** k < law.start})
        got = src.generator(np.array(heads, dtype=np.int64))
        bad = [n for n, term in zip(heads, got.tolist()) if term != law.head]
    ns = sorted({law.start} | {2 ** k for k in range(21) if 2 ** k >= law.start})
    got = src.generator(np.array(ns, dtype=np.int64))
    slack = 0.0
    if family.meta.kind in ("ex31", "ex33") and kind in ("expect_gap", "coupled_gap"):
        slack = 4.0 * np.finfo(float).eps * abs(float(value(0.0)))
    for n, term in zip(ns, got.tolist()):
        want = math.fsum(c * float(n) ** -p for c, p in law.terms)
        rest = law.remainder[0] * float(n) ** -law.remainder[1] if law.remainder else 0.0
        if abs(term - want) > 1e-12 * abs(want) + rest + slack:
            bad.append(n)
    return bad


@pytest.mark.parametrize("family", list(_FAMILIES.values()), ids=list(_FAMILIES))
def test_exact_laws_match_their_generators(family):
    sources = _exact_sources(family)
    assert sources, "every family states some exact law"
    for (kind, key, power), (src, value) in sources.items():
        assert _mismatches(family, kind, value, src, src.law) == [], (kind, key, power)


@pytest.mark.parametrize("family", list(_FAMILIES.values()), ids=list(_FAMILIES))
def test_truncated_moment_laws_match_their_generators(family):
    # the truncated first moment at eps keeps each atom, or the shift, below
    # eps: a law from the first n where the second atom, or the shift, is
    # kept, and the first moment from n = 1 where eps keeps both atoms
    for eps in (0.5, 2.0, 1e-3):
        src = family.meta.term_source("trunc_l1", eps, 1.0)
        assert src.law.start is not None, eps
        assert _mismatches(family, "trunc_l1", eps, src, src.law) == [], eps


def test_a_truncated_moment_sums_its_zero_head_without_reading_a_term():
    # ex31(0.9)'s truncated first moment at eps <= 1 is 0 while the second
    # atom n^-(1/0.9) is at least eps: up to n = 251,188 at eps = 1e-6, and
    # to 1,995,262, past the horizon, at 1e-7.  The law's head 0 states those
    # terms, so neither sum reads one
    def unread(ns):
        raise AssertionError(f"read {len(ns)} terms from n = {ns[0]}")

    for eps, start in ((1e-6, 251_189), (1e-7, 1_995_263)):
        src = ex31(0.9).meta.term_source("trunc_l1", eps, 1.0)
        assert (src.law.start, src.law.head) == (start, 0.0)
        src.generator = unread
        v = analyze_series(src)
        assert v.converges and v.n_used == start - 1 and v.tail_bound == 0.0, eps
        assert v.sum_estimate == src.law.tail[0], eps
    assert analyze_series(ex31(0.9).meta.term_source("trunc_l1", 1e-6, 1.0)).sum_estimate == \
        2.2606979315075533


@pytest.mark.parametrize("alpha, kind, index", [
    (alpha, kind, index) for alpha in (0.6, 0.8, 0.95)
    for kind in ("moment", "expect_gap") for index in range(3)])
def test_a_law_with_one_exponent_raised_fails_the_check(alpha, kind, index):
    # ex31's first moment n^-2 + n^-q - n^-(2+q), and its clamped-identity
    # gap, the same three powers: raising any one exponent by 0.01 must show
    family = ex31(alpha)
    value = 1.0 if kind == "moment" else ModeParams.defaults(family).test_functions[1]
    src = family.meta.term_source(kind, value, 1.0)
    law = src.law
    assert len(law.terms) == 3 and _mismatches(family, kind, value, src, law) == []
    terms = list(law.terms)
    c, p = terms[index]
    terms[index] = (c, p + 0.01)
    assert _mismatches(family, kind, value, src, replace(law, terms=tuple(terms)))


def test_the_sine_law_with_its_leading_exponent_raised_fails_the_check():
    family = ex31(0.8)
    sine = ModeParams.defaults(family).test_functions[0]
    src = family.meta.term_source("expect_gap", sine, 1.0)
    law = src.law
    assert law.remainder is not None and _mismatches(family, "expect_gap", sine, src, law) == []
    (c, p), *rest = law.terms
    raised = replace(law, terms=((c, p + 0.01), *rest))
    assert _mismatches(family, "expect_gap", sine, src, raised)


@pytest.mark.parametrize("family, kind, value", [
    (ex31(2.0), "tail", 0.1), (shift_uniform(2.0), "char_gap", 1.0),
    (ex32(0.5, 2.0), "char_gap", 5.0)], ids=["ex31-tail", "uniform-s3d", "ex32-s3d"])
def test_a_law_from_a_start_with_its_leading_exponent_raised_fails_the_check(
        family, kind, value):
    # ex31(2)'s tail at eps = 0.1 is n^-2 from n = 101, past the plateau
    # n^-0.5 >= 0.1; a shift's characteristic-function gap is 2 |phi| sin u,
    # u = (|t| / 2) n^-2, by sin's Taylor series from the first n with u <= 1
    src = family.meta.term_source(kind, value, 1.0)
    law = src.law
    assert law.start is not None and _mismatches(family, kind, value, src, law) == []
    (c, p), *rest = law.terms
    raised = replace(law, terms=((c, p + 0.01), *rest))
    assert _mismatches(family, kind, value, src, raised)
    if kind == "tail":
        assert (law.start, law.head) == (101, 1.0)
        assert _mismatches(family, kind, value, src, replace(law, start=100)) == [100]
        # a head past the plateau's end meets the first term past it
        assert _mismatches(family, kind, value, src, replace(law, start=102)) == [101]


def _printed_hints(seed):
    """(family, tag, probe, params, hint) of every law hint a seed's sweep
    prints, read back from its JSON."""
    families = [build_family(kind, **params) for kind, params in gen.family_specs(seed)]
    printed = json.loads(json.dumps(soundness_sweep(mode_diagram(), families).to_dict()))
    for family in families:
        for node, (tag, overrides) in NODE_MODES.items():
            params = ModeParams.defaults(family, **overrides)
            probes = printed["verdicts"][family.name][node]["probes"]
            for probe in probes_for(tag, params):
                evidence = probes[probe_key(probe)].get("evidence", {})
                if "hint" in evidence:
                    yield family, tag, probe, params, evidence["hint"]


def test_every_printed_hint_rebuilds_its_law():
    # a hint prints the law's start (None for a rate law), its terms, its
    # remainder and its head, so it rebuilds the law and no two laws print
    # alike
    laws, seed0 = {}, {}
    for seed in range(10):
        for family, tag, probe, params, d in _printed_hints(seed):
            law = probe_source(family, tag, probe, params).law
            assert d == law.to_dict(), (family.name, tag, probe)
            rebuilt = TermLaw(d["start"], tuple(map(tuple, d["terms"])),
                              tuple(d["remainder"]) if "remainder" in d else None,
                              d.get("head"))
            assert rebuilt == law, (family.name, tag, probe)
            laws.setdefault(json.dumps(d, sort_keys=True), set()).add(law)
            if seed == 0:
                seed0[(family.name, tag, probe_key(probe))] = d
    assert len(laws) > 100 and all(len(same) == 1 for same in laws.values())
    # ex31(2)'s CDF gap at x = 0.5 is n^-2 only past a plateau the law does
    # not know; its cc terms at eps = 0.5 are n^-2 from n = 5 on, past the
    # plateau n^-0.5 >= 0.5 of terms 1, and ex32(0.5, 2)'s slinf terms from
    # n = 1 on
    rate = seed0[("ex31(alpha=2)", "s2d", "x=0.5")]
    plateau = seed0[("ex31(alpha=2)", "cc", "eps=0.5")]
    exact = seed0[("ex32(alpha=0.5,beta=2)", "slinf", "all")]
    assert (rate, plateau, exact) == ({"start": None, "terms": [[1.0, 2.0]]},
                                      {"start": 5, "terms": [[1.0, 2.0]], "head": 1.0},
                                      {"start": 1, "terms": [[1.0, 2.0]]})
