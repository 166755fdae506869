"""Every exact term law against the terms it describes.

A law from a start states a_n = sum c * n^-p (within C * n^-p_r) for every
n >= start, so it must agree with its source's own generator there.  It is
read at n = start and at the powers of two 2^k >= start, k <= 20, as the
generator evaluates them, to 1e-12 relative.  The two-atom gap generators
subtract g(0) from m1 g(1) + m2 g(v2), so they also carry a rounding error
of a few ulps of |g(0)|, which the check allows for.  Every law a sweep
prints as a hint must rebuild from its print.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from convlab.modes import ModeParams, mode_spec, probe_key, probe_source, probes_for
from convlab.registry import NODE_MODES, build_family, ex31, mode_diagram, soundness_sweep
from convlab.series import TermLaw
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
    """The n at which law and src.generator disagree beyond the tolerance."""
    ns = sorted({law.start} | {2 ** k for k in range(21) if 2 ** k >= law.start})
    got = src.generator(np.array(ns, dtype=np.int64))
    slack = 0.0
    if family.meta.kind in ("ex31", "ex33") and kind in ("expect_gap", "coupled_gap"):
        slack = 4.0 * np.finfo(float).eps * abs(float(value(0.0)))
    bad = []
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
    # a hint prints the law's start (None for a rate law), its terms and
    # its remainder, so it rebuilds the law and no two laws print alike
    laws, seed0 = {}, {}
    for seed in range(10):
        for family, tag, probe, params, d in _printed_hints(seed):
            law = probe_source(family, tag, probe, params).law
            assert d == law.to_dict(), (family.name, tag, probe)
            rebuilt = TermLaw(d["start"], tuple(map(tuple, d["terms"])),
                              tuple(d["remainder"]) if "remainder" in d else None)
            assert rebuilt == law, (family.name, tag, probe)
            laws.setdefault(json.dumps(d, sort_keys=True), set()).add(law)
            if seed == 0:
                seed0[(family.name, tag, probe_key(probe))] = d
    assert len(laws) > 100 and all(len(same) == 1 for same in laws.values())
    # ex31(2)'s cc terms are n^-2 only past a plateau the law does not know;
    # ex32(0.5, 2)'s slinf terms are n^-2 from n = 1 on
    rate = seed0[("ex31(alpha=2)", "cc", "eps=0.5")]
    exact = seed0[("ex32(alpha=0.5,beta=2)", "slinf", "all")]
    assert (rate, exact) == ({"start": None, "terms": [[1.0, 2.0]]},
                             {"start": 1, "terms": [[1.0, 2.0]]})
