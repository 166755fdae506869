"""Counterexample catalog, implication diagram, soundness harness."""

import itertools
import math

import numpy as np
import pytest

from convlab import space
from convlab.errors import ParameterError
from convlab.modes import ALL_MODES, ModeParams, mode_spec, probes_for
from convlab.registry import (NODE_MODES, NODES, ImplicationDiagram,
                              LipschitzWitness, build_family, constant_family,
                              default_registry, ex31, ex32, ex33,
                              expected_verdicts, export_catalog, node_report,
                              mode_diagram, shift_uniform, soundness_sweep,
                              verdict_matches, verify_lipschitz_s2d,
                              verify_truncation_s1star)
from convlab.series import AnalyticHint, TermSource


def test_build_family_validation():
    with pytest.raises(ParameterError):
        build_family("nope")
    with pytest.raises(ParameterError):
        build_family("ex32", alpha=1.0, beta=2.0)  # alpha must be < 1
    with pytest.raises(ParameterError):
        build_family("ex32", alpha=0.5, beta=0.5)  # beta must be > 1
    with pytest.raises(ParameterError):
        build_family("ex31", alpha=-1.0)
    with pytest.raises(ParameterError):
        build_family("ex31", beta=2.0)  # wrong parameter name


@pytest.mark.parametrize("builder, args", [
    (ex31, (math.inf,)),
    (ex32, (0.5, math.inf)),
    (shift_uniform, (math.inf,)),
    (constant_family, (math.nan,)),
    (constant_family, (math.inf,)),
], ids=["ex31-inf", "ex32-beta-inf", "shift-inf", "const-nan", "const-inf"])
def test_builders_reject_non_finite(builder, args):
    with pytest.raises(ParameterError, match="must be finite"):
        builder(*args)


def test_ex31_member_atoms():
    fam = ex31(2.0)
    c = space.cdf(fam.member(3))
    assert abs(c.prob_at(1.0) - 1.0 / 9.0) < 1e-12
    assert abs(c.prob_at(3.0 ** -0.5) - 8.0 / 9.0) < 1e-12


def test_ex32_member_is_constant_shift():
    fam = ex32(0.5, 2.0)
    d = fam.diff(10)
    assert abs(space.sup_norm(d) - 0.01) < 1e-15
    for w in (0.1, 0.5, 0.9):
        assert abs(d(w) - 0.01) < 1e-15


def test_ex33_member_values():
    fam = ex33()
    x5 = fam.member(5)
    assert x5(0.1) == 1.0
    assert x5(0.5) == 0.0


def test_constant_family_trivial():
    fam = constant_family(0.0)
    assert fam.member(7) is fam.limit
    src = fam.meta.term_source("cc", ("eps", 0.1), None)
    assert np.all(src.terms(1, 100) == 0.0)


def test_diagram_nodes_and_generators():
    d = mode_diagram(closed=False)
    assert set(d.nodes) == set(NODES)
    for edge in (("slinf", "sl1"), ("sl1", "cc"), ("cc", "as"),
                 ("as", "prob"), ("prob", "dist"), ("linf", "l1")):
        assert edge in d.edges


def test_transitive_closure():
    d = mode_diagram()
    edges = set(d.edges)
    # closure property
    for a, b in edges:
        for c, dd in edges:
            if b == c:
                assert (a, dd) in edges
    # chains from the generators
    assert ("slinf", "dist") in edges
    assert ("sl1", "prob") in edges
    # and no arrow along any recorded non-implication
    for ne in d.non_edges:
        assert (ne.source, ne.target) not in edges
    # closing twice is a no-op
    assert d.transitive_closure().edges == d.edges


def test_with_edge_does_not_reclose():
    d = mode_diagram()
    d2 = d.with_edge("s2d", "s1d")
    assert len(d2.edges) == len(d.edges) + 1
    # the consequence s2d => s3d is deliberately not added
    assert ("s2d", "s3d") not in d2.edges
    assert d.with_edge(*d.edges[0]) is d


def test_diagram_rejects_unknown_node():
    with pytest.raises(ParameterError):
        ImplicationDiagram(("a", "b"), (("a", "zzz"),), ())


def test_node_modes_cover_diagram():
    assert set(NODE_MODES) == set(NODES)


@pytest.mark.parametrize("family", default_registry(), ids=lambda f: f.name)
def test_golden_agreement(family):
    """check_mode reproduces the asserted verdict table exactly."""
    expected = expected_verdicts(family)
    assert expected, f"no golden data for {family.name}"
    for node, want in expected.items():
        rep = node_report(family, node)
        assert verdict_matches(want, rep.verdict), (
            f"{family.name} {node}: expected {want}, got {rep.verdict}"
        )


def test_expected_verdicts_regime_dependence():
    # outside the analyzed regime the failure claims are absent, not flipped
    assert "s1d" in expected_verdicts(ex31(2.0))
    assert "s1d" not in expected_verdicts(ex31(0.5))
    assert "s2d" in expected_verdicts(ex32(0.5, 2.0))
    assert "s2d" not in expected_verdicts(ex32(0.4, 2.0))


def test_soundness_sweep_clean():
    report = soundness_sweep(mode_diagram(), default_registry())
    assert report.ok
    assert report.violations == []
    # the one witness-less non-implication is a recorded coverage gap
    assert any("s3d -/-> prob" in g for g in report.coverage_gaps)


def test_soundness_sweep_constant_only():
    report = soundness_sweep(mode_diagram(), [constant_family(0.0)])
    assert not any(v.kind == "edge" for v in report.violations)


def test_injected_false_edge_detected():
    diagram = mode_diagram().with_edge("s2d", "s1d")
    report = soundness_sweep(diagram, default_registry())
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.kind == "edge"
    assert (v.source, v.target) == ("s2d", "s1d")
    assert v.family.startswith("ex31")


def test_missing_witness_is_coverage_gap():
    report = soundness_sweep(mode_diagram(), [ex32(0.5, 2.0)])
    assert any("ex31" in g for g in report.coverage_gaps)


def test_verify_lipschitz_s2d_uniform():
    fam = shift_uniform(2.0)
    ws = [LipschitzWitness(x=x, K=1.0, delta=0.1) for x in (0.25, 0.5, 0.75)]
    rep = verify_lipschitz_s2d(fam, ws)
    assert rep.ok
    assert rep.slinf_verdict == "holds"


def test_verify_lipschitz_bad_witness_constant():
    # a Lipschitz constant that is too small fails the witness grid test
    fam = shift_uniform(2.0)
    rep = verify_lipschitz_s2d(fam, [LipschitzWitness(x=0.5, K=0.1, delta=0.1)])
    assert not rep.witnesses_ok
    assert not rep.ok


def test_verify_lipschitz_requires_shift_family():
    with pytest.raises(ParameterError):
        verify_lipschitz_s2d(ex31(2.0), [LipschitzWitness(0.5, 1.0, 0.1)])


def test_verify_truncation_ex32():
    fam = ex32(0.5, 2.0)
    rep = verify_truncation_s1star(fam, eps=0.5)
    assert rep.ok
    assert rep.cc_verdict == "holds"
    # truncated terms are exactly the shifts below eps: 1/n^2 for n >= 2
    src = fam.meta.term_source("trunc_l1", ("eps", 0.5), None)
    terms = src.terms(2, 50)
    ns = np.arange(2, 50, dtype=float)
    assert np.max(np.abs(terms - ns ** -2.0)) < 1e-15


def test_verify_truncation_ex31_hypothesis_fails():
    rep = verify_truncation_s1star(ex31(2.0), eps=0.5, n_check=2000)
    assert not rep.truncated_summable
    assert not rep.ok
    # the splitting bound itself still holds term-wise
    assert rep.splitting_ok


def test_verify_truncation_constant():
    rep = verify_truncation_s1star(constant_family(0.0), eps=0.5)
    assert rep.ok
    with pytest.raises(ParameterError):
        verify_truncation_s1star(constant_family(0.0), eps=0.0)


def test_export_catalog_schema():
    cat = export_catalog()
    assert cat["schema_version"] == 1
    assert len(cat["families"]) == 6
    for entry in cat["families"]:
        assert set(entry) >= {"name", "kind", "params", "expected_verdicts"}
    d = cat["diagram"]
    assert set(d) == {"nodes", "edges", "non_edges"}
    for ne in d["non_edges"]:
        assert set(ne) == {"source", "target", "witness", "note"}


def test_non_edge_witnesses_present_in_registry():
    kinds = {f.meta.kind for f in default_registry()}
    for ne in mode_diagram().non_edges:
        if ne.witness is not None:
            assert ne.witness in kinds


# ---------------------------------------------------------------------------
# Reference formulas: the two-atom and shift families as each mode once spelt
# them out.  The builders derive the same terms, hints, members and
# certification from (r, q) and from the base CDF's Hölder exponent at 1.


def _ref_two_atom_source_factory(r, v2_of, q, v1=1.0, c=0.0):
    def m1_of(nsf):
        return np.minimum(nsf**-r, 1.0)

    def power(p):
        return AnalyticHint("power", exponent=float(p))

    def zeros(start=1):
        return TermSource(lambda ns: np.zeros(len(ns)),
                          hint=AnalyticHint("eventually_zero", start=int(start)))

    def source(mode, probe, params):
        axis, val = probe
        term = mode if mode == "trunc_l1" else mode_spec(mode).term(axis)

        if term == "tail":
            eps = float(val)
            if eps > v1:
                return zeros()

            def gen(ns, eps=eps):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                return m1 * (v1 >= eps) + (1.0 - m1) * (np.abs(v2_of(nsf) - c) >= eps)

            return TermSource(gen, hint=AnalyticHint("power", exponent=float(r),
                                                     constant=1.0))

        if term == "moment":
            p = float(val)

            def gen(ns, p=p):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                return m1 * abs(v1 - c) ** p + (1.0 - m1) * np.abs(v2_of(nsf) - c) ** p

            return TermSource(gen, hint=power(r if math.isinf(q) else min(r, p * q)))

        if term == "sup":

            def gen(ns):
                nsf = ns.astype(float)
                return np.maximum(np.full(len(ns), abs(v1 - c)), np.abs(v2_of(nsf) - c))

            return TermSource(gen, hint=AnalyticHint("eventually_constant",
                                                     level=float(abs(v1 - c))))

        if term in ("expect_gap", "coupled_gap"):
            f = val

            def gen_s1d(ns, f=f):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                return np.abs(m1 * f(v1) + (1.0 - m1) * f(v2_of(nsf)) - f(c))

            def gen_s1star(ns, f=f):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                return m1 * abs(float(f(v1)) - float(f(c))) + (1.0 - m1) * np.abs(
                    f(v2_of(nsf)) - f(c))

            return TermSource(gen_s1star if term == "coupled_gap" else gen_s1d)

        if term == "cdf_gap":
            x = float(val)
            if x >= max(v1, c) or x < min(c, 0.0):
                return zeros()

            def gen(ns, x=x):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                fn = m1 * (v1 <= x) + (1.0 - m1) * (v2_of(nsf) <= x)
                return np.abs(fn - float(c <= x))

            return TermSource(gen, hint=AnalyticHint("power", exponent=float(r),
                                                     constant=1.0))

        if term == "char_gap":
            t = float(val)
            if t == 0.0:
                return zeros()

            def gen(ns, t=t):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                return np.abs(m1 * np.exp(1j * t * v1)
                              + (1.0 - m1) * np.exp(1j * t * v2_of(nsf))
                              - np.exp(1j * t * c))

            if math.isinf(q) or abs(np.exp(1j * t * v1) - np.exp(1j * t * c)) < 1e-12:
                exp = r if math.isinf(q) else q
            else:
                exp = min(r, q)
            return TermSource(gen, hint=power(exp))

        if term == "pointwise":
            omega = float(val)
            a0 = mode_spec(mode).exponent(params)

            def gen(ns, omega=omega, a0=a0):
                nsf = ns.astype(float)
                vals = np.where(omega < m1_of(nsf), v1, v2_of(nsf))
                return np.abs(vals - c) ** a0

            if math.isinf(q):
                return TermSource(gen, hint=AnalyticHint(
                    "eventually_zero", start=math.ceil(omega ** (-1.0 / r))))
            return TermSource(gen, hint=power(a0 * q))

        if term == "trunc_l1":
            eps = float(val)

            def gen(ns, eps=eps):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                d2 = np.abs(v2_of(nsf) - c)
                return m1 * abs(v1 - c) * (abs(v1 - c) < eps) + (1.0 - m1) * d2 * (
                    d2 < eps)

            return TermSource(gen, hint=power(r if math.isinf(q) else min(r, q)))

        return None

    return source


def _ref_ex31(alpha):
    q = 1.0 / alpha

    def member(n):
        b = float(n) ** -2.0
        if b >= 1.0:
            return space.constant_rv(1.0)
        return space.RandomVariable((
            space.Piece(0.0, b, space.Constant(1.0)),
            space.Piece(b, 1.0, space.Constant(float(n) ** -q)),
        ))

    def certifies(mode, params):
        if mode in ("cc", "s2d", "as", "prob", "dist"):
            return True
        if mode == "sa_as":
            return params.alpha > alpha
        if mode in ("s1d", "s1star", "s3d"):
            return alpha < 1.0
        return False

    source = _ref_two_atom_source_factory(2.0, lambda nsf: nsf**-q, q)
    return source, member, certifies


def _ref_ex33():
    def member(n):
        b = 1.0 / float(n)
        if b >= 1.0:
            return space.constant_rv(1.0)
        return space.RandomVariable((
            space.Piece(0.0, b, space.Constant(1.0)),
            space.Piece(b, 1.0, space.Constant(0.0)),
        ))

    def certifies(mode, params):
        return mode in ("sa_as", "as", "prob", "dist")

    source = _ref_two_atom_source_factory(
        1.0, lambda nsf: np.zeros(len(nsf)), math.inf)
    return source, member, certifies


def _ref_ex32_s2d(alpha, beta):
    """(s2d_hint_exp, s2d_certified) as ex32 declared them."""

    def s2d_hint_exp(x):
        if abs(x - 1.0) <= 1e-12:
            return (1.0 - alpha) * beta
        return beta

    return s2d_hint_exp, (1.0 - alpha) * beta > 1.0


_TWO_ATOM_CASES = [(ex31(a), _ref_ex31(a)) for a in (0.25, 0.5, 1.0, 1.7, 2.0)]
_TWO_ATOM_CASES.append((ex33(), _ref_ex33()))
_TWO_ATOM_IDS = [family.name for family, _ in _TWO_ATOM_CASES]
_EXTRA_PROBES = {"eps": (2.0, 1.0, 1e-7), "x": (-0.5, 0.0, 1.0, 1.5),
                 "t": (0.0, 2.0 * math.pi, -3.0)}


def _probes_with_extras(mode, params):
    axes = ("eps",) if mode == "trunc_l1" else [a for a, _ in mode_spec(mode).axes]
    probes = ([("eps", e) for e in params.epsilons] if mode == "trunc_l1"
              else probes_for(mode, params))
    return probes + [(a, v) for a in axes for v in _EXTRA_PROBES.get(a, ())]


def _source_signature(src):
    if src is None:
        return None
    hint = None if src.hint is None else src.hint.to_dict()
    return hint, src.terms(1, 2 ** 12).tobytes()


@pytest.mark.parametrize("family, ref", _TWO_ATOM_CASES, ids=_TWO_ATOM_IDS)
def test_two_atom_terms_match_reference(family, ref):
    ref_source = ref[0]
    checked = 0
    for alpha, p in itertools.product((0.5, 1.0, 2.0), repeat=2):
        params = ModeParams.defaults(family, alpha=alpha, p=p)
        for mode in ALL_MODES + ("trunc_l1",):
            for probe in _probes_with_extras(mode, params):
                got = family.meta.term_source(mode, probe, params)
                want = ref_source(mode, probe, params)
                assert _source_signature(got) == _source_signature(want), (mode, probe)
                checked += 1
    assert checked > 700


@pytest.mark.parametrize("family, ref", _TWO_ATOM_CASES, ids=_TWO_ATOM_IDS)
def test_two_atom_members_and_certification_match_reference(family, ref):
    _, ref_member, ref_certifies = ref
    for n in range(1, 5000):
        assert repr(family.member(n)) == repr(ref_member(n)), n
    own = family.params.get("alpha")
    for a in np.linspace(0.05, 3.0, 60):
        if own is not None and abs(a - own) < 1e-9:
            continue
        params = ModeParams(alpha=float(a))
        for mode in ALL_MODES:
            assert family.meta.certifies(mode, params) == ref_certifies(mode, params), (
                mode, a)


def test_ex32_s2d_hint_and_certification_match_reference():
    for alpha in (0.05, 0.25, 0.4, 0.5, 0.6, 0.75, 0.95):
        for beta in (1.01, 1.5, 2.0, 2.5, 4.0, 20.0):
            fam = ex32(alpha, beta)
            params = ModeParams.defaults(fam)
            hint_exp, certified = _ref_ex32_s2d(alpha, beta)
            for x in (0.25, 0.5, 0.75, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-13, 1.0):
                hint = fam.meta.term_source("s2d", ("x", x), params).hint
                assert hint.kind == "power" and hint.exponent == hint_exp(x), x
            assert fam.meta.certifies("s2d", params) == certified


def test_shift_uniform_s2d_hint_is_beta():
    for beta in (1.01, 2.0, 3.5):
        fam = shift_uniform(beta)
        params = ModeParams.defaults(fam)
        for x in params.x_points + (1.0,):
            hint = fam.meta.term_source("s2d", ("x", x), params).hint
            assert hint.exponent == beta
        assert fam.meta.certifies("s2d", params)
