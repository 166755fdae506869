"""Counterexample catalog, implication diagram, soundness harness."""

import math

import numpy as np
import pytest

from convlab import space
from convlab.errors import ParameterError
from convlab.registry import (NODE_MODES, NODES, ImplicationDiagram,
                              LipschitzWitness, build_family, constant_family,
                              default_registry, ex31, ex32, ex33,
                              expected_verdicts, export_catalog, node_report,
                              mode_diagram, shift_uniform, soundness_sweep,
                              verdict_matches, verify_lipschitz_s2d,
                              verify_truncation_s1star)


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
