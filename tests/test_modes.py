"""Mode checkers: term generators, probe handling, verdict semantics.

The key cross-check here: every closed-form vectorized term formula a
registry family ships must agree with the generic representation-exact
generator (quadrature/CDF route) at small indices.
"""

import math

import numpy as np
import pytest

from convlab import space
from convlab.errors import ParameterError
from convlab.modes import (ALL_MODES, LIMIT_MODES, MODES, SERIES_MODES,
                           UNIVERSAL_MODES, Family, FamilyMeta, ModeParams,
                           ModeReport, check_mode, generic_term,
                           probe_key, probe_source, probes_for, van_der_corput)
from convlab.registry import (NODE_MODES, NODES, constant_family,
                              default_registry, ex31, ex32, ex33,
                              shift_uniform)
from convlab.series import EnginePolicy
from convlab.testfuncs import ClampedAffine, ClampedIdentity, Sine

CROSS_CHECK_NS = (1, 2, 3, 5, 12, 40)

# test functions clamped inside [0, 1]: no power series states them there,
# so the two-atom gaps of ex31 have no law, and each probe scans its terms
LAWLESS_ON_TWO_ATOMS = (ClampedIdentity(M=0.25, eps=0.25), ClampedAffine(K=2.0, M=0.5),
                        ClampedAffine(K=4.0, M=1.0, x0=0.25))


def registry_families():
    return default_registry()


def term_args(mode, probe, params):
    """(kind, value, power) of one probe of a mode: what its terms depend on."""
    spec = MODES[mode]
    return spec.term(probe[0]), probe[1], spec.exponent(params)


def test_van_der_corput_low_discrepancy():
    pts = [van_der_corput(i) for i in range(1, 18)]
    assert all(0.0 < p < 1.0 for p in pts)
    assert len(set(pts)) == 17
    assert pts[0] == 0.5 and pts[1] == 0.25 and pts[2] == 0.75


def test_mode_params_validation():
    with pytest.raises(ParameterError):
        ModeParams(epsilons=(0.5, -0.1))
    with pytest.raises(ParameterError):
        ModeParams(p=0.0)
    with pytest.raises(ParameterError):
        ModeParams(alpha=0.0)
    with pytest.raises(ParameterError):
        ModeParams(omega_points=(0.5, 1.5))


@pytest.mark.parametrize("overrides", [
    {"t_points": (math.nan,)},
    {"t_points": (math.inf,)},
    {"epsilons": (math.nan,)},
    {"p": math.inf},
    {"alpha": math.nan},
    {"x_points": (0.5, -math.inf)},
], ids=["t-nan", "t-inf", "eps-nan", "p-inf", "alpha-nan", "x-minus-inf"])
def test_mode_params_rejects_non_finite(overrides):
    fam = ex32(0.5, 2.0)
    with pytest.raises(ParameterError, match="must be finite"):
        ModeParams.defaults(fam, **overrides)


def test_unknown_mode_rejected():
    fam = registry_families()[0]
    with pytest.raises(ParameterError, match="valid modes"):
        check_mode(fam, "bogus")


def test_term_s2d_rejects_jump_points():
    fam = [f for f in registry_families() if f.meta.kind == "ex31"][0]
    with pytest.raises(ParameterError, match="jump point"):
        generic_term(fam, "cdf_gap", 0.0, 1.0, 5)  # the limit has its atom at 0


@pytest.mark.parametrize("builder, args", [
    (ex31, (2.0,)), (ex33, ()), (constant_family, (0.0,)),
], ids=["ex31", "ex33", "const"])
@pytest.mark.parametrize("mode", ("s2d", "dist"))
@pytest.mark.parametrize("use_analytic", (True, False), ids=["analytic", "generic"])
def test_cdf_gap_at_limit_atom_raises_on_both_routes(builder, args, mode,
                                                     use_analytic):
    # the closed-form cdf_gap source at the atom used to carry a power hint
    # over terms that stay at 1, and so reported holds
    fam = builder(*args)
    params = ModeParams.defaults(fam, x_points=(0.0,))
    with pytest.raises(ParameterError, match="jump point"):
        check_mode(fam, mode, params, use_analytic=use_analytic)


@pytest.mark.parametrize("family", registry_families(), ids=lambda f: f.name)
def test_analytic_terms_match_generic(family):
    """Closed-form term formulas agree with the quadrature/CDF route."""
    node_param_sets = [ModeParams.defaults(family),
                       ModeParams.defaults(family, alpha=2.0)]
    for node, (tag, overrides) in NODE_MODES.items():
        if overrides:
            node_param_sets.append(ModeParams.defaults(family, **overrides))
    checked = 0
    for params in node_param_sets:
        for mode in ALL_MODES:
            for probe in probes_for(mode, params):
                args = term_args(mode, probe, params)
                src = family.meta.term_source(*args)
                if src is None:
                    continue
                fast = src.terms(CROSS_CHECK_NS[0], CROSS_CHECK_NS[-1] + 1)
                for n in CROSS_CHECK_NS:
                    slow = generic_term(family, *args, n)
                    assert abs(fast[n - CROSS_CHECK_NS[0]] - slow) < 1e-8, (
                        f"{family.name} {mode} {probe_key(probe)} n={n}: "
                        f"analytic {fast[n - 1]} vs generic {slow}"
                    )
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("family", registry_families(), ids=lambda f: f.name)
def test_truncated_terms_match_generic(family):
    params = ModeParams.defaults(family)
    for eps in (0.5, 0.05):
        src = family.meta.term_source("trunc_l1", eps, 1.0)
        if src is None:
            continue
        fast = src.terms(1, 41)
        for n in CROSS_CHECK_NS:
            slow = generic_term(family, "trunc_l1", eps, 1.0, n)
            assert abs(fast[n - 1] - slow) < 1e-8


def test_generic_term_rejects_unknown_kind():
    with pytest.raises(ParameterError, match="unknown term kind"):
        generic_term(registry_families()[0], "bogus", 0.5, 1.0, 3)


def test_universal_mode_needs_certification():
    # an uncertified copy of the constant family: all series converge but the
    # universal modes must stay NotFalsified
    rv = space.constant_rv(0.0)
    meta = FamilyMeta(kind="anon", support=(0.0, 0.0), bound=0.0)
    fam = Family("anon", {}, rv, lambda n: rv, meta)
    rep = check_mode(fam, "cc")
    assert rep.verdict == "not_falsified"
    # probe-complete modes may still report Holds
    rep = check_mode(fam, "slinf")
    assert rep.verdict == "holds"
    assert "slinf" not in UNIVERSAL_MODES


def test_fails_reports_first_witness():
    fam = [f for f in registry_families() if f.meta.kind == "ex33"][0]
    rep = check_mode(fam, "s1d")
    assert rep.fails
    assert rep.witness == "f=sine"
    assert rep.probe_results["f=sine"].diverges


def test_witness_is_the_key_of_the_first_failing_probe_among_repeated_values():
    # ex32(0.5, 2)'s CDF gap sums at x = 0.5 and diverges at x = 1: params
    # keep each value once, in first-seen order, so the probes, their keys,
    # verdicts and JSON pair one to one, and the witness is the second key
    fam = ex32(0.5, 2.0)
    params = ModeParams.defaults(fam, x_points=(0.5, 1.0, 0.5, 1.0))
    assert params.x_points == (0.5, 1.0)
    rep = check_mode(fam, "s2d", params)
    assert [v.klass for v in rep.probe_verdicts] == ["converges", "diverges"]
    assert rep.fails and rep.witness == "x=1.0"
    assert list(rep.probe_results) == list(rep.to_dict()["probes"]) == ["x=0.5", "x=1.0"]


def test_report_round_trip_dict():
    fam = registry_families()[0]
    rep = check_mode(fam, "cc")
    d = rep.to_dict()
    assert d["family"] == fam.name
    assert d["mode"] == "cc"
    assert d["verdict"] in ("holds", "fails", "not_falsified", "inconclusive")
    assert set(d["probes"]) == {probe_key(p) for p in
                               probes_for("cc", ModeParams.defaults(fam))}


def test_default_x_grid_skips_limit_atoms():
    fam = [f for f in registry_families() if f.meta.kind == "ex31"][0]
    params = ModeParams.defaults(fam)
    jumps = fam.limit_cdf.jump_points
    assert all(abs(x - j) > 1e-9 for x in params.x_points for j in jumps)


@pytest.mark.parametrize("c", (0.0, 1.5, -3.0, 1e15, -1e15))
def test_point_mass_x_grid_keeps_tenth_spacing(c):
    from convlab.registry import constant_family

    old = [c + (k - 4.5) * 0.1 for k in range(10)]
    want = tuple(x for x in old if abs(x - c) > 1e-9)[:9]
    assert ModeParams.defaults(constant_family(c)).x_points == want


def test_x_probe_override_reaches_failure_point():
    fam = [f for f in registry_families() if f.name.startswith("ex32(alpha=0.5")][0]
    params = ModeParams.defaults(fam)
    assert 1.0 in params.x_points


def test_zero_law_past_the_horizon_leaves_the_probe_inconclusive():
    # shift_uniform(1.01)'s CDF gap at x = 1 + 1e-7 is nonzero while the
    # shift n^-1.01 exceeds 1e-7, up to n = 8524974: past n_max, so a sum to
    # the horizon is not the series' sum.  The zero law starts at the first
    # zero term
    fam = shift_uniform(1.01)
    params = ModeParams.defaults(fam, x_points=(1.0000001,))
    src = probe_source(fam, "s2d", ("x", 1.0000001), params)
    assert src.law.exponent == math.inf and src.law.start == 8524975
    assert src.law.head is None
    assert src.terms(10 ** 6 + 1, 10 ** 6 + 2)[0] > 0.0
    before, at = src.generator(np.array([8524974, 8524975]))
    assert before > 0.0 and at == 0.0
    rep = check_mode(fam, "s2d", params)
    assert rep.verdict == "inconclusive" and rep.witness is None
    v = rep.probe_results["x=1.0000001"]
    assert (v.klass, v.sum_estimate, v.tail_bound, v.n_used) == (
        "inconclusive", None, None, 0)


def test_limit_modes_on_registry():
    # classical ladder for the uniform shift family: everything converges
    fam = [f for f in registry_families() if f.meta.kind == "shift_uniform"][0]
    for mode in ("as", "prob", "lp", "linf", "dist"):
        rep = check_mode(fam, mode)
        assert rep.verdict in ("holds", "not_falsified"), (mode, rep.verdict)


def test_linf_fails_for_persistent_sup():
    fam = [f for f in registry_families() if f.meta.kind == "ex33"][0]
    rep = check_mode(fam, "linf")
    assert rep.fails
    assert abs(generic_term(fam, "sup", None, 1.0, 100) - 1.0) < 1e-12


def test_markov_dominance_generic_route():
    for fam in registry_families():
        for n in CROSS_CHECK_NS:
            for eps in (0.5, 0.1):
                lhs = eps * generic_term(fam, "tail", eps, 1.0, n)
                rhs = generic_term(fam, "moment", 1.0, 1.0, n)
                assert lhs <= rhs + 1e-9, (fam.name, n, eps)


def test_check_mode_policy_propagates():
    fam = [f for f in registry_families() if f.meta.kind == "ex33"][0]
    small = EnginePolicy(n_max=4096)
    rep = check_mode(fam, "s1d", policy=small)
    assert rep.fails
    assert rep.probe_results["f=sine"].n_used <= 4096


# The per-mode string dispatch the mode table replaced, kept as the reference
# the table-driven probes, summaries and generic terms must reproduce.


def reference_probes(mode, params):
    if mode in ("cc", "prob"):
        return [("eps", e) for e in params.epsilons]
    if mode in ("slp", "lp"):
        return [("p", params.p)]
    if mode in ("slinf", "linf"):
        return [("all", None)]
    if mode in ("s1d", "s1star"):
        return [("f", f) for f in params.test_functions]
    if mode == "s2d":
        return [("x", x) for x in params.x_points]
    if mode == "s3d":
        return [("t", t) for t in params.t_points]
    if mode in ("sa_as", "as"):
        return [("omega", w) for w in params.omega_points]
    if mode == "dist":
        return [("x", x) for x in params.x_points] + [
            ("f", f) for f in params.test_functions
        ]
    raise ParameterError(f"unknown mode {mode!r}")


def reference_summary(mode, params):
    out = {}
    if mode in ("cc", "prob"):
        out["epsilons"] = list(params.epsilons)
    if mode in ("slp", "lp"):
        out["p"] = params.p
    if mode == "sa_as":
        out["alpha"] = params.alpha
    if mode == "s2d" or mode == "dist":
        out["x_points"] = list(params.x_points)
    if mode == "s3d":
        out["t_points"] = list(params.t_points)
    if mode in ("s1d", "s1star", "dist"):
        out["test_functions"] = [f.name for f in params.test_functions]
    if mode in ("sa_as", "as"):
        out["omega_points"] = list(params.omega_points)
    return out


def reference_term(family, mode, probe, n, params):
    axis, value = probe
    power = 1.0
    if mode in ("cc", "prob"):
        kind = "tail"
    elif mode in ("slp", "lp"):
        kind = "moment"
    elif mode in ("slinf", "linf"):
        kind = "sup"
    elif mode == "s1d" or (mode == "dist" and axis == "f"):
        kind = "expect_gap"
    elif mode == "s1star":
        kind = "coupled_gap"
    elif mode in ("s2d", "dist"):
        kind = "cdf_gap"
    elif mode == "s3d":
        kind = "char_gap"
    elif mode == "sa_as":
        kind, power = "pointwise", params.alpha
    elif mode == "as":
        kind = "pointwise"
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    return generic_term(family, kind, value, power, n)


@pytest.mark.parametrize("family", registry_families(), ids=lambda f: f.name)
def test_mode_table_matches_reference_dispatch(family):
    assert SERIES_MODES == ("cc", "slp", "slinf", "sa_as", "s1d", "s1star",
                            "s2d", "s3d")
    assert LIMIT_MODES == ("as", "prob", "lp", "linf", "dist")
    assert ALL_MODES == SERIES_MODES + LIMIT_MODES
    assert NODES == ("slinf", "sl1", "s1star", "s1d", "s3d", "s1as", "cc",
                     "as", "prob", "dist", "linf", "l1", "s2d")
    assert UNIVERSAL_MODES == frozenset(
        {"cc", "sa_as", "s1d", "s1star", "s2d", "s3d", "as", "prob", "dist"})
    for params in (ModeParams.defaults(family),
                   ModeParams.defaults(family, alpha=2.0, p=2.0)):
        for mode in ALL_MODES:
            probes = probes_for(mode, params)
            assert probes == reference_probes(mode, params)
            shown = ModeReport(family.name, mode, "holds", params=params).to_dict()["params"]
            assert list(shown.items()) == list(reference_summary(mode, params).items())
            for probe in probes:
                for n in (1, 2, 5, 40):
                    got = generic_term(family, *term_args(mode, probe, params), n)
                    want = reference_term(family, mode, probe, n, params)
                    assert got == want, (mode, probe_key(probe), n)


@pytest.mark.parametrize("family", [f for f in default_registry()
                                    if f.meta.kind in ("ex31", "ex33")],
                         ids=lambda f: f.name)
def test_dist_after_s1d_reads_s1d_blocks_and_agrees(family, monkeypatch):
    # dist's test-function probes get the very sources s1d scanned, so their
    # null tests evaluate no new block, and report what a fresh family does
    from convlab.series import TermSource

    params = ModeParams.defaults(family, test_functions=LAWLESS_ON_TWO_ATOMS)
    check_mode(family, "s1d", params)
    counted = []
    terms = TermSource.terms

    def counting(src, lo, hi):
        counted.append(hi - lo)
        return terms(src, lo, hi)

    monkeypatch.setattr(TermSource, "terms", counting)
    after = check_mode(family, "dist", params)
    monkeypatch.undo()
    fresh = next(f for f in default_registry() if f.name == family.name)
    alone = check_mode(fresh, "dist", ModeParams.defaults(
        fresh, test_functions=LAWLESS_ON_TWO_ATOMS))
    assert after.to_dict() == alone.to_dict()
    assert counted == []  # the null tests read s1d's blocks, anchors included


@pytest.mark.parametrize("family", default_registry(), ids=lambda f: f.name)
def test_modes_sharing_a_family_report_what_fresh_families_do(family):
    # the family's source cache may share a source only between modes whose
    # terms agree: every mode, run in turn on one family, must report what
    # it reports on a family of its own (sa_as and as differ in exponent)
    policy = EnginePolicy(n_max=1 << 14)
    params = ModeParams.defaults(family, alpha=0.5, p=2.0)
    for mode in ALL_MODES:
        shared = check_mode(family, mode, params, policy)
        fresh = next(f for f in default_registry() if f.name == family.name)
        alone = check_mode(fresh, mode, ModeParams.defaults(fresh, alpha=0.5, p=2.0), policy)
        assert shared.to_dict() == alone.to_dict(), mode


def test_generic_terms_check_their_arguments():
    # eps, p and alpha are checked by ModeParams (test_mode_params_validation)
    fam = ex31(2.0)
    with pytest.raises(ParameterError, match="index n must be >= 1"):
        fam.member(0)
    with pytest.raises(ParameterError, match="omega must lie in"):
        generic_term(fam, "pointwise", 1.5, 1.0, 1)


@pytest.mark.parametrize("kind", ("expect_gap", "coupled_gap"))
@pytest.mark.parametrize("n", (22, 30, 100, 1000))
def test_generic_gaps_see_a_test_functions_kink(kind, n):
    # f = ClampedAffine(K=2, M=1) is 2x - 1 on [0, 1] and clamps above 1, so
    # on U + s it clamps on a strip of width s = n^-2 and both gaps are
    # exactly 2s - s^2; an unsplit quadrature missed the strip from n = 22
    # on and gave 2s
    f = ClampedAffine(K=2.0, M=1.0)
    assert f.kinks == (0.0, 1.0)
    s = n ** -2.0
    assert abs(generic_term(shift_uniform(2.0), kind, f, 1.0, n) - (2 * s - s * s)) <= 1e-15


def test_generic_s1d_sum_sees_a_test_functions_kink():
    # the gaps 2s - s^2 with s = n^-2 sum to 2 zeta(2) - zeta(4); with the
    # kink missed from n = 22 on, the generic sum lay 3.3e-5 above it.  The
    # 3.9e-8 left is the fitted tail and the per-term quadrature tolerance
    fam = shift_uniform(2.0)
    params = ModeParams.defaults(fam, test_functions=(ClampedAffine(K=2.0, M=1.0),))
    (v,) = check_mode(fam, "s1d", params, use_analytic=False).probe_verdicts
    assert v.converges
    assert abs(v.sum_estimate - (math.pi ** 2 / 3 - math.pi ** 4 / 90)) < 1e-7


def test_mode_report_holds_and_fails_read_its_verdict():
    holds = check_mode(constant_family(0.0), "cc")
    fails = check_mode(ex33(), "s1d")
    assert (holds.holds, holds.fails) == (True, False)
    assert (fails.holds, fails.fails) == (False, True)


@pytest.mark.parametrize("make", [lambda: ClampedIdentity(M=0.0),
                                  lambda: ClampedIdentity(eps=-1.0),
                                  lambda: ClampedAffine(K=0.0),
                                  lambda: ClampedAffine(M=-1.0)])
def test_clamped_test_functions_need_positive_parameters(make):
    with pytest.raises(ParameterError, match="needs"):
        make()


@pytest.mark.parametrize("cls", [Sine, ClampedIdentity, ClampedAffine])
@pytest.mark.parametrize("derived", ["name", "bound", "lipschitz"])
def test_test_functions_take_no_derived_constant(cls, derived):
    # a test function's name, sup bound and Lipschitz constant follow from
    # its parameters: verify_truncation_s1star's splitting bound reads them
    with pytest.raises(TypeError):
        cls(**{derived: 0.0})
