"""Catalog of counterexample families, the implication diagram between the
convergence modes, golden verdict tables, and the cross-checker soundness
harness.

The three parameterized families are the classical unit-interval
constructions: a two-atom family with masses 1/n^2, a density with an
integrable blow-up at 1 shifted by n^(-beta), and the shrinking-indicator
family with mass 1/n.  Each family ships closed-form vectorized term
formulas and analytic hints, so the series engine can certify Holds
verdicts instead of extrapolating; the representation-exact generic term
generators in `modes` remain available and are cross-checked in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import space
from .errors import ParameterError
from .modes import (Family, FamilyMeta, ModeParams, check_mode, mode_spec,
                    probe_source)
from .series import DEFAULT_POLICY, AnalyticHint, TermSource, analyze_series
from .testfuncs import ClampedAffine, ClampedIdentity, Sine

SCHEMA_VERSION = 1


def _power(p, constant=None):
    return AnalyticHint("power", exponent=float(p), constant=constant)


def _zero(start=1):
    return AnalyticHint("eventually_zero", start=int(start))


def _require_finite(kind, **params):
    for name, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{kind} parameter {name} must be finite, got {value}")


def _zeros_source(start=1):
    return TermSource(lambda ns: np.zeros(len(ns)), hint=_zero(start))


# ---------------------------------------------------------------------------
# Two-atom families: X_n = 1 on (0, n^-r), n^-q on [n^-r, 1); limit 0.


def _two_atom_source_factory(r, q):
    """Vectorized term formulas for a two-atom family.

    r: decay exponent of the first atom's mass n^-r; q: decay exponent of
    the second atom's value n^-q (math.inf when it is identically 0).  Each
    term is mean(g) = E g(X_n), or gap(g) = |E g(X_n) - g(0)|, for a g fixed
    by the mode and probe."""

    def m1_of(nsf):
        return np.minimum(nsf**-r, 1.0)

    def v2_of(nsf):  # n^-inf is 0 for every n, but pow gives 1 ** -inf = 1
        return np.zeros(len(nsf)) if math.isinf(q) else nsf**-q

    def mean(g, ns):
        nsf = ns.astype(float)
        m1 = m1_of(nsf)
        return m1 * g(1.0) + (1.0 - m1) * g(v2_of(nsf))

    def gap(g, ns):
        return np.abs(mean(g, ns) - g(0.0))

    def source(mode, probe, params):
        axis, val = probe
        term = mode if mode == "trunc_l1" else mode_spec(mode).term(axis)

        if term == "tail":
            eps = float(val)
            if eps > 1.0:
                return _zeros_source()
            return TermSource(lambda ns: mean(lambda v: np.abs(v) >= eps, ns),
                              hint=_power(r, constant=1.0))

        if term == "moment":
            p = float(val)
            return TermSource(lambda ns: mean(lambda v: np.abs(v) ** p, ns),
                              hint=_power(min(r, p * q)))

        if term == "sup":
            return TermSource(lambda ns: np.maximum(1.0, v2_of(ns.astype(float))),
                              hint=AnalyticHint("eventually_constant", level=1.0))

        if term == "expect_gap":
            return TermSource(lambda ns: gap(val, ns))

        if term == "coupled_gap":
            return TermSource(lambda ns: mean(lambda v: np.abs(val(v) - val(0.0)), ns))

        if term == "cdf_gap":
            x = float(val)
            if x >= 1.0 or x < 0.0:
                return _zeros_source()
            return TermSource(lambda ns: gap(lambda v: v <= x, ns),
                              hint=_power(r, constant=1.0))

        if term == "char_gap":
            t = float(val)
            if t == 0.0:
                return _zeros_source()

            def g(v):
                return np.exp(1j * t * v)

            # at t in 2*pi*Z the first atom drops out of the gap
            exp = q if abs(g(1.0) - g(0.0)) < 1e-12 and q < math.inf else min(r, q)
            return TermSource(lambda ns: gap(g, ns), hint=_power(exp))

        if term == "pointwise":
            omega = float(val)
            a0 = mode_spec(mode).exponent(params)

            def gen(ns):
                nsf = ns.astype(float)
                return np.abs(np.where(omega < m1_of(nsf), 1.0, v2_of(nsf))) ** a0

            if math.isinf(q):
                return TermSource(gen, hint=_zero(start=math.ceil(omega ** (-1.0 / r))))
            return TermSource(gen, hint=_power(a0 * q))

        if term == "trunc_l1":
            eps = float(val)
            return TermSource(lambda ns: mean(lambda v: np.abs(v) * (np.abs(v) < eps),
                                              ns), hint=_power(min(r, q)))

        return None

    return source


def _two_atom_family(kind, name, params, r, q):
    """X_n = 1 with mass n^-r, n^-q with the rest; limit 0.

    What the family certifies follows from (r, q): a summable first-atom
    mass (r > 1) gives cc and s2d; a summable second atom as well (q > 1)
    gives the summable expectation modes; sa_as needs a summable pointwise
    series, alpha * q > 1."""

    def member(n):
        # 1.0 / n, not float(n) ** -1.0: the two differ in the last bit
        b = 1.0 / float(n) if r == 1.0 else float(n) ** -r
        if b >= 1.0:
            return space.constant_rv(1.0)
        second = space.Constant(float(n) ** -q)
        return space.RandomVariable((space.Piece(0.0, b, space.Constant(1.0)),
                                     space.Piece(b, 1.0, second)))

    def certifies(mode, mode_params):
        if mode in ("as", "prob", "dist"):
            return True
        if mode in ("cc", "s2d"):
            return r > 1.0
        if mode in ("s1d", "s1star", "s3d"):
            return r > 1.0 and q > 1.0
        if mode == "sa_as":
            return q * mode_params.alpha > 1.0
        return False

    meta = FamilyMeta(kind=kind, support=(0.0, 1.0), bound=1.0,
                      term_source=_two_atom_source_factory(r, q), certifies=certifies)
    return Family(name, params, space.constant_rv(0.0), member, meta)


def ex31(alpha):
    """Two atoms: value 1 with mass n^-2, value n^(-1/alpha) with the rest;
    limit 0.  For alpha > 1 this converges completely but not
    distributionally in the summable senses."""
    _require_finite("ex31", alpha=alpha)
    if alpha <= 0:
        raise ParameterError("ex31 needs alpha > 0")
    return _two_atom_family("ex31", f"ex31(alpha={alpha:g})", {"alpha": alpha},
                            2.0, 1.0 / alpha)


def ex33():
    """Value 1 on (0, 1/n), 0 on [1/n, 1); limit 0.  Strongly almost surely
    convergent of every order, yet no summable distributional mode holds."""
    return _two_atom_family("ex33", "ex33", {}, 1.0, math.inf)


# ---------------------------------------------------------------------------
# Shift families: X_n = X + n^-beta, X supported on [0, 1].


def _shift_source_factory(beta, base_cdf_vec, base_char, holder_at_1):
    """Vectorized term formulas for X_n = X + n^-beta, X on [0, 1].

    holder_at_1 is the Hölder exponent of the base CDF F at x = 1, so
    |F(1 - s) - F(1)| decays like s^holder_at_1; F is Lipschitz elsewhere.
    The largest shift, 1, is at n = 1."""

    def s_of(ns):
        return ns.astype(float) ** -beta

    def source(mode, probe, params):
        axis, val = probe
        term = mode if mode == "trunc_l1" else mode_spec(mode).term(axis)

        if term == "tail":
            eps = float(val)
            start = 1 if eps > 1.0 else math.ceil(eps ** (-1.0 / beta))
            return TermSource(lambda ns: (s_of(ns) >= eps) * 1.0,
                              hint=_zero(start=start))

        if term in ("moment", "pointwise"):
            k = float(val) if term == "moment" else mode_spec(mode).exponent(params)
            return TermSource(lambda ns: s_of(ns) ** k, hint=_power(beta * k))

        if term == "sup":
            return TermSource(s_of, hint=_power(beta))

        if term == "cdf_gap":
            x = float(val)
            fx = float(base_cdf_vec(np.array([x]))[0])

            def gen(ns):
                return np.abs(base_cdf_vec(x - s_of(ns)) - fx)

            if x <= 0.0:
                return TermSource(gen, hint=_zero())
            if x > 1.0:
                gap = x - 1.0
                start = 1 if gap >= 1.0 else math.ceil(gap ** (-1.0 / beta))
                return TermSource(gen, hint=_zero(start=start))
            holder = holder_at_1 if abs(x - 1.0) <= 1e-12 else 1.0
            return TermSource(gen, hint=_power(holder * beta))

        if term == "char_gap":
            t = float(val)
            if t == 0.0:
                return _zeros_source()
            phi = base_char(t)
            return TermSource(
                lambda ns: np.abs(phi) * np.abs(np.exp(1j * t * s_of(ns)) - 1.0),
                hint=_power(beta))

        if term in ("expect_gap", "coupled_gap"):
            f = val
            if isinstance(f, Sine):
                phi1 = base_char(1.0)

                def gen(ns):
                    s = s_of(ns)
                    if term == "coupled_gap":
                        half = np.exp(1j * s / 2.0) * phi1
                        return 2.0 * np.sin(s / 2.0) * np.real(half)
                    return np.abs(np.imag((np.exp(1j * s) - 1.0) * phi1))

                return TermSource(gen, hint=_power(beta))
            if isinstance(f, ClampedIdentity):
                if f.M + f.eps < 2.0:
                    return None
                return TermSource(s_of, hint=_power(beta))
            if isinstance(f, ClampedAffine):
                if f.K * max(abs(0.0 - f.x0), abs(2.0 - f.x0)) > f.M:
                    return None
                return TermSource(lambda ns: f.K * s_of(ns), hint=_power(beta))
            return None

        if term == "trunc_l1":
            eps = float(val)

            def gen(ns):
                s = s_of(ns)
                return np.where(s < eps, s, 0.0)

            return TermSource(gen, hint=_power(beta))

        return None

    return source


def _shift_family(name, kind, params, base_rv, base_cdf_vec, beta,
                  holder_at_1, x_probes=None):
    """X_n = base_rv + n^-beta for a base variable on [0, 1] whose CDF is
    Lipschitz except at x = 1, where its Hölder exponent is holder_at_1.
    The CDF-gap series at 1 then decays like n^-(holder_at_1 * beta), which
    decides s2d."""
    if beta <= 1:
        raise ParameterError("shift family needs beta > 1 for a summable shift")

    def member(n):
        return base_rv.shifted(float(n) ** -beta)

    def certifies(mode, mode_params):
        if mode in ("cc", "s1d", "s1star", "s3d", "as", "prob", "dist"):
            return True
        if mode == "sa_as":
            return beta * mode_params.alpha > 1.0
        if mode == "s2d":
            return holder_at_1 * beta > 1.0
        return False

    meta = FamilyMeta(
        kind=kind,
        support=(0.0, 1.0),
        bound=2.0,
        # base_rv is the limit, so the family (bound below) caches its char_fn
        term_source=_shift_source_factory(
            beta, base_cdf_vec, lambda t: family.limit_char(t), holder_at_1
        ),
        certifies=certifies,
        shift_sequence=lambda n: np.asarray(n, dtype=float) ** -beta,
        base_cdf_vec=base_cdf_vec,
        x_probes=x_probes,
    )
    family = Family(name, params, base_rv, member, meta)
    return family


def ex32(alpha, beta):
    """X with density (1-alpha)*(1-u)^(-alpha), shifted by n^-beta.  The sup
    norms are summable, but at x=1 the CDF gaps decay only like
    n^(-(1-alpha)*beta)."""
    _require_finite("ex32", alpha=alpha, beta=beta)
    if not 0.0 < alpha < 1.0:
        raise ParameterError("ex32 needs 0 < alpha < 1")
    if beta <= 1.0:
        raise ParameterError("ex32 needs beta > 1")

    def base_cdf_vec(x):
        xa = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return 1.0 - (1.0 - xa) ** (1.0 - alpha)

    return _shift_family(f"ex32(alpha={alpha:g},beta={beta:g})", "ex32",
                         {"alpha": alpha, "beta": beta},
                         space.density_rv(space.PowerAtOne(alpha)), base_cdf_vec, beta,
                         holder_at_1=1.0 - alpha, x_probes=(0.25, 0.5, 0.75, 1.0))


def shift_uniform(beta=2.0):
    """Uniform(0,1) shifted by n^-beta; the globally Lipschitz limit CDF
    makes every CDF-gap series behave like the shifts themselves."""
    _require_finite("shift_uniform", beta=beta)

    def base_cdf_vec(x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    return _shift_family(f"shift_uniform(beta={beta:g})", "shift_uniform",
                         {"beta": beta}, space.uniform_rv(), base_cdf_vec, beta,
                         holder_at_1=1.0)


def constant_family(c=0.0):
    """X_n = X = c: every mode holds with identically zero terms."""
    _require_finite("const", c=c)
    rv = space.constant_rv(c)

    def source(mode, probe, params):
        return _zeros_source()

    meta = FamilyMeta(
        kind="constant",
        support=(c, c),
        bound=abs(c),
        term_source=source,
        certifies=lambda mode, params: True,
        shift_sequence=lambda n: np.zeros_like(np.asarray(n, dtype=float)),
        base_cdf_vec=lambda x: (np.asarray(x, dtype=float) >= c) * 1.0,
    )
    return Family(f"const(c={c:g})", {"c": c}, rv, lambda n: rv, meta)


_BUILDERS = {
    "ex31": ex31,
    "ex32": ex32,
    "ex33": ex33,
    "shift_uniform": shift_uniform,
    "const": constant_family,
}


def build_family(kind, **params):
    """Construct a registry family by kind name, validating parameters."""
    if kind not in _BUILDERS:
        raise ParameterError(
            f"unknown family {kind!r}; valid kinds: {', '.join(sorted(_BUILDERS))}"
        )
    try:
        return _BUILDERS[kind](**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for {kind}: {exc}") from exc


def default_registry():
    """The family set used for the headline soundness sweep."""
    return [
        ex31(2.0),
        ex32(0.5, 2.0),
        ex32(0.4, 2.0),
        ex33(),
        constant_family(0.0),
        shift_uniform(2.0),
    ]


# ---------------------------------------------------------------------------
# Implication diagram


# diagram node -> (mode tag, ModeParams overrides); the order is the node order
NODE_MODES = {
    "slinf": ("slinf", {}),
    "sl1": ("slp", {"p": 1.0}),
    "s1star": ("s1star", {}),
    "s1d": ("s1d", {}),
    "s3d": ("s3d", {}),
    "s1as": ("sa_as", {"alpha": 1.0}),
    "cc": ("cc", {}),
    "as": ("as", {}),
    "prob": ("prob", {}),
    "dist": ("dist", {}),
    "linf": ("linf", {}),
    "l1": ("lp", {"p": 1.0}),
    "s2d": ("s2d", {}),
}
NODES = tuple(NODE_MODES)

_GENERATOR_EDGES = (
    ("slinf", "sl1"),
    ("sl1", "s1star"),
    ("sl1", "s1as"),
    ("sl1", "cc"),
    ("s1star", "s1d"),
    ("s1d", "s3d"),
    ("s3d", "dist"),
    ("s1as", "as"),
    ("cc", "as"),
    ("as", "prob"),
    ("prob", "dist"),
    ("linf", "as"),
    ("linf", "l1"),
    ("l1", "prob"),
)


@dataclass(frozen=True)
class NonEdge:
    source: str
    target: str
    witness: Optional[str]  # family kind exhibiting source-holds, target-fails
    note: str = ""

    def to_dict(self):
        return {
            "source": self.source,
            "target": self.target,
            "witness": self.witness,
            "note": self.note,
        }


_NON_EDGES = (
    NonEdge("s1d", "s2d", "ex32"),
    NonEdge("s2d", "s1d", "ex31"),
    NonEdge("slinf", "s2d", "ex32"),
    NonEdge("sl1", "s2d", "ex32"),
    NonEdge("s1as", "s1d", "ex33"),
    NonEdge("cc", "s1d", "ex31"),
    NonEdge("cc", "s2d", "ex32"),
    NonEdge("s2d", "s3d", "ex31"),
    NonEdge("s3d", "s2d", "ex32"),
    NonEdge("s1as", "s3d", "ex33"),
    NonEdge("cc", "s3d", "ex31"),
    NonEdge("s3d", "prob", None,
            note="needs a nondegenerate-limit construction; "
                 "not reproduced in this catalog"),
)


@dataclass(frozen=True)
class ImplicationDiagram:
    nodes: tuple
    edges: tuple
    non_edges: tuple

    def __post_init__(self):
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise ParameterError(f"edge ({a}, {b}) references unknown node")

    def transitive_closure(self):
        reach = {n: set() for n in self.nodes}
        for a, b in self.edges:
            reach[a].add(b)
        changed = True
        while changed:
            changed = False
            for a in self.nodes:
                extra = set()
                for b in reach[a]:
                    extra |= reach[b] - reach[a]
                if extra:
                    reach[a] |= extra
                    changed = True
        edges = tuple(
            sorted((a, b) for a in self.nodes for b in reach[a] if a != b)
        )
        return ImplicationDiagram(self.nodes, edges, self.non_edges)

    def with_edge(self, a, b):
        """Append one edge without re-closing (used to inject false arrows)."""
        if (a, b) in self.edges:
            return self
        return replace(self, edges=self.edges + ((a, b),))

    def to_dict(self):
        return {
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "non_edges": [ne.to_dict() for ne in self.non_edges],
        }


def mode_diagram(closed=True):
    d = ImplicationDiagram(NODES, _GENERATOR_EDGES, _NON_EDGES)
    return d.transitive_closure() if closed else d


# ---------------------------------------------------------------------------
# Golden verdicts and the soundness sweep


def expected_verdicts(family):
    """The asserted verdict table for a family, keyed by diagram node.

    Only regimes actually analyzed get entries; outside them the claim is
    absent rather than flipped."""
    kind = family.meta.kind
    p = family.params
    if kind == "ex31":
        out = {"cc": "holds", "s2d": "holds"}
        if p["alpha"] > 1.0:
            out["s1d"] = "fails"
            out["s3d"] = "fails"
        return out
    if kind == "ex32":
        out = {
            "slinf": "holds", "sl1": "holds", "s1star": "holds",
            "s1d": "holds", "s3d": "holds", "cc": "holds",
        }
        if (1.0 - p["alpha"]) * p["beta"] <= 1.0:
            out["s2d"] = "fails"
        return out
    if kind == "ex33":
        return {"s1as": "holds", "as": "holds", "s1d": "fails", "s3d": "fails"}
    if kind == "constant":
        return {n: "holds" for n in NODES}
    if kind == "shift_uniform":
        return {"slinf": "holds", "s2d": "holds"}
    return {}


def verdict_matches(expected, actual):
    """Golden comparison: an expected Holds accepts Holds or NotFalsified
    (honest quantifier handling); an expected Fails accepts only Fails."""
    if expected == "holds":
        return actual in ("holds", "not_falsified")
    return actual == expected


@dataclass
class Violation:
    kind: str  # "edge" | "non_edge_witness"
    family: Optional[str]
    source: str
    target: str
    detail: str = ""

    def to_dict(self):
        return {
            "kind": self.kind,
            "family": self.family,
            "source": self.source,
            "target": self.target,
            "detail": self.detail,
        }


@dataclass
class SweepReport:
    verdicts: dict  # (family name, node) -> ModeReport
    violations: list
    coverage_gaps: list
    family_order: list
    nodes: tuple

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        grid = {}
        for (fam, node), rep in self.verdicts.items():
            grid.setdefault(fam, {})[node] = rep.to_dict()
        return {
            "schema_version": SCHEMA_VERSION,
            "families": list(self.family_order),
            "nodes": list(self.nodes),
            "verdicts": grid,
            "violations": [v.to_dict() for v in self.violations],
            "coverage_gaps": list(self.coverage_gaps),
        }


def node_report(family, node, policy=DEFAULT_POLICY):
    """check_mode for one diagram node with its parameter binding."""
    mode, overrides = NODE_MODES[node]
    params = ModeParams.defaults(family, **overrides)
    return check_mode(family, mode, params, policy)


def soundness_sweep(diagram, families, policy=DEFAULT_POLICY):
    """Check every family against every diagram arrow.

    An edge A => B is violated by a family with A Holds and B Fails.  Every
    recorded non-implication must be reproduced by its witness family; a
    witness that no longer exhibits the two verdicts is itself a violation.
    Inconclusive engine outcomes are reported as coverage gaps, not
    violations."""
    verdicts = {}
    family_order = []
    for fam in families:
        family_order.append(fam.name)
        for node in diagram.nodes:
            verdicts[(fam.name, node)] = node_report(fam, node, policy)
    violations = []
    gaps = []
    for fam in families:
        for a, b in diagram.edges:
            va = verdicts[(fam.name, a)]
            vb = verdicts[(fam.name, b)]
            if va.verdict == "holds" and vb.verdict == "fails":
                violations.append(
                    Violation(
                        "edge", fam.name, a, b,
                        detail=f"{a} holds but {b} fails (witness probe "
                               f"{vb.witness})",
                    )
                )
    for ne in diagram.non_edges:
        if ne.witness is None:
            gaps.append(
                f"non-edge {ne.source} -/-> {ne.target} has no catalog witness"
            )
            continue
        candidates = [f for f in families if f.meta.kind == ne.witness]
        if not candidates:
            gaps.append(
                f"non-edge {ne.source} -/-> {ne.target}: witness family "
                f"{ne.witness!r} not in the swept set"
            )
            continue
        if not any(
            verdicts[(f.name, ne.source)].verdict == "holds"
            and verdicts[(f.name, ne.target)].verdict == "fails"
            for f in candidates
        ):
            violations.append(
                Violation(
                    "non_edge_witness", ne.witness, ne.source, ne.target,
                    detail="witness family failed to reproduce holds/fails",
                )
            )
    for (fam, node), rep in verdicts.items():
        if rep.verdict == "inconclusive":
            gaps.append(f"{fam}: {node} inconclusive")
    return SweepReport(verdicts, violations, gaps, family_order, diagram.nodes)


# ---------------------------------------------------------------------------
# Analytic-criterion verification harnesses


@dataclass(frozen=True)
class LipschitzWitness:
    x: float
    K: float
    delta: float

    def grid_ok(self, cdf, n_grid=41, tol=1e-12):
        us = np.linspace(self.x - self.delta, self.x + self.delta, n_grid)
        vals = np.array([cdf(float(u)) for u in us])
        dv = np.abs(np.subtract.outer(vals, vals))
        du = np.abs(np.subtract.outer(us, us))
        return bool(np.all(dv <= self.K * du + tol))


@dataclass
class LipschitzS2dReport:
    slinf_verdict: str
    witnesses_ok: bool
    sandwich_ok: bool
    series_converge: bool
    proof_bound_ok: bool
    details: dict = field(default_factory=dict)

    @property
    def ok(self):
        return (
            self.slinf_verdict == "holds"
            and self.witnesses_ok
            and self.sandwich_ok
            and self.series_converge
            and self.proof_bound_ok
        )


def verify_lipschitz_s2d(family, witnesses, policy=DEFAULT_POLICY,
                         n_check=2000, slack=1e-12):
    """For a shift family with summable shifts and a limit CDF that is
    locally Lipschitz at each probed continuity point: the sup-norm series
    converges, each CDF-gap term is dominated by the two-sided sandwich
    around the shift, each CDF-gap series converges, and the finite-prefix
    plus Lipschitz-tail bound dominates the whole gap series."""
    if family.meta.shift_sequence is None:
        raise ParameterError("verify_lipschitz_s2d needs a shift-type family")
    F = family.meta.base_cdf_vec
    shifts = family.meta.shift_sequence
    params = ModeParams.defaults(family)
    slinf = check_mode(family, "slinf", params, policy)
    witnesses_ok = all(w.grid_ok(family.limit_cdf) for w in witnesses)
    ns = np.arange(1, n_check + 1)
    a_n = shifts(ns)
    sandwich_ok = True
    series_converge = True
    proof_bound_ok = True
    details = {}
    for w in witnesses:
        src = family.meta.term_source("s2d", ("x", w.x), params)
        terms = src.terms(1, n_check + 1)
        upper = (F(w.x + a_n) - F(w.x)) + (F(w.x) - F(w.x - a_n))
        if not np.all(terms <= upper + slack):
            sandwich_ok = False
        verdict = analyze_series(src, policy)
        details[f"x={w.x!r}"] = verdict.to_dict()
        if not verdict.converges:
            series_converge = False
        # finite prefix up to the first index with shift < delta, then the
        # Lipschitz bound on both sandwich sides
        below = np.nonzero(a_n < w.delta)[0]
        n0 = int(below[0]) if below.size else n_check
        lhs = float(np.sum(terms))
        tail = float(np.sum(2.0 * w.K * a_n[n0:]))
        # analytic remainder of the shift series beyond the checked range
        beta_like = -np.log(float(shifts(np.array([n_check]))[0]) + 1e-300) / np.log(
            n_check
        )
        if math.isfinite(beta_like) and beta_like > 1:
            tail += 2.0 * w.K * n_check ** (1 - beta_like) / (beta_like - 1)
        rhs = float(np.sum(terms[:n0])) + tail
        if lhs > rhs + 1e-9:
            proof_bound_ok = False
    return LipschitzS2dReport(
        slinf.verdict, witnesses_ok, sandwich_ok, series_converge,
        proof_bound_ok, details,
    )


@dataclass
class TruncationReport:
    cc_verdict: str
    truncated_summable: bool
    s1star_all_summable: bool
    splitting_ok: bool
    converse_ok: bool
    details: dict = field(default_factory=dict)

    @property
    def ok(self):
        return (
            self.cc_verdict == "holds"
            and self.truncated_summable
            and self.s1star_all_summable
            and self.splitting_ok
            and self.converse_ok
        )


def verify_truncation_s1star(family, eps, fs=None, policy=DEFAULT_POLICY,
                             n_check=10000, slack=1e-9):
    """Complete convergence plus a summable truncated first moment force
    every bounded Lipschitz expectation gap to be summable; the splitting
    bound K*truncated + 2M*tail-probability dominates term-wise, and for a
    bounded limit the clamped-identity function turns the truncated moment
    back into a distributional term (the converse direction)."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    params = ModeParams.defaults(family, epsilons=(eps,))
    if fs is None:
        fs = params.test_functions
    cc = check_mode(family, "cc", params, policy)
    trunc_src = family.meta.term_source("trunc_l1", ("eps", eps), params)
    if trunc_src is None:
        raise ParameterError("family has no truncated-moment term formula")
    trunc_verdict = analyze_series(trunc_src, policy)
    trunc_terms = trunc_src.terms(1, n_check + 1)
    cc_src = family.meta.term_source("cc", ("eps", eps), params)
    cc_terms = cc_src.terms(1, n_check + 1)
    s1star_all = True
    splitting_ok = True
    details = {"truncated": trunc_verdict.to_dict()}
    for f in fs:
        src = probe_source(family, "s1star", ("f", f), params)
        verdict = analyze_series(src, policy)
        details[f"f={f.name}"] = verdict.to_dict()
        if not verdict.converges:
            s1star_all = False
        terms = src.terms(1, n_check + 1)
        bound = f.lipschitz * trunc_terms + 2.0 * f.bound * cc_terms
        if not np.all(terms <= bound + slack):
            splitting_ok = False
    # converse direction with the truncation function of the bounded limit
    m_bound = space.sup_norm(family.limit)
    converse_ok = True
    if m_bound > 0:
        f_eps = ClampedIdentity(M=m_bound, eps=eps)
        src = family.meta.term_source("s1star", ("f", f_eps), params)
        if src is not None:
            s1star_terms = src.terms(1, min(n_check, 1000) + 1)
            tt = trunc_terms[: len(s1star_terms)]
            converse_ok = bool(np.all(tt <= s1star_terms + slack))
    return TruncationReport(
        cc.verdict, trunc_verdict.converges, s1star_all, splitting_ok,
        converse_ok, details,
    )


# ---------------------------------------------------------------------------
# Machine-readable catalog export


def export_catalog(families=None):
    """JSON-serializable catalog: families, parameters, golden verdicts, and
    the implication diagram (schema documented in the README)."""
    if families is None:
        families = default_registry()
    return {
        "schema_version": SCHEMA_VERSION,
        "families": [
            {
                **fam.describe(),
                "expected_verdicts": expected_verdicts(fam),
            }
            for fam in families
        ],
        "diagram": mode_diagram().to_dict(),
    }
