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


def _const(level):
    return AnalyticHint("eventually_constant", level=float(level))


def _require_finite(kind, **params):
    for name, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{kind} parameter {name} must be finite, got {value}")


def _vec(gen, hint=None):
    return TermSource(gen, hint=hint)


def _zeros_source(start=1):
    return _vec(lambda ns: np.zeros(len(ns)), hint=_zero(start))


# ---------------------------------------------------------------------------
# Two-atom families: X_n = v1 on (0, n^-r), v2(n) on [n^-r, 1); limit 0.


def _two_atom_source_factory(r, v2_of, q, v1=1.0, c=0.0):
    """Vectorized term formulas for a two-atom family.

    r: decay exponent of the first atom's mass n^-r; v2_of: vectorized value
    of the second atom; q: its decay exponent (math.inf when v2 is
    identically the limit value)."""

    def m1_of(nsf):
        return np.minimum(nsf**-r, 1.0)

    def source(mode, probe, params):
        axis, val = probe
        term = mode if mode == "trunc_l1" else mode_spec(mode).term(axis)

        if term == "tail":
            eps = float(val)
            if eps > v1:
                return _zeros_source()

            def gen(ns, eps=eps):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                return m1 * (v1 >= eps) + (1.0 - m1) * (np.abs(v2_of(nsf) - c) >= eps)

            return _vec(gen, hint=_power(r, constant=1.0))

        if term == "moment":
            p = float(val)

            def gen(ns, p=p):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                return m1 * abs(v1 - c) ** p + (1.0 - m1) * np.abs(v2_of(nsf) - c) ** p

            exp = r if math.isinf(q) else min(r, p * q)
            return _vec(gen, hint=_power(exp))

        if term == "sup":

            def gen(ns):
                nsf = ns.astype(float)
                return np.maximum(
                    np.full(len(ns), abs(v1 - c)), np.abs(v2_of(nsf) - c)
                )

            return _vec(gen, hint=_const(abs(v1 - c)))

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
                    f(v2_of(nsf)) - f(c)
                )

            return _vec(gen_s1star if term == "coupled_gap" else gen_s1d)

        if term == "cdf_gap":
            x = float(val)
            if x >= max(v1, c) or x < min(c, 0.0):
                return _zeros_source()

            def gen(ns, x=x):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                fn = m1 * (v1 <= x) + (1.0 - m1) * (v2_of(nsf) <= x)
                return np.abs(fn - float(c <= x))

            return _vec(gen, hint=_power(r, constant=1.0))

        if term == "char_gap":
            t = float(val)
            if t == 0.0:
                return _zeros_source()

            def gen(ns, t=t):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                return np.abs(
                    m1 * np.exp(1j * t * v1)
                    + (1.0 - m1) * np.exp(1j * t * v2_of(nsf))
                    - np.exp(1j * t * c)
                )

            if math.isinf(q) or abs(np.exp(1j * t * v1) - np.exp(1j * t * c)) < 1e-12:
                exp = r if math.isinf(q) else q
            else:
                exp = min(r, q)
            return _vec(gen, hint=_power(exp))

        if term == "pointwise":
            omega = float(val)
            a0 = mode_spec(mode).exponent(params)

            def gen(ns, omega=omega, a0=a0):
                nsf = ns.astype(float)
                vals = np.where(omega < m1_of(nsf), v1, v2_of(nsf))
                return np.abs(vals - c) ** a0

            if math.isinf(q):
                return _vec(gen, hint=_zero(start=math.ceil(omega ** (-1.0 / r))))
            return _vec(gen, hint=_power(a0 * q))

        if term == "trunc_l1":
            eps = float(val)

            def gen(ns, eps=eps):
                nsf = ns.astype(float)
                m1 = m1_of(nsf)
                d2 = np.abs(v2_of(nsf) - c)
                return m1 * abs(v1 - c) * (abs(v1 - c) < eps) + (1.0 - m1) * d2 * (
                    d2 < eps
                )

            exp = r if math.isinf(q) else min(r, q)
            return _vec(gen, hint=_power(exp))

        return None

    return source


def ex31(alpha):
    """Two atoms: value 1 with mass n^-2, value n^(-1/alpha) with the rest;
    limit 0.  For alpha > 1 this converges completely but not
    distributionally in the summable senses."""
    _require_finite("ex31", alpha=alpha)
    if alpha <= 0:
        raise ParameterError("ex31 needs alpha > 0")
    q = 1.0 / alpha

    def v2_of(nsf):
        return nsf**-q

    def member(n):
        b = float(n) ** -2.0
        if b >= 1.0:
            return space.constant_rv(1.0)
        return space.RandomVariable(
            (
                space.Piece(0.0, b, space.Constant(1.0)),
                space.Piece(b, 1.0, space.Constant(float(n) ** -q)),
            )
        )

    def certifies(mode, params):
        if mode in ("cc", "s2d", "as", "prob", "dist"):
            return True
        if mode == "sa_as":
            return params.alpha > alpha
        if mode in ("s1d", "s1star", "s3d"):
            return alpha < 1.0
        return False

    meta = FamilyMeta(
        kind="ex31",
        support=(0.0, 1.0),
        bound=1.0,
        term_source=_two_atom_source_factory(2.0, v2_of, q),
        certifies=certifies,
    )
    return Family(f"ex31(alpha={alpha:g})", {"alpha": alpha},
                  space.constant_rv(0.0), member, meta)


def ex33():
    """Value 1 on (0, 1/n), 0 on [1/n, 1); limit 0.  Strongly almost surely
    convergent of every order, yet no summable distributional mode holds."""

    def v2_of(nsf):
        return np.zeros(len(nsf))

    def member(n):
        b = 1.0 / float(n)
        if b >= 1.0:
            return space.constant_rv(1.0)
        return space.RandomVariable(
            (
                space.Piece(0.0, b, space.Constant(1.0)),
                space.Piece(b, 1.0, space.Constant(0.0)),
            )
        )

    def certifies(mode, params):
        return mode in ("sa_as", "as", "prob", "dist")

    meta = FamilyMeta(
        kind="ex33",
        support=(0.0, 1.0),
        bound=1.0,
        term_source=_two_atom_source_factory(1.0, v2_of, math.inf),
        certifies=certifies,
    )
    return Family("ex33", {}, space.constant_rv(0.0), member, meta)


# ---------------------------------------------------------------------------
# Shift families: X_n = X + n^-beta.


def _shift_source_factory(beta, base_cdf_vec, base_char, base_hi, s2d_hint_exp):
    """Vectorized term formulas for X_n = X + n^-beta.

    s2d_hint_exp(x) gives the decay exponent of |F(x - s) - F(x)| in s for
    the base CDF (it degrades at a non-Lipschitz point of F)."""
    s1_max = 1.0  # largest shift, at n = 1

    def s_of(nsf):
        return nsf**-beta

    def source(mode, probe, params):
        axis, val = probe
        term = mode if mode == "trunc_l1" else mode_spec(mode).term(axis)

        if term == "tail":
            eps = float(val)
            start = 1 if eps > s1_max else math.ceil(eps ** (-1.0 / beta))
            return _vec(
                lambda ns, eps=eps: (s_of(ns.astype(float)) >= eps) * 1.0,
                hint=_zero(start=start),
            )

        if term == "moment":
            p = float(val)
            return _vec(
                lambda ns, p=p: s_of(ns.astype(float)) ** p, hint=_power(beta * p)
            )

        if term == "sup":
            return _vec(lambda ns: s_of(ns.astype(float)), hint=_power(beta))

        if term == "pointwise":
            a0 = mode_spec(mode).exponent(params)
            return _vec(
                lambda ns, a0=a0: s_of(ns.astype(float)) ** a0,
                hint=_power(beta * a0),
            )

        if term == "cdf_gap":
            x = float(val)
            fx = float(base_cdf_vec(np.array([x]))[0])

            def gen(ns, x=x, fx=fx):
                s = s_of(ns.astype(float))
                return np.abs(base_cdf_vec(x - s) - fx)

            if x <= 0.0:
                return _vec(gen, hint=_zero())
            if x > base_hi:
                gap = x - base_hi
                start = 1 if gap >= s1_max else math.ceil(gap ** (-1.0 / beta))
                return _vec(gen, hint=_zero(start=start))
            return _vec(gen, hint=_power(s2d_hint_exp(x)))

        if term == "char_gap":
            t = float(val)
            if t == 0.0:
                return _zeros_source()
            phi = base_char(t)

            def gen(ns, t=t, phi=phi):
                s = s_of(ns.astype(float))
                return np.abs(phi) * np.abs(np.exp(1j * t * s) - 1.0)

            return _vec(gen, hint=_power(beta))

        if term in ("expect_gap", "coupled_gap"):
            f = val
            if isinstance(f, Sine):
                phi1 = base_char(1.0)
                if term == "coupled_gap":
                    if base_hi + s1_max / 2.0 >= math.pi / 2.0:
                        return None

                    def gen(ns, phi1=phi1):
                        s = s_of(ns.astype(float))
                        return 2.0 * np.sin(s / 2.0) * np.real(
                            np.exp(1j * s / 2.0) * phi1
                        )

                else:

                    def gen(ns, phi1=phi1):
                        s = s_of(ns.astype(float))
                        return np.abs(np.imag((np.exp(1j * s) - 1.0) * phi1))

                return _vec(gen, hint=_power(beta))
            if isinstance(f, ClampedIdentity):
                if f.M + f.eps < base_hi + s1_max:
                    return None
                return _vec(lambda ns: s_of(ns.astype(float)), hint=_power(beta))
            if isinstance(f, ClampedAffine):
                reach = max(abs(0.0 - f.x0), abs(base_hi + s1_max - f.x0))
                if f.K * reach > f.M:
                    return None
                return _vec(
                    lambda ns, K=f.K: K * s_of(ns.astype(float)),
                    hint=_power(beta),
                )
            return None

        if term == "trunc_l1":
            eps = float(val)

            def gen(ns, eps=eps):
                s = s_of(ns.astype(float))
                return np.where(s < eps, s, 0.0)

            return _vec(gen, hint=_power(beta))

        return None

    return source


def _shift_family(name, kind, params, base_rv, base_cdf_vec, beta,
                  s2d_hint_exp, s2d_certified, base_hi=1.0, x_probes=None):
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
            return s2d_certified
        return False

    meta = FamilyMeta(
        kind=kind,
        support=(0.0, base_hi),
        bound=base_hi + 1.0,
        # base_rv is the limit, so the family (bound below) caches its char_fn
        term_source=_shift_source_factory(
            beta, base_cdf_vec, lambda t: family.limit_char(t), base_hi, s2d_hint_exp
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
    dens = space.PowerAtOne(alpha)
    base_rv = space.density_rv(dens)

    def base_cdf_vec(x):
        xa = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return 1.0 - (1.0 - xa) ** (1.0 - alpha)

    def s2d_hint_exp(x):
        # F is locally Lipschitz away from 1; at 1 the gap is s^(1-alpha)
        if abs(x - 1.0) <= 1e-12:
            return (1.0 - alpha) * beta
        return beta

    return _shift_family(
        f"ex32(alpha={alpha:g},beta={beta:g})",
        "ex32",
        {"alpha": alpha, "beta": beta},
        base_rv,
        base_cdf_vec,
        beta,
        s2d_hint_exp,
        s2d_certified=(1.0 - alpha) * beta > 1.0,
        x_probes=(0.25, 0.5, 0.75, 1.0),
    )


def shift_uniform(beta=2.0):
    """Uniform(0,1) shifted by n^-beta; the globally Lipschitz limit CDF
    makes every CDF-gap series behave like the shifts themselves."""
    _require_finite("shift_uniform", beta=beta)

    def base_cdf_vec(x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    return _shift_family(
        f"shift_uniform(beta={beta:g})",
        "shift_uniform",
        {"beta": beta},
        space.uniform_rv(),
        base_cdf_vec,
        beta,
        s2d_hint_exp=lambda x: beta,
        s2d_certified=True,
    )


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
