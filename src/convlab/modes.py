"""Checkable criteria for the thirteen convergence modes.

Each summability-style definition becomes a nonnegative term sequence handed
to the series engine; each classical limit mode becomes a null-sequence
test.  Universally quantified modes (over all eps, all test functions, all
continuity points, all t, almost all omega) are falsifiable but not
certifiable by finite probing, so the verdict vocabulary distinguishes
Holds, Fails (with a witness probe), NotFalsified and Inconclusive; Holds
for a universal mode requires the family's analytic certification.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import space
from .errors import ParameterError
from .series import (DEFAULT_POLICY, EnginePolicy, TermSource, analyze_series,
                     fresh, null_sequence_test)
from .testfuncs import ClampedAffine, ClampedIdentity, Sine


@dataclass(frozen=True)
class ModeSpec:
    """series: a summability mode, else a limit mode; universal: quantified
    over a probe axis that finite probing cannot exhaust; axes: (probe axis,
    term kind) pairs in probe order; alpha: pointwise terms take the power
    params.alpha, else 1."""

    series: bool
    universal: bool
    axes: tuple
    alpha: bool = False

    def term(self, axis):
        return dict(self.axes)[axis]

    def exponent(self, params):
        return params.alpha if self.alpha else 1.0


MODES = {
    "cc": ModeSpec(True, True, (("eps", "tail"),)),
    "slp": ModeSpec(True, False, (("p", "moment"),)),
    "slinf": ModeSpec(True, False, (("all", "sup"),)),
    "sa_as": ModeSpec(True, True, (("omega", "pointwise"),), alpha=True),
    "s1d": ModeSpec(True, True, (("f", "expect_gap"),)),
    "s1star": ModeSpec(True, True, (("f", "coupled_gap"),)),
    "s2d": ModeSpec(True, True, (("x", "cdf_gap"),)),
    "s3d": ModeSpec(True, True, (("t", "char_gap"),)),
    "as": ModeSpec(False, True, (("omega", "pointwise"),)),
    "prob": ModeSpec(False, True, (("eps", "tail"),)),
    "lp": ModeSpec(False, False, (("p", "moment"),)),
    "linf": ModeSpec(False, False, (("all", "sup"),)),
    "dist": ModeSpec(False, True, (("x", "cdf_gap"), ("f", "expect_gap"))),
}

SERIES_MODES = tuple(m for m, spec in MODES.items() if spec.series)
LIMIT_MODES = tuple(m for m, spec in MODES.items() if not spec.series)
ALL_MODES = SERIES_MODES + LIMIT_MODES
UNIVERSAL_MODES = frozenset(m for m, spec in MODES.items() if spec.universal)

# probe axis -> the ModeParams field holding its probe values ("p" holds
# one value, "all" none)
_AXIS_FIELDS = {"eps": "epsilons", "f": "test_functions", "x": "x_points",
                "t": "t_points", "omega": "omega_points"}

# generic-route terms cost a quadrature each: evaluate densely only this far
GENERIC_DENSE_CAP = 2048

VERDICT_HOLDS = "holds"
VERDICT_FAILS = "fails"
VERDICT_NOT_FALSIFIED = "not_falsified"
VERDICT_INCONCLUSIVE = "inconclusive"

# the engine verdict classes by which a probe falsifies its mode
_FAILING = frozenset({"diverges", "stays_above"})


def van_der_corput(i):
    """The i-th base-2 van der Corput point, in (0,1) for i >= 1."""
    x = 0.0
    denom = 2.0
    n = i
    while n:
        x += (n & 1) / denom
        n >>= 1
        denom *= 2.0
    return x


@dataclass(frozen=True)
class ModeParams:
    epsilons: tuple = (0.5, 0.1, 0.01)
    p: float = 1.0
    alpha: float = 1.0
    x_points: tuple = ()
    t_points: tuple = (0.5, 1.0, 2.0, 5.0)
    test_functions: tuple = ()
    # the first 17 van der Corput points
    omega_points: tuple = tuple(van_der_corput(i) for i in range(1, 18))

    def __post_init__(self):
        # tuples throughout, so that params can key _report_shape's cache
        for name in ("epsilons", "x_points", "t_points", "test_functions",
                     "omega_points"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, values in (("epsilons", self.epsilons), ("p", (self.p,)),
                             ("alpha", (self.alpha,)), ("t_points", self.t_points),
                             ("x_points", self.x_points)):
            if not all(math.isfinite(v) for v in values):
                raise ParameterError(f"{name} must be finite, got {values!r}")
        if any(e <= 0 for e in self.epsilons) or self.p <= 0 or self.alpha <= 0:
            raise ParameterError("epsilons, p and alpha must be positive")
        for w in self.omega_points:
            space.require_omega(w)

    @classmethod
    def defaults(cls, family, **overrides):
        """Probe sets sized to the family: x grid over the limit support
        avoiding its jump points, standard eps/t grids, the bounded-Lipschitz
        dictionary, deterministic low-discrepancy omega points."""
        lo, hi = family.meta.support
        if family.meta.x_probes is not None:
            cands = list(family.meta.x_probes)
        elif hi - lo < 1e-9:
            # spacing 0.1, or 4 ulps of a point mass too large to resolve it
            step = 0.1 if math.ulp(lo) <= 0.125 else 4.0 * math.ulp(lo)
            cands = [x for x in (lo + (k - 4.5) * step for k in range(10))
                     if math.isfinite(x)]
        else:
            cands = [lo + (hi - lo) * k / 10.0 for k in range(1, 10)]
        xs = tuple(filter(family.limit_cdf.is_continuity_point, cands))[:9]
        bound = family.meta.bound
        fs = (
            Sine(),
            ClampedIdentity(M=max(1.0, bound), eps=1.0),
            ClampedAffine(),
        )
        kwargs = dict(x_points=xs, test_functions=fs)
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass
class FamilyMeta:
    """Analytic metadata a family ships alongside its members.

    term_source(kind, value, power) may return a vectorized TermSource
    (closed-form terms plus law) for fast certified runs: the terms of one
    term kind (ModeSpec.axes) at one value of its probe axis, pointwise
    terms raised to power (ModeSpec.exponent; 1 for every other kind).
    probe_source hands one source to every mode that asks for the same
    three, so that blocks one mode has evaluated serve the next.

    decay maps a term kind to the exponent p such that, at every probe
    value of its axis, the terms are eventually O(n^-p) (math.inf:
    eventually zero); a kind it lacks decays at no known rate.  It decides
    when an all-probes-converge outcome of a universally quantified mode
    may be upgraded to Holds (see certified).

    expected maps a diagram node to the verdict the family claims, "holds"
    or "fails"; the soundness sweep checks each claim.  kind is the key the
    family's builder is registered under.
    """

    kind: str = ""
    support: tuple = (0.0, 1.0)
    bound: float = 1.0
    term_source: Callable = lambda kind, value, power: None
    decay: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)  # diagram node -> claimed verdict
    x_probes: Optional[tuple] = None  # preferred CDF probe points


class Family:
    """An indexed family n -> X_n with its limit X and analytic metadata."""

    def __init__(self, name, params, limit, member_fn, meta):
        self.name = name
        self.params = dict(params)
        self.limit = limit
        self._member_fn = member_fn
        self.meta = meta
        self._memo = {}  # (quantity, key) -> value
        self._sources = {}

    def _cached(self, key, build):
        """build(), computed once per family and key."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def member(self, n):
        if n < 1:
            raise ParameterError("index n must be >= 1")
        return self._cached(("member", n), lambda: self._member_fn(n))

    def diff(self, n):
        return self._cached(("diff", n), lambda: space.diff_abs(self.member(n), self.limit))

    def member_cdf(self, n):
        return self._cached(("member_cdf", n), lambda: space.cdf(self.member(n)))

    @functools.cached_property
    def limit_cdf(self):
        return space.cdf(self.limit)

    def limit_expectation(self, f):
        return self._cached(("limit_expectation", f.name),
                            lambda: space.expectation(self.limit, f, tol=1e-11)[0])

    def limit_char(self, t):
        return self._cached(("limit_char", t),
                            lambda: space.char_fn(self.limit, t, tol=1e-11))

    def describe(self):
        return {"name": self.name, "kind": self.meta.kind, "params": dict(self.params)}


# ---------------------------------------------------------------------------
# Term generators (the generic, representation-exact route)


def term_cc(family, n, eps):
    """P(|X_n - X| >= eps)."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    c = space.cdf(family.diff(n))
    return max(0.0, 1.0 - c.prob_below(eps))


def term_slp(family, n, p):
    """E[|X_n - X|**p]."""
    if p <= 0:
        raise ParameterError("p must be positive")
    return space.expectation(family.diff(n), lambda v: v**p, tol=1e-10)[0]


def term_slinf(family, n):
    """||X_n - X||_inf (essential supremum)."""
    return space.sup_norm(family.diff(n))


def term_s1d(family, n, f):
    """|E[f(X_n)] - E[f(X)]|."""
    en = space.expectation(family.member(n), f, tol=1e-11)[0]
    return abs(en - family.limit_expectation(f))


def term_s1star(family, n, f):
    """E[|f(X_n) - f(X)|], over the joint coupling on the sample space."""
    val, _ = space.expectation_joint(
        family.member(n), family.limit, lambda a, b: abs(f(a) - f(b)), tol=1e-9
    )
    return val


def require_continuity_point(family, x):
    """CDF gaps are taken only at continuity points of the limit CDF."""
    lim = family.limit_cdf
    if not lim.is_continuity_point(x):
        jump = min(lim.jump_points, key=lambda j: abs(j - x))
        raise ParameterError(
            f"x={x} is a jump point of the limit CDF (atom at {jump})"
        )


def term_s2d(family, n, x):
    """|F_n(x) - F(x)| at a continuity point x of the limit CDF."""
    require_continuity_point(family, x)
    return abs(family.member_cdf(n)(x) - family.limit_cdf(x))


def term_s3d(family, n, t):
    """|E[exp(itX_n)] - E[exp(itX)]|."""
    return abs(space.char_fn(family.member(n), t, tol=1e-11) - family.limit_char(t))


def term_sa_as(family, n, alpha, omega):
    """|X_n(omega) - X(omega)|**alpha."""
    if alpha <= 0:
        raise ParameterError("alpha must be positive")
    w = space.require_omega(omega)
    return abs(family.member(n)(w) - family.limit(w)) ** alpha


def term_trunc_l1(family, n, eps):
    """E[|X_n - X| * 1{|X_n - X| < eps}] via closed-form piece integration."""
    return space.truncated_abs_moment(family.diff(n), eps)


def mode_spec(mode):
    if mode not in MODES:
        raise ParameterError(
            f"unknown mode {mode!r}; valid modes: {', '.join(ALL_MODES)}"
        )
    return MODES[mode]


def generic_term(family, kind, value, power, n):
    """The n-th term of one term kind at one probe value, pointwise terms
    raised to power: summed for a series mode, tested for tending to zero
    for a limit mode."""
    if kind == "tail":
        return term_cc(family, n, value)
    if kind == "moment":
        return term_slp(family, n, value)
    if kind == "sup":
        return term_slinf(family, n)
    if kind == "expect_gap":
        return term_s1d(family, n, value)
    if kind == "coupled_gap":
        return term_s1star(family, n, value)
    if kind == "cdf_gap":
        return term_s2d(family, n, value)
    if kind == "char_gap":
        return term_s3d(family, n, value)
    if kind == "pointwise":
        return term_sa_as(family, n, power, value)
    raise ParameterError(f"unknown term kind {kind!r}")


# ---------------------------------------------------------------------------
# Orchestration


def _axis_values(axis, params):
    if axis in _AXIS_FIELDS:
        return getattr(params, _AXIS_FIELDS[axis])
    return (params.p,) if axis == "p" else (None,)


def probes_for(mode, params):
    return [(axis, v) for axis, _ in mode_spec(mode).axes
            for v in _axis_values(axis, params)]


def probe_source(family, mode, probe, params, use_analytic=True):
    """The family's closed-form TermSource for one probe or, without one
    (or with use_analytic False), the generic term-by-term route.

    The family keeps every source it hands out, keyed by the route and by
    the (kind, value, power) the terms depend on, so modes with the same
    terms share one source (dist's test functions and s1d's, say) and each
    block of it is evaluated once."""
    spec = mode_spec(mode)
    kind, value, power = spec.term(probe[0]), probe[1], spec.exponent(params)
    key = (use_analytic, kind, value, power)
    src = family._sources.get(key)
    if src is None:
        if kind == "cdf_gap":
            require_continuity_point(family, value)
        src = family.meta.term_source(kind, value, power) if use_analytic else None
        if src is None:
            src = TermSource.from_scalar(
                lambda n: generic_term(family, kind, value, power, n),
                horizon=GENERIC_DENSE_CAP,
            )
        family._sources[key] = src
    return src


def certified(family, mode, params):
    """Whether the family's decay table certifies a mode: on every axis,
    terms eventually O(n^-decay[kind]), raised to the mode's exponent, must
    decay faster than n^-1 for a series mode, and at all for a limit mode."""
    spec = mode_spec(mode)
    floor = 1.0 if spec.series else 0.0
    return all(family.meta.decay.get(kind, 0.0) * spec.exponent(params) > floor
               for _, kind in spec.axes)


def probe_key(probe):
    axis, value = probe
    if axis == "all":
        return "all"
    if axis == "f":
        return f"f={value.name}"
    return f"{axis}={value!r}"


@dataclass(slots=True)
class ModeReport:
    """One mode's verdict on a family.  probe_verdicts holds the engine's
    verdicts in probe order, beside probe_keys, their keys; every report of
    one (mode, params) shares its probe_keys and params_used."""

    family: str
    mode: str
    verdict: str
    witness: Optional[str] = None
    probe_verdicts: tuple = ()
    probe_keys: tuple = ()
    params_used: dict = field(default_factory=dict)

    @property
    def holds(self):
        return self.verdict == VERDICT_HOLDS

    @property
    def fails(self):
        return self.verdict == VERDICT_FAILS

    @property
    def probe_results(self):
        """{probe key: verdict}, in probe order: a new dict on each read."""
        return dict(zip(self.probe_keys, self.probe_verdicts))

    def to_dict(self):
        return {
            "family": self.family,
            "mode": self.mode,
            "verdict": self.verdict,
            "witness": self.witness,
            "params": fresh(self.params_used),
            "probes": {k: v.to_dict() for k, v in zip(self.probe_keys, self.probe_verdicts)},
        }


@functools.lru_cache(maxsize=256)
def _report_shape(mode, params):
    """(probe keys in probe order, the probe values a report shows): one
    tuple and one dict shared by every report of (mode, params), whose
    to_dict() copies the dict."""
    spec = mode_spec(mode)
    keys = tuple(probe_key(probe) for probe in probes_for(mode, params))
    summary = {"alpha": params.alpha} if spec.alpha else {}
    for axis, _ in spec.axes:
        if axis == "p":
            summary["p"] = params.p
        elif axis in _AXIS_FIELDS:
            vals = _axis_values(axis, params)
            if axis == "f":
                vals = [f.name for f in vals]
            summary[_AXIS_FIELDS[axis]] = list(vals)
    return keys, summary


def check_mode(
    family,
    mode,
    params: ModeParams = None,
    policy: EnginePolicy = DEFAULT_POLICY,
    use_analytic=True,
) -> ModeReport:
    """Classify one convergence mode for a family.

    Summability modes classify the per-probe term series; limit modes run the
    null-sequence test.  Any diverging probe falsifies the mode.  An
    all-convergent outcome yields Holds only when the mode carries no hidden
    quantifier or the family's decay table certifies it; otherwise
    NotFalsified, keeping quantifier handling honest.
    """
    spec = mode_spec(mode)
    if params is None:
        params = ModeParams.defaults(family)
    probes = probes_for(mode, params)
    if not probes:
        raise ParameterError(f"empty probe set for mode {mode!r}")
    test = analyze_series if spec.series else null_sequence_test
    results = tuple(test(probe_source(family, mode, probe, params, use_analytic), policy)
                    for probe in probes)
    keys, summary = _report_shape(mode, params)
    bad = next((key for key, v in zip(keys, results) if v.klass in _FAILING), None)
    if bad is not None:
        verdict_tag, witness = VERDICT_FAILS, bad
    elif any(v.klass == "inconclusive" for v in results):
        verdict_tag, witness = VERDICT_INCONCLUSIVE, None
    elif spec.universal and not certified(family, mode, params):
        verdict_tag, witness = VERDICT_NOT_FALSIFIED, None
    else:
        verdict_tag, witness = VERDICT_HOLDS, None
    return ModeReport(
        family=family.name,
        mode=mode,
        verdict=verdict_tag,
        witness=witness,
        probe_verdicts=results,
        probe_keys=keys,
        params_used=summary,
    )
