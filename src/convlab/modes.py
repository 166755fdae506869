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
                     null_sequence_test)
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
        # tuples throughout, so that params can key the report caches; each
        # value once, in first-seen order, so that probes pair with their keys
        for name in ("epsilons", "x_points", "t_points", "test_functions",
                     "omega_points"):
            object.__setattr__(self, name, tuple(dict.fromkeys(getattr(self, name))))
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

    @functools.cached_property
    def limit_cdf(self):
        return space.cdf(self.limit)

    def describe(self):
        return {"name": self.name, "kind": self.meta.kind, "params": dict(self.params)}


# ---------------------------------------------------------------------------
# Term generators (the generic, representation-exact route)


def require_continuity_point(family, x):
    """CDF gaps are taken only at continuity points of the limit CDF."""
    lim = family.limit_cdf
    if not lim.is_continuity_point(x):
        jump = min(lim.jump_points, key=lambda j: abs(j - x))
        raise ParameterError(
            f"x={x} is a jump point of the limit CDF (atom at {jump})"
        )


def mode_spec(mode):
    if mode not in MODES:
        raise ParameterError(
            f"unknown mode {mode!r}; valid modes: {', '.join(ALL_MODES)}"
        )
    return MODES[mode]


def generic_term(family, kind, value, power, n):
    """The n-th term of one term kind at one probe value, pointwise terms
    raised to power: summed for a series mode, tested for tending to zero
    for a limit mode.  Each branch is its kind's whole generic definition,
    with X_n = family.member(n) and X = family.limit; the probe values
    were checked by ModeParams."""
    if kind == "tail":
        # P(|X_n - X| >= eps)
        return max(0.0, 1.0 - space.cdf(family.diff(n)).prob_below(value))
    if kind == "moment":
        # E|X_n - X|^p
        return space.expectation(family.diff(n), lambda v: v**value, tol=1e-10)[0]
    if kind == "sup":
        # ess sup |X_n - X|
        return space.sup_norm(family.diff(n))
    if kind == "expect_gap":
        # |E f(X_n) - E f(X)|
        en = space.expectation(family.member(n), value, 1e-11, value.kinks)[0]
        e = family._cached(("limit_expectation", value.name),
                           lambda: space.expectation(family.limit, value, 1e-11, value.kinks)[0])
        return abs(en - e)
    if kind == "coupled_gap":
        # E|f(X_n) - f(X)|, over the joint coupling on the sample space
        return space.expectation_joint(family.member(n), family.limit,
                                       lambda a, b: abs(value(a) - value(b)),
                                       1e-9, value.kinks)[0]
    if kind == "cdf_gap":
        # |F_n(x) - F(x)|, at a continuity point x of F
        require_continuity_point(family, value)
        cdf_n = family._cached(("member_cdf", n), lambda: space.cdf(family.member(n)))
        return abs(cdf_n(value) - family.limit_cdf(value))
    if kind == "char_gap":
        # |phi_n(t) - phi(t)|
        phi_n = space.char_fn(family.member(n), value, tol=1e-11)
        phi = family._cached(("limit_char", value),
                             lambda: space.char_fn(family.limit, value, tol=1e-11))
        return abs(phi_n - phi)
    if kind == "pointwise":
        # |X_n(omega) - X(omega)|^power
        return abs(family.member(n)(value) - family.limit(value)) ** power
    if kind == "trunc_l1":
        # E[|X_n - X|; |X_n - X| < eps], by closed-form piece integration
        return space.truncated_abs_moment(family.diff(n), value)
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

    The family's memo keeps every source it hands out, keyed by the route
    and by the (kind, value, power) the terms depend on, so modes with the
    same terms share one source (dist's test functions and s1d's, say) and
    each block of it is evaluated once."""
    spec = mode_spec(mode)
    kind, value, power = spec.term(probe[0]), probe[1], spec.exponent(params)

    def build():
        if kind == "cdf_gap":
            require_continuity_point(family, value)
        src = family.meta.term_source(kind, value, power) if use_analytic else None
        if src is None:
            src = TermSource.from_scalar(
                lambda n: generic_term(family, kind, value, power, n),
                horizon=GENERIC_DENSE_CAP,
            )
        return src

    return family._cached(("source", use_analytic, kind, value, power), build)


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


@dataclass(frozen=True, slots=True)
class ModeReport:
    """One mode's verdict on a family, a value.  probe_verdicts holds the
    engine's verdicts in probe order; params are the probe parameters the
    mode ran with.  The probe keys and the witness are built from the two
    on each read."""

    family: str
    mode: str
    verdict: str
    probe_verdicts: tuple = ()
    params: ModeParams = ModeParams()

    @property
    def holds(self):
        return self.verdict == VERDICT_HOLDS

    @property
    def fails(self):
        return self.verdict == VERDICT_FAILS

    def _keyed(self):
        """(probe key, verdict) pairs, in probe order."""
        return zip(map(probe_key, probes_for(self.mode, self.params)), self.probe_verdicts)

    @property
    def probe_results(self):
        """{probe key: verdict}, in probe order: a new dict on each read."""
        return dict(self._keyed())

    @property
    def witness(self):
        """The key of the first probe that falsifies the mode, or None."""
        return next((k for k, v in self._keyed() if v.klass in _FAILING), None)

    def to_dict(self):
        """The report as JSON, with the probe values of params its mode
        reads (test functions by name)."""
        spec = mode_spec(self.mode)
        shown = {"alpha": self.params.alpha} if spec.alpha else {}
        for axis, _ in spec.axes:
            if axis == "p":
                shown["p"] = self.params.p
            elif axis in _AXIS_FIELDS:
                vals = _axis_values(axis, self.params)
                shown[_AXIS_FIELDS[axis]] = [f.name for f in vals] if axis == "f" else list(vals)
        return {
            "family": self.family,
            "mode": self.mode,
            "verdict": self.verdict,
            "witness": self.witness,
            "params": shown,
            "probes": {k: v.to_dict() for k, v in self._keyed()},
        }


# one report object for every check of a family's mode that reaches equal
# verdicts, so that kept sweep reports share their cells; 256: a seed-0
# sweep has 78 cells
_report = functools.lru_cache(maxsize=256)(ModeReport)


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
    if any(v.klass in _FAILING for v in results):
        verdict_tag = VERDICT_FAILS
    elif any(v.klass == "inconclusive" for v in results):
        verdict_tag = VERDICT_INCONCLUSIVE
    elif spec.universal and not certified(family, mode, params):
        verdict_tag = VERDICT_NOT_FALSIFIED
    else:
        verdict_tag = VERDICT_HOLDS
    return _report(family.name, mode, verdict_tag, results, params)
