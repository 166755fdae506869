"""Catalog of counterexample families, the implication diagram between the
convergence modes, golden verdict tables, and the cross-checker soundness
harness.

The three parameterized families are the classical unit-interval
constructions: a two-atom family with masses 1/n^2, a density with an
integrable blow-up at 1 shifted by n^(-beta), and the shrinking-indicator
family with mass 1/n.  Each family ships closed-form vectorized term
formulas, each with its TermLaw, so the series engine can certify Holds
verdicts instead of extrapolating; the representation-exact generic term
generators in `modes` remain available and are cross-checked in tests.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import space
from .errors import ParameterError
from .modes import (MODES, Family, FamilyMeta, ModeParams, check_mode,
                    probe_key, probe_source)
from .series import DEFAULT_POLICY, TermLaw, TermSource, analyze_series
from .testfuncs import ClampedIdentity, Sine

SCHEMA_VERSION = 2


# Laws are immutable: one object per (start, terms, remainder) serves every
# source, so that each law's zeta tail is computed once.  Verdicts on a law
# are shared by its value in the engine, not through this cache.
_law = functools.lru_cache(maxsize=256)(TermLaw)


def _rate(p, level=None):
    """The law of terms that decay like level * n^-p from some n on."""
    return _law(None, ((level, p),))


def _exact(*terms, remainder=None):
    """The law of terms that are sum c * n^-p over the (c, p) terms from
    n = 1 on, within C * n^-p_r for remainder (C, p_r)."""
    return _law(1, terms, remainder)


def _zeros_source():
    return TermSource(lambda ns: np.zeros(len(ns)), law=_law(1))


def _first_index(holds, log_guess):
    """The first n >= 1 at which holds(ns) is true, where it is false before
    that n and true from it on; log_guess is the log of that n in exact
    arithmetic.  holds tests an array of indices with a generator's own
    arithmetic, which casts it with astype(float): it gets int64 indices up
    to 2**62, and past that the floats themselves, each an integer, up to
    the largest float.  None where the test is false at every float."""
    if log_guess < math.log(2 ** 53):
        lo = max(1, math.floor(math.exp(log_guess)) - 2)
        flags = holds(np.arange(lo, lo + 6, dtype=np.int64))
        if flags[-1] and (lo == 1 or not flags[0]):
            return lo + int(flags.argmax())

    def index(n, dtype):  # n itself, or the float whose bit pattern n is
        return np.array([n], dtype=np.int64).view(dtype)

    # bisect where the test is false at lo (or lo = 0) and true at hi: int64
    # indices, then the floats' bit patterns, which order the positive floats
    floats = np.array([2.0 ** 62, np.finfo(float).max]).view(np.int64).tolist()
    for lo, hi, dtype in ((0, 2 ** 53, np.int64), (2 ** 53, 2 ** 62, np.int64), (*floats, float)):
        if holds(index(hi, dtype))[0]:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if holds(index(mid, dtype))[0] else (mid, hi)
            return int(index(hi, dtype)[0])
    return None


def _plateau(holds, log_guess, terms=(), head=None):
    """The law of terms from the first n at which holds, found by
    _first_index(holds, log_guess), with head before it.  Where holds is
    false at every float: the rate law of the leading term, or with no
    terms the zero law from 2^ceil(1 + log_guess / ln 2), past every float."""
    start = _first_index(holds, log_guess)
    if start is not None:
        return _law(start, terms, None, head)
    if terms:
        return _law(None, terms[:1])
    return _law(2 ** math.ceil(1.0 + log_guess / math.log(2.0)))


def _series_law(start, series, scale, h, beta):
    """The law from start on of scale * S(h * n^-beta), where series =
    (terms, (C, p_r)) states S(u) as the sum of c * u^p over the terms
    within C * u^p_r: each c * u^p gives scale * c * h^p * n^-(p beta), and
    the rest likewise.  None where a constant or an exponent leaves the
    floats."""
    terms, (bound, p_r) = series
    try:
        scaled = [(scale * c * h ** p, p * beta) for c, p in terms + ((bound, p_r),)]
    except OverflowError:
        return None
    if not all(0.0 < abs(c) < math.inf and p < math.inf for c, p in scaled):
        return None
    return _law(start, tuple(scaled[:-1]), scaled[-1])


# ---------------------------------------------------------------------------
# A family is stated once, by its builder: members, limit, term sources,
# decay table and the verdicts it claims.  _builder registers a builder under
# its kind and derives the rest.

_BUILDERS = {}  # kind -> registered builder, in definition order


def family_name(kind, params):
    """kind(name=value,...), or the bare kind.  A value is written with %g
    where that reads back as the value, and with repr where it does not, so
    that two families of one kind never share a name."""
    if not params:
        return kind

    def text(v):
        short = f"{v:g}"
        return short if float(short) == v else repr(v)

    return f"{kind}({','.join(f'{k}={text(v)}' for k, v in params.items())})"


def _builder(kind):
    """Register a builder, which maps its parameters to (limit, member
    function, FamilyMeta), under kind.  The registered function binds the
    parameters by name, rejects a non-finite one, and gives the Family its
    kind and its name, interned: every family of one name, and every report
    that names it, share one string."""

    def register(build):
        signature = inspect.signature(build)

        @functools.wraps(build)
        def family(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            params = dict(bound.arguments)
            for name, value in params.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ParameterError(
                        f"{kind} parameter {name} must be finite, got {value}")
            limit, member, meta = build(**params)
            meta.kind = kind
            return Family(sys.intern(family_name(kind, params)), params, limit, member, meta)

        _BUILDERS[kind] = family
        return family

    return register


# ---------------------------------------------------------------------------
# Two-atom families: X_n = 1 on (0, n^-r), n^-q on [n^-r, 1); limit 0.


def _two_atom_source_factory(r, q):
    """Vectorized term formulas for a two-atom family.

    r: decay exponent of the first atom's mass n^-r; q: decay exponent of
    the second atom's value n^-q (math.inf when it is identically 0).  Each
    term is mean(g) = E g(X_n), or gap(g) = |E g(X_n) - g(0)|, for a g fixed
    by the term kind and probe value."""

    def basis(ns):
        """(m1, 1 - m1, v2) at ns: the first atom's mass, the second's, and
        the second atom's value."""
        nsf = ns.astype(float)
        m1 = np.minimum(nsf**-r, 1.0)
        # n^-inf is 0 for every n, but pow gives 1 ** -inf = 1
        return m1, 1.0 - m1, np.zeros(len(nsf)) if math.isinf(q) else nsf**-q

    def mean(g, ns):
        m1, m2, v2 = basis(ns)
        return m1 * g(1.0) + m2 * g(v2)

    def gap(g, ns):
        return np.abs(mean(g, ns) - g(0.0))

    def atom_law(c, series):
        """The law of m1 * c + m2 * h(v2), h(0) = 0, where series =
        (terms, rest) states h as a power series in v on [0, 1]: None for a
        c that is not finite, or for no series where q is finite.  With the
        second atom at 0 it is |c| * n^-r, the zero law at c = 0.  Else
        m2 = 1 - n^-r turns each term a * v^j into a * (n^-jq - n^-(r+jq)),
        and the rest, times m2 <= 1, is the remainder.  A power jq that
        overflows to inf adds nothing: m2 is 0 at n = 1, v2^j 0 after."""
        if math.isinf(q) and math.isfinite(c):
            return _exact((abs(c), r)) if c != 0.0 else _law(1)
        if series is None or not math.isfinite(c):
            return None
        terms, rest = series
        mixed = [pair for a, j in terms if j * q < math.inf
                 for pair in ((a, j * q), (-a, r + j * q))]
        if rest is not None and rest[1] * q < math.inf:
            return _exact((c, r), *mixed, remainder=(rest[0], rest[1] * q))
        return _exact((c, r), *mixed)

    def gap_law(g):
        """Both gaps of g are m1 * |g(1) - g(0)| + m2 * |g(v2) - g(0)|; g
        states its power series only where it is nondecreasing on [0, 1]."""
        return atom_law(float(g(1.0)) - float(g(0.0)),
                        g.power_series(1.0) if q < math.inf else None)

    def source(kind, value, power):
        if kind == "tail":
            eps = float(value)
            if eps > 1.0:
                return _zeros_source()
            # m1 + (1 - m1) = 1 on the plateau v2 >= eps, then m1 = n^-r
            return TermSource(lambda ns: mean(lambda v: np.abs(v) >= eps, ns), law=_plateau(
                lambda ns: basis(ns)[2] < eps, -math.log(eps) / q, ((1.0, r),), 1.0))

        if kind == "moment":
            p = float(value)
            return TermSource(lambda ns: mean(lambda v: np.abs(v) ** p, ns),
                              law=atom_law(1.0, (((1.0, p),), None)))

        if kind == "sup":
            return TermSource(lambda ns: np.maximum(1.0, basis(ns)[2]),
                              law=_exact((1.0, 0.0)))

        if kind == "expect_gap":
            return TermSource(lambda ns: gap(value, ns), law=gap_law(value))

        if kind == "coupled_gap":
            return TermSource(lambda ns: mean(lambda v: np.abs(value(v) - value(0.0)), ns),
                              law=gap_law(value))

        if kind == "cdf_gap":
            x = float(value)
            if x >= 1.0 or x < 0.0:
                return _zeros_source()
            return TermSource(lambda ns: gap(lambda v: v <= x, ns), law=_rate(r, 1.0))

        if kind == "char_gap":
            t = float(value)
            if t == 0.0:
                return _zeros_source()

            def g(v):
                return np.exp(1j * t * v)

            # at t in 2*pi*Z the first atom drops out of the gap
            exp = q if abs(g(1.0) - g(0.0)) < 1e-12 and q < math.inf else min(r, q)
            return TermSource(lambda ns: gap(g, ns), law=_rate(exp))

        if kind == "pointwise":
            omega = float(value)

            def gen(ns):
                m1, _, v2 = basis(ns)
                return np.abs(np.where(omega < m1, 1.0, v2)) ** power

            # 1.0 ** power = 1 on the plateau omega < m1, then v2^power = n^-(power q),
            # all 0 for n >= 2 when that exponent is inf, q's or an overflowed power * q's
            p = power * q
            return TermSource(gen, law=_plateau(lambda ns: omega >= basis(ns)[0],
                                                -math.log(omega) / r,
                                                ((1.0, p),) if p < math.inf else (), 1.0))

        if kind == "trunc_l1":
            eps = float(value)

            def gen(ns):
                return mean(lambda v: np.abs(v) * (np.abs(v) < eps), ns)

            if eps > 1.0:  # both atoms are kept: the first moment
                return TermSource(gen, law=atom_law(1.0, (((1.0, 1.0),), None)))
            # the first atom, at 1, is truncated away: m2 * v2 = n^-q - n^-(r+q)
            # from the first n with v2 < eps, and 0 before it
            return TermSource(gen, law=_plateau(
                lambda ns: basis(ns)[2] < eps, -math.log(eps) / q,
                ((1.0, q), (-1.0, r + q)) if q < math.inf else (), 0.0))

        return None

    return source


def _two_atom_family(r, q, expected):
    """X_n = 1 with mass n^-r, n^-q with the rest; limit 0.

    Tail probabilities and CDF gaps decay like the first atom's mass n^-r,
    the pointwise distance like the second atom's value n^-q, and the
    expectation and characteristic-function gaps like the slower of the
    two."""

    def member(n):
        # 1.0 / n, not float(n) ** -1.0: the two differ in the last bit
        b = 1.0 / float(n) if r == 1.0 else float(n) ** -r
        if b >= 1.0:
            return space.constant_rv(1.0)
        return space.RandomVariable((space.Piece(0.0, b, 0.0, 1.0),
                                     space.Piece(b, 1.0, 0.0, float(n) ** -q)))

    slower = min(r, q)
    decay = {"tail": r, "cdf_gap": r, "expect_gap": slower, "coupled_gap": slower,
             "char_gap": slower, "pointwise": q}
    meta = FamilyMeta(support=(0.0, 1.0), bound=1.0,
                      term_source=_two_atom_source_factory(r, q), decay=decay,
                      expected=expected)
    return space.constant_rv(0.0), member, meta


@_builder("ex31")
def ex31(alpha):
    """Two atoms: value 1 with mass n^-2, value n^(-1/alpha) with the rest;
    limit 0.  For alpha > 1 this converges completely but not
    distributionally in the summable senses."""
    if alpha <= 0:
        raise ParameterError("ex31 needs alpha > 0")
    if 2.0 ** (-1.0 / alpha) == 1.0:
        raise ParameterError(
            f"ex31 needs alpha below about 1.2487e16, got {alpha:g}: past it "
            "2**(-1/alpha) rounds to 1, and the members do not decay in floats")
    expected = {"cc": "holds", "s2d": "holds"}
    if alpha > 1.0:
        expected.update(s1d="fails", s3d="fails")
    return _two_atom_family(2.0, 1.0 / alpha, expected)


@_builder("ex33")
def ex33():
    """Value 1 on (0, 1/n), 0 on [1/n, 1); limit 0.  Strongly almost surely
    convergent of every order, yet no summable distributional mode holds."""
    return _two_atom_family(1.0, math.inf, {"s1as": "holds", "as": "holds",
                                            "s1d": "fails", "s3d": "fails"})


# ---------------------------------------------------------------------------
# Shift families: X_n = X + n^-beta, X supported on [0, 1].


def _shift_source_factory(dens, beta, holder_at_1):
    """Vectorized term formulas for X_n = X + n^-beta, X = Q(omega) with Q
    the quantile of the density dens on [0, 1], so that dens.cdf is the CDF
    F of X.

    holder_at_1 is the Hölder exponent of F at x = 1, so |F(1 - s) - F(1)|
    decays like s^holder_at_1; F is Lipschitz elsewhere.  The largest
    shift, 1, is at n = 1."""
    F = dens.cdf
    base_char = functools.lru_cache(maxsize=None)(
        lambda t: space.char_fn(space.density_rv(dens), t, tol=1e-11))

    def s_of(ns):
        s = ns.astype(float)
        s **= -beta
        return s

    def source(kind, value, power):
        if kind == "tail":
            eps = float(value)
            return TermSource(lambda ns: (s_of(ns) >= eps) * 1.0, law=_plateau(
                lambda ns: s_of(ns) < eps, -math.log(eps) / beta, head=1.0))

        if kind in ("moment", "pointwise"):
            # s^k = n^-(beta k) exactly; at beta k = inf, 1 at n = 1 and 0 after
            k = float(value) if kind == "moment" else power
            law = _exact((1.0, beta * k)) if beta * k < math.inf else _law(2, (), None, 1.0)
            return TermSource(lambda ns: s_of(ns) ** k, law=law)

        if kind == "sup":
            return TermSource(s_of, law=_exact((1.0, beta)))

        if kind == "cdf_gap":
            x = float(value)
            # F(x) on a one-element array keeps every term's bits: numpy's
            # array pow may differ from its scalar pow in the last bit
            fx = F(np.array([x]))[0]

            def gen(ns):
                s = s_of(ns)
                terms = F(np.subtract(x, s, out=s))
                terms -= fx
                return np.abs(terms, out=terms)

            if x <= 0.0:
                return TermSource(gen, law=_law(1))
            if x > 1.0:  # 0 from the first n with F(x - s) = F(x) = 1
                return TermSource(gen, law=_plateau(lambda ns: gen(ns) == 0.0,
                                                    -math.log(x - 1.0) / beta))
            holder = holder_at_1 if abs(x - 1.0) <= 1e-12 else 1.0
            return TermSource(gen, law=_rate(holder * beta))

        if kind == "char_gap":
            t = float(value)
            if t == 0.0:
                return _zeros_source()
            phi = base_char(t)
            # 2 |phi| sin(u) with u = (|t| / 2) n^-beta: sin's Taylor series
            # from the first n with u <= 1
            h = abs(t) / 2.0
            law = _series_law(max(1, math.ceil(h ** (1.0 / beta))), Sine().power_series(1.0),
                              2.0 * float(np.abs(phi)), h, beta)
            return TermSource(
                lambda ns: np.abs(phi) * np.abs(np.exp(1j * t * s_of(ns)) - 1.0),
                law=law or _rate(beta))

        if kind in ("expect_gap", "coupled_gap"):
            f = value
            if isinstance(f, Sine):
                phi1 = base_char(1.0)

                def gen(ns):
                    # both gaps are a sin s - 2b sin^2(s/2) with phi1 = a + ib,
                    # 2 sin(s/2) Re(e^(is/2) phi1), which rounds in no cos s - 1
                    s = s_of(ns)
                    half = np.exp(1j * s / 2.0) * phi1
                    return np.abs(2.0 * np.sin(s / 2.0) * np.real(half))

                return TermSource(gen, law=_sine_gap_law(phi1, beta) or _rate(beta))
            # X_n and X lie in [0, 2]: where f is f(0) + c * v there, both
            # gaps are c * s = c * n^-beta exactly
            c = f.slope_on(2.0)
            if c is None:
                return None
            return TermSource(lambda ns: c * s_of(ns), law=_exact((c, beta)))

        if kind == "trunc_l1":
            eps = float(value)

            def gen(ns):
                s = s_of(ns)
                return np.where(s < eps, s, 0.0)

            # s = n^-beta from the first n with s < eps, 0 before it
            return TermSource(gen, law=_plateau(lambda ns: s_of(ns) < eps,
                                                -math.log(eps) / beta, ((1.0, beta),), 0.0))

        return None

    return source


def _sine_gap_law(phi1, beta):
    """The law of both sine gaps of a shift by s = n^-beta, a sin s +
    b (cos s - 1) with phi1 = a + ib, from the first n where that is
    positive: sin's and cos's alternating Taylor series to s^18 on (0, 1],
    within (|a| / 19! + |b| / 20!) s^19.  For a > 0 it is positive while
    tan(s / 2) < a / b; None for a <= 0."""
    a, b = phi1.real, phi1.imag
    if not a > 0.0:
        return None
    top = min(1.0, 2.0 * math.atan2(a, b))  # the series holds for s <= top
    start = 1 if top == 1.0 else math.floor(top ** (-1.0 / beta)) + 1
    terms = tuple(((a if j % 2 else b) * (-1.0) ** (j // 2) / math.factorial(j), float(j))
                  for j in range(1, 19))
    rest = abs(a) / math.factorial(19) + abs(b) / math.factorial(20)
    return _series_law(start, (terms, (rest, 19.0)), 1.0, 1.0, beta)


def _shift_family(dens, beta, holder_at_1, expected, x_probes=None):
    """X_n = X + n^-beta for X distributed with the density dens on [0, 1],
    whose CDF is Lipschitz except at x = 1, where its Hölder exponent is
    holder_at_1.  Tail probabilities are eventually zero, the CDF gap at 1
    decays like n^-(holder_at_1 * beta), and every other term like the
    shift n^-beta."""
    if beta <= 1:
        raise ParameterError("shift family needs beta > 1 for a summable shift")
    base_rv = space.density_rv(dens)

    def member(n):
        return base_rv.shifted(float(n) ** -beta)

    decay = {"tail": math.inf, "cdf_gap": holder_at_1 * beta, "expect_gap": beta,
             "coupled_gap": beta, "char_gap": beta, "pointwise": beta}
    meta = FamilyMeta(support=(0.0, 1.0), bound=2.0,
                      term_source=_shift_source_factory(dens, beta, holder_at_1),
                      decay=decay, expected=expected, x_probes=x_probes)
    return base_rv, member, meta


@_builder("ex32")
def ex32(alpha, beta):
    """X with density (1-alpha)*(1-u)^(-alpha), shifted by n^-beta.  The sup
    norms are summable, but at x=1 the CDF gaps decay only like
    n^(-(1-alpha)*beta)."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError("ex32 needs 0 < alpha < 1")
    expected = {"slinf": "holds", "sl1": "holds", "s1star": "holds",
                "s1d": "holds", "s3d": "holds", "cc": "holds"}
    if (1.0 - alpha) * beta <= 1.0:
        expected["s2d"] = "fails"
    return _shift_family(space.PowerAtOne(alpha), beta, 1.0 - alpha, expected,
                         x_probes=(0.25, 0.5, 0.75, 1.0))


@_builder("shift_uniform")
def shift_uniform(beta=2.0):
    """Uniform(0,1) shifted by n^-beta; the globally Lipschitz limit CDF
    makes every CDF-gap series behave like the shifts themselves."""
    return _shift_family(space.UNIFORM, beta, 1.0, {"slinf": "holds", "s2d": "holds"})


@_builder("const")
def constant_family(c=0.0):
    """X_n = X = c: every mode holds with identically zero terms."""
    rv = space.constant_rv(c)
    decay = {kind: math.inf for spec in MODES.values() for _, kind in spec.axes}
    meta = FamilyMeta(support=(c, c), bound=abs(c),
                      term_source=lambda kind, value, power: _zeros_source(),
                      decay=decay, expected=dict.fromkeys(NODES, "holds"))
    return rv, lambda n: rv, meta


def build_family(kind, **params):
    """Construct a registry family by kind name, validating parameters."""
    if kind not in _BUILDERS:
        raise ParameterError(
            f"unknown family {kind!r}; valid kinds: {', '.join(sorted(_BUILDERS))}")
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
    # a convergent series of nonnegative terms has terms that tend to 0
    ("slinf", "linf"),
    ("sl1", "l1"),
    ("s2d", "dist"),
    # once ess sup |X_n - X| < eps, every later tail probability is 0
    ("linf", "cc"),
    # With f_k = clamp(., -k, k): on {|X| < k - 1}, |X_n - X| <= 1 keeps
    # both values inside (-k, k), and X_n >= X + 1 gives f_k(X_n) >= X + 1
    # (likewise below), so |f_k(X_n) - f_k(X)| >= min(|X_n - X|, 1).
    # Summing s1star's terms for f_k and letting k grow, sum_n
    # min(|X_n - X|, 1) < inf almost surely; its terms then drop below 1
    # and equal |X_n - X|, which is s1as.
    ("s1star", "s1as"),
)


@dataclass(frozen=True)
class ImplicationDiagram:
    nodes: tuple
    edges: tuple

    def __post_init__(self):
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise ParameterError(f"edge ({a}, {b}) references unknown node")

    def transitive_closure(self):
        reach = {n: set() for n in self.nodes}
        for a, b in self.edges:
            reach[a].add(b)
        for k in self.nodes:  # Warshall: every a that reaches k takes k's reach
            for a in self.nodes:
                if k in reach[a]:
                    reach[a] |= reach[k]
        edges = tuple(sorted((a, b) for a in self.nodes for b in reach[a] if a != b))
        return ImplicationDiagram(self.nodes, edges)

    def with_edge(self, a, b):
        """Append one edge without re-closing (used to inject false arrows)."""
        if (a, b) in self.edges:
            return self
        return replace(self, edges=self.edges + ((a, b),))

    def to_dict(self):
        return {"nodes": list(self.nodes), "edges": [list(e) for e in self.edges]}


@functools.cache
def mode_diagram():
    """The closed diagram of the generator edges: one value, which every
    sweep's report shares."""
    return ImplicationDiagram(NODES, _GENERATOR_EDGES).transitive_closure()


# ---------------------------------------------------------------------------
# Golden verdicts and the soundness sweep


def expected_verdicts(family):
    """The verdicts a family's builder claims, keyed by diagram node (a
    copy of FamilyMeta.expected)."""
    return dict(family.meta.expected)


def verdict_matches(expected, actual):
    """Golden comparison: an expected Holds accepts Holds or NotFalsified
    (honest quantifier handling); an expected Fails accepts only Fails."""
    if expected == "holds":
        return actual in ("holds", "not_falsified")
    return actual == expected


def _separations(nodes, verdict):
    """The (a, b) node pairs with a holding and b failing, in node order;
    verdict maps a node to its verdict."""
    holds = [n for n in nodes if verdict.get(n) == "holds"]
    fails = [n for n in nodes if verdict.get(n) == "fails"]
    return [(a, b) for a in holds for b in fails]


@dataclass(frozen=True)
class Violation:
    kind: str  # "edge" | "expected"
    family: str
    source: str
    target: str
    detail: str = ""

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True, slots=True)
class SweepReport:
    """A soundness sweep's outcome, a value: the diagram, the family names
    in sweep order, one ModeReport per cell in reports, family by family and
    node by node, and the violations.  The verdict grid, the relation map
    and the coverage gaps are built from the cells on each read."""

    diagram: ImplicationDiagram
    families: tuple
    reports: tuple
    violations: tuple = ()

    @property
    def ok(self):
        return not self.violations

    @property
    def nodes(self):
        return self.diagram.nodes

    @property
    def verdicts(self):
        """{(family name, node): ModeReport}, in sweep order."""
        return dict(zip(itertools.product(self.families, self.nodes), self.reports))

    def _rows(self):
        """(family name, {node: verdict}) for each family, in sweep order."""
        k = len(self.nodes)
        for i, fam in enumerate(self.families):
            yield fam, {node: rep.verdict
                        for node, rep in zip(self.nodes, self.reports[i * k:(i + 1) * k])}

    @property
    def witnessed(self):
        """{(source, target): the first family holding source and failing
        target}, for the pairs the diagram does not imply."""
        implied = set(self.diagram.edges)
        found = {}
        for fam, got in self._rows():
            for pair in _separations(self.nodes, got):
                if pair not in implied:
                    found.setdefault(pair, fam)
        return found

    @property
    def open_pairs(self):
        """The (source, target) pairs neither implied nor witnessed, in node
        order."""
        known = set(self.diagram.edges) | self.witnessed.keys()
        return [(a, b) for a in self.nodes for b in self.nodes
                if a != b and (a, b) not in known]

    @property
    def coverage_gaps(self):
        return [f"{fam}: {node} inconclusive"
                for (fam, node), rep in self.verdicts.items() if rep.verdict == "inconclusive"]

    def to_dict(self):
        grid = {}
        for (fam, node), rep in self.verdicts.items():
            grid.setdefault(fam, {})[node] = rep.to_dict()
        witnessed = self.witnessed
        return {
            "schema_version": SCHEMA_VERSION,
            "families": list(self.families),
            "nodes": list(self.nodes),
            "verdicts": grid,
            "violations": [v.to_dict() for v in self.violations],
            "coverage_gaps": self.coverage_gaps,
            "witnessed": [[a, b, witnessed[(a, b)]]
                          for a in self.nodes for b in self.nodes
                          if (a, b) in witnessed],
            "open": [list(pair) for pair in self.open_pairs],
        }


def node_report(family, node, policy=DEFAULT_POLICY):
    """check_mode for one diagram node with its parameter binding, whose
    probe parameters are built once per family and binding: the defaults,
    where the binding only restates them."""
    mode, overrides = NODE_MODES[node]
    params = family._cached(("params", ()), lambda: ModeParams.defaults(family))
    if any(getattr(params, k) != v for k, v in overrides.items()):
        params = family._cached(("params", tuple(overrides.items())),
                                lambda base=params: replace(base, **overrides))
    return check_mode(family, mode, params, policy)


def soundness_sweep(diagram, families, policy=DEFAULT_POLICY):
    """Check every family against the diagram and derive the relation map.

    Each family's (holds, fails) node pairs are read once: a pair the
    diagram implies is an edge violation, any other is witnessed, by the
    first family that separates it.  An ordered pair neither implied nor
    witnessed is open.  A family that misses its own expected_verdicts is
    an `expected` violation.  Inconclusive cells are reported as coverage
    gaps, not violations."""
    cells = SweepReport(diagram, tuple(fam.name for fam in families), tuple(
        node_report(fam, node, policy) for fam in families for node in diagram.nodes))
    implied = set(diagram.edges)
    violations = []
    for fam, (_, got) in zip(families, cells._rows()):
        for node, want in expected_verdicts(fam).items():
            if not verdict_matches(want, got[node]):
                violations.append(Violation(
                    "expected", fam.name, node, node,
                    detail=f"expected {want}, got {got[node]}"))
        for a, b in _separations(diagram.nodes, got):
            if (a, b) in implied:
                witness = cells.verdicts[fam.name, b].witness
                violations.append(Violation(
                    "edge", fam.name, a, b,
                    detail=f"{a} holds but {b} fails (witness probe {witness})"))
    return replace(cells, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Analytic-criterion verification harnesses


@dataclass(frozen=True)
class LipschitzWitness:
    x: float
    K: float
    delta: float

    def grid_ok(self, cdf):
        """cdf is K-Lipschitz on 41 points spanning [x - delta, x + delta]."""
        us = np.linspace(self.x - self.delta, self.x + self.delta, 41)
        vals = cdf(us)
        dv = np.abs(np.subtract.outer(vals, vals))
        du = np.abs(np.subtract.outer(us, us))
        return bool(np.all(dv <= self.K * du + 1e-12))


@dataclass(frozen=True)
class CriterionReport:
    """A criterion check: premise is the verdict of the mode the criterion
    rests on, checks maps each check's name to its outcome, and details
    holds the per-probe verdicts the checks read."""

    premise: str
    checks: dict
    details: dict

    @property
    def ok(self):
        return self.premise == "holds" and all(self.checks.values())


def verify_lipschitz_s2d(family, witnesses):
    """Precondition: summable sup norms a_n = ess sup |X_n - X|, the terms
    slinf scans, with a law of exponent above 1 (a power law n^-p, p > 1,
    or eventually zero); otherwise ParameterError, as for an empty witness
    list.

    With F(x - a_n) <= F_n(x) <= F(x + a_n) and a limit CDF F locally
    Lipschitz at each probed continuity point: the sup-norm series
    converges, each of the first 2000 CDF-gap terms is dominated by that
    two-sided sandwich (to 1e-12), each CDF-gap series converges, and the
    finite-prefix plus Lipschitz-tail bound dominates the whole gap series.
    Both series and their sums are check_mode's: slinf, and s2d at the
    witnesses' x.  The premise is slinf's verdict; the checks are
    witnesses, sandwich, series_converge and proof_bound."""
    params = ModeParams.defaults(family, x_points=[w.x for w in witnesses])
    sup = probe_source(family, "slinf", ("all", None), params)
    if sup.law is None or not sup.law.exponent > 1.0:
        raise ParameterError(
            f"verify_lipschitz_s2d needs summable sup norms; {family.name} has no "
            f"law of exponent above 1 on them")
    slinf = check_mode(family, "slinf", params)
    s2d = check_mode(family, "s2d", params)
    F = family.limit_cdf
    a_n = sup.terms(1, 2001)
    sup_sum = slinf.probe_results["all"]
    sandwich_ok = True
    proof_bound_ok = True
    for w in witnesses:
        terms = probe_source(family, "s2d", ("x", w.x), params).terms(1, 2001)
        fx = F(w.x)
        upper = (F(w.x + a_n) - fx) + (fx - F(w.x - a_n))
        sandwich_ok &= bool(np.all(terms <= upper + 1e-12))
        # the whole gap series against its prefix up to the first index with
        # a_n < delta, then the Lipschitz bound on both sandwich sides
        below = np.nonzero(a_n < w.delta)[0]
        n0 = int(below[0]) if below.size else a_n.size
        sup_from_n0 = sup_sum.sum_estimate + sup_sum.tail_bound - float(np.sum(a_n[:n0]))
        rhs = float(np.sum(terms[:n0])) + 2.0 * w.K * sup_from_n0
        gap = s2d.probe_results[probe_key(("x", w.x))]
        proof_bound_ok &= gap.converges and gap.sum_estimate + gap.tail_bound <= rhs + 1e-9
    checks = {"witnesses": all(w.grid_ok(F) for w in witnesses), "sandwich": sandwich_ok,
              "series_converge": all(v.converges for v in s2d.probe_results.values()),
              "proof_bound": proof_bound_ok}
    return CriterionReport(slinf.verdict, checks,
                           {k: v.to_dict() for k, v in s2d.probe_results.items()})


def verify_truncation_s1star(family, eps):
    """Complete convergence plus a summable truncated first moment force
    every bounded Lipschitz expectation gap to be summable; the splitting
    bound K*truncated + 2M*tail-probability dominates each of the first 10^4
    terms (to 1e-9), and for a bounded limit the clamped-identity function
    turns the truncated moment back into a distributional term over the
    first 1000 (the converse direction).  cc and the gap series, over the
    default test functions, are check_mode's scans.  The premise is cc's
    verdict; the checks are truncated_summable, s1star_summable, splitting
    and converse."""
    if eps <= 0:
        raise ParameterError("eps must be positive")
    params = ModeParams.defaults(family, epsilons=(eps,))
    trunc_src = family.meta.term_source("trunc_l1", eps, 1.0)
    if trunc_src is None:
        raise ParameterError("family has no truncated-moment term formula")
    cc = check_mode(family, "cc", params)
    s1star = check_mode(family, "s1star", params)
    trunc_verdict = analyze_series(trunc_src)
    trunc_terms = trunc_src.terms(1, 10001)
    cc_terms = probe_source(family, "cc", ("eps", eps), params).terms(1, 10001)
    splitting_ok = True
    for f in params.test_functions:
        terms = probe_source(family, "s1star", ("f", f), params).terms(1, 10001)
        bound = f.lipschitz * trunc_terms + 2.0 * f.bound * cc_terms
        splitting_ok &= bool(np.all(terms <= bound + 1e-9))
    details = {"truncated": trunc_verdict.to_dict(),
               **{k: v.to_dict() for k, v in s1star.probe_results.items()}}
    # converse direction with the truncation function of the bounded limit
    m_bound = space.sup_norm(family.limit)
    converse_ok = True
    if m_bound > 0:
        src = probe_source(family, "s1star", ("f", ClampedIdentity(M=m_bound, eps=eps)),
                           params)
        s1star_terms = src.terms(1, 1001)
        converse_ok = bool(np.all(trunc_terms[:1000] <= s1star_terms + 1e-9))
    checks = {"truncated_summable": trunc_verdict.converges,
              "s1star_summable": all(v.converges for v in s1star.probe_results.values()),
              "splitting": splitting_ok, "converse": converse_ok}
    return CriterionReport(cc.verdict, checks, details)


# ---------------------------------------------------------------------------
# Machine-readable catalog export


def export_catalog():
    """JSON-serializable catalog of the default registry: families,
    parameters, golden verdicts, and the implication diagram (schema
    documented in the README)."""
    families = default_registry()
    # the non-implications the catalog claims: a family expected to hold
    # the source and fail the target
    claimed = {}
    for fam in families:
        for pair in _separations(NODES, expected_verdicts(fam)):
            claimed.setdefault(pair, fam.meta.kind)
    return {
        "schema_version": SCHEMA_VERSION,
        "families": [{**fam.describe(), "expected_verdicts": expected_verdicts(fam)}
                     for fam in families],
        "diagram": {**mode_diagram().to_dict(), "non_edges": [
            {"source": a, "target": b, "witness": kind}
            for (a, b), kind in claimed.items()]},
    }
