"""Numerical classification of nonnegative-term series.

The engine answers "is sum a_n finite?" with quantified evidence: exact
comparison when the source states a TermLaw, otherwise dyadic partial sums
(deterministic, compensated across blocks) plus a decay-exponent fit on
dyadic anchors, which is Cauchy condensation in numerical form.  Boundary
cases near exponent 1 are reported Inconclusive rather than guessed.

It also provides the null-sequence test backing the classical limit modes.
The engine's rules are the module constants below; its one setting is the
horizon, EnginePolicy.n_max.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import ParameterError

# The engine rules.  EnginePolicy.to_dict() prints them beside n_max.
DYADIC_WINDOW = 8  # dyadic anchors in a decay-exponent fit
EXPONENT_MARGIN = 0.05  # a fitted interval inside (1, 1 + this] is near the boundary
TAIL_TOLERANCE = 1e-6  # widest tail sandwich a fitted `converges` may carry
BLOWUP_THRESHOLD = 1e6  # a partial sum above this diverges
NULL_TOLERANCE = 1e-8  # scanned terms below this count as zero in the null test


@dataclass(frozen=True)
class EnginePolicy:
    """The engine's one setting: n_max, the horizon of every scan."""

    n_max: int = 1_000_000

    def __post_init__(self):
        if self.n_max < 2 ** DYADIC_WINDOW:
            raise ParameterError(
                f"n_max must be at least 2**{DYADIC_WINDOW} = {2 ** DYADIC_WINDOW}, "
                f"got {self.n_max}")

    def to_dict(self):
        return {
            "n_max": self.n_max,
            "dyadic_window": DYADIC_WINDOW,
            "exponent_margin": EXPONENT_MARGIN,
            "tail_tolerance": TAIL_TOLERANCE,
            "blowup_threshold": BLOWUP_THRESHOLD,
            "null_tolerance": NULL_TOLERANCE,
        }


DEFAULT_POLICY = EnginePolicy()


# Bernoulli numbers B_2, B_4, ..., B_18 over (2j)!: the Euler-Maclaurin
# corrections of hurwitz_zeta
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798), start=1))
_EM_HEAD = 10  # terms hurwitz_zeta sums directly


def hurwitz_zeta(s, a):
    """zeta(s, a), the sum of (a + k)**-s over k >= 0, for each s > 1 of the
    sequence s and one a >= 1, as a float array.

    Euler-Maclaurin: _EM_HEAD terms summed directly, then the integral, the
    half term and the Bernoulli corrections at x = a + _EM_HEAD >= 11, where
    the first correction left out is below 1e-18 of the sum for every s > 1.
    A huge s underflows the powers of x to 0 and leaves the head alone."""
    s = np.asarray(s, dtype=float)
    head = np.sum((float(a) + np.arange(_EM_HEAD, dtype=float))[:, None] ** -s, axis=0)
    x = float(a + _EM_HEAD)
    xs = x ** -s
    total = head + x * xs / (s - 1.0) + 0.5 * xs
    t = xs * (s / x)  # (s)_(2j-1) * x**(-s-2j+1), rising factorial, at j = 1
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        total += coeff * t
        # one factor at a time: for a huge s, t is 0 and the product of the
        # two factors overflows, and 0 * inf would be nan
        t = t * ((s + 2 * j - 1) / x) * ((s + 2 * j) / x)
    return total


@dataclass(frozen=True)
class TermLaw:
    """Closed-form knowledge about a term sequence, exponents in the units
    of FamilyMeta.decay.

    From n = start on, a_n = sum(c * n**-p for c, p in terms) + R_n, where
    |R_n| <= C * n**-p_r for remainder (C, p_r), and R_n = 0 without one.
    With no terms and no remainder this is the zero law: a_n = 0 from start
    on.  The engine sums the terms before start and takes the rest from the
    law as Hurwitz zeta values, so a law with start 1 reads no term.  Terms
    of one exponent are merged, and terms are kept by rising exponent.

    start None: a rate law.  Its one term (level, exponent) holds only
    eventually, from an index the law does not know, and level is None where
    the constant is not known either.  The engine reads the sum from the
    terms then, with a one-power tail past the last one it reads.
    """

    start: Optional[int] = 1
    terms: tuple = ()
    remainder: Optional[tuple] = None

    def __post_init__(self):
        if self.start is None:
            if len(self.terms) != 1 or self.remainder is not None:
                raise ParameterError(
                    "a rate law (start None) states one term and no remainder")
            ((level, p),) = self.terms
            if level is not None and not 0.0 < level < math.inf:
                raise ParameterError(
                    f"a term law needs a positive finite level, got {level}")
            terms = ((None if level is None else float(level), _law_exponent(p)),)
        else:
            if self.start < 1:
                raise ParameterError(f"a term law needs start >= 1, got {self.start}")
            object.__setattr__(self, "start", int(self.start))
            merged = {}
            for c, p in self.terms:
                if c is None or not math.isfinite(c):
                    raise ParameterError(
                        f"a term law from a start needs finite constants, got {c}")
                p = _law_exponent(p)
                merged[p] = merged.get(p, 0.0) + float(c)
            terms = tuple((c, p) for p, c in sorted(merged.items()) if c != 0.0)
            if self.remainder is not None:
                bound, p = self.remainder
                if not 0.0 < bound < math.inf:
                    raise ParameterError(
                        f"a term law needs a positive finite remainder bound, got {bound}")
                object.__setattr__(self, "remainder", (float(bound), _law_exponent(p)))
        object.__setattr__(self, "terms", terms)

    @cached_property
    def exponent(self):
        """The rate of the slowest part: the leading term's exponent, or
        the remainder's where that is smaller; inf for the zero law."""
        rates = [p for _, p in self.terms[:1]]
        if self.remainder is not None:
            rates.append(self.remainder[1])
        return min(rates, default=math.inf)

    @property
    def level(self):
        """The leading term's constant, None where unknown or absent."""
        return self.terms[0][0] if self.terms else None

    @cached_property
    def diverges(self):
        """Whether the law alone makes the sum infinite: its leading term
        has an exponent of at most 1 and a positive constant (unknown in a
        rate law), and the remainder decays strictly faster."""
        if not self.terms:
            return False
        c, p = self.terms[0]
        return (p <= 1.0 and (c is None or c > 0.0)
                and (self.remainder is None or self.remainder[1] > p))

    def to_dict(self):
        """The law as the evidence prints it: its start (None for a rate
        law), its [c, p] terms, and its remainder [C, p_r] where it has one."""
        d = {"start": self.start, "terms": [list(t) for t in self.terms]}
        if self.remainder is not None:
            d["remainder"] = list(self.remainder)
        return d

    @cached_property
    def rate(self):
        """The p_hat and ci_halfwidth of a verdict on this law: its
        exponent exactly where it is a positive power, else no rate."""
        if 0.0 < self.exponent < math.inf:
            return {"p_hat": self.exponent, "ci_halfwidth": 0.0}
        return {}

    @cached_property
    def evidence(self):
        """The evidence dict of every verdict resting on this law, built
        once and shared by those verdicts (their to_dict() copies it)."""
        return {"method": "analytic_hint", "hint": self.to_dict()}

    @cached_property
    def tail(self):
        """(lower end, width) of the interval holding the sum of the terms
        from start on: sum c * zeta(p, start), within C * zeta(p_r, start)."""
        rates = [p for _, p in self.terms]
        if self.remainder is not None:
            rates.append(self.remainder[1])
        if not rates:
            return 0.0, 0.0
        zetas = hurwitz_zeta(rates, self.start).tolist()
        mid = math.fsum(c * z for (c, _), z in zip(self.terms, zetas))
        half = self.remainder[0] * zetas[-1] if self.remainder is not None else 0.0
        return mid - half, 2.0 * half

    @cached_property
    def null_verdict(self):
        """null_sequence_test's verdict on this law."""
        if self.exponent > 0.0:
            return Verdict("tends_to_zero", **self.rate)
        return Verdict("stays_above", level=self.level)


def _law_exponent(p):
    """p as a law's exponent: a float in [0, inf)."""
    p = float(p)
    if not 0.0 <= p < math.inf:
        raise ParameterError(f"a term law needs exponents in [0, inf), got {p}")
    return p


class TooFewAnchors(Exception):
    """Raised by the anchor fit when fewer anchors than its window have a
    positive term, too few to fit a decay exponent with any confidence."""


class TermSource:
    """A nonnegative sequence a_n, n >= 1, behind every summability mode.

    The generator maps a numpy integer array to a float array; the engine
    always passes it an ascending run of consecutive indices.  horizon caps
    how far the engine evaluates terms: a finite stream sets its length, and
    expensive generators (per-term quadrature) set it low and rely on laws
    or anchor fits.

    A source remembers the summary of each block it has evaluated (a dyadic
    block, or the one term the decay fit reads as its anchor), so a second
    scan or fit of it (another mode's probe on the same terms) costs no
    terms.
    """

    def __init__(self, generator, law=None, horizon=None):
        self.generator = generator
        self.law = law
        self.horizon = horizon
        self._blocks = {}  # (lo, hi) -> (sum, first, last, min, max)

    @classmethod
    def from_scalar(cls, fn, horizon):
        def gen(ns):
            return np.array([float(fn(int(n))) for n in ns], dtype=float)

        return cls(gen, horizon=horizon)

    @classmethod
    def from_values(cls, values):
        if not isinstance(values, np.ndarray):
            values = list(values)
        arr = np.asarray(values, dtype=float)
        if arr.size < 2:
            raise ParameterError(f"need at least 2 terms, got {arr.size}")

        def gen(ns):
            return arr[np.asarray(ns, dtype=int) - 1]

        return cls(gen, horizon=arr.size)

    def terms(self, lo, hi):
        """Terms for n in [lo, hi), clamped at tiny negative quadrature noise.

        Raises ParameterError on a negative or non-finite term."""
        ns = np.arange(lo, hi, dtype=np.int64)
        vals = np.asarray(self.generator(ns), dtype=float)
        if not vals.size:
            return vals
        low = float(vals.min())
        if not (math.isfinite(low) and math.isfinite(float(vals.max()))):
            bad = int(ns[int(np.argmin(np.isfinite(vals)))])
            raise ParameterError(f"term source produced non-finite term at n={bad}")
        if low < -1e-12:
            bad = int(ns[int(np.argmin(vals))])
            raise ParameterError(
                f"term source produced negative term {low:.3e} at n={bad}"
            )
        return np.maximum(vals, 0.0)

    def effective_n_max(self, policy):
        n = policy.n_max if self.horizon is None else min(policy.n_max, self.horizon)
        return max(n, 2)


def fresh(value):
    """A copy of a JSON-like value that shares no dict or list with it:
    verdicts and reports share their constant dicts, and each to_dict()
    hands out its own."""
    if isinstance(value, dict):
        return {k: fresh(v) for k, v in value.items()}
    if isinstance(value, list):
        return [fresh(v) for v in value]
    return value


# evidence of the lawless outcomes that carry no figures, shared by every
# verdict with that outcome
_EXPONENT_FIT = {"method": "exponent_fit"}
_NEAR_BOUNDARY = {"method": "exponent_near_boundary"}
_ZERO_OBSERVED = {"method": "eventually_zero_observed"}
_TOO_FEW_ANCHORS = {"method": "too_few_positive_anchors"}


@dataclass(frozen=True, slots=True)
class Verdict:
    """The outcome of one engine call.  klass is "converges", "diverges" or
    "inconclusive" from analyze_series, and "tends_to_zero", "stays_above" or
    "inconclusive" from null_sequence_test.  A null-test verdict has no
    evidence, sum or tail bound; level is the null test's level where the
    terms stay above it."""

    klass: str
    sum_estimate: Optional[float] = None
    tail_bound: Optional[float] = None
    evidence: Optional[dict] = None
    p_hat: Optional[float] = None
    ci_halfwidth: Optional[float] = None
    n_used: int = 0
    level: Optional[float] = None

    @property
    def converges(self):
        return self.klass == "converges"

    @property
    def diverges(self):
        return self.klass == "diverges"

    @property
    def tends_to_zero(self):
        return self.klass == "tends_to_zero"

    def to_dict(self):
        d = {"class": self.klass, "n_used": self.n_used}
        if self.evidence is not None:
            d["evidence"] = fresh(self.evidence)
        for k in ("sum_estimate", "tail_bound", "level", "p_hat", "ci_halfwidth"):
            v = getattr(self, k)
            if v is not None:
                d[k] = v
        return d


def _neumaier_add(s, c, v):
    """One step of Neumaier's compensated sum: the running sum s and its
    compensation c after adding v."""
    t = s + v
    if abs(s) >= abs(v):
        c += (s - t) + v
    else:
        c += (v - t) + s
    return t, c


def _neumaier(values):
    """Compensated sum of a list of block sums, step for step as
    _dense_scan accumulates it; order-independent rounding error."""
    s = c = 0.0
    for v in values:
        s, c = _neumaier_add(s, c, v)
    return s + c


# Most terms one generator call evaluates; longer blocks are generated in
# pieces, so the scan's working set does not grow with its horizon.  A
# generator makes several numpy temporaries of this length (about six for a
# two-atom mean).  At 2**13 each is 64 KiB and glibc's heap reuses them from
# call to call.  At 2**16 each is 512 KiB, and glibc gives every freed one
# back to the kernel (by munmap or by trimming the heap), so each chunk
# faults in zeroed pages again: a warm lawless 10**6-term scan then takes
# ~12,500 minor faults instead of none.  Below 2**13 the Python overhead per
# call dominates.  _summary keeps the sums bit-identical for any _CHUNK of
# at least 128, numpy's pairwise block size.
_CHUNK = 1 << 13


def _summary(src, lo, hi):
    """(sum, first, last, min, max) of src.terms(lo, hi), generated at most
    _CHUNK terms at a time.  A longer range is halved where numpy's pairwise
    summation halves a contiguous array, so the sum is np.sum of the whole
    block to the bit."""
    n = hi - lo
    if n <= _CHUNK:
        arr = src.terms(lo, hi)
        return (float(np.sum(arr)), float(arr[0]), float(arr[-1]),
                float(arr.min()), float(arr.max()))
    half = n // 2
    mid = lo + half - half % 8
    sum1, first, _, min1, max1 = _summary(src, lo, mid)
    sum2, _, last, min2, max2 = _summary(src, mid, hi)
    return sum1 + sum2, first, last, min(min1, min2), max(max1, max2)


def _block(src, lo, hi):
    """(sum, first, last, min, max) of src.terms(lo, hi), evaluated once."""
    summary = src._blocks.get((lo, hi))
    if summary is None:
        summary = src._blocks[(lo, hi)] = _summary(src, lo, hi)
    return summary


def _dyadic_blocks(n_max):
    """[lo, hi) index blocks [1,2), [2,4), ... up to n_max inclusive."""
    blocks = []
    lo = 1
    while lo <= n_max:
        hi = min(2 * lo, n_max + 1)
        blocks.append((lo, hi))
        lo = hi
    return blocks


def _anchor_fit(anchor_ns, anchor_vals, window):
    """Least-squares decay exponent from log terms at the last window
    positive dyadic anchors."""
    ns = np.asarray(anchor_ns, dtype=float)
    vals = np.asarray(anchor_vals, dtype=float)
    pos = vals > 0.0
    ns, vals = ns[pos][-window:], vals[pos][-window:]
    if ns.size < window:
        raise TooFewAnchors
    x = np.log(ns)
    y = np.log(vals)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    dof = max(ns.size - 2, 1)
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    p_hat = -slope
    ci = 2.0 * stderr + 1e-9
    return p_hat, ci


def fit_exponent(src: TermSource, policy: EnginePolicy = DEFAULT_POLICY):
    """Fit a_n ~ C n**(-p) on the terms at the dyadic block starts 1, 2, 4,
    ... up to the source's horizon; returns (p_hat, ci_halfwidth).  Each
    anchor is its block's first term, read from the block memo: from the
    whole block where that has been evaluated, else from the block of that
    one term.

    Raises TooFewAnchors when fewer than DYADIC_WINDOW anchors have a
    positive term.
    """
    blocks = _dyadic_blocks(src.effective_n_max(policy))
    anchors = [(src._blocks.get(b) or _block(src, b[0], b[0] + 1))[1] for b in blocks]
    return _anchor_fit([lo for lo, _ in blocks], anchors, DYADIC_WINDOW)


def _power_tail(partial, a_last, n_last, p):
    """Integral-test sandwich for the tail beyond n_last, assuming the local
    power law a_n = C n**-p fitted at the last term.

    Returns (sum_estimate, tail_bound): the estimate adds the sandwich lower
    bound (so it is nondecreasing in n_max); the bound is the sandwich width.
    Both ends are written without C = a_last * n_last**p, which overflows for
    large p.
    """
    n = float(n_last)
    tail_up = a_last * n / (p - 1.0)
    tail_low = tail_up * (n / (n + 1.0)) ** (p - 1.0)
    return partial + tail_low, tail_up - tail_low


# A rate-law series stops scanning once its tail sandwich is this fraction
# of TAIL_TOLERANCE: the verdict is already settled by the law, and further
# terms only refine sum_estimate.
_HORIZON_FRACTION = 0.1


def _dense_scan(src, n_max, exponent=None):
    """src's dense dyadic-block scan up to n_max, as (partial, a_last,
    n_last, last_max, blowup_at): the partial sum of the blocks read, the
    last term, its index and the last block's largest term, and the index
    where the partial sum blew up, None where it did not.  Pairwise numpy
    summation inside a block (deterministic for a fixed block layout),
    compensated accumulation across blocks.

    With a rate law's exponent > 1 the scan stops early, after at least
    DYADIC_WINDOW blocks, at the first block whose last term is positive and
    whose _power_tail sandwich is narrower than
    _HORIZON_FRACTION * TAIL_TOLERANCE.
    """
    s = c = 0.0
    for k, (lo, hi) in enumerate(_dyadic_blocks(n_max), start=1):
        block_sum, _, a_last, _, last_max = _block(src, lo, hi)
        s, c = _neumaier_add(s, c, block_sum)
        partial, n_last = s + c, hi - 1
        if partial > BLOWUP_THRESHOLD:
            return partial, a_last, n_last, last_max, n_last
        if (exponent is not None and k >= DYADIC_WINDOW and a_last > 0.0
                and _power_tail(partial, a_last, n_last, exponent)[1]
                < _HORIZON_FRACTION * TAIL_TOLERANCE):
            break
    return partial, a_last, n_last, last_max, None


# 4096: the seed 0-9 sweeps build 519 distinct law verdicts, a 62-family
# parameter grid 662
@lru_cache(maxsize=4096)
def _law_verdict(law, klass, sum_estimate=None, tail_bound=None, n_used=0):
    """analyze_series's verdict of this class on this law, with these
    figures; a verdict that decides carries the law's rate.  It follows from
    the law's value and these figures alone, so each distinct one is built
    once and shared, like the law's evidence, by every probe and every sweep
    that reaches it, whichever source or law object it comes from."""
    rate = law.rate if klass != "inconclusive" else {}
    return Verdict(klass, sum_estimate, tail_bound, law.evidence, n_used=n_used, **rate)


def _analyze_with_law(src, policy):
    """Exact comparison with the source's law.  A law that diverges reads
    no term.  A law from a start sums the terms before it densely and adds
    the law's zeta tail; one that decides nothing, or whose start lies past
    the horizon, is inconclusive.  A rate law is summed from a dense scan to
    its tight-sandwich horizon, and a one-power tail from the last term; a
    scan that finds every term 0 is inconclusive, since the law's terms lie
    past it."""
    law = src.law
    if law.diverges:
        return _law_verdict(law, "diverges")
    n_max = src.effective_n_max(policy)
    if law.start is None:
        partial, a_last, n_last, _, _ = _dense_scan(src, n_max, law.exponent)
        if partial == 0.0:
            return _law_verdict(law, "inconclusive", n_used=n_last)
        est, bound = _power_tail(partial, a_last, n_last, law.exponent)
        return _law_verdict(law, "converges", est, bound, n_last)
    n_used = law.start - 1
    if law.exponent <= 1.0 or n_used > n_max:
        return _law_verdict(law, "inconclusive")
    head = _dense_scan(src, n_used)[0] if n_used else 0.0
    low, width = law.tail
    return _law_verdict(law, "converges", head + low, width, n_used)


def analyze_series(src: TermSource, policy: EnginePolicy = DEFAULT_POLICY) -> Verdict:
    """Classify sum a_n as convergent/divergent/inconclusive with evidence."""
    if src.law is not None:
        return _analyze_with_law(src, policy)
    partial, a_last, n_used, last_max, blowup_at = _dense_scan(
        src, src.effective_n_max(policy))
    if blowup_at is not None:
        return Verdict(
            "diverges",
            evidence={
                "method": "partial_sum_blowup",
                "threshold": BLOWUP_THRESHOLD,
                "at_n": blowup_at,
            },
            n_used=blowup_at,
        )
    if last_max == 0.0:
        # terms have died out within the probed range
        return Verdict(
            "converges",
            sum_estimate=partial,
            tail_bound=0.0,
            evidence=_ZERO_OBSERVED,
            n_used=n_used,
        )
    try:
        p_hat, ci = fit_exponent(src, policy)
    except TooFewAnchors:
        # the last block is positive, but too few anchors are to fit a decay
        return Verdict("inconclusive", evidence=_TOO_FEW_ANCHORS, n_used=n_used)
    # divergence needs an interval that reaches 1; one wholly inside
    # (1, 1 + EXPONENT_MARGIN] is near the boundary
    if p_hat - ci <= 1.0 and p_hat + ci <= 1.0 + EXPONENT_MARGIN:
        return Verdict(
            "diverges",
            p_hat=p_hat,
            ci_halfwidth=ci,
            evidence=_EXPONENT_FIT,
            n_used=n_used,
        )
    if p_hat - ci >= 1.0 + EXPONENT_MARGIN:
        est, bound = _power_tail(partial, a_last, n_used, p_hat)
        if bound < TAIL_TOLERANCE:
            return Verdict(
                "converges",
                sum_estimate=est,
                tail_bound=bound,
                p_hat=p_hat,
                ci_halfwidth=ci,
                evidence=_EXPONENT_FIT,
                n_used=n_used,
            )
        return Verdict(
            "inconclusive",
            p_hat=p_hat,
            ci_halfwidth=ci,
            evidence={"method": "tail_above_tolerance", "tail_bound": bound},
            n_used=n_used,
        )
    return Verdict(
        "inconclusive",
        p_hat=p_hat,
        ci_halfwidth=ci,
        evidence=_NEAR_BOUNDARY,
        n_used=n_used,
    )


def null_sequence_test(src: TermSource, policy: EnginePolicy = DEFAULT_POLICY) -> Verdict:
    """Decide whether a_n -> 0: the test behind the classical limit modes.
    A source with a law reads no term."""
    if src.law is not None:
        return src.law.null_verdict
    lo, hi = _dyadic_blocks(src.effective_n_max(policy))[-1]
    _, _, _, last_min, last_max = _block(src, lo, hi)
    n_used = hi - 1
    if last_max < NULL_TOLERANCE:
        return Verdict("tends_to_zero", n_used=n_used)
    try:
        p_hat, ci = fit_exponent(src, policy)
    except TooFewAnchors:
        # the last block is not small, but too few anchors are to fit a decay
        return Verdict("inconclusive", n_used=n_used)
    if p_hat - ci > 0.02:
        return Verdict("tends_to_zero", p_hat=p_hat, ci_halfwidth=ci, n_used=n_used)
    # a flat fit whose interval reaches 0, with terms above the tolerance
    level = last_min
    if (abs(p_hat) <= 0.02 and ci <= 0.02 and p_hat - ci <= 0.0
            and level > NULL_TOLERANCE):
        return Verdict(
            "stays_above", level=level, p_hat=p_hat, ci_halfwidth=ci, n_used=n_used
        )
    return Verdict("inconclusive", p_hat=p_hat, ci_halfwidth=ci, n_used=n_used)


def load_terms_csv(path):
    """Read a term stream: one nonnegative decimal per line, header optional.

    numpy's C reader parses the stream.  The line reader decides every file
    the fast reader cannot take whole, so the terms and the messages are
    the line reader's."""
    try:
        values = _read_terms_fast(path)
    except (OSError, ValueError, csv.Error):
        values = None
    if values is None or not np.all((values >= 0) & (values < np.inf)):
        values = _read_terms_by_line(path)
    return TermSource.from_values(values)


def _read_terms_fast(path):
    """The first column as a float array, or None where loadtxt must not
    run: a stream with no row to read (loadtxt warns), or a path that is
    not a regular file (a pipe would be read twice)."""
    # absolute, so that numpy's DataSource never reads the name as a URL
    name = os.path.abspath(path)
    if not os.path.isfile(name):
        return None
    with open(name, encoding="utf-8-sig") as fh:
        first = fh.readline()
        cell = (next(csv.reader([first]), None) or [""])[0].strip()
        try:
            float(cell or 0)
            header = False
        except ValueError:
            header = True  # the line reader's rule: line 1 may be a header
        if not any(line.strip() for line in itertools.chain([] if header else [first], fh)):
            return None
    return np.loadtxt(name, skiprows=int(header), encoding="utf-8-sig", delimiter=",",
                      usecols=0, comments=None, quotechar='"', ndmin=1)


def _read_terms_by_line(path):
    """The reference reader: the terms as a list, or a ParameterError that
    names the first bad line."""
    values = []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or not row[0].strip():
                    continue
                cell = row[0].strip()
                try:
                    v = float(cell)
                except ValueError:
                    if lineno == 1:  # tolerate a single header line
                        continue
                    raise ParameterError(f"line {lineno}: not a number: {cell!r}")
                if not math.isfinite(v):
                    raise ParameterError(f"line {lineno}: non-finite term {cell!r}")
                if v < 0:
                    raise ParameterError(f"line {lineno}: negative term {v}")
                values.append(v)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    if not values:
        raise ParameterError(f"no terms found in {path}")
    return values
