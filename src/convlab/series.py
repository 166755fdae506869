"""Numerical classification of nonnegative-term series.

The engine answers "is sum a_n finite?" with quantified evidence: exact
comparison when an analytic hint is attached, otherwise dyadic partial sums
(deterministic, compensated across blocks) plus a decay-exponent fit on
dyadic anchors, which is Cauchy condensation in numerical form.  Boundary
cases near exponent 1 are reported Inconclusive rather than guessed.

It also provides the null-sequence test backing the classical limit modes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class EnginePolicy:
    n_max: int = 1_000_000
    dyadic_window: int = 8
    exponent_margin: float = 0.05
    tail_tolerance: float = 1e-6
    blowup_threshold: float = 1e6
    null_tolerance: float = 1e-8

    def __post_init__(self):
        if min(self.n_max, self.dyadic_window) < 1 or min(
            self.exponent_margin, self.tail_tolerance,
            self.blowup_threshold, self.null_tolerance,
        ) <= 0:
            raise ParameterError("all policy fields must be positive")
        if self.n_max < 2 ** self.dyadic_window:
            raise ParameterError("n_max must be at least 2**dyadic_window")

    def to_dict(self):
        return {
            "n_max": self.n_max,
            "dyadic_window": self.dyadic_window,
            "exponent_margin": self.exponent_margin,
            "tail_tolerance": self.tail_tolerance,
            "blowup_threshold": self.blowup_threshold,
            "null_tolerance": self.null_tolerance,
        }


DEFAULT_POLICY = EnginePolicy()


@dataclass(frozen=True)
class AnalyticHint:
    """Closed-form knowledge about the term sequence.

    kind "power": a_n ~ constant * n**(-exponent) (exact asymptotics).
    kind "eventually_zero": a_n = 0 for all n > start.
    kind "eventually_constant": a_n = level for all n > start.
    """

    kind: str
    exponent: Optional[float] = None
    constant: Optional[float] = None
    level: Optional[float] = None
    start: int = 1

    def __post_init__(self):
        if self.kind not in ("power", "eventually_zero", "eventually_constant"):
            raise ParameterError(f"unknown hint kind {self.kind!r}")
        if self.kind == "power" and self.exponent is None:
            raise ParameterError("power hint needs an exponent")
        if self.kind == "eventually_constant" and self.level is None:
            raise ParameterError("eventually_constant hint needs a level")

    def to_dict(self):
        d = {"kind": self.kind}
        for k in ("exponent", "constant", "level"):
            if getattr(self, k) is not None:
                d[k] = getattr(self, k)
        if self.start != 1:
            d["start"] = self.start
        return d


class AllTermsZero(Exception):
    """Raised by the anchor fit when fewer than 3 anchors in its window have
    a positive term, in particular when every anchor term is zero; the
    caller maps this to a convergent (in fact finite) series."""


class TermSource:
    """A nonnegative sequence a_n, n >= 1, behind every summability mode.

    The generator maps a numpy integer array to a float array.  dense_cap
    limits how far the engine evaluates terms densely; expensive generators
    (per-term quadrature) set it low and rely on hints or anchor fits.
    """

    def __init__(self, generator, hint=None, dense_cap=None, length=None):
        self.generator = generator
        self.hint = hint
        self.dense_cap = dense_cap
        self.length = length

    @classmethod
    def from_scalar(cls, fn, dense_cap):
        def gen(ns):
            return np.array([float(fn(int(n))) for n in ns], dtype=float)

        return cls(gen, dense_cap=dense_cap)

    @classmethod
    def from_values(cls, values):
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise ParameterError("empty term list")

        def gen(ns):
            return arr[np.asarray(ns, dtype=int) - 1]

        return cls(gen, length=arr.size)

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
        n = policy.n_max
        if self.length is not None:
            n = min(n, self.length)
        if self.dense_cap is not None:
            n = min(n, self.dense_cap)
        return max(n, 2)


@dataclass(frozen=True)
class SeriesVerdict:
    klass: str  # "converges" | "diverges" | "inconclusive"
    sum_estimate: Optional[float] = None
    tail_bound: Optional[float] = None
    evidence: dict = field(default_factory=dict)
    p_hat: Optional[float] = None
    ci_halfwidth: Optional[float] = None
    n_used: int = 0

    @property
    def converges(self):
        return self.klass == "converges"

    @property
    def diverges(self):
        return self.klass == "diverges"

    def to_dict(self):
        d = {"class": self.klass, "n_used": self.n_used, "evidence": dict(self.evidence)}
        for k in ("sum_estimate", "tail_bound", "p_hat", "ci_halfwidth"):
            v = getattr(self, k)
            if v is not None:
                d[k] = v
        return d


@dataclass(frozen=True)
class NullVerdict:
    klass: str  # "tends_to_zero" | "stays_above" | "inconclusive"
    level: Optional[float] = None
    p_hat: Optional[float] = None
    ci_halfwidth: Optional[float] = None
    n_used: int = 0

    @property
    def tends_to_zero(self):
        return self.klass == "tends_to_zero"

    def to_dict(self):
        d = {"class": self.klass, "n_used": self.n_used}
        for k in ("level", "p_hat", "ci_halfwidth"):
            v = getattr(self, k)
            if v is not None:
                d[k] = v
        return d


def _neumaier(values):
    """Compensated sum of a short list of block sums; order-independent
    rounding error."""
    s = 0.0
    c = 0.0
    for v in values:
        t = s + v
        if abs(s) >= abs(v):
            c += (s - t) + v
        else:
            c += (v - t) + s
        s = t
    return s + c


# Most terms one generator call evaluates.  Longer blocks are generated in
# pieces, so the scan's working set does not grow with its horizon: whole,
# the last block below n_max = 10**6 (475713 terms) held ~25 MB of numpy
# temporaries in the ex32 s2d generator.
_CHUNK = 1 << 16


def _block(src, lo, hi):
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
    sum1, first, _, min1, max1 = _block(src, lo, mid)
    sum2, _, last, min2, max2 = _block(src, mid, hi)
    return sum1 + sum2, first, last, min(min1, min2), max(max1, max2)


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
    """Least-squares decay exponent from log terms at dyadic anchors."""
    ns = np.asarray(anchor_ns, dtype=float)
    vals = np.asarray(anchor_vals, dtype=float)
    pos = vals > 0.0
    ns, vals = ns[pos], vals[pos]
    if ns.size == 0:
        raise AllTermsZero
    ns, vals = ns[-window:], vals[-window:]
    if ns.size < 3:
        raise AllTermsZero
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


def _fit_block_starts(src, n_max, window):
    """_anchor_fit on the terms at the dyadic block starts 1, 2, 4, ... <= n_max."""
    anchor_ns = [lo for lo, _ in _dyadic_blocks(n_max)]
    anchors = np.concatenate([src.terms(n, n + 1) for n in anchor_ns])
    return _anchor_fit(anchor_ns, anchors, window)


def fit_exponent(src: TermSource, policy: EnginePolicy = DEFAULT_POLICY):
    """Fit a_n ~ C n**(-p) on dyadic anchors; returns (p_hat, ci_halfwidth).

    Raises AllTermsZero when fewer than 3 of the last policy.dyadic_window
    anchors have a positive term.
    """
    return _fit_block_starts(src, src.effective_n_max(policy), policy.dyadic_window)


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


# A hinted power series stops scanning once its tail sandwich is this fraction
# of policy.tail_tolerance: the verdict is already settled by the hint, and
# further terms only refine sum_estimate.
_HORIZON_FRACTION = 0.1


def _dense_scan(src, policy, n_max, exponent=None):
    """Dense dyadic-block scan: partial sums, anchors, blowup detection.

    With a known power-law exponent > 1 the scan stops early, after at least
    policy.dyadic_window blocks, at the first block whose last term is positive
    and whose _power_tail sandwich is narrower than
    _HORIZON_FRACTION * policy.tail_tolerance.
    """
    block_sums = []
    anchor_ns = []
    anchor_vals = []
    partial = 0.0
    blowup_at = None
    last_max = None
    a_last = 0.0
    n_last = 0
    for lo, hi in _dyadic_blocks(n_max):
        # pairwise numpy summation inside the block (deterministic for a fixed
        # block layout), compensated accumulation across blocks
        block_sum, first, a_last, _, last_max = _block(src, lo, hi)
        block_sums.append(block_sum)
        partial = _neumaier(block_sums)
        anchor_ns.append(lo)
        anchor_vals.append(first)
        n_last = hi - 1
        if partial > policy.blowup_threshold and blowup_at is None:
            blowup_at = hi - 1
            break
        if (
            exponent is not None
            and len(block_sums) >= policy.dyadic_window
            and a_last > 0.0
            and _power_tail(partial, a_last, n_last, exponent)[1]
            < _HORIZON_FRACTION * policy.tail_tolerance
        ):
            break
    return {
        "partial": partial,
        "anchor_ns": anchor_ns,
        "anchor_vals": anchor_vals,
        "blowup_at": blowup_at,
        "last_max": last_max,
        "a_last": a_last,
        "n_last": n_last,
    }


def _analyze_with_hint(src, policy):
    hint = src.hint
    n_max = src.effective_n_max(policy)
    if hint.kind == "eventually_zero" or (
        hint.kind == "eventually_constant" and hint.level == 0.0
    ):
        upto = min(max(hint.start, 1), n_max)
        scan = _dense_scan(src, policy, upto)
        return SeriesVerdict(
            "converges",
            sum_estimate=scan["partial"],
            tail_bound=0.0,
            evidence={"method": "analytic_hint", "hint": hint.to_dict()},
            n_used=upto,
        )
    if hint.kind == "eventually_constant":
        return SeriesVerdict(
            "diverges",
            evidence={
                "method": "analytic_hint",
                "hint": hint.to_dict(),
                "detail": f"terms stay at level {hint.level}",
            },
            n_used=0,
        )
    # power hint: exact p-series comparison
    p = hint.exponent
    if p <= 1.0:
        return SeriesVerdict(
            "diverges",
            p_hat=p,
            ci_halfwidth=0.0,
            evidence={"method": "analytic_hint", "hint": hint.to_dict()},
            n_used=0,
        )
    scan = _dense_scan(src, policy, n_max, exponent=p)
    est, bound = _power_tail(scan["partial"], scan["a_last"], scan["n_last"], p)
    return SeriesVerdict(
        "converges",
        sum_estimate=est,
        tail_bound=bound,
        p_hat=p,
        ci_halfwidth=0.0,
        evidence={"method": "analytic_hint", "hint": hint.to_dict()},
        n_used=scan["n_last"],
    )


def analyze_series(src: TermSource, policy: EnginePolicy = DEFAULT_POLICY) -> SeriesVerdict:
    """Classify sum a_n as convergent/divergent/inconclusive with evidence."""
    if src.hint is not None:
        return _analyze_with_hint(src, policy)
    n_max = src.effective_n_max(policy)
    scan = _dense_scan(src, policy, n_max)
    n_used = scan["n_last"]
    if scan["blowup_at"] is not None:
        return SeriesVerdict(
            "diverges",
            evidence={
                "method": "partial_sum_blowup",
                "threshold": policy.blowup_threshold,
                "at_n": scan["blowup_at"],
            },
            n_used=scan["blowup_at"],
        )
    if scan["last_max"] == 0.0:
        # terms have died out within the probed range
        return SeriesVerdict(
            "converges",
            sum_estimate=scan["partial"],
            tail_bound=0.0,
            evidence={"method": "eventually_zero_observed"},
            n_used=n_used,
        )
    try:
        p_hat, ci = _anchor_fit(
            scan["anchor_ns"], scan["anchor_vals"], policy.dyadic_window
        )
    except AllTermsZero:
        return SeriesVerdict(
            "converges",
            sum_estimate=scan["partial"],
            tail_bound=0.0,
            evidence={"method": "eventually_zero_observed"},
            n_used=n_used,
        )
    if p_hat + ci <= 1.0 + policy.exponent_margin:
        return SeriesVerdict(
            "diverges",
            p_hat=p_hat,
            ci_halfwidth=ci,
            evidence={"method": "exponent_fit"},
            n_used=n_used,
        )
    if p_hat - ci >= 1.0 + policy.exponent_margin:
        est, bound = _power_tail(scan["partial"], scan["a_last"], n_used, p_hat)
        if bound < policy.tail_tolerance:
            return SeriesVerdict(
                "converges",
                sum_estimate=est,
                tail_bound=bound,
                p_hat=p_hat,
                ci_halfwidth=ci,
                evidence={"method": "exponent_fit"},
                n_used=n_used,
            )
        return SeriesVerdict(
            "inconclusive",
            p_hat=p_hat,
            ci_halfwidth=ci,
            evidence={"method": "tail_above_tolerance", "tail_bound": bound},
            n_used=n_used,
        )
    return SeriesVerdict(
        "inconclusive",
        p_hat=p_hat,
        ci_halfwidth=ci,
        evidence={"method": "exponent_near_boundary"},
        n_used=n_used,
    )


def null_sequence_test(src: TermSource, policy: EnginePolicy = DEFAULT_POLICY) -> NullVerdict:
    """Decide whether a_n -> 0: the test behind the classical limit modes."""
    hint = src.hint
    if hint is not None:
        if hint.kind == "power":
            if hint.exponent > 0:
                return NullVerdict("tends_to_zero", p_hat=hint.exponent, ci_halfwidth=0.0)
            if hint.exponent < 0:
                return NullVerdict("stays_above")
        elif hint.kind == "eventually_zero":
            return NullVerdict("tends_to_zero")
        elif hint.kind == "eventually_constant":
            if hint.level > policy.null_tolerance:
                return NullVerdict("stays_above", level=hint.level)
            return NullVerdict("tends_to_zero")
    n_max = src.effective_n_max(policy)
    blocks = _dyadic_blocks(n_max)
    lo, hi = blocks[-1]
    _, _, _, last_min, last_max = _block(src, lo, hi)
    n_used = hi - 1
    if last_max < policy.null_tolerance:
        return NullVerdict("tends_to_zero", n_used=n_used)
    try:
        p_hat, ci = _fit_block_starts(src, n_max, policy.dyadic_window)
    except AllTermsZero:
        return NullVerdict("tends_to_zero", n_used=n_used)
    if p_hat - ci > 0.02:
        return NullVerdict("tends_to_zero", p_hat=p_hat, ci_halfwidth=ci, n_used=n_used)
    level = last_min
    if abs(p_hat) <= 0.02 and ci <= 0.02 and level > policy.null_tolerance:
        return NullVerdict(
            "stays_above", level=level, p_hat=p_hat, ci_halfwidth=ci, n_used=n_used
        )
    return NullVerdict("inconclusive", p_hat=p_hat, ci_halfwidth=ci, n_used=n_used)


def load_terms_csv(path):
    """Read a term stream: one nonnegative decimal per line, header optional."""
    values = []
    try:
        with open(path, newline="") as fh:
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    if not values:
        raise ParameterError(f"no terms found in {path}")
    return TermSource.from_values(values)
