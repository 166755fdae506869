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
import itertools
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
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

    @cached_property
    def evidence(self):
        """The evidence dict of every verdict resting on this hint, built
        once and shared by those verdicts (their to_dict() copies it)."""
        d = {"method": "analytic_hint", "hint": self.to_dict()}
        if self.kind == "eventually_constant" and self.level != 0.0:
            d["detail"] = f"terms stay at level {self.level}"
        return d


class TooFewAnchors(Exception):
    """Raised by the anchor fit when fewer anchors than its window have a
    positive term, too few to fit a decay exponent with any confidence."""


class TermSource:
    """A nonnegative sequence a_n, n >= 1, behind every summability mode.

    The generator maps a numpy integer array to a float array; the engine
    always passes it an ascending run of consecutive indices.  horizon caps
    how far the engine evaluates terms: a finite stream sets its length, and
    expensive generators (per-term quadrature) set it low and rely on hints
    or anchor fits.

    A source remembers the summary of each dyadic block it has evaluated,
    so a second scan of it (another mode's probe on the same terms) costs
    no terms.
    """

    def __init__(self, generator, hint=None, horizon=None):
        self.generator = generator
        self.hint = hint
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


# evidence of the unhinted outcomes that carry no figures, shared by every
# verdict with that outcome
_EXPONENT_FIT = {"method": "exponent_fit"}
_NEAR_BOUNDARY = {"method": "exponent_near_boundary"}
_ZERO_OBSERVED = {"method": "eventually_zero_observed"}
_TOO_FEW_ANCHORS = {"method": "too_few_positive_anchors"}


@dataclass(frozen=True, slots=True)
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
        d = {"class": self.klass, "n_used": self.n_used,
             "evidence": fresh(self.evidence)}
        for k in ("sum_estimate", "tail_bound", "p_hat", "ci_halfwidth"):
            v = getattr(self, k)
            if v is not None:
                d[k] = v
        return d


@dataclass(frozen=True, slots=True)
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


# Most terms one generator call evaluates; longer blocks are generated in
# pieces, so the scan's working set does not grow with its horizon.  A
# generator makes several numpy temporaries of this length (about six for a
# two-atom mean).  At 2**13 each is 64 KiB and glibc's heap reuses them from
# call to call.  At 2**16 each is 512 KiB, and glibc gives every freed one
# back to the kernel (by munmap or by trimming the heap), so each chunk
# faults in zeroed pages again: a warm unhinted 10**6-term scan then takes
# ~12,500 minor faults instead of none.  Below 2**13 the Python overhead per
# call dominates.  _summaries keeps the sums bit-identical for any _CHUNK of
# at least 128, numpy's pairwise block size.
_CHUNK = 1 << 13


def _summaries(srcs, lo, hi):
    """[(sum, first, last, min, max) of src.terms(lo, hi) for src in srcs],
    generated at most _CHUNK terms at a time, every source's chunk in turn
    before the next chunk.  A longer range is halved where numpy's pairwise
    summation halves a contiguous array, so each sum is np.sum of the whole
    block to the bit."""
    n = hi - lo
    if n <= _CHUNK:
        out = []
        for src in srcs:
            arr = src.terms(lo, hi)
            out.append((float(np.sum(arr)), float(arr[0]), float(arr[-1]),
                        float(arr.min()), float(arr.max())))
        return out
    half = n // 2
    mid = lo + half - half % 8
    return [(sum1 + sum2, first, last, min(min1, min2), max(max1, max2))
            for (sum1, first, _, min1, max1), (sum2, _, last, min2, max2)
            in zip(_summaries(srcs, lo, mid), _summaries(srcs, mid, hi))]


def _fill(srcs, lo, hi):
    """Evaluate block [lo, hi) for those of srcs that have not yet, together."""
    todo = [src for src in srcs if (lo, hi) not in src._blocks]
    if todo:
        for src, summary in zip(todo, _summaries(todo, lo, hi)):
            src._blocks[(lo, hi)] = summary


def _block(src, lo, hi, companions=()):
    """(sum, first, last, min, max) of src.terms(lo, hi), evaluated once, and
    together with the companions' blocks [lo, hi) where they miss it too."""
    _fill([src, *companions], lo, hi)
    return src._blocks[(lo, hi)]


def _companions(src, policy, n_max, group):
    """The other unhinted sources of src's group with src's horizon: their
    blocks coincide with src's, so src's scan can evaluate theirs
    alongside."""
    return [s for s in dict.fromkeys(group)
            if s is not src and s.hint is None and s.effective_n_max(policy) == n_max]


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


def _fit_block_starts(src, n_max, window):
    """_anchor_fit on the terms at the dyadic block starts 1, 2, 4, ... <= n_max.
    Each is its block's first term, read from the block memo where the
    block has been evaluated and evaluated on its own where not."""
    blocks = _dyadic_blocks(n_max)
    anchors = [src._blocks[b][1] if b in src._blocks else src.terms(b[0], b[0] + 1)[0]
               for b in blocks]
    return _anchor_fit([lo for lo, _ in blocks], anchors, window)


def fit_exponent(src: TermSource, policy: EnginePolicy = DEFAULT_POLICY):
    """Fit a_n ~ C n**(-p) on dyadic anchors; returns (p_hat, ci_halfwidth).

    Raises TooFewAnchors when fewer than policy.dyadic_window anchors have
    a positive term.
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


class _Scan:
    """One source's dense dyadic-block scan: partial sums and blowup
    detection.

    With a known power-law exponent > 1 the scan stops early, after at least
    policy.dyadic_window blocks, at the first block whose last term is positive
    and whose _power_tail sandwich is narrower than
    _HORIZON_FRACTION * policy.tail_tolerance.
    """

    def __init__(self, src, policy, exponent=None):
        self.src = src
        self.policy = policy
        self.exponent = exponent
        self.block_sums = []
        self.partial = 0.0
        self.blowup_at = None
        self.last_max = None
        self.a_last = 0.0
        self.n_last = 0
        self.done = False

    def add(self, lo, hi):
        # pairwise numpy summation inside the block (deterministic for a fixed
        # block layout), compensated accumulation across blocks
        block_sum, _, self.a_last, _, self.last_max = self.src._blocks[(lo, hi)]
        self.block_sums.append(block_sum)
        self.partial = _neumaier(self.block_sums)
        self.n_last = hi - 1
        policy = self.policy
        if self.partial > policy.blowup_threshold:
            self.blowup_at = hi - 1
            self.done = True
        elif (
            self.exponent is not None
            and len(self.block_sums) >= policy.dyadic_window
            and self.a_last > 0.0
            and _power_tail(self.partial, self.a_last, self.n_last, self.exponent)[1]
            < _HORIZON_FRACTION * policy.tail_tolerance
        ):
            self.done = True


def _dense_scan(src, policy, n_max, exponent=None, group=()):
    """src's _Scan up to n_max.  An unhinted scan runs its companions' scans
    in step with its own, each to its own stop, so that every block any of
    them reads is evaluated for all of them at once."""
    scan = _Scan(src, policy, exponent)
    scans = [scan] + [_Scan(s, policy) for s in _companions(src, policy, n_max, group)]
    for lo, hi in _dyadic_blocks(n_max):
        if scan.done:
            break
        live = [sc for sc in scans if not sc.done]
        _fill([sc.src for sc in live], lo, hi)
        for sc in live:
            sc.add(lo, hi)
    return scan


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
            sum_estimate=scan.partial,
            tail_bound=0.0,
            evidence=hint.evidence,
            n_used=upto,
        )
    if hint.kind == "eventually_constant":
        return SeriesVerdict("diverges", evidence=hint.evidence, n_used=0)
    # power hint: exact p-series comparison
    p = hint.exponent
    if p <= 1.0:
        return SeriesVerdict(
            "diverges",
            p_hat=p,
            ci_halfwidth=0.0,
            evidence=hint.evidence,
            n_used=0,
        )
    scan = _dense_scan(src, policy, n_max, exponent=p)
    est, bound = _power_tail(scan.partial, scan.a_last, scan.n_last, p)
    return SeriesVerdict(
        "converges",
        sum_estimate=est,
        tail_bound=bound,
        p_hat=p,
        ci_halfwidth=0.0,
        evidence=hint.evidence,
        n_used=scan.n_last,
    )


def analyze_series(src: TermSource, policy: EnginePolicy = DEFAULT_POLICY,
                   group=()) -> SeriesVerdict:
    """Classify sum a_n as convergent/divergent/inconclusive with evidence.

    group names the sources checked alongside src (one mode's probes): an
    unhinted scan evaluates each block it misses for every unhinted member
    with its horizon whose own scan would read it next, chunk by chunk, so a
    generator can share per-chunk work between them."""
    if src.hint is not None:
        return _analyze_with_hint(src, policy)
    n_max = src.effective_n_max(policy)
    scan = _dense_scan(src, policy, n_max, group=group)
    n_used = scan.n_last
    if scan.blowup_at is not None:
        return SeriesVerdict(
            "diverges",
            evidence={
                "method": "partial_sum_blowup",
                "threshold": policy.blowup_threshold,
                "at_n": scan.blowup_at,
            },
            n_used=scan.blowup_at,
        )
    if scan.last_max == 0.0:
        # terms have died out within the probed range
        return SeriesVerdict(
            "converges",
            sum_estimate=scan.partial,
            tail_bound=0.0,
            evidence=_ZERO_OBSERVED,
            n_used=n_used,
        )
    try:
        p_hat, ci = _fit_block_starts(src, n_max, policy.dyadic_window)
    except TooFewAnchors:
        # the last block is positive, but too few anchors are to fit a decay
        return SeriesVerdict("inconclusive", evidence=_TOO_FEW_ANCHORS, n_used=n_used)
    # divergence needs an interval that reaches 1; one wholly inside
    # (1, 1 + exponent_margin] is near the boundary
    if p_hat - ci <= 1.0 and p_hat + ci <= 1.0 + policy.exponent_margin:
        return SeriesVerdict(
            "diverges",
            p_hat=p_hat,
            ci_halfwidth=ci,
            evidence=_EXPONENT_FIT,
            n_used=n_used,
        )
    if p_hat - ci >= 1.0 + policy.exponent_margin:
        est, bound = _power_tail(scan.partial, scan.a_last, n_used, p_hat)
        if bound < policy.tail_tolerance:
            return SeriesVerdict(
                "converges",
                sum_estimate=est,
                tail_bound=bound,
                p_hat=p_hat,
                ci_halfwidth=ci,
                evidence=_EXPONENT_FIT,
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
        evidence=_NEAR_BOUNDARY,
        n_used=n_used,
    )


def null_sequence_test(src: TermSource, policy: EnginePolicy = DEFAULT_POLICY,
                       group=()) -> NullVerdict:
    """Decide whether a_n -> 0: the test behind the classical limit modes.
    group is as for analyze_series."""
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
    lo, hi = _dyadic_blocks(n_max)[-1]
    # every companion's null test reads this same last block
    _, _, _, last_min, last_max = _block(src, lo, hi, _companions(src, policy, n_max, group))
    n_used = hi - 1
    if last_max < policy.null_tolerance:
        return NullVerdict("tends_to_zero", n_used=n_used)
    try:
        p_hat, ci = _fit_block_starts(src, n_max, policy.dyadic_window)
    except TooFewAnchors:
        # the last block is not small, but too few anchors are to fit a decay
        return NullVerdict("inconclusive", n_used=n_used)
    if p_hat - ci > 0.02:
        return NullVerdict("tends_to_zero", p_hat=p_hat, ci_halfwidth=ci, n_used=n_used)
    # a flat fit whose interval reaches 0, with terms above the tolerance
    level = last_min
    if (abs(p_hat) <= 0.02 and ci <= 0.02 and p_hat - ci <= 0.0
            and level > policy.null_tolerance):
        return NullVerdict(
            "stays_above", level=level, p_hat=p_hat, ci_halfwidth=ci, n_used=n_used
        )
    return NullVerdict("inconclusive", p_hat=p_hat, ci_halfwidth=ci, n_used=n_used)


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
