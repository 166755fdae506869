"""Exact random variables on the unit-interval probability space.

The sample space is ((0,1), Borel, Lebesgue).  A random variable is an
ordered list of half-open pieces [a, b) partitioning (0,1); on each piece the
value is a constant, an affine function of omega, or the quantile function of
a declared density, optionally wrapped in a per-piece affine transform, with
one more affine transform applied to the whole variable.  This class of
functions is closed under shifts, scaling and absolute differences, so CDFs
and essential suprema come out exact and expectations reduce to atom sums
plus one-dimensional quadrature of smooth integrands.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .errors import AccuracyError, ParameterError, RepresentationError

_MASS_TOL = 1e-9


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call: most commands never
    integrate numerically, and the import dominates the package's load time."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def require_omega(omega):
    """Validate a sample point: must lie strictly inside (0,1)."""
    w = float(omega)
    if not 0.0 < w < 1.0:
        raise ParameterError(f"omega must lie in (0,1), got {omega!r}")
    return w


@dataclass(frozen=True)
class PowerAtOne:
    """Density (1-alpha)*(1-u)**(-alpha) on (0,1), 0 < alpha < 1.

    The density blows up at u=1 but stays integrable; all operations go
    through the closed-form CDF and quantile, so the singularity never
    reaches a quadrature kernel.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError(f"PowerAtOne needs 0 < alpha < 1, got {self.alpha}")

    def pdf(self, u):
        return (1.0 - self.alpha) * (1.0 - u) ** (-self.alpha)

    def cdf(self, x):
        """F(x) = 1 - (1-x)^(1-alpha) on (0,1); also the quantile inverse."""
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return 1.0 - (1.0 - x) ** (1.0 - self.alpha)

    def quantile(self, w):
        """Q(w) = 1 - (1-w)^(1/(1-alpha)), defined on [0,1]."""
        if w <= 0.0:
            return 0.0
        if w >= 1.0:
            return 1.0
        return 1.0 - (1.0 - w) ** (1.0 / (1.0 - self.alpha))

    def quantile_antiderivative(self, w):
        """An antiderivative of Q, for exact truncated first moments."""
        q = 1.0 / (1.0 - self.alpha)
        return w + (1.0 - w) ** (q + 1.0) / (q + 1.0)


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class AffineInOmega:
    slope: float
    intercept: float


@dataclass(frozen=True)
class QuantileOfDensity:
    density: PowerAtOne


@dataclass(frozen=True)
class Piece:
    """One half-open interval [lo, hi) with value scale*expr(omega)+shift."""

    lo: float
    hi: float
    expr: object
    scale: float = 1.0
    shift: float = 0.0


@dataclass(frozen=True)
class _CanonPiece:
    """Piece with all affine wrapping folded in: value = A*base(w) + B.

    kind is "const" (value B), "omega" (base w) or "quantile" (base Q(w)).
    """

    lo: float
    hi: float
    kind: str
    A: float
    B: float
    dens: PowerAtOne = None

    def base(self, w):
        if self.kind == "omega":
            return w
        if self.kind == "quantile":
            return self.dens.quantile(w)
        return 0.0

    def value(self, w):
        if self.kind == "const":
            return self.B
        return self.A * self.base(w) + self.B

    def endpoint_values(self):
        """Limits of the value at both interval endpoints."""
        if self.kind == "const":
            return self.B, self.B
        return self.value(self.lo), self.value(self.hi)


@dataclass(frozen=True)
class RandomVariable:
    pieces: tuple
    post_scale: float = 1.0
    post_shift: float = 0.0

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise RepresentationError("random variable needs at least one piece")
        prev = 0.0
        for p in pieces:
            if not p.lo < p.hi:
                raise RepresentationError(f"empty or inverted piece [{p.lo}, {p.hi})")
            if abs(p.lo - prev) > 1e-12:
                raise RepresentationError(
                    f"pieces must partition (0,1): gap/overlap at {p.lo} (expected {prev})"
                )
            prev = p.hi
        if abs(prev - 1.0) > 1e-12:
            raise RepresentationError(f"pieces must end at 1, last hi is {prev}")
        object.__setattr__(self, "_starts", tuple(p.lo for p in pieces))
        object.__setattr__(self, "_canon", tuple(self._canonical(p) for p in pieces))

    def _canonical(self, p):
        ps, pf = self.post_scale, self.post_shift
        if isinstance(p.expr, Constant):
            v = ps * (p.scale * p.expr.value + p.shift) + pf
            return _CanonPiece(p.lo, p.hi, "const", 0.0, v)
        if isinstance(p.expr, AffineInOmega):
            a = ps * p.scale * p.expr.slope
            b = ps * (p.scale * p.expr.intercept + p.shift) + pf
            if a == 0.0:
                return _CanonPiece(p.lo, p.hi, "const", 0.0, b)
            return _CanonPiece(p.lo, p.hi, "omega", a, b)
        if isinstance(p.expr, QuantileOfDensity):
            a = ps * p.scale
            b = ps * p.shift + pf
            if a == 0.0:
                return _CanonPiece(p.lo, p.hi, "const", 0.0, b)
            return _CanonPiece(p.lo, p.hi, "quantile", a, b, p.expr.density)
        raise RepresentationError(f"unknown piece expression {p.expr!r}")

    def canonical_pieces(self):
        return self._canon

    def __call__(self, omega):
        w = require_omega(omega)
        i = bisect_right(self._starts, w) - 1
        return self._canon[i].value(w)

    def shifted(self, c):
        """The random variable X + c."""
        return RandomVariable(self.pieces, self.post_scale, self.post_shift + c)

    def scaled(self, s):
        """The random variable s*X."""
        return RandomVariable(self.pieces, s * self.post_scale, s * self.post_shift)


def constant_rv(c):
    return RandomVariable((Piece(0.0, 1.0, Constant(float(c))),))


def uniform_rv():
    """Uniform(0,1): the identity on the sample space."""
    return RandomVariable((Piece(0.0, 1.0, AffineInOmega(1.0, 0.0)),))


def density_rv(density: PowerAtOne):
    """The variable distributed with the given density, realised as its
    quantile function of omega."""
    return RandomVariable((Piece(0.0, 1.0, QuantileOfDensity(density)),))


# ---------------------------------------------------------------------------
# CDF


class _AffineSegment:
    def __init__(self, lo, hi, A, B):
        self.lo, self.hi, self.A, self.B = lo, hi, A, B
        self.mass = hi - lo

    def measure_below(self, x):
        w = (x - self.B) / self.A
        if self.A > 0:
            return min(max(w - self.lo, 0.0), self.mass)
        return min(max(self.hi - w, 0.0), self.mass)


class _QuantileSegment:
    def __init__(self, lo, hi, A, B, dens):
        self.lo, self.hi, self.A, self.B, self.dens = lo, hi, A, B, dens
        self.mass = hi - lo

    def measure_below(self, x):
        y = (x - self.B) / self.A
        w = self.dens.cdf(y)
        if self.A > 0:
            return min(max(w - self.lo, 0.0), self.mass)
        return min(max(self.hi - w, 0.0), self.mass)


class Cdf:
    """Distribution function with explicit atoms and continuous segments."""

    def __init__(self, atoms, segments):
        self.atoms = tuple(sorted(atoms))  # (x, mass), mass > 0
        self.segments = tuple(segments)
        total = sum(m for _, m in self.atoms) + sum(s.mass for s in self.segments)
        if abs(total - 1.0) > _MASS_TOL:
            raise RepresentationError(f"total probability mass is {total}, not 1")

    @property
    def jump_points(self):
        return tuple(x for x, _ in self.atoms)

    def __call__(self, x):
        """P(X <= x)."""
        total = sum(m for ax, m in self.atoms if ax <= x)
        total += sum(s.measure_below(x) for s in self.segments)
        return min(total, 1.0)

    def prob_at(self, x, tol=1e-12):
        """Mass of the atom at x (0 if none)."""
        return sum(m for ax, m in self.atoms if abs(ax - x) <= tol)

    def prob_below(self, x):
        """P(X < x), the left limit of the CDF at x."""
        return self(x) - self.prob_at(x)

    def is_continuity_point(self, x, tol=1e-9):
        return all(abs(ax - x) > tol for ax, _ in self.atoms)


def cdf(rv: RandomVariable) -> Cdf:
    """Exact CDF: constant pieces become atoms, monotone pieces become
    continuous segments evaluated by inverting the piece."""
    atom_masses = {}
    segments = []
    for cp in rv.canonical_pieces():
        if cp.kind == "const":
            atom_masses[cp.B] = atom_masses.get(cp.B, 0.0) + (cp.hi - cp.lo)
        elif cp.kind == "omega":
            segments.append(_AffineSegment(cp.lo, cp.hi, cp.A, cp.B))
        else:
            segments.append(_QuantileSegment(cp.lo, cp.hi, cp.A, cp.B, cp.dens))
    atoms = [(x, m) for x, m in atom_masses.items() if m > 0.0]
    return Cdf(atoms, segments)


# ---------------------------------------------------------------------------
# Expectation and friends


def _inverse_base(cp, y):
    """Solve base(w) = y on the piece; None if out of range."""
    if cp.kind == "omega":
        w = y
    else:
        if not 0.0 <= y <= 1.0:
            return None
        w = cp.dens.cdf(y)
    if cp.lo < w < cp.hi:
        return w
    return None


def _omega_breaks(cp, value_breaks):
    """Map value-space breakpoints (e.g. an indicator threshold) to omega
    breakpoints inside this piece so quadrature can subdivide there."""
    pts = []
    for v in value_breaks:
        y = (v - cp.B) / cp.A
        w = _inverse_base(cp, y)
        if w is not None:
            pts.append(w)
    return sorted(pts)


def expectation(rv, g, tol=1e-10, value_breaks=()):
    """E[g(X)] with an absolute error bound.

    Atoms are summed exactly; smooth pieces are integrated adaptively.
    `value_breaks` lists values of X where g is allowed to be discontinuous;
    they are translated to quadrature breakpoints.  Raises AccuracyError if
    the combined quadrature error exceeds the tolerance.
    """
    smooth = [cp for cp in rv.canonical_pieces() if cp.kind != "const"]
    total = 0.0
    err = 0.0
    for cp in rv.canonical_pieces():
        if cp.kind == "const":
            total += (cp.hi - cp.lo) * g(cp.B)
            continue
        pts = _omega_breaks(cp, value_breaks)
        val, e = quad(
            lambda w, cp=cp: g(cp.value(w)),
            cp.lo,
            cp.hi,
            epsabs=tol / max(1, len(smooth)),
            epsrel=0.0,
            limit=200,
            points=pts or None,
        )
        total += val
        err += e
    if err > tol:
        raise AccuracyError(
            f"quadrature error {err:.3e} exceeds tolerance {tol:.3e}",
            estimate=total,
            error=err,
        )
    return total, err


def expectation_joint(rv1, rv2, h, tol=1e-9):
    """E[h(X, Y)] for two variables coupled on the same space, by direct
    quadrature over omega on merged piece boundaries."""
    bounds = sorted({cp.lo for cp in rv1.canonical_pieces()}
                    | {cp.lo for cp in rv2.canonical_pieces()} | {1.0})
    total = 0.0
    err = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo <= 0.0:
            continue
        c1 = _piece_at(rv1, lo)
        c2 = _piece_at(rv2, lo)
        if c1.kind == "const" and c2.kind == "const":
            total += (hi - lo) * h(c1.B, c2.B)
            continue
        val, e = quad(
            lambda w, c1=c1, c2=c2: h(c1.value(w), c2.value(w)),
            lo,
            hi,
            epsabs=tol / max(1, len(bounds)),
            epsrel=0.0,
            limit=200,
        )
        total += val
        err += e
    if err > tol:
        raise AccuracyError(
            f"quadrature error {err:.3e} exceeds tolerance {tol:.3e}",
            estimate=total,
            error=err,
        )
    return total, err


def sup_norm(rv):
    """Essential supremum of |X|, from piece endpoint limits (open-endpoint
    limits, so single points never contribute)."""
    best = 0.0
    for cp in rv.canonical_pieces():
        va, vb = cp.endpoint_values()
        best = max(best, abs(va), abs(vb))
    return best


def char_fn(rv, t, tol=1e-10):
    """E[exp(i*t*X)]: exact sums over constant and affine pieces plus
    oscillation-aware quadrature of the real and imaginary parts on quantile
    pieces."""
    t = float(t)
    if t == 0.0:
        return complex(1.0, 0.0)
    re = 0.0
    im = 0.0
    err = 0.0
    quantile_pieces = [cp for cp in rv.canonical_pieces() if cp.kind == "quantile"]
    for cp in rv.canonical_pieces():
        if cp.kind != "quantile":
            # the integral of exp(i*t*(A*w + B)) over [lo, hi) is
            # (hi - lo) * sinc(h) * exp(i*t*(A*mid + B)), h = t*A*(hi - lo)/2;
            # constant pieces have A = 0, so theirs is the exact atom term
            m = cp.hi - cp.lo
            h = 0.5 * t * cp.A * m
            sinc = math.sin(h) / h if h != 0.0 else 1.0
            phase = t * (cp.A * 0.5 * (cp.lo + cp.hi) + cp.B)
            re += m * sinc * math.cos(phase)
            im += m * sinc * math.sin(phase)
            continue
        # subdivision budget grows with the oscillation count on the piece
        lim = 50 + int(10.0 * abs(t) * (cp.hi - cp.lo))
        epsabs = tol / max(1, 2 * len(quantile_pieces))
        vr, er = quad(lambda w, cp=cp: math.cos(t * cp.value(w)),
                      cp.lo, cp.hi, epsabs=epsabs, epsrel=0.0, limit=lim)
        vi, ei = quad(lambda w, cp=cp: math.sin(t * cp.value(w)),
                      cp.lo, cp.hi, epsabs=epsabs, epsrel=0.0, limit=lim)
        re += vr
        im += vi
        err += er + ei
    if err > tol:
        raise AccuracyError(
            f"quadrature error {err:.3e} exceeds tolerance {tol:.3e}",
            estimate=complex(re, im),
            error=err,
        )
    return complex(re, im)


# ---------------------------------------------------------------------------
# Absolute difference


def _piece_at(rv, w):
    i = bisect_right(rv._starts, w + 1e-15) - 1
    return rv.canonical_pieces()[i]


def _combine_difference(c1, c2, lo, hi):
    """Canonical (kind, A, B, dens) of value1 - value2 on [lo, hi)."""
    k1, k2 = c1.kind, c2.kind
    if k1 == "quantile" and k2 == "quantile":
        if c1.dens != c2.dens:
            raise RepresentationError(
                "difference of quantile pieces with different densities"
            )
        a, b, dens = c1.A - c2.A, c1.B - c2.B, c1.dens
        return ("const", 0.0, b, None) if a == 0.0 else ("quantile", a, b, dens)
    if {k1, k2} == {"quantile", "omega"}:
        raise RepresentationError(
            "difference of a quantile piece and an affine piece is not "
            "representable in the supported expression set"
        )
    if k1 == "quantile" or k2 == "quantile":
        qp = c1 if k1 == "quantile" else c2
        sign = 1.0 if k1 == "quantile" else -1.0
        a = sign * qp.A
        b = c1.B - c2.B
        return ("quantile", a, b, qp.dens)
    if k1 == "omega" or k2 == "omega":
        a = (c1.A if k1 == "omega" else 0.0) - (c2.A if k2 == "omega" else 0.0)
        b = c1.B - c2.B
        return ("const", 0.0, b, None) if a == 0.0 else ("omega", a, b, None)
    return ("const", 0.0, c1.B - c2.B, None)


def _emit_abs_pieces(kind, a, b, dens, lo, hi, out):
    """Append pieces representing |a*base + b| on [lo, hi)."""

    def base(w):
        return w if kind == "omega" else dens.quantile(w)

    def piece(aa, bb, plo, phi):
        if kind == "omega":
            out.append(Piece(plo, phi, AffineInOmega(aa, bb)))
        else:
            out.append(Piece(plo, phi, QuantileOfDensity(dens), scale=aa, shift=bb))

    if kind == "const":
        out.append(Piece(lo, hi, Constant(abs(b))))
        return
    v_lo = a * base(lo) + b
    v_hi = a * base(hi) + b
    if min(v_lo, v_hi) >= 0.0:
        piece(a, b, lo, hi)
        return
    if max(v_lo, v_hi) <= 0.0:
        piece(-a, -b, lo, hi)
        return
    y0 = -b / a
    w0 = y0 if kind == "omega" else dens.cdf(y0)
    w0 = min(max(w0, lo), hi)
    if w0 <= lo or w0 >= hi:  # crossing collapses to an endpoint numerically
        if abs(v_lo) >= abs(v_hi):
            sign = 1.0 if v_lo > 0 else -1.0
        else:
            sign = 1.0 if v_hi > 0 else -1.0
        piece(sign * a, sign * b, lo, hi)
        return
    if v_lo < 0.0:
        piece(-a, -b, lo, w0)
        piece(a, b, w0, hi)
    else:
        piece(a, b, lo, w0)
        piece(-a, -b, w0, hi)


def diff_abs(rv_n, rv_limit):
    """The random variable |X_n - X| as an exact piecewise representation."""
    bounds = sorted({cp.lo for cp in rv_n.canonical_pieces()}
                    | {cp.lo for cp in rv_limit.canonical_pieces()} | {1.0})
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo <= 0.0:
            continue
        c1 = _piece_at(rv_n, lo)
        c2 = _piece_at(rv_limit, lo)
        kind, a, b, dens = _combine_difference(c1, c2, lo, hi)
        _emit_abs_pieces(kind, a, b, dens, lo, hi, out)
    return RandomVariable(tuple(out))


def truncated_abs_moment(diff_rv, eps):
    """E[D * 1{D < eps}] for a nonnegative piecewise variable D, computed
    with closed-form antiderivatives (no quadrature)."""
    if eps <= 0.0:
        raise ParameterError("eps must be positive")
    total = 0.0
    for cp in diff_rv.canonical_pieces():
        if cp.kind == "const":
            if cp.B < eps:
                total += (cp.hi - cp.lo) * cp.B
            continue
        # value is monotone on the piece; find the sub-interval where it is
        # below eps and integrate the value there in closed form
        y_eps = (eps - cp.B) / cp.A
        w_eps = None
        if cp.kind == "omega":
            w_eps = y_eps
        else:
            w_eps = cp.dens.cdf(min(max(y_eps, 0.0), 1.0))
        w_eps = min(max(w_eps, cp.lo), cp.hi)
        v_lo, v_hi = cp.endpoint_values()
        increasing = v_hi >= v_lo
        if increasing:
            a_int, b_int = cp.lo, (w_eps if v_hi >= eps else cp.hi)
            if v_lo >= eps:
                continue
        else:
            a_int, b_int = (w_eps if v_lo >= eps else cp.lo), cp.hi
            if v_hi >= eps:
                continue
        if b_int <= a_int:
            continue
        if cp.kind == "omega":
            anti = lambda w: cp.A * 0.5 * w * w + cp.B * w
        else:
            anti = lambda w: cp.A * cp.dens.quantile_antiderivative(w) + cp.B * w
        total += anti(b_int) - anti(a_int)
    return total
