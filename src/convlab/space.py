"""Exact random variables on the unit-interval probability space.

The sample space is ((0,1), Borel, Lebesgue).  A random variable is an
ordered list of pieces partitioning (0,1).  Piece(lo, hi, A, B, dens) has
the value A*Q(omega) + B on [lo, hi), with Q the quantile of the density
dens: UNIFORM by default, whose quantile is omega itself, so
Piece(lo, hi, B=c) is the constant c and Piece(lo, hi, a, b) the affine
a*omega + b.  This class of functions is closed under shifts, scaling and
absolute differences, so CDFs, essential suprema, truncated first moments
and characteristic functions come out in closed form: each density declares
the antiderivative of its quantile and the characteristic integral of its
pieces.  Only general expectations E[g(X)] reduce to atom sums plus
one-dimensional quadrature of smooth integrands, and only they load
scipy.integrate.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .errors import AccuracyError, ParameterError, RepresentationError

_MASS_TOL = 1e-9
# characteristic integrals of power pieces: a power series while |s*b| stays
# within _SERIES_RADIUS (its terms peak near e^|s*b|, so rounding grows with
# the radius), a continued fraction beyond it (under 60 steps from the radius
# on); both stop once the next step is below _ITER_EPS and give up after
# _MAX_ITER steps
_SERIES_RADIUS = 4.0
_ITER_EPS = 1e-16
_MAX_ITER = 100


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
        """F(x) = 1 - (1-x)^(1-alpha) on (0,1), elementwise for an array x;
        also the quantile inverse.  x is clipped to [0, 1] by maximum and
        minimum, which unlike np.clip need no Python wrapper (they differ
        only in the sign of a zero, which 1 - x drops).  An array is worked
        on in place in the one fresh array the clip makes."""
        u = np.maximum(x, 0.0)
        if not isinstance(u, np.ndarray):
            return 1.0 - (1.0 - np.minimum(u, 1.0)) ** (1.0 - self.alpha)
        np.minimum(u, 1.0, out=u)
        np.subtract(1.0, u, out=u)
        u **= 1.0 - self.alpha
        return np.subtract(1.0, u, out=u)

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

    def char_integral(self, lo, hi, A, B, t):
        """The integral of exp(i*t*(A*Q(w) + B)) over [lo, hi), A != 0, with
        a bound on its truncation error.

        With a = 1 - alpha and u = (1-w)^(1/a), Q = 1 - u and
        dw = -a*u^(-alpha) du, so the integral is
        exp(i*t*(A + B)) * (H(1 - lo) - H(1 - hi)), where H is
        _power_char_primitive with s = t*A.
        """
        a = 1.0 - self.alpha
        h_lo, e_lo = _power_char_primitive(a, t * A, 1.0 - lo)
        h_hi, e_hi = _power_char_primitive(a, t * A, 1.0 - hi)
        phase = t * (A + B)
        return complex(math.cos(phase), math.sin(phase)) * (h_lo - h_hi), e_lo + e_hi


def _power_char_primitive(a, s, v):
    """H(v) = a * int_0^b exp(-i*s*u) * u^(a-1) du with b = v^(1/a), for
    0 < a <= 1 and 0 <= v <= 1, with a bound on its truncation error.

    Within |s|*b <= _SERIES_RADIUS, expand the exponential:
    H = v * (1 + a * sum_{k>=1} (-i*s*b)^k / (k! * (k + a))).  Beyond it,
    rotate the path onto the imaginary axis:
    H = (i*s)^(-a) * (Gamma(a + 1) - a * Gamma(a, i*s*b)).  Negative s gives
    the complex conjugate of |s|.
    """
    if v <= 0.0:
        return 0j, 0.0
    y = abs(s) * v ** (1.0 / a)
    if y <= _SERIES_RADIUS:
        term = 1.0 + 0j
        acc = 0j
        for k in range(1, _MAX_ITER + 1):
            term *= complex(0.0, -y / k)
            inc = term / (k + a)
            acc += inc
            if a * abs(inc) <= _ITER_EPS:
                err = 0.0
                break
        else:
            err = v * a * abs(inc)
        h = v * (1.0 + a * acc)
    else:
        g, g_err = _upper_gamma(a, complex(0.0, y))
        scale = cmath.exp(-a * cmath.log(complex(0.0, abs(s))))
        h = scale * (math.gamma(a + 1.0) - a * g)
        err = abs(scale) * a * g_err
    return (h if s > 0.0 else h.conjugate()), err


def _upper_gamma(a, z):
    """Gamma(a, z) for Re z >= 0 away from 0, with a bound on its truncation
    error, from Legendre's continued fraction
    e^-z z^a / (z+1-a - 1(1-a)/(z+3-a - 2(2-a)/(z+5-a - ...)))
    evaluated by the modified Lentz method."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    frac = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if d != 0.0 else tiny)
        c = b + an / c
        if c == 0.0:
            c = tiny
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) <= _ITER_EPS:
            err = 0.0
            break
    else:
        err = abs(frac * (delta - 1.0))
    prefactor = cmath.exp(-z) * cmath.exp(a * cmath.log(z))
    return prefactor * frac, abs(prefactor) * err


@dataclass(frozen=True)
class Uniform:
    """The uniform density on (0,1): its quantile is the identity."""

    def cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def quantile(self, w):
        return w

    def quantile_antiderivative(self, w):
        return 0.5 * w * w

    def char_integral(self, lo, hi, A, B, t):
        """The integral of exp(i*t*(A*w + B)) over [lo, hi), exact:
        (hi - lo) * sinc(h) * exp(i*t*(A*mid + B)) with h = t*A*(hi - lo)/2;
        a constant piece has A = 0, so its value is the exact atom term."""
        m = hi - lo
        h = 0.5 * t * A * m
        sinc = math.sin(h) / h if h != 0.0 else 1.0
        phase = t * (A * 0.5 * (lo + hi) + B)
        return complex(m * sinc * math.cos(phase), m * sinc * math.sin(phase)), 0.0


UNIFORM = Uniform()


@dataclass(frozen=True)
class Piece:
    """One half-open interval [lo, hi) with the value A*Q(omega) + B, Q the
    quantile of dens.  A piece with A = 0 stores UNIFORM, so char_fn takes
    the exact atom term for every constant."""

    lo: float
    hi: float
    A: float = 0.0
    B: float = 0.0
    dens: object = UNIFORM

    def __post_init__(self):
        if self.A == 0.0 and self.dens is not UNIFORM:
            object.__setattr__(self, "dens", UNIFORM)

    def value(self, w):
        if self.A == 0.0:
            return self.B
        return self.A * self.dens.quantile(w) + self.B

    def endpoint_values(self):
        """Limits of the value at both interval endpoints."""
        return self.value(self.lo), self.value(self.hi)

    def crossing(self, level):
        """The omega in [lo, hi] where the value crosses level, for A != 0,
        elementwise for an array level.  For a tiny slope A, the quotient
        may overflow to inf, which the density's CDF and the clip read right."""
        with np.errstate(over="ignore"):
            q = (level - self.B) / self.A
        return np.clip(self.dens.cdf(q), self.lo, self.hi)

    def split(self, level):
        """(part below level, part at or above it), None for an empty part.
        The endpoint values decide empty parts, and a crossing that rounds
        onto an endpoint leaves the piece whole, on the side of the endpoint
        value farther from level."""
        v_lo, v_hi = self.endpoint_values()
        if min(v_lo, v_hi) >= level:
            return None, self
        if max(v_lo, v_hi) <= level:
            return self, None
        w = float(self.crossing(level))
        if w <= self.lo or w >= self.hi:
            far = v_lo if abs(v_lo - level) >= abs(v_hi - level) else v_hi
            return (None, self) if far > level else (self, None)
        parts = replace(self, hi=w), replace(self, lo=w)
        return parts if v_lo < level else parts[::-1]

    def integral(self):
        """The integral of the value over [lo, hi), in closed form."""
        if self.A == 0.0:
            return (self.hi - self.lo) * self.B
        anti = lambda w: self.A * self.dens.quantile_antiderivative(w) + self.B * w
        return anti(self.hi) - anti(self.lo)

    def measure_below(self, x):
        """The measure of {omega in [lo, hi): value <= x}, for A != 0,
        elementwise for an array x."""
        w = self.crossing(x)
        return w - self.lo if self.A > 0 else self.hi - w


@dataclass(frozen=True)
class RandomVariable:
    pieces: tuple

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

    def piece_at(self, w):
        """The piece whose interval holds w."""
        return self.pieces[bisect_right(self._starts, w) - 1]

    def __call__(self, omega):
        w = require_omega(omega)
        return self.piece_at(w).value(w)

    def shifted(self, c):
        """The random variable X + c."""
        return RandomVariable(tuple(Piece(p.lo, p.hi, p.A, p.B + c, p.dens)
                                    for p in self.pieces))

    def scaled(self, s):
        """The random variable s*X."""
        return RandomVariable(tuple(Piece(p.lo, p.hi, s * p.A, s * p.B, p.dens)
                                    for p in self.pieces))


def constant_rv(c):
    return RandomVariable((Piece(0.0, 1.0, 0.0, float(c)),))


def uniform_rv():
    """Uniform(0,1): the identity on the sample space."""
    return RandomVariable((Piece(0.0, 1.0, 1.0, 0.0),))


def density_rv(density: PowerAtOne):
    """The variable distributed with the given density, realised as its
    quantile function of omega."""
    return RandomVariable((Piece(0.0, 1.0, 1.0, 0.0, density),))


# ---------------------------------------------------------------------------
# CDF


class Cdf:
    """Distribution function with explicit atoms and continuous segments,
    the pieces with A != 0."""

    def __init__(self, atoms, segments):
        self.atoms = tuple(sorted(atoms))  # (x, mass), mass > 0
        self.segments = tuple(segments)
        total = sum(m for _, m in self.atoms) + sum(s.hi - s.lo for s in self.segments)
        if abs(total - 1.0) > _MASS_TOL:
            raise RepresentationError(f"total probability mass is {total}, not 1")

    @property
    def jump_points(self):
        return tuple(x for x, _ in self.atoms)

    def __call__(self, x):
        """P(X <= x), elementwise for an array x."""
        total = sum(m * (ax <= x) for ax, m in self.atoms)
        total += sum(s.measure_below(x) for s in self.segments)
        return np.minimum(total, 1.0)

    def prob_at(self, x):
        """Mass of the atom within 1e-12 of x (0 if none)."""
        return sum(m for ax, m in self.atoms if abs(ax - x) <= 1e-12)

    def prob_below(self, x):
        """P(X < x), the left limit of the CDF at x."""
        return self(x) - self.prob_at(x)

    def is_continuity_point(self, x):
        """No atom lies within 1e-9 of x."""
        return all(abs(ax - x) > 1e-9 for ax, _ in self.atoms)


def cdf(rv: RandomVariable) -> Cdf:
    """Exact CDF: constant pieces become atoms, monotone pieces become
    continuous segments evaluated by inverting the piece."""
    atom_masses = {}
    segments = []
    for p in rv.pieces:
        if p.A == 0.0:
            atom_masses[p.B] = atom_masses.get(p.B, 0.0) + (p.hi - p.lo)
        else:
            segments.append(p)
    atoms = [(x, m) for x, m in atom_masses.items() if m > 0.0]
    return Cdf(atoms, segments)


# ---------------------------------------------------------------------------
# Expectation and friends


def _check_accuracy(total, err, tol, what="quadrature error"):
    """Raise AccuracyError when the summed error bound err exceeds tol."""
    if err > tol:
        raise AccuracyError(f"{what} {err:.3e} exceeds tolerance {tol:.3e}",
                            estimate=total, error=err)


def _merged_pieces(rv1, rv2):
    """(lo, hi, (p1, p2)) for each interval between consecutive piece
    boundaries of two variables on the same space, with the piece of each
    that covers it."""
    bounds = sorted({p.lo for p in rv1.pieces} | {p.lo for p in rv2.pieces} | {1.0})
    return [(lo, hi, (rv1.piece_at(lo + 1e-15), rv2.piece_at(lo + 1e-15)))
            for lo, hi in zip(bounds, bounds[1:])]


def _quad(fn, lo, hi, share, pieces, kinks):
    """quad of fn(omega) over [lo, hi), split at each omega inside where the
    value of one of the smooth pieces crosses a kink, a value where the
    integrand bends; one unsplit call where none does."""
    crossings = {float(p.crossing(k)) for p in pieces if p.A != 0.0 for k in kinks}
    points = sorted(w for w in crossings if lo < w < hi)
    split = {"points": points} if points else {}
    return quad(fn, lo, hi, epsabs=share, epsrel=0.0, limit=200, **split)


def _expect(cells, h, integrand, tol, share, kinks):
    """Sum over cells (lo, hi, pieces) of the integral of h at the pieces'
    values: exact where all are constant, else _quad of integrand(*pieces)
    within share.  Raises AccuracyError if the error bounds sum past tol."""
    total = 0.0
    err = 0.0
    for lo, hi, ps in cells:
        if all(p.A == 0.0 for p in ps):
            total += (hi - lo) * h(*(p.B for p in ps))
            continue
        val, e = _quad(integrand(*ps), lo, hi, share, ps, kinks)
        total += val
        err += e
    _check_accuracy(total, err, tol)
    return total, err


def expectation(rv, g, tol=1e-10, kinks=()):
    """E[g(X)] with an absolute error bound; kinks are the values where g
    is not smooth (TestFunction.kinks).

    Atoms are summed exactly; smooth pieces are integrated adaptively.
    Raises AccuracyError if the combined quadrature error exceeds the
    tolerance.
    """
    share = tol / max(1, sum(p.A != 0.0 for p in rv.pieces))
    return _expect([(p.lo, p.hi, (p,)) for p in rv.pieces], g,
                   lambda p: lambda w: g(p.value(w)), tol, share, kinks)


def expectation_joint(rv1, rv2, h, tol=1e-9, kinks=()):
    """E[h(X, Y)] for two variables coupled on the same space, by direct
    quadrature over omega on merged piece boundaries; kinks are the values
    of either argument where h is not smooth."""
    cells = _merged_pieces(rv1, rv2)
    # one share of tol per interval, and one to spare
    return _expect(cells, h, lambda p1, p2: lambda w: h(p1.value(w), p2.value(w)),
                   tol, tol / (len(cells) + 1), kinks)


def sup_norm(rv):
    """Essential supremum of |X|, from piece endpoint limits (open-endpoint
    limits, so single points never contribute)."""
    best = 0.0
    for p in rv.pieces:
        va, vb = p.endpoint_values()
        best = max(best, abs(va), abs(vb))
    return best


def char_fn(rv, t, tol=1e-10):
    """E[exp(i*t*X)], exact: the sum over pieces of each density's
    characteristic integral (closed form for constant and affine pieces,
    convergent expansions for power pieces; no quadrature).  Raises
    ParameterError for a non-finite t or phase t*X and AccuracyError if an
    expansion stops short of convergence by more than tol."""
    t = float(t)
    if not math.isfinite(t):
        raise ParameterError(f"t must be finite, got {t}")
    if t == 0.0:
        return complex(1.0, 0.0)
    total = 0j
    err = 0.0
    for p in rv.pieces:
        if not math.isfinite(t * (abs(p.A) + abs(p.B))):
            raise ParameterError(f"t*X overflows at t={t}")
        val, e = p.dens.char_integral(p.lo, p.hi, p.A, p.B, t)
        total += val
        err += e
    _check_accuracy(total, err, tol, "characteristic function error")
    return total


# ---------------------------------------------------------------------------
# Absolute difference


def _combine_difference(p1, p2):
    """(A, B, dens) of value1 - value2 on a common interval."""
    if p1.A != 0.0 and p2.A != 0.0 and p1.dens != p2.dens:
        raise RepresentationError("difference of pieces of different densities")
    return p1.A - p2.A, p1.B - p2.B, (p1.dens if p1.A != 0.0 else p2.dens)


def diff_abs(rv_n, rv_limit):
    """The random variable |X_n - X| as an exact piecewise representation:
    each difference piece with its part below 0 negated."""
    out = []
    for lo, hi, (p1, p2) in _merged_pieces(rv_n, rv_limit):
        below, above = Piece(lo, hi, *_combine_difference(p1, p2)).split(0.0)
        if below:
            below = replace(below, A=-below.A, B=-below.B)
        out.extend(sorted(filter(None, (below, above)), key=lambda q: q.lo))
    return RandomVariable(tuple(out))


def truncated_abs_moment(diff_rv, eps):
    """E[D * 1{D < eps}] for a nonnegative piecewise variable D, computed
    with closed-form antiderivatives (no quadrature)."""
    if eps <= 0.0:
        raise ParameterError("eps must be positive")
    total = 0.0
    for p in diff_rv.pieces:
        below = p.split(eps)[0]
        total += below.integral() if below else 0.0
    return total
