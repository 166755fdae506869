"""Exact random-variable representation: CDFs, expectations, differences.

Oracles: independent scipy quadrature of densities, closed-form moments of
the uniform distribution, and hand-derived values for small piecewise cases.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from convlab import space
from convlab.errors import (AccuracyError, ParameterError, RepresentationError)
from convlab.space import (UNIFORM, Piece, PowerAtOne, RandomVariable, cdf,
                           char_fn, constant_rv, density_rv, diff_abs,
                           expectation, expectation_joint, require_omega,
                           sup_norm, truncated_abs_moment, uniform_rv)


def test_require_omega_bounds():
    assert require_omega(0.5) == 0.5
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ParameterError):
            require_omega(bad)


def test_constant_rv():
    rv = constant_rv(3.0)
    assert rv(0.2) == 3.0
    c = cdf(rv)
    assert c(3.0) == 1.0
    assert c(2.999) == 0.0
    assert c.prob_at(3.0) == 1.0
    assert c.jump_points == (3.0,)
    assert not c.is_continuity_point(3.0)


def test_uniform_cdf_and_moments():
    u = uniform_rv()
    c = cdf(u)
    for x in (0.1, 0.25, 0.5, 0.9):
        assert abs(c(x) - x) < 1e-14
    assert c.jump_points == ()
    mean, err = expectation(u, lambda v: v)
    assert abs(mean - 0.5) < 1e-12
    second, _ = expectation(u, lambda v: v * v)
    assert abs(second - 1.0 / 3.0) < 1e-12


def test_uniform_char_fn_closed_form():
    u = uniform_rv()
    t = math.pi
    # oracle: (e^{it} - 1)/(it), |phi(pi)| = 2/pi
    phi = char_fn(u, t)
    oracle = (complex(math.cos(t), math.sin(t)) - 1.0) / complex(0.0, t)
    assert abs(phi - oracle) < 1e-10
    assert abs(abs(phi) - 2.0 / math.pi) < 1e-8
    assert char_fn(u, 0.0) == complex(1.0, 0.0)


def test_quad_returns_scipy_result():
    def f(w):
        return math.exp(-w) * math.cos(3.0 * w)

    kwargs = dict(epsabs=1e-12, epsrel=0.0, limit=100)
    assert space.quad(f, 0.0, 2.0, **kwargs) == quad(f, 0.0, 2.0, **kwargs)


@pytest.mark.parametrize("t", (1e-300, 1e-9, 0.5, 5.0, 50.0))
@pytest.mark.parametrize("a,b", [(1.0, 0.0), (-3.0, 0.7)],
                         ids=["uniform", "scaled-shifted"])
def test_affine_char_fn_exact_without_quadrature(monkeypatch, t, a, b):
    def no_quad(*args, **kwargs):
        raise AssertionError("affine pieces need no quadrature")

    monkeypatch.setattr(space, "quad", no_quad)
    rv = uniform_rv().scaled(a).shifted(b)
    # E exp(itX) = exp(itb) * (exp(ix) - 1)/(ix), x = t*a, written with
    # 1 - cos(x) = 2 sin(x/2)^2 so that small x loses nothing to cancellation
    x = t * a
    phi_u = complex(math.sin(x) / x, 2.0 * math.sin(0.5 * x) ** 2 / x)
    oracle = complex(math.cos(t * b), math.sin(t * b)) * phi_u
    assert abs(char_fn(rv, t) - oracle) <= 1e-12


@pytest.mark.parametrize("t", (0.5, 5.0, 50.0))
def test_mixed_char_fn_vs_quadrature_oracle(monkeypatch, t):
    rv = RandomVariable((
        Piece(0.0, 0.3, 0.0, 2.0),
        Piece(0.3, 0.6, 4.0, -1.0),
        Piece(0.6, 1.0, 2.0, 0.5, PowerAtOne(0.5)),
    ))
    oracle = 0.0j
    for cp in rv.pieces:
        for part, unit in ((math.cos, 1.0), (math.sin, 1.0j)):
            val, _ = quad(lambda w, cp=cp: part(t * cp.value(w)), cp.lo, cp.hi,
                          epsabs=1e-14, epsrel=0.0, limit=500)
            oracle += unit * val
    calls = []

    def counting_quad(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(space, "quad", counting_quad)
    tol = 1e-9
    assert abs(char_fn(rv, t, tol=tol) - oracle) <= tol
    # every piece, the power-density one included, is summed without quadrature
    assert calls == []


def _power_piece_oracle(alpha, lo, hi, A, B, t):
    """Quadrature of exp(i*t*(A*Q(w) + B)) over [lo, hi) for the PowerAtOne
    quantile Q, in v = u^a = 1 - w (a = 1 - alpha, u = 1 - Q): there
    Q = 1 - v^(1/a) is smooth, so the density's singularity never reaches
    the integrand."""
    a = 1.0 - alpha
    limit = 200 + int(20.0 * abs(t * A))

    def part(f):
        val, _ = quad(lambda v: f(t * (A * (1.0 - v ** (1.0 / a)) + B)),
                      1.0 - hi, 1.0 - lo, epsabs=1e-13, epsrel=0.0, limit=limit)
        return val

    return complex(part(math.cos), part(math.sin))


@given(
    alpha=st.floats(0.01, 0.99),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
        lambda e: abs(e[0] - e[1]) > 1e-9),
    scale=st.floats(0.01, 10.0),
    negative_scale=st.booleans(),
    shift=st.floats(-5.0, 5.0),
    t=st.floats(1e-9, 200.0),
    negative_t=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_power_char_fn_vs_quadrature_oracle(alpha, ends, scale, negative_scale,
                                            shift, t, negative_t):
    lo, hi = sorted(ends)
    A = -scale if negative_scale else scale
    t = -t if negative_t else t
    pieces = [Piece(lo, hi, A, shift, PowerAtOne(alpha))]
    if lo > 0.0:
        pieces.insert(0, Piece(0.0, lo))
    if hi < 1.0:
        pieces.append(Piece(hi, 1.0))
    # the zero atoms add their mass exactly
    oracle = _power_piece_oracle(alpha, lo, hi, A, shift, t) + lo + (1.0 - hi)

    def no_quad(*args, **kwargs):
        raise AssertionError("char_fn needs no quadrature")

    tol = 1e-10
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space, "quad", no_quad)
        assert abs(char_fn(RandomVariable(tuple(pieces)), t, tol=tol) - oracle) <= tol


@pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf))
def test_char_fn_rejects_non_finite_t(t):
    with pytest.raises(ParameterError):
        char_fn(density_rv(PowerAtOne(0.5)), t)


@pytest.mark.parametrize("rv", [density_rv(PowerAtOne(0.5)).scaled(10.0),
                                uniform_rv().scaled(10.0), constant_rv(1e308)],
                         ids=["power", "affine", "constant"])
def test_char_fn_rejects_overflowing_phase(rv):
    with pytest.raises(ParameterError, match="overflows"):
        char_fn(rv, 1e308)


@pytest.mark.parametrize("t", (2.0, 50.0), ids=["series", "continued-fraction"])
def test_char_fn_unconverged_expansion_raises(monkeypatch, t):
    # two steps reach neither the series' nor the fraction's stopping rule;
    # the quantile piece of PowerAtOne(0.5) has s*b = t, inside the series
    # radius at t = 2 and past it at t = 50
    monkeypatch.setattr(space, "_MAX_ITER", 2)
    with pytest.raises(AccuracyError):
        char_fn(density_rv(PowerAtOne(0.5)), t)


def test_power_at_one_validation():
    for bad in (-0.5, 0.0, 1.0, 1.5):
        with pytest.raises(ParameterError):
            PowerAtOne(bad)


@given(
    alpha=st.floats(0.05, 0.95),
    w=st.floats(1e-6, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_power_at_one_quantile_inverts_cdf(alpha, w):
    dens = PowerAtOne(alpha)
    q = dens.quantile(w)
    # near w=1 with alpha near 1 the quantile rounds to an exact 1.0; the
    # round trip is only meaningful while 1-q is representable
    assume(q < 1.0 - 1e-14)
    # conditioning of the round trip: the rounding of 1-q (about 1 ulp of 1)
    # is amplified by d(cdf)/dq = (1-alpha)(1-q)^(-alpha)
    tol = 1e-9 + (1.0 - alpha) * 1e-15 / (1.0 - q)
    assert abs(dens.cdf(q) - w) < tol


def test_power_at_one_cdf_values():
    dens = PowerAtOne(0.5)
    assert abs(dens.cdf(0.75) - 0.5) < 1e-15
    # oracle: integrate the density directly
    val, _ = quad(dens.pdf, 0.0, 0.75, points=[0.75])
    assert abs(dens.cdf(0.75) - val) < 1e-10


@pytest.mark.parametrize("dens", [PowerAtOne(0.5), PowerAtOne(0.4), PowerAtOne(0.9), UNIFORM])
def test_density_cdf_keeps_the_bits_of_its_expression(dens):
    # an array is worked on in place, in one fresh array, with the bits of
    # the plain expression, and is not written to; a scalar gives a scalar
    def expression(x):
        if dens is UNIFORM:
            return np.clip(x, 0.0, 1.0)
        return 1.0 - (1.0 - np.clip(x, 0.0, 1.0)) ** (1.0 - dens.alpha)

    x = np.concatenate([np.linspace(-0.5, 1.5, 4001),
                        [-0.0, 0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, np.inf, -np.inf, np.nan]])
    before = x.copy()
    got = dens.cdf(x)
    assert np.array_equal(got.view(np.int64), expression(x).view(np.int64))
    assert np.array_equal(x.view(np.int64), before.view(np.int64))
    for v in (0.3, np.float64(0.3), -0.2, 1.7, np.array(0.3)):
        out = dens.cdf(v)
        assert not isinstance(out, np.ndarray) and np.ndim(out) == 0
        assert np.float64(out).view(np.int64) == np.float64(expression(v)).view(np.int64)


def test_density_rv_mean_vs_quadrature_oracle():
    dens = PowerAtOne(0.5)
    rv = density_rv(dens)
    mean, err = expectation(rv, lambda v: v, tol=1e-10)
    # oracle: E[X] = int x (1-alpha)(1-x)^-alpha dx = 2/3 for alpha = 1/2
    oracle, oerr = quad(lambda x: x * dens.pdf(x), 0.0, 1.0, epsabs=1e-12)
    assert abs(mean - 2.0 / 3.0) < 1e-8
    assert abs(mean - oracle) < 1e-8


def test_density_rv_cdf():
    rv = density_rv(PowerAtOne(0.5))
    c = cdf(rv)
    assert abs(c(0.75) - 0.5) < 1e-10
    assert c.jump_points == ()


def test_partition_validation():
    with pytest.raises(RepresentationError):
        RandomVariable((Piece(0.0, 0.4, B=1.0),))  # does not reach 1
    with pytest.raises(RepresentationError):
        RandomVariable((Piece(0.0, 0.5, B=1.0), Piece(0.6, 1.0)))  # gap
    with pytest.raises(RepresentationError):
        RandomVariable((Piece(0.5, 0.5, B=1.0),))  # empty piece


def test_random_variable_needs_a_piece():
    with pytest.raises(RepresentationError, match="at least one piece"):
        RandomVariable(())


def test_cdf_needs_total_mass_one():
    with pytest.raises(RepresentationError, match="total probability mass is 0.5"):
        space.Cdf([(0.0, 0.5)], [])


def test_shift_scale():
    u = uniform_rv()
    v = u.shifted(2.0).scaled(3.0)
    assert abs(v(0.5) - 7.5) < 1e-14
    assert abs(sup_norm(v) - 9.0) < 1e-14


def test_diff_abs_constant_shift():
    base = density_rv(PowerAtOne(0.5))
    shifted = base.shifted(0.01)
    d = diff_abs(shifted, base)
    for w in (0.1, 0.5, 0.9):
        assert abs(d(w) - 0.01) < 1e-14
    assert abs(sup_norm(d) - 0.01) < 1e-14


def test_diff_abs_sign_split():
    # |omega - 0.5|: the crossing at 0.5 must be split exactly
    d = diff_abs(uniform_rv(), constant_rv(0.5))
    for w in (0.1, 0.3, 0.6, 0.9):
        assert abs(d(w) - abs(w - 0.5)) < 1e-14
    mean, _ = expectation(d, lambda v: v)
    assert abs(mean - 0.25) < 1e-12


def test_diff_abs_two_atoms():
    rv = RandomVariable(
        (Piece(0.0, 1.0 / 9.0, B=1.0),
         Piece(1.0 / 9.0, 1.0, B=3.0 ** -0.5))
    )
    d = diff_abs(rv, constant_rv(0.0))
    c = cdf(d)
    assert abs(c.prob_at(1.0) - 1.0 / 9.0) < 1e-12
    assert abs(c.prob_at(3.0 ** -0.5) - 8.0 / 9.0) < 1e-12


def test_diff_abs_mixed_kinds_rejected():
    # an affine piece is a quantile piece of the uniform density, so both
    # pairs are differences of two densities' quantiles
    for rv1 in (uniform_rv(), density_rv(PowerAtOne(0.3))):
        with pytest.raises(RepresentationError):
            diff_abs(rv1, density_rv(PowerAtOne(0.5)))


@pytest.mark.parametrize("a, b", [(-4.9, 2.744), (1.4, -0.056)])
def test_diff_abs_crossing_rounded_onto_an_end_keeps_the_larger_ends_sign(a, b):
    # -4.9 w + 2.744 vanishes at w = 0.56, the piece's right end, but rounds
    # to -4.4e-16 there; 1.4 w - 0.056 vanishes at its left end, w = 0.04,
    # and rounds to -6.9e-18 there.  The crossing collapses onto the end,
    # and the piece stays whole with the sign of its value at the other end
    X = RandomVariable((Piece(0.0, 0.04, B=0.0), Piece(0.04, 0.56, a, b),
                        Piece(0.56, 1.0, B=0.0)))
    assert min(a * 0.04 + b, a * 0.56 + b) < 0.0
    d = diff_abs(X, constant_rv(0.0))
    assert [(p.lo, p.hi, p.A, p.B) for p in d.pieces if p.A != 0.0] == [(0.04, 0.56, a, b)]


@pytest.mark.parametrize("lo, hi, a, b, eps", [(0.04, 0.68, 0.1, 0.042, 0.11),
                                              (0.3, 0.9, -3.3, 2.98, 1.99)])
def test_truncated_abs_moment_crossing_rounded_onto_an_end_keeps_the_piece_whole(
        lo, hi, a, b, eps):
    # 0.1 w + 0.042 rises to 0.11 at its right end, w = 0.68, but rounds to
    # 0.11000000000000001 there; -3.3 w + 2.98 falls from 1.99 at its left
    # end, w = 0.3, and rounds to 1.9900000000000002 there.  Each piece
    # crosses eps in floats, but the crossing collapses onto that end, so the
    # piece stays whole below eps, the side of its value at the other end,
    # by the rule diff_abs keeps at 0
    D = RandomVariable((Piece(0.0, lo, B=0.0), Piece(lo, hi, a, b), Piece(hi, 1.0, B=0.0)))
    p = D.pieces[1]
    assert min(p.endpoint_values()) < eps < max(p.endpoint_values())
    assert float(p.crossing(eps)) in (lo, hi)
    got = truncated_abs_moment(D, eps)
    assert got == truncated_abs_moment(D, 10.0) == p.integral()
    assert abs(got - (0.5 * a * (hi * hi - lo * lo) + b * (hi - lo))) < 1e-15


def test_truncated_abs_moment_skips_pieces_at_or_above_eps():
    # a decreasing and an increasing piece wholly above eps = 0.65, and one
    # that falls to 0.65 only at its right end (in floats just below it,
    # while (eps - B) / A rounds onto the end): none is below eps
    D = RandomVariable((Piece(0.0, 0.46, -1.0, 2.0), Piece(0.46, 0.88, -1.7, 2.146),
                        Piece(0.88, 1.0, 1.0, 0.0)))
    assert D.pieces[1].endpoint_values()[1] < 0.65
    assert truncated_abs_moment(D, 0.65) == 0.0


def test_diff_abs_affine_minus_affine_constant():
    u = uniform_rv()
    d = diff_abs(u.shifted(0.01), u)
    assert len(d.pieces) == 1
    assert cdf(d).atoms == ((0.01, 1.0),)
    assert cdf(d).segments == ()


def test_diff_abs_reflection():
    # X = omega, X_n = 1 - omega: same law, but |X_n - X| = |1 - 2 omega|
    u = uniform_rv()
    d = diff_abs(u, u.scaled(-1.0).shifted(1.0))
    for w in (0.01, 0.2, 0.4999, 0.5, 0.75, 0.99):
        assert abs(d(w) - abs(1.0 - 2.0 * w)) < 1e-15
    c = cdf(d)
    assert c.jump_points == ()
    for x in (0.0, 0.1, 0.4, 0.8, 1.0):
        assert abs(c(x) - x) < 1e-15
    mean, _ = expectation(d, lambda v: v)
    assert abs(mean - 0.5) < 1e-12
    # |1 - 2 omega| is uniform, so E[D 1{D < 0.4}] = 0.4^2 / 2
    assert abs(truncated_abs_moment(d, 0.4) - 0.08) < 1e-15


def test_expectation_joint_matches_diff_abs():
    base = density_rv(PowerAtOne(0.3))
    shifted = base.shifted(0.2)
    via_joint, _ = expectation_joint(shifted, base, lambda a, b: abs(a - b))
    via_diff, _ = expectation(diff_abs(shifted, base), lambda v: v)
    assert abs(via_joint - via_diff) < 1e-9
    assert abs(via_joint - 0.2) < 1e-9


@given(
    split=st.floats(0.1, 0.9),
    v1=st.floats(0.0, 2.0),
    v2=st.floats(0.0, 2.0),
    eps=st.floats(0.05, 2.5),
)
@settings(max_examples=150, deadline=None)
def test_truncated_abs_moment_two_atoms(split, v1, v2, eps):
    rv = RandomVariable(
        (Piece(0.0, split, B=v1), Piece(split, 1.0, B=v2))
    )
    got = truncated_abs_moment(rv, eps)
    want = split * v1 * (v1 < eps) + (1.0 - split) * v2 * (v2 < eps)
    assert abs(got - want) < 1e-12


def quad_truncated(value, eps, breaks):
    """Oracle for E[V 1{V < eps}]: quadrature over omega of V(omega), split
    at the omegas where V crosses eps or changes slope."""
    points = [w for w in breaks if 0.0 < w < 1.0]
    val, _ = quad(lambda w: value(w) if value(w) < eps else 0.0, 0.0, 1.0,
                  epsabs=1e-12, epsrel=0.0, limit=200, points=points or None)
    return val


@given(eps=st.floats(0.02, 1.5))
@settings(max_examples=80, deadline=None)
def test_truncated_abs_moment_affine_vs_quadrature(eps):
    d = diff_abs(uniform_rv(), constant_rv(0.5))
    got = truncated_abs_moment(d, eps)
    want = quad_truncated(lambda w: abs(w - 0.5), eps, (0.5 - eps, 0.5, 0.5 + eps))
    assert abs(got - want) < 1e-9


def test_truncated_abs_moment_quantile_piece():
    dens = PowerAtOne(0.5)
    d = diff_abs(density_rv(dens), constant_rv(0.0))  # |X| = X
    got = truncated_abs_moment(d, 0.5)
    want = quad_truncated(dens.quantile, 0.5, (dens.cdf(0.5),))
    assert abs(got - want) < 1e-8
    with pytest.raises(ParameterError):
        truncated_abs_moment(d, 0.0)


def reference_cdf(rv, x):
    """P(X <= x) with uniform and other pieces kept apart: a UNIFORM piece
    is inverted in omega directly, any other through its density's CDF.  A
    level at or past a piece's lower or upper end value, where the two
    differ, counts none or all of the piece."""
    atoms, below = {}, []
    for p in rv.pieces:
        mass = p.hi - p.lo
        if p.A == 0.0:
            atoms[p.B] = atoms.get(p.B, 0.0) + mass
            continue
        low, high = sorted(p.A * p.dens.quantile(w) + p.B for w in (p.lo, p.hi))
        if low < high and (x <= low or x >= high):
            below.append(mass if x >= high else 0.0)
            continue
        w = (x - p.B) / p.A
        if p.dens is not UNIFORM:
            w = p.dens.cdf(w)
        if p.A > 0:
            below.append(min(max(w - p.lo, 0.0), mass))
        else:
            below.append(min(max(p.hi - w, 0.0), mass))
    total = sum(m for ax, m in sorted(atoms.items()) if ax <= x)
    total += sum(below)
    return min(total, 1.0)


finite = st.floats(-3.0, 3.0)
densities = st.one_of(st.just(UNIFORM),
                      st.builds(PowerAtOne, st.floats(0.05, 0.95)))


@st.composite
def piecewise_rvs(draw, dens=densities):
    """Random variables of up to five pieces (A, B, dens), about half of
    them constants (A = 0); dens draws each piece's density."""
    cuts = draw(st.lists(st.sampled_from([k / 16.0 for k in range(1, 16)]),
                         max_size=4, unique=True))
    bounds = [0.0] + sorted(cuts) + [1.0]
    slopes = st.one_of(st.just(0.0), finite)
    return RandomVariable(tuple(Piece(lo, hi, draw(slopes), draw(finite), draw(dens))
                                for lo, hi in zip(bounds, bounds[1:])))


@given(rv=piecewise_rvs(), xs=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_cdf_matches_two_kind_reference(rv, xs):
    c = cdf(rv)
    for x in xs + [rv(w) for w in (0.03, 0.5, 0.97)]:
        assert c(x) == reference_cdf(rv, x)


@given(rv=piecewise_rvs(), xs=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_cdf_of_an_array_is_the_cdf_of_each_element(rv, xs):
    c = cdf(rv)
    xs = xs + [rv(w) for w in (0.03, 0.5, 0.97)]
    got = c(np.array(xs))
    assert got.shape == (len(xs),)
    want = np.array([c(x) for x in xs])
    if all(p.dens is UNIFORM for p in rv.pieces):
        assert got.tobytes() == want.tobytes()
    else:  # numpy's vector pow may differ from the scalar one in the last bit
        assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dens", (UNIFORM, PowerAtOne(0.5)), ids=("uniform", "power"))
@pytest.mark.parametrize("slope", (5e-324, -5e-324))
def test_cdf_of_a_subnormal_slope_is_silent(slope, dens):
    # x / A overflows to inf on an array; the clipped measure is still right
    c = cdf(RandomVariable((Piece(0.0, 1.0, slope, 0.0, dens),)))
    xs = np.array([0.5, -0.5])
    assert c(xs).tolist() == [c(x) for x in xs] == [1.0, 0.0]


def test_cdf_reaches_one_at_the_top_of_a_shifted_power_piece():
    # (2.3 - 0.3) / 2 rounds to 1 - 1.1e-16, where the density's CDF is
    # still 0.84: the endpoint values decide a level at or past one of them
    c = cdf(space.density_rv(PowerAtOne(0.95)).scaled(2.0).shifted(0.3))
    assert c(2.3) == 1.0
    assert c(np.array([0.0, 0.3, 2.3, 5.0])).tolist() == [0.0, 0.0, 1.0, 1.0]


@st.composite
def pieces_and_levels(draw):
    """A piece of a uniform or power density with a slope of either sign,
    and a level inside its range of values, outside it, or at either
    endpoint value."""
    lo, hi = sorted(draw(st.lists(st.sampled_from([k / 16.0 for k in range(17)]),
                                  min_size=2, max_size=2, unique=True)))
    slope = draw(st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1)))
    p = Piece(lo, hi, slope, draw(finite), draw(densities))
    v_lo, v_hi = p.endpoint_values()
    low, high = min(v_lo, v_hi), max(v_lo, v_hi)
    level = draw(st.one_of(st.sampled_from([v_lo, v_hi, low - 1.0, high + 1.0]),
                           st.floats(low, high)))
    return p, level


@given(pl=pieces_and_levels())
@settings(max_examples=300, deadline=None)
def test_split_parts_tile_the_piece_on_their_sides_of_the_level(pl):
    p, level = pl
    below, above = p.split(level)
    parts = sorted((q for q in (below, above) if q is not None), key=lambda q: q.lo)
    # in omega order, the parts tile [lo, hi) and keep the piece's value
    assert [q.lo for q in parts] + [p.hi] == [p.lo] + [q.hi for q in parts]
    assert all((q.A, q.B, q.dens) == (p.A, p.B, p.dens) for q in parts)
    if below is not None and above is not None:
        assert (below.lo < above.lo) == (p.A > 0)
    # the endpoint values decide empty parts: a level at one leaves the
    # piece whole
    if level in p.endpoint_values():
        assert below is None or above is None
    # each part's midpoint value lies on the part's side of the level, up to
    # the rounding of the crossing, which a part one ulp wide can reach
    for q, side in ((below, -1.0), (above, 1.0)):
        if q is None:
            continue
        assert side * (q.value(0.5 * (q.lo + q.hi)) - level) > -1e-13, (q, level)
        want, _ = quad(q.value, q.lo, q.hi, epsabs=1e-13, epsrel=0.0, limit=200)
        assert abs(q.integral() - want) <= 1e-12
    # the CDF's measure of the piece up to the level is the below part's
    # length, a level at an endpoint value included.  A piece whose values
    # round to the level at both ends is inverted there instead: on a power
    # density's steep top, none of it lies below the level, all at or below
    if p.endpoint_values() != (level, level):
        assert p.measure_below(level) == (below.hi - below.lo if below else 0.0)


omegas =st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                 min_size=1, max_size=8)


@given(rv=piecewise_rvs(), c=finite, s=finite, ws=omegas)
@settings(max_examples=200, deadline=None)
def test_shifted_and_scaled_pointwise(rv, c, s, ws):
    shifted, scaled = rv.shifted(c), rv.scaled(s)
    for w in ws:
        assert abs(shifted(w) - (rv(w) + c)) <= 1e-12
        assert abs(scaled(w) - s * rv(w)) <= 1e-12


shared_density = st.shared(densities, key="diff_abs")


@given(x=piecewise_rvs(shared_density), y=piecewise_rvs(shared_density), ws=omegas)
@settings(max_examples=200, deadline=None)
def test_diff_abs_pointwise(x, y, ws):
    d = diff_abs(x, y)
    for w in ws:
        assert abs(d(w) - abs(x(w) - y(w))) <= 1e-12


def test_constant_piece_stores_uniform():
    dens = PowerAtOne(0.5)
    assert Piece(0.0, 1.0, 0.0, 2.0, dens).dens is UNIFORM
    assert Piece(0.0, 1.0, 1.0, 2.0, dens).dens == dens
    assert density_rv(dens).scaled(0.0).pieces[0].dens is UNIFORM
    assert char_fn(density_rv(dens).scaled(0.0).shifted(2.0), 1.0) == char_fn(
        constant_rv(2.0), 1.0)


def test_cdf_mass_check():
    seg_rv = uniform_rv()
    c = cdf(seg_rv)
    assert abs(c(1.5) - 1.0) < 1e-12
    assert abs(c(-0.5) - 0.0) < 1e-12
