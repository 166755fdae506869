"""Bounded Lipschitz test functions used by the distributional checkers.

Every function carries its sup bound and Lipschitz constant so dominance
checks can be stated without re-deriving them.  All of them accept numpy
arrays as well as scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class TestFunction:
    name: str
    bound: float
    lipschitz: float

    def __call__(self, x):
        raise NotImplementedError

    @property
    def kinks(self):
        """The values where the function is not smooth: a quadrature of it
        splits where its argument crosses one."""
        return ()

    def slope_on(self, hi):
        """c > 0 where g(v) = g(0) + c * v on [0, hi], else None."""
        return None

    def power_series(self, hi):
        """g(v) - g(0) on [0, hi] as (terms, remainder): the sum of c * v**p
        over the (c, p) terms plus a rest of size at most C * v**p_r, where
        remainder is (C, p_r) or None for no rest.  g is nondecreasing on
        [0, hi], so the sum is nonnegative there.  None where the function
        states no such form on [0, hi]; a linear one states its slope."""
        c = self.slope_on(hi)
        return None if c is None else (((c, 1.0),), None)


# Taylor terms of sin that Sine.power_series states: the rest, at most
# v**19 / 19! <= 8.3e-18 on [0, 1], is below a float's resolution of the sum
_SINE_TERMS = 9


@dataclass(frozen=True)
class Sine(TestFunction):
    name: str = field(init=False, default="sine")
    bound: float = field(init=False, default=1.0)
    lipschitz: float = field(init=False, default=1.0)

    def __call__(self, x):
        return np.sin(x)

    def power_series(self, hi):
        """The alternating Taylor series of sin on [0, hi], hi <= 1: its
        terms fall in size there, so the first term left out bounds the
        rest."""
        if hi > 1.0:
            return None
        terms = tuple(((-1.0) ** k / math.factorial(2 * k + 1), 2.0 * k + 1.0)
                      for k in range(_SINE_TERMS))
        last = 2 * _SINE_TERMS + 1
        return terms, (1.0 / math.factorial(last), float(last))


@dataclass(frozen=True)
class ClampedIdentity(TestFunction):
    """Identity on [-(M+eps), M+eps], clamped outside.

    This is the truncation function used in the converse direction of the
    truncated-first-moment criterion: it agrees with the identity on the
    whole range of a variable bounded by M, even after a perturbation of
    size eps.
    """

    M: float = 1.0
    eps: float = 1.0
    name: str = field(init=False, default="")
    bound: float = field(init=False, default=0.0)
    lipschitz: float = field(init=False, default=1.0)

    def __post_init__(self):
        if self.M <= 0 or self.eps <= 0:
            raise ParameterError("ClampedIdentity needs M > 0 and eps > 0")
        object.__setattr__(self, "bound", self.M + self.eps)
        object.__setattr__(self, "name", f"clamped_identity(M={self.M},eps={self.eps})")

    def __call__(self, x):
        c = self.M + self.eps
        return np.clip(x, -c, c)

    @property
    def kinks(self):
        return (-self.bound, self.bound)

    def slope_on(self, hi):
        """1, where [0, hi] lies inside the unclamped range."""
        return 1.0 if hi <= self.M + self.eps else None


@dataclass(frozen=True)
class ClampedAffine(TestFunction):
    """K*(x - x0), clamped to [-M, M]."""

    K: float = 2.0
    M: float = 10.0
    x0: float = 0.5
    name: str = field(init=False, default="")
    bound: float = field(init=False, default=0.0)
    lipschitz: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.K <= 0 or self.M <= 0:
            raise ParameterError("ClampedAffine needs K > 0 and M > 0")
        object.__setattr__(self, "bound", self.M)
        object.__setattr__(self, "lipschitz", self.K)
        object.__setattr__(
            self, "name", f"clamped_affine(K={self.K},M={self.M},x0={self.x0})"
        )

    def __call__(self, x):
        return np.clip(self.K * (np.asarray(x, dtype=float) - self.x0), -self.M, self.M)

    @property
    def kinks(self):
        return (self.x0 - self.M / self.K, self.x0 + self.M / self.K)

    def slope_on(self, hi):
        """K, where [0, hi] lies inside the unclamped range."""
        return self.K if self.K * max(abs(self.x0), abs(hi - self.x0)) <= self.M else None
