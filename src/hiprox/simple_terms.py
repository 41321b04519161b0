"""Simple composite terms psi: closed convex, cheap prox, explicit subdifferential.

Kinds: zero, l1(lam), nonneg (indicator of the nonnegative orthant),
ball (indicator of |x - center| <= radius), box (indicator of [lo, hi]),
abs-1d (|x| in dimension 1).

The weighted Euclidean prox solves, in the identity metric,

    prox(s, c, tau) = argmin_z  <s, z> + psi(z) + (tau/2) |z - c|^2,

and ``subgradient_select(x, target)`` returns the element of the
subdifferential at x closest to ``target`` (used by diagnostics and by the
exact 1-D prox to round its constructive subgradient into the set).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import CapabilityError, DomainError, ParameterError

_INF = np.inf


def _soft(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def _soft_float(v, thr):
    """``_soft`` on Python floats, signed zeros included (np.sign(-0.0) is +0.0)."""
    m = max(abs(v) - thr, 0.0)
    if v > 0.0:
        return m
    if v < 0.0:
        return -m
    return 0.0 * m if v == 0.0 else v


class SimpleTerm:
    kind = "base"
    is_indicator = False
    is_separable = True

    def value(self, x):
        raise NotImplementedError

    def contains(self, x, tol=1e-9):
        """Domain membership (always True for finite-valued terms)."""
        return True

    def project(self, x):
        """Euclidean projection onto the domain."""
        return np.asarray(x, dtype=float).copy()

    def prox(self, s, c, tau):
        s = np.asarray(s, dtype=float)
        c = np.asarray(c, dtype=float)
        if tau <= 0:
            raise ParameterError("tau must be positive")
        return self._prox_point(c - s / tau, tau)

    def _prox_point(self, v, tau):
        raise NotImplementedError

    def subgradient_select(self, x, target):
        raise NotImplementedError

    def subgradient_distance(self, x, target):
        """Euclidean distance from target to the subdifferential at x."""
        sel = self.subgradient_select(x, target)
        return float(np.linalg.norm(np.asarray(target, dtype=float) - sel))

    # -- coordinatewise interface (separable kinds) ---------------------
    def coordinate_min(self, i, lin, quad):
        """argmin_z (quad/2) z^2 + lin z + psi_i(z) for coordinate i.

        Takes and returns Python floats: coordinate descent calls it once per
        coordinate and sweep, where numpy scalar arithmetic would dominate.
        """
        raise CapabilityError("%s has no coordinatewise form" % self.kind)

    # -- 1-D helpers for the univariate composite minimizer -------------
    def interval_1d(self):
        """Domain interval (lo, hi) in dimension 1."""
        return (-_INF, _INF)

    def deriv_right_1d(self, x):
        """Right derivative of the finite part at interior x."""
        return 0.0

    def deriv_left_1d(self, x):
        return 0.0


class ZeroTerm(SimpleTerm):
    kind = "zero"

    def value(self, x):
        return 0.0

    def _prox_point(self, v, tau):
        return v

    def subgradient_select(self, x, target):
        return np.zeros_like(np.asarray(x, dtype=float))


class L1Term(SimpleTerm):
    kind = "l1"

    def __init__(self, lam):
        if lam < 0:
            raise ParameterError("l1 weight must be >= 0")
        self.lam = float(lam)

    def value(self, x):
        return self.lam * float(np.abs(x).sum())

    def _prox_point(self, v, tau):
        return _soft(v, self.lam / tau)

    def subgradient_select(self, x, target):
        x = np.asarray(x, dtype=float)
        t = np.broadcast_to(np.asarray(target, dtype=float), x.shape)
        out = np.where(x > 0, self.lam, np.where(x < 0, -self.lam, 0.0)).astype(float)
        at_zero = x == 0
        out[at_zero] = np.clip(t[at_zero], -self.lam, self.lam)
        return out

    def coordinate_min(self, i, lin, quad):
        return _soft_float(-lin / quad, self.lam / quad)

    def deriv_right_1d(self, x):
        return self.lam if x >= 0 else -self.lam

    def deriv_left_1d(self, x):
        return self.lam if x > 0 else -self.lam


class Abs1d(L1Term):
    """|x| in dimension 1; same calculus as l1 with unit weight."""

    kind = "abs-1d"

    def __init__(self):
        super().__init__(1.0)


class NonnegTerm(SimpleTerm):
    kind = "nonneg"
    is_indicator = True

    def value(self, x):
        return 0.0 if self.contains(x) else _INF

    def contains(self, x, tol=1e-9):
        return bool(np.all(np.asarray(x, dtype=float) >= -tol))

    def project(self, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    def _prox_point(self, v, tau):
        return np.maximum(v, 0.0)

    def subgradient_select(self, x, target):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError("point outside the nonnegative orthant")
        t = np.broadcast_to(np.asarray(target, dtype=float), x.shape)
        # normal cone: {0} where x > 0, (-inf, 0] on the boundary
        out = np.zeros_like(x)
        boundary = x <= 0
        out[boundary] = np.minimum(t[boundary], 0.0)
        return out

    def coordinate_min(self, i, lin, quad):
        return max(-lin / quad, 0.0)

    def interval_1d(self):
        return (0.0, _INF)


class BoxTerm(SimpleTerm):
    kind = "box"
    is_indicator = True

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ParameterError("box bounds must satisfy lo <= hi elementwise")

    # the bounds as Python floats for coordinate_min, built on first use
    @cached_property
    def _lo_list(self):
        return self.lo.tolist()

    @cached_property
    def _hi_list(self):
        return self.hi.tolist()

    def value(self, x):
        return 0.0 if self.contains(x) else _INF

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)

    def _prox_point(self, v, tau):
        return np.clip(v, self.lo, self.hi)

    def subgradient_select(self, x, target):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError("point outside the box")
        t = np.broadcast_to(np.asarray(target, dtype=float), x.shape)
        out = np.zeros_like(x)
        at_lo = x <= self.lo
        at_hi = x >= self.hi
        out[at_lo] = np.minimum(t[at_lo], 0.0)
        out[at_hi] = np.maximum(t[at_hi], 0.0)
        return out

    def coordinate_min(self, i, lin, quad):
        # np.clip on a scalar, with the same signed zeros and NaN
        return min(max(-lin / quad, self._lo_list[i]), self._hi_list[i])

    def interval_1d(self):
        return (float(self.lo[0]), float(self.hi[0]))


class BallTerm(SimpleTerm):
    kind = "ball"
    is_indicator = True
    is_separable = False

    def __init__(self, center, radius):
        if radius <= 0:
            raise ParameterError("ball radius must be positive")
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)

    def value(self, x):
        return 0.0 if self.contains(x) else _INF

    def contains(self, x, tol=1e-9):
        d = np.asarray(x, dtype=float) - self.center
        return bool(np.linalg.norm(d) <= self.radius + tol)

    def project(self, x):
        d = np.asarray(x, dtype=float) - self.center
        r = np.linalg.norm(d)
        if r <= self.radius:
            return self.center + d
        return self.center + d * (self.radius / r)

    def _prox_point(self, v, tau):
        return self.project(v)

    def subgradient_select(self, x, target):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError("point outside the ball")
        d = x - self.center
        r = float(np.linalg.norm(d))
        out = np.zeros_like(x)
        if r >= self.radius - 1e-12 and r > 0:
            # normal cone is the ray {alpha d : alpha >= 0}
            alpha = max(0.0, float(np.dot(np.asarray(target, dtype=float), d)) / r ** 2)
            out = alpha * d
        return out

    def interval_1d(self):
        c = float(self.center[0])
        return (c - self.radius, c + self.radius)


def make_term(kind, **kwargs):
    table = {
        "zero": ZeroTerm,
        "l1": L1Term,
        "nonneg": NonnegTerm,
        "ball": BallTerm,
        "box": BoxTerm,
        "abs-1d": Abs1d,
    }
    try:
        return table[kind](**kwargs)
    except KeyError:
        raise ParameterError("unknown simple term kind %r" % (kind,)) from None
