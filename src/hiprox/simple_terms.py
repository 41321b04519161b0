"""Simple composite terms psi: closed convex, cheap prox, explicit subdifferential.

Kinds: zero, l1(lam), nonneg (indicator of the nonnegative orthant),
ball (indicator of |x - center| <= radius), box (indicator of [lo, hi]),
abs-1d (|x| in dimension 1).

The weighted Euclidean prox solves, in the identity metric,

    prox(s, c, tau) = argmin_z  <s, z> + psi(z) + (tau/2) |z - c|^2,

A separable term describes each coordinate once, as a convex piecewise-linear
function: ``subdifferential(x)`` gives dpsi_i(x_i) = [lo_i, hi_i] (lo_i < hi_i
exactly at a kink or a bound) and ``piece(slope)`` the closed interval on which
psi_i has that slope; the active-set model step of ``inner.prox_newton``
reads both. (So does the univariate minimizer, which only the tests use as a
reference: it takes psi's one-sided derivatives from the subdifferential and
its domain ends and kinks from the pieces of slope -inf and +inf.)
``subgradient_select(x, target)`` clips ``target`` into [lo, hi], the
element of the subdifferential closest to it: the exact prox and the tensor
step take their g from it, and the example scans and diagnostics use it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ParameterError

_INF = np.inf


def _soft(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


class SimpleTerm:
    kind = "base"
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

    def subdifferential(self, x):
        """(lo, hi) with dpsi_i(x_i) = [lo_i, hi_i] (separable kinds)."""
        raise NotImplementedError

    def piece(self, slope):
        """(lo, hi): the closed interval on which psi_i has slope slope_i."""
        raise NotImplementedError

    def subgradient_select(self, x, target):
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise DomainError("point outside the domain of the %s term" % self.kind)
        lo, hi = self.subdifferential(x)
        return np.minimum(np.maximum(target, lo), hi)

    def subgradient_distance(self, x, target):
        """Euclidean distance from target to the subdifferential at x."""
        gap = np.asarray(target, dtype=float) - self.subgradient_select(x, target)
        return math.sqrt(float(np.dot(gap, gap)))


class ZeroTerm(SimpleTerm):
    kind = "zero"

    def value(self, x):
        return 0.0

    def _prox_point(self, v, tau):
        return v

    def subdifferential(self, x):
        return np.zeros(np.shape(x)), np.zeros(np.shape(x))

    def subgradient_distance(self, x, target):
        # dpsi = {0} everywhere
        target = np.asarray(target, dtype=float)
        return math.sqrt(float(np.dot(target, target)))

    def piece(self, slope):
        return np.full(np.shape(slope), -_INF), np.full(np.shape(slope), _INF)


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

    def subdifferential(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, self.lam, -self.lam), np.where(x < 0, -self.lam, self.lam)

    def piece(self, slope):
        # slope lam on [0, inf), -lam on (-inf, 0]; the whole line when lam = 0
        slope = np.asarray(slope, dtype=float)
        return np.where(slope > -self.lam, 0.0, -_INF), np.where(slope < self.lam, 0.0, _INF)


class Abs1d(L1Term):
    """|x| in dimension 1; same calculus as l1 with unit weight."""

    kind = "abs-1d"

    def __init__(self):
        super().__init__(1.0)


class NonnegTerm(SimpleTerm):
    kind = "nonneg"

    def value(self, x):
        return 0.0 if self.contains(x) else _INF

    def contains(self, x, tol=1e-9):
        return bool((np.asarray(x, dtype=float) >= -tol).all())

    def project(self, x):
        return np.maximum(np.asarray(x, dtype=float), 0.0)

    def _prox_point(self, v, tau):
        return np.maximum(v, 0.0)

    def subdifferential(self, x):
        # normal cone: {0} where x > 0, (-inf, 0] on the boundary
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, 0.0, -_INF), np.zeros_like(x)

    def piece(self, slope):
        return np.zeros(np.shape(slope)), np.full(np.shape(slope), _INF)


class BoxTerm(SimpleTerm):
    kind = "box"

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape or np.any(self.lo > self.hi):
            raise ParameterError("box bounds must satisfy lo <= hi elementwise")
        # (lo - tol, hi + tol) by tol, formed once
        self._padded = {}

    def value(self, x):
        return 0.0 if self.contains(x) else _INF

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        bounds = self._padded.get(tol)
        if bounds is None:
            bounds = self._padded[tol] = (self.lo - tol, self.hi + tol)
        return bool((x >= bounds[0]).all() and (x <= bounds[1]).all())

    def project(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)

    def _prox_point(self, v, tau):
        return np.clip(v, self.lo, self.hi)

    def subdifferential(self, x):
        # normal cone: (-inf, 0] at lo, [0, inf) at hi, the line where lo = hi
        x = np.asarray(x, dtype=float)
        return np.where(x > self.lo, 0.0, -_INF), np.where(x < self.hi, 0.0, _INF)

    def piece(self, slope):
        return self.lo, self.hi


class BallTerm(SimpleTerm):
    kind = "ball"
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
        return math.sqrt(float(np.dot(d, d))) <= self.radius + tol

    def project(self, x):
        d = np.asarray(x, dtype=float) - self.center
        r = math.sqrt(float(np.dot(d, d)))
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
        r = math.sqrt(float(np.dot(d, d)))
        out = np.zeros_like(x)
        if r >= self.radius - 1e-12 and r > 0:
            # normal cone is the ray {alpha d : alpha >= 0}
            alpha = max(0.0, float(np.dot(np.asarray(target, dtype=float), d)) / r ** 2)
            out = alpha * d
        return out


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
