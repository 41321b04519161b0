"""Regularized Taylor models and inexact tensor steps (dimension 1).

The degree-p Taylor model of f at x and its power-augmented version are

    model(y)     = sum_{k=0}^p D^k f(x)[y-x]^k / k!,
    augmented(y) = model(y) + (M/(p+1)!) |y-x|^{p+1},

the latter convex once M >= p * M_{p+1} where M_{p+1} bounds |D^{p+1} f|.
An inexact tensor step accepts T with a subgradient g of psi at T when

    |grad augmented(T) + g|  <=  (gamma/(1+gamma)) |grad model(T) + g|.

Such steps satisfy the proximal acceptance inequality with H = M/p! at level

    (M_{p+1} + gamma M) / ((1-gamma) M - M_{p+1}),

which equals beta exactly when M = (1+beta)/(beta(1-gamma) - gamma) M_{p+1}.

A ``TaylorModel`` evaluates f(x), grad f(x) and the derivative stack of
orders 2, ..., p at its fixed x once, at construction (an ``AnchorStack``);
the model's value and gradient then only contract that stack against y - x.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .metric import MetricSpace, PowerProx
from .oracles import AnchorStack
from .univariate import minimize_composite_1d

CRITERION_SLACK = 1e-12


class TaylorModel:
    """Degree-p Taylor model of ``oracle`` at ``x`` with augmentation M."""

    def __init__(self, oracle, x, p, m, metric=None):
        if p < 1:
            raise ParameterError("p must be >= 1")
        if m < 0:
            raise ParameterError("M must be >= 0")
        self.oracle = oracle
        self.x = np.asarray(x, dtype=float)
        self.p = int(p)
        self.m = float(m)
        self.metric = metric if metric is not None else MetricSpace.euclidean(len(self.x))
        self._pp = PowerProx(self.p, self.metric)
        self.f0 = oracle.value(self.x)
        self.g0 = oracle.gradient(self.x)
        self.stack = AnchorStack(oracle, self.x, range(2, self.p + 1))

    def taylor_value(self, y):
        d = np.asarray(y, dtype=float) - self.x
        val = self.f0 + float(np.dot(self.g0, d))
        for k in range(2, self.p + 1):
            val += self.stack.directional(d, k) / math.factorial(k)
        return val

    def taylor_gradient(self, y):
        d = np.asarray(y, dtype=float) - self.x
        out = self.g0
        for k in range(2, self.p + 1):
            out = out + self.stack.apply(d, k, d) / math.factorial(k - 1)
        return out

    def augmented_value(self, y):
        d = np.asarray(y, dtype=float) - self.x
        return self.taylor_value(y) + self.m / math.factorial(self.p) * self._pp.value(d)

    def augmented_gradient(self, y):
        d = np.asarray(y, dtype=float) - self.x
        return self.taylor_gradient(y) + self.m / math.factorial(self.p) * self._pp.gradient(d)

    @property
    def prox_h(self):
        """H = M/p! of the proximal problem this step approximates."""
        return self.m / math.factorial(self.p)


def convexity_threshold(p, m_next):
    """Smallest augmentation M guaranteeing a convex augmented model."""
    return p * m_next


def tensor_step_1d(tm, term, gamma):
    """Minimize the augmented model plus psi in dimension 1.

    Returns (T, g, criterion_ok, lhs, rhs) where the criterion compares the
    augmented-gradient residual against gamma/(1+gamma) times the model
    residual; an exact minimizer always passes.
    """
    if tm.oracle.dimension != 1:
        raise ParameterError("tensor steps are implemented in dimension 1 only")
    if gamma < 0:
        raise ParameterError("gamma must be >= 0")

    def smooth_deriv(y):
        return float(tm.augmented_gradient(np.array([y]))[0])

    t = minimize_composite_1d(smooth_deriv, term, float(tm.x[0]))
    ty = np.array([t])
    g = term.subgradient_select(ty, -tm.augmented_gradient(ty))
    ok, lhs, rhs = tensor_criterion(tm, term, ty, g, gamma)
    return ty, g, ok, lhs, rhs


def tensor_criterion(tm, term, y, g, gamma, slack=CRITERION_SLACK):
    """Evaluate the inexactness criterion at an arbitrary candidate pair.

    Returns (ok, lhs, rhs) with lhs the augmented-gradient residual and rhs
    the model residual the criterion compares against.
    """
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    metric = tm.metric
    lhs = metric.dual_norm(tm.augmented_gradient(y) + g)
    rhs = metric.dual_norm(tm.taylor_gradient(y) + g)
    return lhs <= gamma / (1.0 + gamma) * rhs + slack, lhs, rhs


def tensor_acceptance_map(p, beta, gamma, m_next):
    """Map (p, beta, gamma, M_{p+1}) to the (M, H) making criterion-passing
    tensor steps acceptable at level beta.

    Requires 0 <= gamma < beta/(1+beta) (equivalently beta(1-gamma) > gamma).
    """
    if not 0.0 < beta < 1.0:
        raise ParameterError("beta must lie in (0, 1)")
    denom = beta * (1.0 - gamma) - gamma
    if gamma < 0 or denom <= 0:
        raise ParameterError("gamma must lie in [0, beta/(1+beta))")
    if m_next <= 0:
        raise ParameterError("M_{p+1} must be positive")
    m = (1.0 + beta) / denom * m_next
    assert (1.0 - gamma) * m > m_next
    return m, m / math.factorial(p)


def lemma2_bound_check(tm, y, g, gamma, m_next, slack=1e-10):
    """Check the residual transfer bound satisfied by criterion-passing steps.

    Returns (lhs, bound, ok) with
    lhs   = |grad f(T) + (M/p!) grad d(T-x) + g|_*,
    bound = (M_{p+1} + gamma M)/((1-gamma) M - M_{p+1}) |grad f(T) + g|_*.
    """
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    denom = (1.0 - gamma) * tm.m - m_next
    if denom <= 0:
        raise ParameterError("(1-gamma) M must exceed M_{p+1}")
    metric = tm.metric
    d = y - tm.x
    pp = PowerProx(tm.p, metric)
    lhs = metric.dual_norm(tm.oracle.gradient(y) + tm.prox_h * pp.gradient(d) + g)
    rhs = metric.dual_norm(tm.oracle.gradient(y) + g)
    bound = (m_next + gamma * tm.m) / denom * rhs
    return lhs, bound, lhs <= bound + slack * max(1.0, bound)
