"""Regularized Taylor models and inexact tensor steps.

The degree-p Taylor model of f at x and its power-augmented version are

    model(y)     = sum_{k=0}^p D^k f(x)[y-x]^k / k!,
    augmented(y) = model(y) + (M/(p+1)!) |y-x|^{p+1},

the latter convex once M >= p * M_{p+1} where M_{p+1} bounds |D^{p+1} f|.
An inexact tensor step accepts T with a subgradient g of psi at T when

    |grad augmented(T) + g|  <=  (gamma/(1+gamma)) |grad model(T) + g|.

Such steps satisfy the proximal acceptance inequality with H = M/p! at level

    (M_{p+1} + gamma M) / ((1-gamma) M - M_{p+1}),

which equals beta exactly when M = (1+beta)/(beta(1-gamma) - gamma) M_{p+1}.

A ``TaylorModel`` evaluates f(x) and grad f(x) (one residual pass) and the
stack of orders 2, ..., p (one more, an ``AnchorStack``) at its x once.
It is a ``bregman.AnchoredModel``: ``evaluate`` gives the augmented model at
y, H = M/p!, and ``with_part`` both models, from one pass. A ``tensor_step``
minimizes the augmented model plus psi by ``inner.prox_newton``, in every
dimension, as the inner loop's steps and the exact prox do.
"""

from __future__ import annotations

import math

import numpy as np

from .bregman import AnchoredModel
from .errors import ParameterError
from .inner import _composite_argmin
from .metric import norm
from .oracles import AnchorStack

CRITERION_SLACK = 1e-12


class TaylorModel(AnchoredModel):
    """Degree-p Taylor model of ``oracle`` at ``x`` (its part) augmented by H = M/p! (its ``h``)."""

    def __init__(self, oracle, x, p, m):
        if p < 1:
            raise ParameterError("p must be >= 1")
        if m < 0:
            raise ParameterError("M must be >= 0")
        super().__init__(oracle, x, p, m / math.factorial(p))
        self.m = float(m)
        self.f0, self.g0, _ = oracle.evaluate(self.anchor)
        self.stack = AnchorStack(oracle, self.anchor, range(2, self.p + 1))

    def _part(self, y, d, hessian):
        return self.stack.series(d, hessian, self.f0 + float(np.dot(self.g0, d)), self.g0)


def convexity_threshold(p, m_next):
    """Smallest augmentation M guaranteeing a convex augmented model."""
    return p * m_next


def tensor_step(tm, term, gamma):
    """Minimize the augmented model plus psi: (T, g, criterion_ok, lhs, rhs).

    ``inner._composite_argmin`` minimizes the augmented model plus psi from x
    at the ``CRITERION_SLACK`` tolerance, and g is nearest to
    -grad augmented(T), so the step passes ``tensor_criterion`` at every
    gamma, gamma = 0 included.
    """
    if gamma < 0:
        raise ParameterError("gamma must be >= 0")
    t, g = _composite_argmin(lambda y: tm.evaluate(y, hessian=True), term, tm.anchor,
                             CRITERION_SLACK)
    ok, lhs, rhs = tensor_criterion(tm.with_part(t), g, gamma)
    return t, g, ok, lhs, rhs


def tensor_criterion(at, g, gamma):
    """Evaluate the inexactness criterion at a candidate pair (y, g).

    ``at`` is the Taylor model's pass at y, ``tm.with_part(y)`` (as
    ``bregman.candidates`` yields it). Returns (ok, lhs, rhs) with lhs the
    augmented-gradient residual and rhs the model residual the criterion
    compares against; ok allows an additive ``CRITERION_SLACK``.
    """
    g = np.asarray(g, dtype=float)
    augmented, model = at
    lhs = norm(augmented[1] + g)
    rhs = norm(model[1] + g)
    return lhs <= gamma / (1.0 + gamma) * rhs + CRITERION_SLACK, lhs, rhs


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
    if not 0.0 < m_next < math.inf:
        raise ParameterError("need a finite positive M_{p+1} bound")
    m = (1.0 + beta) / denom * m_next
    return m, m / math.factorial(p)


def lemma2_bound_check(tm, y, g, at, gamma, m_next):
    """Check the residual transfer bound satisfied by criterion-passing steps.

    ``at`` is the Taylor model's pass at y, ``tm.with_part(y)`` (as
    ``bregman.candidates`` yields it), whose ``at[0][5]`` is grad d(y-x).
    Returns (lhs, bound, ok) with
    lhs   = |grad f(T) + (M/p!) grad d(T-x) + g|_*,
    bound = (M_{p+1} + gamma M)/((1-gamma) M - M_{p+1}) |grad f(T) + g|_*,
    and ok allowing a relative slack of 1e-10 (absolute below bound 1).
    """
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    denom = (1.0 - gamma) * tm.m - m_next
    if denom <= 0:
        raise ParameterError("(1-gamma) M must exceed M_{p+1}")
    grad = tm.oracle.gradient(y)
    lhs = norm(grad + tm.h * at[0][5] + g)
    rhs = norm(grad + g)
    bound = (m_next + gamma * tm.m) / denom * rhs
    return lhs, bound, lhs <= bound + 1e-10 * max(1.0, bound)
