"""Euclidean norm ``<x, x>^(1/2)`` and the power regularizer ``|x|^(p+1)/(p+1)``.

``MetricSpace`` provides the primal norm of a point and the dual norm of a
gradient, which are equal: every distance in the package is Euclidean.
``PowerProx`` provides the regularizer

    d(h) = |h|^{p+1} / (p+1),

its gradient ``|h|^{p-1} h`` and Hessian matrix

    D^2 d(h) = |h|^{p-1} I + (p-1) |h|^{p-3} h h^T,

which is bounded below by ``|h|^{p-1} I``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError


class MetricSpace:
    """The Euclidean norm on R^n, n = ``dimension``, checking each vector's shape."""

    def __init__(self, dimension):
        if dimension < 1:
            raise ParameterError("dimension must be >= 1")
        self.dimension = int(dimension)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionError("vector shape %s != (%d,)" % (x.shape, self.dimension))
        return x

    def primal_norm(self, x):
        return self._norm(x)[1]

    def _norm(self, x):
        """(x as a checked array, |x|): the power regularizer reads both."""
        x = self._check(x)
        return x, math.sqrt(float(np.dot(x, x)))

    # the Euclidean norm is its own dual
    dual_norm = primal_norm


class PowerProx:
    """Power regularizer d(h) = |h|^{p+1}/(p+1) on ``metric``'s space, p >= 1."""

    def __init__(self, p, metric):
        if int(p) != p or p < 1:
            raise ParameterError("p must be an integer >= 1")
        self.p = int(p)
        self.metric = metric

    def value(self, h):
        return self._terms(h)[0]

    def gradient(self, h):
        return self._terms(h)[1]

    def hessian_matrix(self, h):
        """Dense D^2 d(h) = |h|^{p-1} I + (p-1)|h|^{p-3} h h^T (0 at h = 0, p >= 2)."""
        return self._terms(h, hessian=True)[2]

    def _terms(self, h, hessian=False):
        """(d(h), grad d(h), Hessian matrix of d at h or None, |h|), from one norm of h.

        Every array returned is new, so a caller may overwrite it. The
        identity goes onto the Hessian's diagonal in place.
        """
        h, r = self.metric._norm(h)
        p, n = self.p, self.metric.dimension
        value = r ** (p + 1) / (p + 1)
        grad = np.zeros(n) if r == 0.0 and p > 1 else r ** (p - 1) * h
        hess = None
        if hessian:
            if p == 1:
                hess = np.eye(n)
            elif r == 0.0:
                hess = np.zeros((n, n))
            else:
                # r^(p-1) I + (p-1) r^(p-3) h h^T, the rank-one part formed in place
                hess = h[:, None] * h
                hess *= (p - 1) * r ** (p - 3)
                # a writable view of the diagonal (hess is new and C-contiguous)
                hess.reshape(-1)[:: n + 1] += r ** (p - 1)
        return value, grad, hess, r

    def uniform_convexity_modulus(self):
        """Modulus c with d(y) >= d(x) + <grad d(x), y-x> + c |y-x|^{p+1}."""
        return (1.0 / (self.p + 1)) * 0.5 ** (self.p - 1)
