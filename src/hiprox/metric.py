"""Euclidean norm ``<x, x>^(1/2)`` and the power regularizer ``|x|^(p+1)/(p+1)``.

``norm`` is the one Euclidean norm of the package: of a point, a step and a
gradient alike, since the Euclidean norm is its own dual. ``PowerProx``
provides the regularizer of order p on any R^n,

    d(h) = |h|^{p+1} / (p+1),

its gradient ``|h|^{p-1} h`` and Hessian matrix

    D^2 d(h) = |h|^{p-1} I + (p-1) |h|^{p-3} h h^T,

which is bounded below by ``|h|^{p-1} I``. It holds only p, so every
caller builds its own.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError


def norm(v):
    """|v| = <v, v>^(1/2) of a vector, numpy's own formula for it (same bits)."""
    return math.sqrt(float(np.dot(v, v)))


class MetricSpace:
    """Empty; kept because bench/spans.py wraps this class by name (as ``StepSolver.route``)."""


class PowerProx:
    """Power regularizer d(h) = |h|^{p+1}/(p+1), p >= 1."""

    def __init__(self, p):
        if int(p) != p or p < 1:
            raise ParameterError("p must be an integer >= 1")
        self.p = int(p)

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
        h = np.asarray(h, dtype=float)
        r = norm(h)
        p, n = self.p, len(h)
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
