"""Euclidean geometry ``<Bx, x>^(1/2)`` and the power regularizer ``|x|^(p+1)/(p+1)``.

``MetricSpace`` wraps an SPD operator B (identity, diagonal, or dense) and
provides the primal norm, the dual norm ``<g, B^{-1} g>^(1/2)``, and B
applications. ``PowerProx`` provides the regularizer

    d(h) = |h|^{p+1} / (p+1),

its gradient ``|h|^{p-1} B h`` and Hessian matrix

    D^2 d(h) = |h|^{p-1} B + (p-1) |h|^{p-3} (Bh)(Bh)^T,

which is bounded below by ``|h|^{p-1} B``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve

from .errors import DimensionError, ParameterError

_SYM_TOL = 1e-12


class MetricSpace:
    """Norm pair induced by an SPD operator B.

    Parameters
    ----------
    dimension : int
    weights : array_like, optional
        Positive diagonal of B. Mutually exclusive with ``matrix``.
    matrix : array_like, optional
        Dense SPD B. Symmetry is enforced up to a relative 1e-12 and the
        Cholesky factor is cached for dual-norm solves (``cho_solve``).
    """

    def __init__(self, dimension, weights=None, matrix=None):
        if dimension < 1:
            raise ParameterError("dimension must be >= 1")
        if weights is not None and matrix is not None:
            raise ParameterError("pass at most one of weights, matrix")
        self.dimension = int(dimension)
        self._weights = None
        self._matrix = None
        self._chol = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != (self.dimension,):
                raise DimensionError("weights shape %s != (%d,)" % (w.shape, dimension))
            if not np.all(w > 0):
                raise ParameterError("diagonal of B must be positive")
            self._weights = w
        elif matrix is not None:
            a = np.asarray(matrix, dtype=float)
            if a.shape != (self.dimension, self.dimension):
                raise DimensionError("matrix shape %s" % (a.shape,))
            scale = max(1.0, float(np.abs(a).max()))
            if np.abs(a - a.T).max() > _SYM_TOL * scale:
                raise ParameterError("B must be symmetric")
            a = 0.5 * (a + a.T)
            try:
                self._chol = np.linalg.cholesky(a)
            except np.linalg.LinAlgError as exc:
                raise ParameterError("B must be positive definite") from exc
            self._matrix = a

    @classmethod
    def euclidean(cls, dimension):
        return cls(dimension)

    @property
    def is_identity(self):
        return self._weights is None and self._matrix is None

    @property
    def diagonal(self):
        """B's diagonal when B is diagonal (the scalar 1.0 for the identity), else None."""
        if self._matrix is not None:
            return None
        return 1.0 if self._weights is None else self._weights

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionError("vector shape %s != (%d,)" % (x.shape, self.dimension))
        return x

    def apply(self, x):
        """B x."""
        x = self._check(x)
        if self._weights is not None:
            return self._weights * x
        if self._matrix is not None:
            return self._matrix @ x
        return x.copy()

    def apply_inv(self, g):
        """B^{-1} g."""
        g = self._check(g)
        if self._weights is not None:
            return g / self._weights
        if self._matrix is not None:
            return cho_solve((self._chol, True), g)
        return g.copy()

    def matrix(self):
        """Dense B (assembled on demand for the diagonal/identity cases)."""
        if self._matrix is not None:
            return self._matrix.copy()
        if self._weights is not None:
            return np.diag(self._weights)
        return np.eye(self.dimension)

    @cached_property
    def min_eigenvalue(self):
        """lambda_min(B), formed once: 1 for the identity, the least weight for a diagonal B."""
        if self._weights is not None:
            return float(self._weights.min())
        if self._matrix is not None:
            return float(np.linalg.eigvalsh(self._matrix)[0])
        return 1.0

    def primal_norm(self, x):
        return self._norm_and_apply(x)[0]

    def _norm_and_apply(self, x):
        """(|x|, B x): the primal norm and the B x it is formed from (x itself for the identity)."""
        x = self._check(x)
        bx = x if self.is_identity else self.apply(x)
        return math.sqrt(max(0.0, float(np.dot(bx, x)))), bx

    def dual_norm(self, g):
        g = self._check(g)
        return math.sqrt(max(0.0, float(np.dot(g, g if self.is_identity else self.apply_inv(g)))))


class PowerProx:
    """Power regularizer d(h) = |h|^{p+1}/(p+1) in a given metric, p >= 1."""

    def __init__(self, p, metric):
        if int(p) != p or p < 1:
            raise ParameterError("p must be an integer >= 1")
        self.p = int(p)
        self.metric = metric
        # B's diagonal, None for a dense B (read by every Hessian)
        self._b_diag = metric.diagonal

    @cached_property
    def _b(self):
        """Dense B, read-only: assembled on the first Hessian that adds it (p = 1 or a dense B)."""
        out = self.metric.matrix()
        out.flags.writeable = False
        return out

    def value(self, h):
        return self._terms(h)[0]

    def gradient(self, h):
        return self._terms(h)[1]

    def hessian_matrix(self, h):
        """Dense D^2 d(h) = |h|^{p-1} B + (p-1)|h|^{p-3} (Bh)(Bh)^T (0 at h = 0, p >= 2)."""
        return self._terms(h, hessian=True)[2]

    def _terms(self, h, hessian=False):
        """(d(h), grad d(h), Hessian matrix of d at h or None, |h|), from one norm of h.

        Every array returned is new, so a caller may overwrite it. A diagonal
        B (the identity too) goes onto the Hessian's diagonal in place, so
        only p = 1 and a dense B read the dense ``_b``.
        """
        r, bh = self.metric._norm_and_apply(h)
        p, n = self.p, self.metric.dimension
        value = r ** (p + 1) / (p + 1)
        grad = np.zeros(n) if r == 0.0 and p > 1 else r ** (p - 1) * bh
        hess = None
        if hessian:
            if p == 1:
                hess = self._b.copy()
            elif r == 0.0:
                hess = np.zeros((n, n))
            else:
                # r^(p-1) B + (p-1) r^(p-3) (Bh)(Bh)^T, the rank-one part formed in place
                hess = bh[:, None] * bh
                hess *= (p - 1) * r ** (p - 3)
                if self._b_diag is None:
                    hess += r ** (p - 1) * self._b
                else:
                    # a writable view of the diagonal (hess is new and C-contiguous)
                    hess.reshape(-1)[:: n + 1] += r ** (p - 1) * self._b_diag
        return value, grad, hess, r

    def uniform_convexity_modulus(self):
        """Modulus c with d(y) >= d(x) + <grad d(x), y-x> + c |y-x|^{p+1}."""
        return (1.0 / (self.p + 1)) * 0.5 ** (self.p - 1)
