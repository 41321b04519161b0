"""Smooth convex oracles and their derivative stacks at a fixed point.

The central implementation is ``SeparableObjective``,

    f(x) = sum_i f_i(<a_i, x> - b_i),

whose k-th derivative tensors reduce to scalar derivatives,

    D^k f(x)[h]^k          = sum_i f_i^(k)(t_i) <a_i, h>^k,
    D^k f(x)[h]^{k-2} u    = sum_i f_i^(k)(t_i) <a_i, h>^{k-2} <a_i, u> a_i.

``QuadraticObjective`` covers f(x) = x'Qx/2 + <c, x> (all tensors of order
>= 3 vanish).

An oracle gives f, its gradient and its Hessian matrix at a point. Every
contraction of a derivative of order k >= 2 goes through one set of helpers
that take the order-k derivative data at a point (``_weights``) and a
direction h in the oracle's projected form (``_project``: a h for a
separable oracle, h itself for a quadratic): ``_form`` gives D^k f[h]^k,
``_apply`` and ``_matrix`` the tensor D^k f[h]^{k-2}. One projection of h
serves every order and every contraction against h. ``AnchorStack`` is the
only public way to use them: it holds that data for the orders it is given
at a fixed point y, evaluated once, and contracts it against a new h on
every call without evaluating a scalar derivative again; ``series`` sums
every order's Taylor term, gradient and (when asked) Hessian from one
projection. A scaling function anchored at y (``bregman``) and a Taylor
model at x (``tensor``) each build one.

Scalar-derivative evaluations are counted per order in ``calls_by_order``,
so a run can certify which derivative orders it consumed: order 0 counts
values, order 1 gradients (one count per row of a separable oracle, one per
call of a quadratic), and a stack's orders are counted once per
``AnchorStack``, not once per use. The inner loop evaluates f and grad f
once per certified candidate (in ``check_acceptable``), a rejected one
included, and each inner solve starts from the f and grad f its start
brings along; the outer loops read f(T) and grad f(T) from the certificate.
So a bi-level run's order-1 count is rows x (candidates + 1): the one is
grad f(x_0), and a solve that ends at a fixed point counts one candidate.

A separable oracle forms the residual vector t = a x - b once per point and
hands it whole to its scalar family (``scalar_families``), one call per
order, which keeps the digits of a per-scalar libm evaluation and, for a
family with an open domain, raises ``DomainError`` naming the first row
outside it;
``evaluate`` takes f, grad f and, when asked, the Hessian matrix from that
one residual pass and records the same counts as ``value``, ``gradient``
and ``hessian_matrix`` called apart. The values f_i(t_i) are summed left to
right.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DimensionError, ParameterError


class SmoothOracle:
    """Interface for smooth convex objectives with derivative stacks."""

    dimension = None

    def __init__(self):
        self.m_bounds = {}
        self.calls_by_order = {}

    def _record(self, order, count):
        self.calls_by_order[order] = self.calls_by_order.get(order, 0) + count

    def reset_counters(self):
        self.calls_by_order = {}

    def m_bound(self, k):
        """Known upper bound on sup ||D^k f|| over the working region."""
        return self.m_bounds.get(int(k), np.inf)

    def _check_vec(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionError(
                "vector shape %s != (%d,)" % (x.shape, self.dimension)
            )
        return x

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def evaluate(self, x, hessian=False):
        """(f(x), grad f(x), Hessian matrix of f at x or None), recorded as the separate calls."""
        return self.value(x), self.gradient(x), self.hessian_matrix(x) if hessian else None

    def hessian_matrix(self, x):
        return self._matrix(self._weights(x, 2), None, 2)

    # -- the tensor algebra, on the order-k data at one point ---------------
    # directions enter projected: ph = _project(h), pu = _project(u)
    def _weights(self, x, k):
        """Order-k derivative data at x; records its scalar evaluations."""
        raise NotImplementedError

    def _project(self, h):
        """The projected form of a direction h, shared by every contraction."""
        raise NotImplementedError

    def _form(self, w, ph, k):
        """D^k f[h]^k from the order-k data w."""
        raise NotImplementedError

    def _apply(self, w, ph, k, pu):
        """D^k f[h]^{k-2} u from the order-k data w."""
        raise NotImplementedError

    def _matrix(self, w, ph, k):
        """Dense D^k f[h]^{k-2} from the order-k data w."""
        raise NotImplementedError


class AnchorStack:
    """Derivative data of an oracle at a fixed point y, for orders k >= 2.

    The data of each order in ``orders`` is evaluated (and recorded in
    ``calls_by_order``) once, here. ``apply(h, k, u)`` and ``form(h, k, u)``
    then give D^k f(y)[h]^{k-2} u and D^k f(y)[h]^{k-2}[u, u]; with u = h,
    ``apply`` gives the covector D^k f(y)[h]^{k-1}. ``series`` sums every
    order at once.
    """

    def __init__(self, oracle, y, orders):
        self.oracle = oracle
        self.weights = {}
        for k in orders:
            if k < 2:
                raise ParameterError("tensor order must be >= 2")
            self.weights[k] = oracle._weights(y, k)
        # (k, data, k!, (k-1)!, (k-2)!) per order, for ``series``
        self._orders = [(k, w, math.factorial(k), math.factorial(k - 1), math.factorial(k - 2))
                        for k, w in self.weights.items()]

    def _project(self, h):
        # order 2 does not depend on h, so it may be contracted with h = None
        return None if h is None else self.oracle._project(self.oracle._check_vec(h))

    def apply(self, h, k, u):
        """D^k f(y)[h]^{k-2} u."""
        return self.oracle._apply(self.weights[k], self._project(h), k, self._project(u))

    def form(self, h, k, u):
        """D^k f(y)[h]^{k-2}[u, u]."""
        u = self.oracle._check_vec(u)
        return float(np.dot(self.apply(h, k, u), u))

    def series(self, h, hessian=False, value=0, grad=None):
        """The stack's Taylor sums at h, from one projection of h.

        Returns value + sum_k D^k f(y)[h]^k / k!, grad + sum_k D^k f(y)[h]^{k-1} / (k-1)!
        (from 0 when grad is None) and, when ``hessian`` is set and the stack
        is not empty, the dense sum_k D^k f(y)[h]^{k-2} / (k-2)!, whose order-2
        term is ``hessian``; else None. Each term is divided by its factorial
        (formed once per stack) before it is added; the exact division of a
        gradient term by 1 is skipped. A stack that is not empty returns a new
        gradient array, and a new Hessian unless it is of order 2 alone: then
        the Hessian is the read-only ``hessian`` itself.
        """
        oracle = self.oracle
        ph = self._project(h)
        hess = None
        for k, w, fk, fk1, fk2 in self._orders:
            value = value + oracle._form(w, ph, k) / fk
            term = oracle._apply(w, ph, k, ph)
            # a new array; from grad = None as 0 + term, so a -0.0 becomes 0.0
            grad = (0.0 if grad is None else grad) + (term / fk1 if fk1 > 1 else term)
            if hessian:
                mat = self.hessian if k == 2 else oracle._matrix(w, ph, k) / fk2
                hess = mat if hess is None else hess + mat
        if grad is None:
            grad = np.zeros_like(h)
        return value, grad, hess

    @cached_property
    def hessian(self):
        """Dense D^2 f(y), computed on first use and read-only."""
        out = self.oracle._matrix(self.weights[2], None, 2)
        out.flags.writeable = False
        return out


class SeparableObjective(SmoothOracle):
    """f(x) = sum_i family(<a_i, x> - b_i).

    Parameters
    ----------
    a : (N, n) array
    b : (N,) array
    family : ScalarFamily
    """

    def __init__(self, a, b, family):
        super().__init__()
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 2:
            raise DimensionError("a must be a 2-d array")
        self.b = np.asarray(b, dtype=float)
        if self.b.shape != (self.a.shape[0],):
            raise DimensionError("b shape %s" % (self.b.shape,))
        self.family = family
        self.dimension = self.a.shape[1]

    def residuals(self, x):
        """t = a x - b; the family checks its domain on every call (``check_domain``)."""
        return self.a @ self._check_vec(x) - self.b

    # each count is recorded once the family has accepted t
    def _derivs(self, t, k):
        fam = self.family
        out = fam.derivative(t, k)
        # neg-log style families produce even orders > 2 from f'' alone
        self._record(2 if (fam.even_from_second and k % 2 == 0 and k > 2) else k, len(t))
        return out

    def _value(self, t):
        values = self.family.value(t)
        self._record(0, len(t))
        # summed left to right, as a per-row loop would
        return float(sum(values.tolist()))

    def value(self, x):
        return self._value(self.residuals(x))

    def gradient(self, x):
        t = self.residuals(x)
        return self.a.T @ self._derivs(t, 1)

    def evaluate(self, x, hessian=False):
        t = self.residuals(x)
        value, grad = self._value(t), self.a.T @ self._derivs(t, 1)
        return value, grad, self._matrix(self._derivs(t, 2), None, 2) if hessian else None

    # the scalar derivatives f_i^(k)(t_i) are the order-k data
    def _weights(self, x, k):
        return self._derivs(self.residuals(x), k)

    # a direction is projected onto the rows: ph_i = <a_i, h>
    def _project(self, h):
        return self.a @ h

    def _scaled(self, w, ph, k):
        """w_i <a_i, h>^(k-2): the row weights of D^k f[h]^{k-2}."""
        if k == 2:
            return w
        return w * ph ** (k - 2)

    def _form(self, w, ph, k):
        return float(np.dot(w, ph ** k))

    def _apply(self, w, ph, k, pu):
        return self.a.T @ (self._scaled(w, ph, k) * pu)

    def _matrix(self, w, ph, k):
        return (self.a * self._scaled(w, ph, k)[:, None]).T @ self.a


class QuadraticObjective(SmoothOracle):
    """f(x) = x'Qx/2 + <c, x> + const with Q symmetric PSD."""

    def __init__(self, q, c, const=0.0):
        super().__init__()
        self.q = np.asarray(q, dtype=float)
        n = self.q.shape[0]
        if self.q.shape != (n, n):
            raise DimensionError("Q must be square")
        if np.abs(self.q - self.q.T).max() > 1e-12 * max(1.0, np.abs(self.q).max()):
            raise ParameterError("Q must be symmetric")
        self.q = 0.5 * (self.q + self.q.T)
        if np.linalg.eigvalsh(self.q).min() < -1e-10:
            raise ParameterError("Q must be positive semidefinite")
        self.c = np.asarray(c, dtype=float)
        if self.c.shape != (n,):
            raise DimensionError("c shape %s" % (self.c.shape,))
        self.const = float(const)
        self.dimension = n
        self.m_bounds = {2: float(np.linalg.eigvalsh(self.q).max())}
        self.m_bounds.update({k: 0.0 for k in range(3, 9)})

    def value(self, x):
        x = self._check_vec(x)
        self._record(0, 1)
        return 0.5 * float(x @ self.q @ x) + float(self.c @ x) + self.const

    def gradient(self, x):
        x = self._check_vec(x)
        self._record(1, 1)
        return self.q @ x + self.c

    # Q is the order-2 data; higher orders are None (zero tensors). A
    # direction is its own projection.
    def _weights(self, x, k):
        if k == 2:
            self._record(2, 1)
            return self.q
        return None

    def _project(self, h):
        return h

    def _form(self, w, ph, k):
        return 0.0 if w is None else float(ph @ w @ ph)

    def _apply(self, w, ph, k, pu):
        return np.zeros(self.dimension) if w is None else w @ pu

    def _matrix(self, w, ph, k):
        n = self.dimension
        return np.zeros((n, n)) if w is None else w.copy()


# ---------------------------------------------------------------------------
# functional entry points


def psi_prox_euclid(term, s, c, tau):
    """argmin_z <s, z> + psi(z) + (tau/2)|z - c|^2."""
    return term.prox(s, c, tau)
