"""Smooth convex oracles with high-order directional tensor access.

The central implementation is ``SeparableObjective``,

    f(x) = sum_i f_i(<a_i, x> - b_i),

whose k-th directional tensors reduce to scalar derivatives,

    D^k f(x)[h]^k          = sum_i f_i^(k)(t_i) <a_i, h>^k,
    D^{2k} f(y)[h]^{2k-2} u = sum_i f_i^(2k)(t_i) <a_i, h>^{2k-2} <a_i, u> a_i.

``QuadraticObjective`` covers f(x) = x'Qx/2 + <c, x> (all tensors of order
>= 3 vanish).

Every directional contraction goes through one set of helpers that take the
order-k derivative data at a point (``_weights``): ``_form`` gives
D^k f[h]^k, ``_apply`` and ``_matrix`` the even tensors D^{2k} f[h]^{2k-2}.
``AnchorStack`` holds that data for the even orders 2, ..., 2q at a fixed
anchor y, evaluated once; a scaling function anchored at y (``bregman``)
contracts it against a new h on every call without evaluating a scalar
derivative again. Scalar-derivative evaluations are counted per order in
``calls_by_order``, so a run can certify which derivative orders it
consumed; the anchor's even orders are counted once per ``AnchorStack``, not
once per use.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, ParameterError

_MACHINE_H1 = 1e-5
_MACHINE_H2 = 1e-4


class SmoothOracle:
    """Interface for smooth convex objectives with tensor access."""

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

    def check_domain(self, x):
        pass

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

    def hessian_matrix(self, x):
        raise NotImplementedError

    def hessian_apply(self, x, u):
        return self.hessian_matrix(x) @ self._check_vec(u)

    def hessian_form(self, x, u):
        u = self._check_vec(u)
        return float(np.dot(self.hessian_apply(x, u), u))

    def directional(self, x, h, k):
        """D^k f(x)[h]^k."""
        h = self._check_vec(h)
        return self._form(self._weights(x, k), h, k)

    def tensor_apply(self, x, h, k):
        """D^k f(x)[h]^{k-1} as a covector (k >= 1; h ignored for k = 1)."""
        raise NotImplementedError

    def tensor_form2(self, x, h, k, u):
        """D^k f(x)[h]^{k-2}[u, u] for k >= 2 (any parity)."""
        raise NotImplementedError

    def even_tensor_apply(self, y, h, two_k, u):
        return AnchorStack(self, y, (two_k,)).apply(h, two_k, u)

    def even_tensor_form(self, y, h, two_k, u):
        return AnchorStack(self, y, (two_k,)).form(h, two_k, u)

    def even_tensor_matrix(self, y, h, two_k):
        """Dense D^{2k} f(y)[h]^{2k-2} as a symmetric matrix."""
        return AnchorStack(self, y, (two_k,)).matrix(h, two_k)

    # -- the tensor algebra, on the order-k data at one point ---------------
    def _weights(self, x, k):
        """Order-k derivative data at x; records its scalar evaluations."""
        raise NotImplementedError

    def _form(self, w, h, k):
        """D^k f[h]^k from the order-k data w."""
        raise NotImplementedError

    def _apply(self, w, h, k, u):
        """D^k f[h]^{k-2} u from the order-k data w (k even)."""
        raise NotImplementedError

    def _matrix(self, w, h, k):
        """Dense D^k f[h]^{k-2} from the order-k data w (k even)."""
        raise NotImplementedError


class AnchorStack:
    """Even-order derivative data of an oracle at a fixed anchor y.

    The data of each order in ``orders`` is evaluated (and recorded in
    ``calls_by_order``) once, here. ``directional(h, 2k)``,
    ``apply(h, 2k, u)``, ``form(h, 2k, u)`` and ``matrix(h, 2k)`` then equal
    ``oracle.directional(y, h, 2k)``, ``oracle.even_tensor_apply(y, h, 2k, u)``,
    ``oracle.even_tensor_form(y, h, 2k, u)`` and
    ``oracle.even_tensor_matrix(y, h, 2k)`` bit for bit, since those oracle
    methods are these with a stack built on the spot.
    """

    def __init__(self, oracle, y, orders):
        self.oracle = oracle
        self.weights = {}
        for two_k in orders:
            if two_k % 2 != 0 or two_k < 2:
                raise ParameterError("tensor order must be even and >= 2")
            self.weights[two_k] = oracle._weights(y, two_k)

    def directional(self, h, two_k):
        """D^{2k} f(y)[h]^{2k}."""
        h = self.oracle._check_vec(h)
        return self.oracle._form(self.weights[two_k], h, two_k)

    def apply(self, h, two_k, u):
        """D^{2k} f(y)[h]^{2k-2} u."""
        u = self.oracle._check_vec(u)
        return self.oracle._apply(self.weights[two_k], h, two_k, u)

    def form(self, h, two_k, u):
        """D^{2k} f(y)[h]^{2k-2}[u, u]."""
        u = self.oracle._check_vec(u)
        return float(np.dot(self.apply(h, two_k, u), u))

    def matrix(self, h, two_k):
        """Dense D^{2k} f(y)[h]^{2k-2}."""
        return self.oracle._matrix(self.weights[two_k], h, two_k)

    @cached_property
    def hessian(self):
        """Dense D^2 f(y), computed on first use and read-only."""
        out = self.matrix(None, 2)
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
        x = self._check_vec(x)
        t = self.a @ x - self.b
        lo = self.family.domain_low
        if lo is not None:
            bad = np.where(t <= lo)[0]
            if bad.size:
                raise DomainError(
                    "row %d argument %r outside domain" % (bad[0], t[bad[0]]),
                    index=int(bad[0]),
                )
        return t

    def check_domain(self, x):
        self.residuals(x)

    def _derivs(self, t, k):
        fam = self.family
        # neg-log style families produce even orders > 2 from f'' alone
        recorded = 2 if (fam.even_from_second and k % 2 == 0 and k > 2) else k
        self._record(recorded, len(t))
        return np.array([fam.derivative(ti, k) for ti in t])

    def value(self, x):
        t = self.residuals(x)
        self._record(0, len(t))
        return float(sum(self.family.value(ti) for ti in t))

    def gradient(self, x):
        t = self.residuals(x)
        return self.a.T @ self._derivs(t, 1)

    def hessian_matrix(self, x):
        return self._matrix(self._weights(x, 2), None, 2)

    def hessian_apply(self, x, u):
        w = self._weights(x, 2)
        return self._apply(w, None, 2, self._check_vec(u))

    def tensor_apply(self, x, h, k):
        t = self.residuals(x)
        if k == 1:
            return self.a.T @ self._derivs(t, 1)
        h = self._check_vec(h)
        return self.a.T @ (self._derivs(t, k) * (self.a @ h) ** (k - 1))

    def tensor_form2(self, x, h, k, u):
        w = self._weights(x, k)
        u = self._check_vec(u)
        return float(np.dot(self._scaled(w, h, k), (self.a @ u) ** 2))

    # the scalar derivatives f_i^(k)(t_i) are the order-k data
    def _weights(self, x, k):
        return self._derivs(self.residuals(x), k)

    def _scaled(self, w, h, k):
        """w_i <a_i, h>^(k-2): the row weights of D^k f[h]^{k-2}."""
        if k == 2:
            return w
        return w * (self.a @ self._check_vec(h)) ** (k - 2)

    def _form(self, w, h, k):
        return float(np.dot(w, (self.a @ h) ** k))

    def _apply(self, w, h, k, u):
        return self.a.T @ (self._scaled(w, h, k) * (self.a @ u))

    def _matrix(self, w, h, k):
        return (self.a * self._scaled(w, h, k)[:, None]).T @ self.a


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

    def hessian_matrix(self, x):
        return self._matrix(self._weights(x, 2), None, 2)

    def directional(self, x, h, k):
        if k == 1:
            return float(np.dot(self.gradient(x), self._check_vec(h)))
        return super().directional(x, h, k)

    def tensor_apply(self, x, h, k):
        if k == 1:
            return self.gradient(x)
        if k == 2:
            self._record(2, 1)
            return self.q @ self._check_vec(h)
        return np.zeros(self.dimension)

    def tensor_form2(self, x, h, k, u):
        if k == 2:
            self._record(2, 1)
            u = self._check_vec(u)
            return float(u @ self.q @ u)
        return 0.0

    # Q is the order-2 data; higher orders are None (zero tensors)
    def _weights(self, x, k):
        if k == 2:
            self._record(2, 1)
            return self.q
        return None

    def _form(self, w, h, k):
        return 0.0 if w is None else float(h @ w @ h)

    def _apply(self, w, h, k, u):
        return np.zeros(self.dimension) if w is None else w @ u

    def _matrix(self, w, h, k):
        n = self.dimension
        return np.zeros((n, n)) if w is None else w.copy()


# ---------------------------------------------------------------------------
# functional entry points


def psi_prox_euclid(term, s, c, tau):
    """argmin_z <s, z> + psi(z) + (tau/2)|z - c|^2 (identity metric)."""
    return term.prox(s, c, tau)


def fd_check(oracle, x, h, order, eps=None):
    """Central-difference consistency check; returns a relative error.

    order 1 compares (f(x+eh) - f(x-eh))/(2e) with D f(x)[h]; order 2
    compares the second central difference with D^2 f(x)[h]^2.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if order == 1:
        e = _MACHINE_H1 if eps is None else eps
        fd = (oracle.value(x + e * h) - oracle.value(x - e * h)) / (2 * e)
        exact = oracle.directional(x, h, 1)
    elif order == 2:
        e = _MACHINE_H2 if eps is None else eps
        fd = (
            oracle.value(x + e * h) - 2 * oracle.value(x) + oracle.value(x - e * h)
        ) / e ** 2
        exact = oracle.directional(x, h, 2)
    else:
        raise ParameterError("fd_check supports orders 1 and 2")
    return abs(fd - exact) / max(1.0, abs(exact))
