"""Scalar function families for separable objectives f(x) = sum_i f_i(<a_i, x> - b_i).

Each family evaluates values and k-th derivatives at a whole residual vector
t at once: ``value(t)`` and ``derivative(t, k)`` take a 1-d float array and
return an array of the same shape, entry i belonging to t_i. Each family also
reports sup |f^(k)| over an interval (used for box-restricted smoothness
constants). The logistic family's is its global sup, a constant of the family
alone, formed once per order per process and shared by every instance, like
its coefficient table; ``Logistic()`` holds no state. A family with an open
domain (neg-log) checks t on every call and raises ``DomainError`` naming the
first entry outside it: the row of the oracle that formed t
(``check_domain``). The quartic is ``Power(4)``.

The arrays carry the digits of a per-scalar evaluation. Every transcendental
call (``math.log``, ``math.exp``, ``math.log1p``) and every power ``**`` is a
per-scalar Python-float call over ``t.tolist()``, on the platform's libm;
only + - * / are vectorized, since numpy's ``exp``, ``log`` and ``**`` (even
``t * t`` for ``t ** 2``) round differently on a share of arguments, and the
solver's traces are compared byte for byte. Callers that sum values sum them
left to right (``sum``), not by ``np.sum``.

The neg-log family exposes the identity

    f^(2k)(t) = (2k-1)! * (f''(t))^k,

so all even-order derivatives can be produced from second-derivative
evaluations alone; callers that only need even orders never request an order
above 2 from it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ParameterError


def _powers(t, k):
    """t_i ** k for each entry, by Python pow on floats."""
    return np.array([v ** k for v in t.tolist()])


def _read_only(a):
    a.flags.writeable = False
    return a


class ScalarFamily:
    """Base scalar family. Subclasses define value/derivative/derivative_sup."""

    name = "base"
    #: even derivatives computable from f'' alone (order-2 evaluations only)
    even_from_second = False
    #: left end of the open domain, or None for all of R
    domain_low = None

    def check_domain(self, t):
        """Raise DomainError naming the first entry (row) of t outside the open domain."""
        if self.domain_low is not None:
            bad = np.flatnonzero(t <= self.domain_low)
            if bad.size:
                i = int(bad[0])
                raise DomainError("row %d argument %r outside domain (> %r)"
                                  % (i, float(t[i]), self.domain_low), index=i)

    def value(self, t):
        raise NotImplementedError

    def derivative(self, t, k):
        raise NotImplementedError

    def derivative_sup(self, k, t_lo, t_hi):
        """sup over [t_lo, t_hi] of |f^(k)|; may return inf."""
        raise NotImplementedError


class Linear(ScalarFamily):
    """f(t) = t."""

    name = "linear"

    def value(self, t):
        return np.array(t, dtype=float)

    def derivative(self, t, k):
        return np.full(np.shape(t), 1.0 if k == 1 else 0.0)

    def derivative_sup(self, k, t_lo, t_hi):
        return 1.0 if k == 1 else 0.0


class NegLog(ScalarFamily):
    """f(t) = -log t on t > 0; f^(k)(t) = (-1)^k (k-1)! / t^k."""

    name = "neg-log"
    even_from_second = True
    domain_low = 0.0

    def value(self, t):
        self.check_domain(t)
        return np.array([-math.log(v) for v in t.tolist()])

    def derivative(self, t, k):
        self.check_domain(t)
        if k % 2 == 0 and k > 2:
            # route even orders through f'' (exact identity)
            d2 = 1.0 / (t * t)
            return math.factorial(k - 1) * _powers(d2, k // 2)
        return (-1.0) ** k * math.factorial(k - 1) / _powers(t, k)

    def derivative_sup(self, k, t_lo, t_hi):
        if t_lo <= 0:
            return np.inf
        return math.factorial(k - 1) / t_lo ** k


# the logistic family's constants per order, filled on first use and shared
# by every ``Logistic``: read-only coefficient arrays, and sup |f^(k)|
_LOGISTIC_POLY = {1: _read_only(np.array([0.0, 1.0]))}
_LOGISTIC_SUP = {}


def _logistic_coeffs(k):
    """Ascending coefficients of f^(k) in powers of s, from f' = s and ds/dt = s - s^2."""
    if k < 1:
        raise ParameterError("derivative order must be >= 1")
    while k not in _LOGISTIC_POLY:
        j = max(_LOGISTIC_POLY)
        c = _LOGISTIC_POLY[j]
        dc = c[1:] * np.arange(1, len(c))  # d/ds
        # multiply by (s - s^2)
        nxt = np.zeros(len(dc) + 2)
        nxt[1 : 1 + len(dc)] += dc
        nxt[2 : 2 + len(dc)] -= dc
        _LOGISTIC_POLY[j + 1] = _read_only(nxt)
    return _LOGISTIC_POLY[k]


def _logistic_horner(k, s):
    """f^(k) as its polynomial in s, by Horner's rule from the top coefficient."""
    y = np.zeros_like(s)
    for coeff in _logistic_coeffs(k)[::-1]:
        y = y * s + coeff
    return y


def _logistic_grid_sup(k):
    """max |f^(k)| on a dense s-grid, the global sup to plotting accuracy, padded by 5%."""
    s = np.linspace(1e-9, 1.0 - 1e-9, 20001)
    return 1.05 * float(np.abs(_logistic_horner(k, s)).max())


class Logistic(ScalarFamily):
    """f(t) = log(1 + e^t); derivatives are polynomials in s = sigmoid(t)."""

    name = "logistic"

    def value(self, t):
        tail = np.array([math.log1p(math.exp(-abs(v))) for v in t.tolist()])
        return np.maximum(t, 0.0) + tail

    def derivative(self, t, k):
        # s = 1 / (1 + e^-t) for t >= 0 and e^t / (1 + e^t) below, both from e = e^-|t|
        e = np.array([math.exp(-abs(v)) for v in t.tolist()])
        s = np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return _logistic_horner(k, s)

    def derivative_sup(self, k, t_lo, t_hi):
        """The global sup of |f^(k)| over R, whatever the interval.

        |f^(k)| depends on t only through s in (0, 1), so the sup is a
        constant of the family: formed once per order per process
        (``_logistic_grid_sup``) and read from then on.
        """
        sup = _LOGISTIC_SUP.get(k)
        if sup is None:
            sup = _LOGISTIC_SUP[k] = _logistic_grid_sup(k)
        return sup


class Power(ScalarFamily):
    """f(t) = t^m for an even integer m >= 2 (smooth power growth)."""

    name = "power"

    def __init__(self, exponent):
        m = int(exponent)
        if m != exponent or m < 2 or m % 2 != 0:
            raise ParameterError("power exponent must be an even integer >= 2")
        self.exponent = m

    def value(self, t):
        return _powers(t, self.exponent)

    def derivative(self, t, k):
        m = self.exponent
        if k > m:
            return np.zeros(np.shape(t))
        return math.factorial(m) / math.factorial(m - k) * _powers(t, m - k)

    def derivative_sup(self, k, t_lo, t_hi):
        m = max(abs(t_lo), abs(t_hi))
        if k > self.exponent:
            return 0.0
        return math.factorial(self.exponent) / math.factorial(self.exponent - k) * m ** (
            self.exponent - k
        )


class Quartic(Power):
    """f(t) = t^4: ``Power(4)`` under its catalog name."""

    name = "quartic"

    def __init__(self):
        super().__init__(4)


_FAMILIES = {
    "linear": Linear,
    "quartic": Quartic,
    "neg-log": NegLog,
    "logistic": Logistic,
}


def make_family(name, **kwargs):
    if name == "power":
        return Power(**kwargs)
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise ParameterError("unknown scalar family %r" % (name,)) from None
