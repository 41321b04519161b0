"""The reference bisection for univariate composites, and ``decreasing_root``.

``minimize_composite_1d`` minimizes s(x) + psi(x) for convex s given s'. No
solver calls it: the inner steps, the exact prox and the tensor step minimize
by ``inner.prox_newton``, and ``outer.psi_argmin`` reduces its minimization
to a radius equation that ``decreasing_root`` closes. It stays as an
independent reference for the tests, and the bench tracer counts calls
through ``inner``'s binding. The minimizer is
inf{x : s'(x) + psi'_+(x) >= 0}; psi's domain ends and the kinks next to
them (the ends of its first and last pieces) are tested exactly first, then
the sign condition is bracketed by doubling and bisected to width 1e-14.

``decreasing_root`` closes scalar root equations (the ball multiplier of the
model step, the radius of ``psi_argmin``) by capped doubling and ``brentq``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .errors import CapabilityError, NumericalError

_EXPAND_LIMIT = 1e10
_WIDTH = 1e-14
_DOUBLING_CAP = 200


def decreasing_root(phi, lo, hi):
    """Root of a decreasing phi with phi(lo) > 0 in [lo, hi * 2^k].

    hi is doubled until phi(hi) < 0, at most ``_DOUBLING_CAP`` times, and
    the bracket is then closed by ``brentq``.
    """
    for _ in range(_DOUBLING_CAP):
        if phi(hi) < 0.0:
            return brentq(phi, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        hi *= 2.0
    raise NumericalError("root bracketing reached %d doublings" % _DOUBLING_CAP)


def minimize_composite_1d(smooth_deriv, term, center):
    """The minimizer of s + psi, s' = ``smooth_deriv``, for a separable ``term``.

    ``center`` seeds the bracket expansion; the result does not depend on it.
    """
    if not term.is_separable:
        raise CapabilityError("no 1-d minimizer for term kind %r" % term.kind)
    lo, first_kink = (float(v[0]) for v in term.piece(np.array([-np.inf])))
    last_kink, hi = (float(v[0]) for v in term.piece(np.array([np.inf])))

    def side(x, end):
        # end 0 is the left derivative, 1 the right; an infinite one (a
        # domain end) decides the sign without evaluating s'
        d = float(term.subdifferential(np.array([x]))[end][0])
        return d if np.isinf(d) else smooth_deriv(x) + d

    def right(x):
        return side(x, 1)

    for x in sorted({v for v in (lo, first_kink, last_kink, hi) if np.isfinite(v)}):
        if side(x, 0) <= 0.0 <= right(x):
            return x

    center = min(max(float(center), lo if np.isfinite(lo) else center), hi if np.isfinite(hi) else float(center))

    # lower bracket a with right(a) < 0
    if np.isfinite(lo):
        a = lo  # right(lo) < 0, else lo would have been optimal above
    else:
        a, step = float(center), 1.0
        while right(a) >= 0.0:
            a -= step
            step *= 2.0
            if abs(a) > _EXPAND_LIMIT:
                raise NumericalError("no lower bracket within |x| <= %g" % _EXPAND_LIMIT)

    # upper bracket b with right(b) >= 0 (or the domain end)
    if np.isfinite(hi):
        b = hi  # interior minimizer exists, else hi was optimal above
    else:
        b, step = max(float(center), a + 1.0), 1.0
        while right(b) < 0.0:
            b += step
            step *= 2.0
            if abs(b) > _EXPAND_LIMIT:
                raise NumericalError("no upper bracket within |x| <= %g" % _EXPAND_LIMIT)

    while b - a > _WIDTH * max(1.0, abs(a), abs(b)):
        mid = 0.5 * (a + b)
        if right(mid) >= 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)
