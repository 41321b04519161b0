"""Exact minimization of a univariate convex composite s(x) + psi(x).

The right derivative of a convex function is nondecreasing, so the minimizer
is inf{x : s'(x) + psi'_+(x) >= 0}. Kink and boundary candidates (0 for
l1-type terms, finite domain endpoints) are tested exactly first; otherwise
the sign condition is bracketed by doubling and bisected to width 1e-14.

``decreasing_root`` closes the scalar root equations of the multivariate
solvers (the ball multiplier of the inner step, the radius of ``psi_argmin``)
by capped doubling and ``brentq``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError

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


def _kink_candidates(term):
    pts = []
    if term.kind in ("l1", "abs-1d"):
        pts.append(0.0)
    lo, hi = term.interval_1d()
    if np.isfinite(lo):
        pts.append(lo)
    if np.isfinite(hi):
        pts.append(hi)
    return pts


def minimize_composite_1d(smooth_deriv, term, center, width=_WIDTH, limit=_EXPAND_LIMIT):
    """Return the minimizer of s + psi given s' and a bracketing seed.

    Parameters
    ----------
    smooth_deriv : callable
        Derivative of the smooth convex part.
    term : SimpleTerm
        Composite term with 1-d derivative/domain helpers.
    center : float
        Expansion seed (any point; convergence does not depend on it).
    """
    lo, hi = term.interval_1d()

    def right(x):
        if np.isfinite(hi) and x >= hi:
            return np.inf
        return smooth_deriv(x) + term.deriv_right_1d(x)

    def left(x):
        if np.isfinite(lo) and x <= lo:
            return -np.inf
        return smooth_deriv(x) + term.deriv_left_1d(x)

    for x in _kink_candidates(term):
        if lo <= x <= hi and left(x) <= 0.0 <= right(x):
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
            if abs(a) > limit:
                raise NumericalError("no lower bracket within |x| <= %g" % limit)

    # upper bracket b with right(b) >= 0 (or the domain end)
    if np.isfinite(hi):
        b = hi  # interior minimizer exists, else hi was optimal above
    else:
        b, step = max(float(center), a + 1.0), 1.0
        while right(b) < 0.0:
            b += step
            step *= 2.0
            if abs(b) > limit:
                raise NumericalError("no upper bracket within |x| <= %g" % limit)

    while b - a > width * max(1.0, abs(a), abs(b)):
        mid = 0.5 * (a + b)
        if right(mid) >= 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)
