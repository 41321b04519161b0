"""Reference computations that only tests call.

They share no code with the certified loops: a dense grid with golden-section
refinement and a bisected sublevel radius in one dimension, and central
differences against an oracle's derivatives.
"""

import math

import numpy as np
from scipy.optimize import brentq

from hiprox.errors import NumericalError, ParameterError

_MACHINE_H1 = 1e-5
_MACHINE_H2 = 1e-4


def composite_min_1d(problem, lo, hi):
    """Global minimizer of F on [lo, hi]: a 200,001-point grid, then golden-section refinement."""
    xs = np.linspace(lo, hi, 200001)
    vals = np.array([problem.objective(np.array([x])) for x in xs])
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, len(xs) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = problem.objective(np.array([c]))
    fd = problem.objective(np.array([d]))
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = problem.objective(np.array([c]))
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = problem.objective(np.array([d]))
        if b - a < 1e-15 * (1.0 + abs(a)):
            break
    x = 0.5 * (a + b)
    return x, problem.objective(np.array([x]))


def level_radius_1d(problem):
    """max |x - x*| over the sublevel set {F(x) <= F(x0)} in dimension 1, within 50 of x*."""
    if problem.dimension != 1 or problem.x_star is None:
        raise ParameterError("level radius helper needs a solved 1-D problem")
    xs = float(problem.x_star[0])
    level = problem.objective(problem.x0)

    def excess(x):
        v = problem.objective(np.array([x]))
        return (v if np.isfinite(v) else 1e300) - level

    out = 0.0
    for sign in (-1.0, 1.0):
        hi = xs + sign * 50.0
        if excess(hi) <= 0:
            raise NumericalError("sublevel set not bracketed")
        r = brentq(excess, xs, hi, xtol=1e-13)
        out = max(out, abs(r - xs))
    return out


def fd_check(oracle, x, h, order):
    """Central-difference consistency check; returns a relative error.

    order 1 compares (f(x+eh) - f(x-eh))/(2e) with D f(x)[h] at e = 1e-5;
    order 2 compares the second central difference with <h, D^2 f(x) h> at
    e = 1e-4.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if order == 1:
        e = _MACHINE_H1
        fd = (oracle.value(x + e * h) - oracle.value(x - e * h)) / (2 * e)
        exact = float(oracle.gradient(x) @ h)
    elif order == 2:
        e = _MACHINE_H2
        fd = (
            oracle.value(x + e * h) - 2 * oracle.value(x) + oracle.value(x - e * h)
        ) / e ** 2
        exact = float(h @ oracle.hessian_matrix(x) @ h)
    else:
        raise ParameterError("fd_check supports orders 1 and 2")
    return abs(fd - exact) / max(1.0, abs(exact))
