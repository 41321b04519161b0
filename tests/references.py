"""Reference computations that only tests call.

They share no code with the certified loops: a dense grid with golden-section
refinement and a bisected sublevel radius in one dimension, central
differences against an oracle's derivatives, single contractions of an
``AnchorStack``'s order, an oracle read in the coordinates of a
non-Euclidean metric, and domain membership at a chosen tolerance.
"""

import math

import numpy as np
from scipy.optimize import brentq

from hiprox import QuadraticObjective, SeparableObjective
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


def directional(stack, h, k):
    """D^k f(y)[h]^k from an ``AnchorStack`` at y, the order-k term alone."""
    return stack.oracle._form(stack.weights[k], stack._project(h), k)


def matrix(stack, h, k):
    """Dense D^k f(y)[h]^{k-2} from an ``AnchorStack`` at y, the order-k term alone."""
    return stack.oracle._matrix(stack.weights[k], stack._project(h), k)


def in_metric(oracle, kind, rng):
    """A separable or quadratic oracle read in the coordinates of a metric B.

    A norm <Bx, x>^(1/2) with B = LL' is the Euclidean norm of y = L'x, so f
    measured in B is g(y) = f(M y), M = L'^-1, measured in the Euclidean
    norm, and g is of f's class: rows a M, or Hessian M'QM and linear part
    M'c. ``kind`` is "identity" (the oracle itself, ``rng`` untouched),
    "diagonal" (B = diag(w), w uniform in [0.5, 2]) or "dense" (B = AA' + nI,
    A standard normal), with B drawn from ``rng``.
    """
    if kind == "identity":
        return oracle
    n = oracle.dimension
    if kind == "diagonal":
        m = np.diag(1.0 / np.sqrt(rng.uniform(0.5, 2.0, n)))
    else:
        a = rng.standard_normal((n, n))
        m = np.linalg.inv(np.linalg.cholesky(a @ a.T + n * np.eye(n)).T)
    if isinstance(oracle, QuadraticObjective):
        return QuadraticObjective(m.T @ oracle.q @ m, m.T @ oracle.c, oracle.const)
    return SeparableObjective(oracle.a @ m, oracle.b, oracle.family)


def within(term, z, tol):
    """Whether z lies in dom psi to ``tol``, a tolerance other than ``contains``'s own.

    |z - center| <= radius + tol on a ball, lo - tol <= z <= hi + tol on a
    box and z >= -tol on the orthant; the finite-valued kinds contain every z.
    """
    z = np.asarray(z, dtype=float)
    if term.kind == "ball":
        return float(np.linalg.norm(z - term.center)) <= term.radius + tol
    if term.kind == "box":
        return bool((z >= term.lo - tol).all() and (z <= term.hi + tol).all())
    if term.kind == "nonneg":
        return bool((z >= -tol).all())
    return True
