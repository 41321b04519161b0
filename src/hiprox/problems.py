"""Desk-scale problem catalog with independent reference solutions.

Each entry bundles an oracle, a simple term, a start point, and frozen
reference data (minimizer, optimal value, level-set radius) computed by
solvers that share no code with the certified loops: closed forms in one
dimension, damped Newton, projected Newton on boxes, and the secular
trust-region solve for the ball-constrained quadratic; each Newton iterate
costs one ``evaluate``. M bounds come from each family's own sup
(``ScalarFamily.derivative_sup``). Construction is deterministic (fixed
seeds), so reference values are bit-stable run to run. Each of the three
solves, with f* at its x*, therefore runs once per process, on the problem's
first build (``_reference``). Every build still makes its own oracle, term,
M bounds, x0 and ``m_override``, and gets its own copy of x*. The
one-dimensional grid minimizer and level-set radius that tests check the
catalog against live in ``tests/references.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import NumericalError, ParameterError
from .oracles import QuadraticObjective, SeparableObjective
from .scalar_families import make_family
from .simple_terms import make_term


@dataclass
class Problem:
    name: str
    oracle: object
    term: object
    x0: np.ndarray
    f_star: float = None
    x_star: np.ndarray = None
    d0: float = None
    m_override: dict = field(default_factory=dict)
    sample_lo: np.ndarray = None
    sample_hi: np.ndarray = None
    description: str = ""
    # (lo, hi) of the box on which the declared M bounds hold; None: everywhere
    m_box: tuple = None

    @property
    def dimension(self):
        return self.oracle.dimension

    def objective(self, x):
        return self.oracle.value(x) + self.term.value(x)

    def m_next(self, p):
        """Upper bound on the (p+1)st derivative norm over the working set."""
        order = p + 1
        if order in self.m_override:
            return float(self.m_override[order])
        return float(self.oracle.m_bound(order))

    def sample(self, rng, count):
        if self.sample_lo is None or self.sample_hi is None:
            raise ParameterError("problem %s has no sampling box" % self.name)
        return rng.uniform(self.sample_lo, self.sample_hi, size=(count, self.dimension))


# -- reference solvers (independent of the certified loops) -----------------

def newton_reference(oracle, x0):
    """Damped Newton for smooth unconstrained minimization, to |grad f| <= 1e-12 in 200 steps."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(200):
        fx, g, hm = oracle.evaluate(x, hessian=True)
        if float(np.linalg.norm(g)) <= 1e-12:
            return x
        d = np.linalg.solve(hm + 1e-12 * np.eye(len(x)), -g)
        t = 1.0
        for _ in range(80):
            try:
                ft = oracle.value(x + t * d)
            except Exception:
                ft = np.inf
            if ft <= fx + 1e-4 * t * float(np.dot(g, d)):
                break
            t *= 0.5
        x = x + t * d
    raise NumericalError("Newton reference did not converge")


def box_newton_reference(oracle, lo, hi, x0):
    """Projected (active-set) Newton for min f over a box, to KKT residual 1e-12 in 300 steps."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    edge = 1e-12

    def kkt_residual(x, g):
        r = np.where((x <= lo + edge) & (g > 0), 0.0, g)
        r = np.where((x >= hi - edge) & (r < 0), 0.0, r)
        return float(np.abs(r).max())

    for _ in range(300):
        fx, g, hm = oracle.evaluate(x, hessian=True)
        if kkt_residual(x, g) <= 1e-12:
            return x
        fixed = ((x <= lo + edge) & (g > 0)) | ((x >= hi - edge) & (g < 0))
        free = ~fixed
        d = np.zeros_like(x)
        if free.any():
            hff = hm[np.ix_(free, free)] + 1e-12 * np.eye(free.sum())
            d[free] = np.linalg.solve(hff, -g[free])
        else:
            d = -g
        t = 1.0
        for _ in range(80):
            xt = np.clip(x + t * d, lo, hi)
            try:
                ft = oracle.value(xt)
            except Exception:
                ft = np.inf
            if ft <= fx - 1e-10 * t * float(np.dot(d, d)) or ft < fx:
                break
            t *= 0.5
        else:
            xt = x
        if float(np.abs(xt - x).max()) <= 1e-16 * (1.0 + float(np.abs(x).max())):
            return xt
        x = xt
    raise NumericalError("box Newton reference did not converge")


def trs_reference(q, c, radius):
    """min x'Qx/2 + <c,x> subject to |x| <= radius, by the secular equation."""
    lam, vec = np.linalg.eigh(np.asarray(q, dtype=float))
    ct = vec.T @ np.asarray(c, dtype=float)

    def norm_at(mu):
        return float(np.linalg.norm(ct / (lam + mu)))

    if lam.min() > 0 and norm_at(0.0) <= radius:
        x = vec @ (-ct / lam)
        return x, 0.0
    mu_lo = max(0.0, -float(lam.min())) + 1e-14
    mu_hi = mu_lo + 1.0
    while norm_at(mu_hi) > radius:
        mu_hi *= 2.0
    mu = brentq(lambda m: norm_at(m) - radius, mu_lo, mu_hi, xtol=1e-15, rtol=8.9e-16)
    return vec @ (-ct / (lam + mu)), mu


# -- catalog -----------------------------------------------------------------

# (x*, f*) of each catalog problem that needs a reference solve, by name,
# filled on the problem's first build and shared by every later one
_REFERENCES = {}


def _reference(name, solve):
    """(x*, f*) of catalog problem ``name``: ``solve()``'s pair, computed once per process.

    Each call returns its own copy of x*, so a build that writes into its
    x* leaves every other build's unchanged.
    """
    if name not in _REFERENCES:
        _REFERENCES[name] = solve()
    x_star, f_star = _REFERENCES[name]
    return x_star.copy(), f_star


def _orthonormal(a, b, family, orders):
    """Orthonormal rows a: sum_i <a_i, h>^k <= 1 on |h| = 1 (k >= 2), so M_k = sup |f^(k)|."""
    oracle = SeparableObjective(a, b, make_family(family))
    for k in orders:
        oracle.m_bounds[k] = oracle.family.derivative_sup(k, -np.inf, np.inf)
    return oracle


def _quartic_1d():
    oracle = _orthonormal(np.array([[1.0]]), np.array([1.0]), "quartic", range(4, 9))
    return Problem(
        name="quartic-1d",
        oracle=oracle,
        term=make_term("zero"),
        x0=np.array([3.0]),
        f_star=0.0,
        x_star=np.array([1.0]),
        d0=2.0,
        sample_lo=np.array([-1.0]),
        sample_hi=np.array([3.0]),
        description="(x-1)^4, unconstrained; smooth rate-fit workhorse",
    )


def _quartic_abs_1d():
    oracle = _orthonormal(np.array([[1.0]]), np.array([0.0]), "quartic", range(4, 9))
    return Problem(
        name="quartic-abs-1d",
        oracle=oracle,
        term=make_term("abs-1d"),
        x0=np.array([2.0]),
        f_star=0.0,
        x_star=np.array([0.0]),
        d0=2.0,
        sample_lo=np.array([-2.0]),
        sample_hi=np.array([2.0]),
        description="x^4 + |x|; kinked composite with finite-step solutions",
    )


def _linear_nonneg_1d():
    oracle = _orthonormal(np.array([[1.0]]), np.array([0.0]), "linear", range(2, 9))
    return Problem(
        name="linear-nonneg-1d",
        oracle=oracle,
        term=make_term("nonneg"),
        x0=np.array([1.4]),
        f_star=0.0,
        x_star=np.array([0.0]),
        d0=1.4,
        sample_lo=np.array([0.0]),
        sample_hi=np.array([2.0]),
        description="f(x) = x on the nonnegative ray; acceptance-interval instance",
    )


def _quartic_sep_10d():
    rng = np.random.default_rng(7)
    n = 10
    b = rng.uniform(-1.0, 1.0, n)
    oracle = _orthonormal(np.eye(n), b, "quartic", range(4, 9))
    x0 = b + 1.0
    f0 = float(n)  # sum of 1^4 offsets
    return Problem(
        name="quartic-sep-10d",
        oracle=oracle,
        term=make_term("zero"),
        x0=x0,
        f_star=0.0,
        x_star=b.copy(),
        d0=n ** 0.25 * f0 ** 0.25,
        sample_lo=b - 1.5,
        sample_hi=b + 1.5,
        description="separable quartic in 10 variables; smooth nD workhorse",
    )


def _ball_quadratic():
    rng = np.random.default_rng(11)
    n = 5
    a = rng.standard_normal((n, n))
    q = a.T @ a / n + 0.5 * np.eye(n)
    # push the unconstrained minimizer outside the unit ball
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    c = -q @ (1.8 * direction)
    oracle = QuadraticObjective(q, c)

    def solve():
        x, _ = trs_reference(q, c, 1.0)
        return x, float(0.5 * x @ q @ x + c @ x)

    x_star, f_star = _reference("ball-quadratic", solve)
    return Problem(
        name="ball-quadratic",
        oracle=oracle,
        term=make_term("ball", center=np.zeros(n), radius=1.0),
        x0=np.zeros(n),
        f_star=f_star,
        x_star=x_star,
        d0=2.0,  # ball diameter bounds any level radius
        m_override={4: 1.0, 5: 1.0, 6: 1.0},  # true sups are 0; any bound works
        sample_lo=-0.7 * np.ones(n),
        sample_hi=0.7 * np.ones(n),
        description="convex quadratic on the unit ball; boundary solution",
    )


def _neglog_sep():
    rng = np.random.default_rng(23)
    n, rows = 5, 8
    a = rng.standard_normal((rows, n))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b = -(1.0 + rng.uniform(0.0, 1.0, rows))  # residual at 0 is -b in [1, 2]
    t_at_0 = -b
    margin = 0.8
    row_l1 = np.abs(a).sum(axis=1)
    radius = min(float(np.min((t_at_0 - margin) / row_l1)), 0.5)
    lo = -radius * np.ones(n)
    hi = radius * np.ones(n)
    oracle = SeparableObjective(a, b, make_family("neg-log"))
    # row i's residual ranges over [t_lo_i, t_hi_i] on the box
    t_lo, t_hi = t_at_0 - radius * row_l1, t_at_0 + radius * row_l1
    norms = np.linalg.norm(a, axis=1)
    for order in range(2, 9):
        sup = sum(oracle.family.derivative_sup(order, t_lo[i], t_hi[i]) * norms[i] ** order
                  for i in range(rows))
        oracle.m_bounds[order] = 1.1 * sup

    def solve():
        x = box_newton_reference(oracle, lo, hi, np.zeros(n))
        return x, float(oracle.value(x))

    x_star, f_star = _reference("neglog-sep", solve)
    return Problem(
        name="neglog-sep",
        oracle=oracle,
        term=make_term("box", lo=lo, hi=hi),
        x0=np.zeros(n),
        f_star=f_star,
        x_star=x_star,
        sample_lo=lo,
        sample_hi=hi,
        description="sum of -log(<a_i,x>-b_i) on a safe box; second-order-only scaling",
        m_box=(lo, hi),  # the bounds take the residuals' minimum t_lo over the box
    )


def _logistic_sep_3d():
    rng = np.random.default_rng(31)
    n, half = 3, 3
    a_half = rng.standard_normal((half, n))
    a = np.vstack([a_half, -a_half])  # opposing rows keep f coercive
    b = rng.uniform(-0.5, 0.5, 2 * half)
    oracle = SeparableObjective(a, b, make_family("logistic"))
    fam = oracle.family
    norms = np.linalg.norm(a, axis=1)
    for order in range(2, 9):
        sup = fam.derivative_sup(order, -50.0, 50.0)
        oracle.m_bounds[order] = 1.1 * float(np.sum(norms ** order)) * sup

    def solve():
        x = newton_reference(oracle, np.zeros(n))
        return x, float(oracle.value(x))

    x_star, f_star = _reference("logistic-sep-3d", solve)
    return Problem(
        name="logistic-sep-3d",
        oracle=oracle,
        term=make_term("zero"),
        x0=np.ones(n),
        f_star=f_star,
        x_star=x_star,
        sample_lo=x_star - 1.0,
        sample_hi=x_star + 1.0,
        description="softplus sum with opposing rows; smooth non-polynomial",
    )


_BUILDERS = {
    "quartic-1d": _quartic_1d,
    "quartic-abs-1d": _quartic_abs_1d,
    "linear-nonneg-1d": _linear_nonneg_1d,
    "quartic-sep-10d": _quartic_sep_10d,
    "ball-quadratic": _ball_quadratic,
    "neglog-sep": _neglog_sep,
    "logistic-sep-3d": _logistic_sep_3d,
}


def list_problems():
    out = []
    for name in sorted(_BUILDERS):
        out.append((name, get_problem(name).description))
    return out


def get_problem(name):
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ParameterError("unknown problem %r" % (name,)) from None
    return builder()
