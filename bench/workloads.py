"""Workloads of the hiprox benchmark: problem builders, references and checks.

Every workload is a list of bi-level solves (``biopt_run``). Building the
problems is the timed set-up; the references used to check answers are
computed afterwards, outside every timed region, by code that shares nothing
with the certified loops (closed-form numpy objectives and scipy L-BFGS-B).

The two synthetic families differ a lot in difficulty from one generator seed
to the next (neglog-box-100: 106 to 337 inner steps, 4.5 to 11.6 s over
generator seeds 0-3), far more than the run-to-run bounds of the benchmark.
So each family has one fixed base instance, and the run seed draws random
signs for its coordinates. The solver sees a different input for every seed,
while the problem, and so its difficulty, stays the same. (Permuting rows or
columns would not do: it changes the coordinate-descent order, and with it
the work, by up to 66 % on neglog-box-100.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

import hiprox
from hiprox import problems as catalog

# generator seed of the base instance of both synthetic families
BASE_SEED = 0
CATALOG_EPS = 1e-6
RHS_TOL = 1e-4
OUTER_BUDGET = 200


@dataclass
class Cell:
    """One solve: a problem, the order p and the target."""

    label: str
    problem: object
    p: int
    eps: float = 0.0
    rhs_tol: float = None
    reference: dict = None


@dataclass(frozen=True)
class Workload:
    name: str
    # time limit of one solve: a solve still running then is stopped, and a
    # failure is charged at least this. It is above every successful solve of
    # the workload, traced or not, so fixing a failure can only lower solve_s.
    limit_s: float
    build: object  # rng -> list of Cell (the timed set-up)


# -- catalog workloads ---------------------------------------------------------

P3_PROBLEMS = ("quartic-1d", "quartic-abs-1d", "quartic-sep-10d", "ball-quadratic",
               "neglog-sep", "logistic-sep-3d")
P45_PROBLEMS = ("neglog-sep", "logistic-sep-3d", "ball-quadratic")


def _catalog_cells(names, ps):
    def build(rng):
        built = {name: catalog.get_problem(name) for name in names}
        cells = [Cell("%s/p%d" % (name, p), built[name], p, eps=CATALOG_EPS)
                 for p in ps for name in names]
        # the seed only fixes the solve order: catalog problems are frozen
        return [cells[i] for i in rng.permutation(len(cells))]

    return build


# -- synthetic families ----------------------------------------------------------

def neglog_box(n, seed):
    """sum -log(<a_i, x> - b_i) on a safe box, built like the catalog's neglog-sep.

    rows = 2n unit-norm rows, residuals at 0 in [1, 2], a box on which every
    residual stays above 0.8, and M bounds 1.1x the sup over the box.
    """
    rng = np.random.default_rng(seed)
    rows = 2 * n
    a = rng.standard_normal((rows, n))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b = -(1.0 + rng.uniform(0.0, 1.0, rows))
    t_at_0 = -b
    row_l1 = np.abs(a).sum(axis=1)
    radius = min(float(np.min((t_at_0 - 0.8) / row_l1)), 0.5)
    oracle = hiprox.SeparableObjective(a, b, hiprox.make_family("neg-log"))
    t_lo = t_at_0 - radius * row_l1
    for order in range(2, 9):
        oracle.m_bounds[order] = 1.1 * float(np.sum(math.factorial(order - 1) / t_lo ** order))
    return hiprox.Problem(
        name="neglog-box-%d" % n,
        oracle=oracle,
        term=hiprox.make_term("box", lo=-radius * np.ones(n), hi=radius * np.ones(n)),
        x0=np.zeros(n),
    )


def logistic_l1(n, seed, lam=0.1):
    """sum log(1 + exp(<a_i, x> - b_i)) + lam |x|_1, built like logistic-sep-3d.

    rows = 2n in opposing pairs, M bounds 1.1x sum |a_i|^k sup|f^(k)|.
    """
    rng = np.random.default_rng(seed)
    a_half = rng.standard_normal((n, n))
    a = np.vstack([a_half, -a_half])
    b = rng.uniform(-0.5, 0.5, 2 * n)
    oracle = hiprox.SeparableObjective(a, b, hiprox.make_family("logistic"))
    norms = np.linalg.norm(a, axis=1)
    for order in range(2, 9):
        sup = oracle.family.derivative_sup(order, -50.0, 50.0)
        oracle.m_bounds[order] = 1.1 * float(np.sum(norms ** order)) * sup
    return hiprox.Problem(
        name="logistic-l1-%d" % n,
        oracle=oracle,
        term=hiprox.make_term("l1", lam=lam),
        x0=np.ones(n),
    )


def flip_signs(problem, rng):
    """The same problem in coordinates x'_j = s_j x_j with signs s drawn from rng.

    Columns of A, the box and x0 change sign with the coordinates; row norms,
    and so the M bounds, do not change.
    """
    oracle = problem.oracle
    signs = rng.choice(np.array([-1.0, 1.0]), size=oracle.dimension)
    flipped = hiprox.SeparableObjective(oracle.a * signs, oracle.b, oracle.family)
    flipped.m_bounds = dict(oracle.m_bounds)
    term = problem.term
    if term.kind == "box":
        term = hiprox.make_term("box", lo=np.where(signs > 0, term.lo, -term.hi),
                                hi=np.where(signs > 0, term.hi, -term.lo))
    return hiprox.Problem(name=problem.name, oracle=flipped, term=term, x0=signs * problem.x0)


def _synthetic_cells(make):
    def build(rng):
        problem = flip_signs(make(), rng)
        return [Cell("%s/p3" % problem.name, problem, 3, rhs_tol=RHS_TOL)]

    return build


WORKLOADS = {
    w.name: w
    for w in (
        Workload("catalog-p3", 10.0, _catalog_cells(P3_PROBLEMS, (3,))),
        Workload("catalog-p45", 10.0, _catalog_cells(P45_PROBLEMS, (4, 5))),
        Workload("box-scale", 30.0, _synthetic_cells(lambda: neglog_box(100, BASE_SEED))),
        Workload("l1-logistic", 10.0, _synthetic_cells(lambda: logistic_l1(10, BASE_SEED))),
    )
}


# -- independent objective and references -------------------------------------

_FAMILY_NP = {
    "quartic": lambda t: t ** 4,
    "linear": lambda t: t,
    "logistic": lambda t: np.logaddexp(0.0, t),
    "neg-log": lambda t: -np.log(t) if np.all(t > 0) else np.full_like(t, np.inf),
}


def objective_np(problem, x, tol=1e-9):
    """F(x) = f(x) + psi(x) from the problem's data, without hiprox code."""
    oracle, term = problem.oracle, problem.term
    x = np.asarray(x, dtype=float)
    if isinstance(oracle, hiprox.QuadraticObjective):
        f = 0.5 * float(x @ oracle.q @ x) + float(oracle.c @ x) + oracle.const
    else:
        f = float(np.sum(_FAMILY_NP[oracle.family.name](oracle.a @ x - oracle.b)))
    kind = term.kind
    if kind in ("l1", "abs-1d"):
        return f + term.lam * float(np.abs(x).sum())
    if kind == "zero":
        inside = True
    elif kind == "nonneg":
        inside = bool(np.all(x >= -tol))
    elif kind == "box":
        inside = bool(np.all(x >= term.lo - tol) and np.all(x <= term.hi + tol))
    elif kind == "ball":
        inside = bool(np.linalg.norm(x - term.center) <= term.radius + tol)
    else:
        raise ValueError("no closed form for term kind %r" % kind)
    return f if inside else np.inf


def _lbfgsb(fun, x0, bounds):
    res = minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"ftol": 1e-15, "gtol": 1e-11, "maxiter": 20000, "maxcor": 30})
    if not res.success:
        raise RuntimeError("reference L-BFGS-B failed: %s" % res.message)
    return res.x


def reference(problem):
    """Minimizer and value of a synthetic problem by scipy L-BFGS-B.

    The box problem is solved on its box; the l1 problem on the split
    x = u - v with u, v >= 0.
    """
    a, b = problem.oracle.a, problem.oracle.b
    term = problem.term
    if term.kind == "box":
        def fun(x):
            t = a @ x - b
            return -float(np.sum(np.log(t))), -(a.T @ (1.0 / t))

        x = _lbfgsb(fun, np.zeros(a.shape[1]), list(zip(term.lo, term.hi)))
    elif term.kind == "l1":
        n = a.shape[1]

        def fun(uv):
            t = a @ (uv[:n] - uv[n:]) - b
            g = a.T @ (0.5 * (1.0 + np.tanh(0.5 * t)))  # sigmoid
            val = float(np.sum(np.logaddexp(0.0, t))) + term.lam * float(uv.sum())
            return val, np.concatenate([g + term.lam, -g + term.lam])

        uv = _lbfgsb(fun, np.zeros(2 * n), [(0.0, None)] * (2 * n))
        x = uv[:n] - uv[n:]
    else:
        raise ValueError("no reference for term kind %r" % term.kind)
    return {"x": x, "F": objective_np(problem, x)}


def add_references(cells):
    """Attach the reference each check needs (outside the timed set-up)."""
    for cell in cells:
        if cell.rhs_tol is not None:
            cell.reference = reference(cell.problem)
        else:
            cell.reference = {"x": cell.problem.x_star, "F": cell.problem.f_star}


def check_answer(cell, trace):
    """None if a converged trace's answer is right, else the reason it is wrong.

    Catalog: F(x) - F* <= eps against the catalog reference. Synthetic: the
    certificate bounds the gap, F(x) - F* <= rhs |x - x*| by convexity, so the
    answer must satisfy it against the L-BFGS-B reference, with room for the
    reference's own error.
    """
    x = trace.points[-1]
    value = objective_np(cell.problem, x)
    ref = cell.reference
    if not np.isfinite(value):
        return "final point outside dom psi"
    if cell.rhs_tol is None:
        allowed = cell.eps + 1e-12 * (1.0 + abs(ref["F"]))
    else:
        rhs = trace.certificates[-1].rhs
        if not rhs <= cell.rhs_tol:
            return "converged with certificate residual %.3e > %.1e" % (rhs, cell.rhs_tol)
        dist = float(np.linalg.norm(x - ref["x"]))
        allowed = rhs * (dist + 1e-6) + 1e-9 * (1.0 + abs(ref["F"]))
    excess = value - ref["F"]
    if excess > allowed:
        return "F(x) - F_ref = %.3e exceeds %.3e" % (excess, allowed)
    return None
