"""Certified inner loop: Bregman composite gradient steps on the scaling function.

Each step solves

    z+ = argmin_z  <grad f_reg(z_i), z - z_i> + psi(z) + 2 L breg(z_i, z)

whose optimality conditions yield the constructive subgradient

    g = 2 L (grad rho(z_i) - grad rho(z+)) - grad f_reg(z_i)  in  dpsi(z+),

and the loop stops as soon as (z+, g) is acceptable for the proximal
certificate at the anchor. Every step, in every dimension, is solved by one
damped proximal Newton method (Lee, Sun and Saunders 2014; see
``StepSolver``). Its model step is one linear solve for psi = 0, coordinate
descent on Python floats for separable psi, and an eigenbasis solve for the
ball. The full model step is taken when it does not raise the objective by
more than rounding (1e-15 |phi|); otherwise the step is halved until the
Armijo condition holds, and 50 halvings without it raise ``NumericalError``.

The scaling function of one inner solve is built once, with the anchor's
even-order derivative weights (see ``bregman``); steps never evaluate a
scalar derivative at the anchor again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acceptance import check_acceptable
from .bregman import RegularizedObjective, ScalingFunction, bregman_distance
from .errors import CapabilityError, NumericalError, ParameterError
# bench/spans.py traces minimize_composite_1d through this binding
from .univariate import decreasing_root, minimize_composite_1d  # noqa: F401

_RES_TOL = 1e-12
_NEWTON_CAP = 200
_HALVING_CAP = 50
_CD_SWEEPS = 400


@dataclass
class InnerRow:
    i: int
    phi: float
    bregman_step: float
    lhs: float
    rhs: float
    ratio: float


@dataclass
class InnerTrace:
    """Per-step record of one inner run; phi must be nonincreasing."""

    rows: list = field(default_factory=list)
    points: list = field(default_factory=list)

    COLUMNS = ("i", "phi", "bregman_step", "lhs", "rhs", "ratio")

    def column(self, name):
        return np.array([getattr(r, name) for r in self.rows], dtype=float)

    def to_csv(self):
        lines = [",".join(self.COLUMNS)]
        for r in self.rows:
            lines.append(
                ",".join(
                    [str(r.i)] + [repr(float(v)) for v in (r.phi, r.bregman_step, r.lhs, r.rhs, r.ratio)]
                )
            )
        return "\n".join(lines) + "\n"


@dataclass
class InnerResult:
    point: np.ndarray
    subgradient: np.ndarray
    certificate: object
    iterations: int
    trace: InnerTrace = None


class StepSolver:
    """One inner step z -> z+ by a damped proximal Newton method.

    One solver in every dimension, for separable psi and the ball. The model
    step is one linear solve for psi = 0, coordinate descent for the other
    separable psi and an exact eigenbasis solve for the ball. The full model
    step is taken unless it raises the objective by more than rounding;
    otherwise the step is halved to the Armijo condition.
    """

    # bench/spans.py names each traced step by this attribute
    route = "prox_newton"

    def __init__(self, sf, reg, term, lsmooth):
        if not (term.is_separable or term.kind == "ball"):
            raise CapabilityError("no step solver for term kind %r" % term.kind)
        self.sf = sf
        self.reg = reg
        self.term = term
        self.lsmooth = float(lsmooth)

    def step(self, z):
        """Minimize phi(w) = 2L rho(w) + <ctil, w> + psi(w), ctil = c - 2L grad rho(z)."""
        z = np.asarray(z, dtype=float)
        sf, term = self.sf, self.term
        c = self.reg.gradient(z)
        two_l = 2.0 * self.lsmooth
        rho_z = sf.gradient(z)
        ctil = c - two_l * rho_z
        tol = _RES_TOL * max(1.0, sf.metric.dual_norm(c))
        w = term.project(z)
        fw = two_l * sf.value(w) + float(np.dot(ctil, w)) + term.value(w)
        for _ in range(_NEWTON_CAP):
            gw = two_l * sf.gradient(w) + ctil
            if term.subgradient_distance(w, -gw) <= 0.5 * tol:
                break
            hm = two_l * sf.hessian_matrix(w)
            nu = 1e-11 * (1.0 + float(np.abs(np.diag(hm)).max()))
            hm = hm + nu * np.eye(len(w))
            cand = self._model_min(w, gw, hm)
            d = cand - w
            model_drop = -(float(np.dot(gw, d)) + 0.5 * float(d @ hm @ d)
                           + term.value(cand) - term.value(w))
            t = 1.0
            for _ in range(_HALVING_CAP):
                wt = w + t * d
                ft = two_l * sf.value(wt) + float(np.dot(ctil, wt)) + term.value(wt)
                # the full step may rise by rounding; a shorter one must
                # make the Armijo decrease
                if t == 1.0:
                    limit = fw + 1e-15 * abs(fw)
                else:
                    limit = fw - 1e-4 * t * max(model_drop, 0.0)
                if ft <= limit:
                    break
                t *= 0.5
            else:
                raise NumericalError("prox-Newton line search failed after %d halvings"
                                     % _HALVING_CAP)
            w, fw = wt, ft
        g = two_l * (rho_z - sf.gradient(w)) - c
        dist = term.subgradient_distance(w, g)
        if dist > 100.0 * tol:
            raise NumericalError("prox-Newton step residual %.3e > %.1e" % (dist, 100.0 * tol),
                                 residual=dist)
        return w, g

    def _model_min(self, w, grad, hm):
        """argmin <grad, z-w> + (z-w)'hm(z-w)/2 + psi(z), by the kind of psi."""
        if self.term.kind == "zero":
            return w - np.linalg.solve(hm, grad)
        solve = self._cd_quadratic if self.term.is_separable else self._ball_quadratic
        return solve(w, grad, hm)

    def _cd_quadratic(self, w, grad, hm):
        """Coordinate descent on <grad, z-w> + (z-w)'hm(z-w)/2 + psi(z).

        A Gauss-Seidel sweep in coordinate order on Python floats (diagonal,
        gradient, w and z are read once). Only hm @ (z - w) is a numpy
        vector, updated by one column per moved coordinate, so every number
        equals that of a sweep on numpy scalars. hm comes from the scaling
        function, whose anchor weights are evaluated once per inner solve, so
        ``calls_by_order`` does not grow here.
        """
        n = len(w)
        diag = hm.diagonal().tolist()
        g = grad.tolist()
        wl = w.tolist()
        z = list(wl)
        hd = np.zeros_like(w)  # hm @ (z - w), maintained incrementally
        cmin = self.term.coordinate_min
        for _ in range(_CD_SWEEPS):
            move = 0.0
            for i in range(n):
                quad = diag[i]
                wi = wl[i]
                zo = z[i]
                lin = g[i] - quad * wi + (hd.item(i) - quad * (zo - wi))
                zi = cmin(i, lin, quad)
                d = zi - zo
                if d != 0.0:
                    hd += hm[:, i] * d
                    z[i] = zi
                    move = max(move, abs(d))
            if move <= 1e-14 * (1.0 + float(np.abs(z).max())):
                break
        return np.array(z)

    def _ball_quadratic(self, w, grad, hm):
        """argmin <grad, z-w> + (z-w)'hm(z-w)/2 over |z - center| <= radius.

        A trust-region subproblem shifted to the ball's center (More and
        Sorensen 1983): z - center = (hm + a I)^{-1} (hm (w - center) - grad)
        for the least multiplier a >= 0 that puts z in the ball, solved in
        the eigenbasis of hm. hm is positive definite (prox-Newton adds a
        multiple of I), so |z - center| decreases in a and there is no hard
        case.
        """
        center, radius = self.term.center, self.term.radius
        lam, vec = np.linalg.eigh(hm)
        bt = vec.T @ (hm @ (w - center) - grad)

        def excess(a):
            return float(np.linalg.norm(bt / (lam + a))) - radius

        a = 0.0
        if excess(a) > 0.0:
            # |bt| / radius would be a root if lam were 0, so it brackets
            a = decreasing_root(excess, 0.0, float(np.linalg.norm(bt)) / radius)
        return center + vec @ (bt / (lam + a))


def inner_solve(oracle, term, cfg, rc, anchor, max_iter=2000, keep_points=False):
    """Run the inner loop from z0 = anchor until the certificate accepts.

    Returns an InnerResult whose trace rows carry (i, phi, bregman_step,
    lhs, rhs, ratio) per step; row 0 records the starting objective value.
    A composite-stationary anchor terminates at iteration 0.
    """
    if rc.mu <= 0:
        raise ParameterError("relative strong convexity requires xi > 1")
    anchor = np.asarray(anchor, dtype=float)
    if not term.contains(anchor):
        raise ParameterError("inner loop must start inside dom psi")
    sf = ScalingFunction(oracle, anchor, cfg.p, cfg.h, cfg.metric)
    reg = RegularizedObjective(oracle, anchor, cfg.p, cfg.h, cfg.metric)
    solver = StepSolver(sf, reg, term, rc.lsmooth)

    def phi(x):
        return reg.value(x) + term.value(x)

    z = anchor.copy()
    trace = InnerTrace(rows=[InnerRow(0, phi(z), np.nan, np.nan, np.nan, np.nan)])
    if keep_points:
        trace.points.append(z.copy())
    for i in range(1, max_iter + 1):
        z_new, g = solver.step(z)
        cert = check_acceptable(oracle, term, cfg, anchor, z_new, g)
        if cert.rhs > 0:
            ratio = cert.lhs / cert.rhs
        else:
            ratio = 0.0 if cert.accepted else np.inf
        fixed_point = i == 1 and cert.accepted and (
            float(np.abs(z_new - z).max()) <= 1e-14 * (1.0 + float(np.abs(z).max()))
        )
        if not fixed_point:
            trace.rows.append(
                InnerRow(i, phi(z_new), bregman_distance(sf, z, z_new), cert.lhs, cert.rhs, ratio)
            )
        z = z_new
        if keep_points and not fixed_point:
            trace.points.append(z.copy())
        if cert.accepted:
            return InnerResult(z, g, cert, 0 if fixed_point else i, trace)
    raise NumericalError(
        "inner loop exceeded %d iterations" % max_iter, residual=trace.rows[-1].ratio
    )
