"""Inexact high-order proximal steps and their acceptance certificates.

For an anchor xb, power p and coefficient H, the regularized objective is

    f_reg(x) = f(x) + H d(x - xb),      d(h) = |h|^{p+1}/(p+1),

and a pair (T, g) with g in the subdifferential of psi at T is *acceptable*
at level beta in [0, 1) when

    |grad f_reg(T) + g|_*  <=  beta |grad f(T) + g|_*.

Exact proximal points are acceptable for every beta (the left side vanishes).
An accepted pair obeys three computable inequalities used by the outer loops:

    (i)   (1-beta) |grad f(T)+g|_*  <=  H |T-xb|^p  <=  (1+beta) |grad f(T)+g|_*
    (ii)  <grad f(T)+g, xb-T>  >=  (H/(1+beta)) |T-xb|^{p+1}
    (iii) <grad f(T)+g, xb-T>  >=  ((1-beta)/H)^{1/p} |grad f(T)+g|_*^{(p+1)/p}
          (the last provided beta <= 1/p).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, ParameterError
from .metric import MetricSpace, PowerProx
from .univariate import minimize_composite_1d

ACCEPT_SLACK = 1e-12
INEQ_SLACK = 1e-10
MEMBERSHIP_TOL = 1e-8


@dataclass
class ProxConfig:
    """Parameters (p, H, beta) of one proximal acceptance problem."""

    p: int
    h: float
    beta: float
    metric: MetricSpace = None

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 1:
            raise ParameterError("p must be an integer >= 1")
        self.p = int(self.p)
        if self.h <= 0:
            raise ParameterError("H must be positive")
        if not 0.0 <= self.beta < 1.0:
            raise ParameterError("beta must lie in [0, 1)")

    @property
    def beta_le_inv_p(self):
        """Whether beta <= 1/p (required by the plain outer loop's theory)."""
        return self.beta <= 1.0 / self.p + 1e-15

    def power(self, dimension):
        metric = self.metric if self.metric is not None else MetricSpace.euclidean(dimension)
        return PowerProx(self.p, metric)


@dataclass
class AcceptanceCertificate:
    anchor: np.ndarray
    point: np.ndarray
    subgradient: np.ndarray
    lhs: float
    rhs: float
    beta: float
    accepted: bool
    radius: float = 0.0  # |T - xb|
    inner_product: float = 0.0  # <grad f(T)+g, xb-T>
    residual: np.ndarray = field(default=None, repr=False)  # grad f(T)+g

    def to_record(self):
        return {
            "point": [float(v) for v in self.point],
            "subgradient": [float(v) for v in self.subgradient],
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "beta": float(self.beta),
            "accepted": bool(self.accepted),
            "radius": float(self.radius),
        }


def regularized_gradient(oracle, cfg, anchor, x):
    """grad f(x) + H |x-anchor|^{p-1} B (x-anchor)."""
    x = np.asarray(x, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    pp = cfg.power(len(x))
    return oracle.gradient(x) + cfg.h * pp.gradient(x - anchor)


def check_acceptable(oracle, term, cfg, anchor, point, g):
    """Build the acceptance certificate for a candidate pair (point, g).

    Raises CertificateError when the pair is malformed (point outside the
    domain of psi, or g provably not a subgradient there); a well-formed pair
    that merely violates the beta inequality comes back with accepted=False.
    """
    anchor = np.asarray(anchor, dtype=float)
    point = np.asarray(point, dtype=float)
    g = np.asarray(g, dtype=float)
    if not term.contains(point):
        raise CertificateError("candidate point lies outside dom psi")
    gap = term.subgradient_distance(point, g)
    if gap > MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(g))):
        raise CertificateError(
            "g is not a subgradient of psi at the candidate (distance %.3e)" % gap
        )
    pp = cfg.power(len(point))
    metric = pp.metric
    residual = oracle.gradient(point) + g
    reg_residual = residual + cfg.h * pp.gradient(point - anchor)
    lhs = metric.dual_norm(reg_residual)
    rhs = metric.dual_norm(residual)
    return AcceptanceCertificate(
        anchor=anchor,
        point=point,
        subgradient=g,
        lhs=lhs,
        rhs=rhs,
        beta=cfg.beta,
        accepted=lhs <= cfg.beta * rhs + ACCEPT_SLACK,
        radius=metric.primal_norm(point - anchor),
        inner_product=float(np.dot(residual, anchor - point)),
        residual=residual,
    )


def certificate_inequalities(cert, cfg, slack=INEQ_SLACK):
    """Evaluate the three accepted-pair inequalities with additive slack.

    Returns a dict name -> (satisfied, margin) where margin >= -slack means
    satisfied: "radius" is the two-sided residual sandwich, "progress" the
    anchor-progress inner product, and "progress_dual" (present only when
    beta <= 1/p) the dual-norm progress bound.
    """
    p, h, beta = cfg.p, cfg.h, cfg.beta
    r, rhs, inner = cert.radius, cert.rhs, cert.inner_product
    out = {}
    reg_power = h * r ** p
    m1 = min(reg_power - (1 - beta) * rhs, (1 + beta) * rhs - reg_power)
    out["radius"] = (m1 >= -slack, m1)
    m2 = inner - h / (1 + beta) * r ** (p + 1)
    out["progress"] = (m2 >= -slack, m2)
    if cfg.beta_le_inv_p:
        m3 = inner - ((1 - beta) / h) ** (1.0 / p) * rhs ** ((p + 1.0) / p)
        out["progress_dual"] = (m3 >= -slack, m3)
    return out


def exact_prox_1d(oracle, term, cfg, anchor):
    """Exact proximal point in dimension 1 plus its constructive subgradient.

    Minimizes f(x) + psi(x) + H |x-xb|^{p+1}/(p+1) by monotone
    subdifferential bracketing, then rounds the optimality-condition
    subgradient g = H |T-xb|^{p-1}(xb-T) - f'(T) into the subdifferential.
    """
    xb = float(np.asarray(anchor, dtype=float)[0])
    p, h = cfg.p, cfg.h

    def smooth_deriv(x):
        arr = np.array([x])
        return float(oracle.gradient(arr)[0]) + h * abs(x - xb) ** (p - 1) * (x - xb)

    t = minimize_composite_1d(smooth_deriv, term, xb)
    g_raw = h * abs(t - xb) ** (p - 1) * (xb - t) - float(oracle.gradient(np.array([t]))[0])
    g = term.subgradient_select(np.array([t]), np.array([g_raw]))
    return np.array([t]), g


def acceptable_interval_1d(cfg, anchor, g=0.0):
    """Closed-form acceptance interval for the instance f(x) = x with the
    nonnegative-orthant term (p = 3).

    For a fixed admissible subgradient value g the acceptable points solve
    |1 + g + H (T-xb)^3| <= beta |1+g|, intersected with the set where g is
    actually a subgradient (g = 0 for T > 0; g <= 0 at T = 0). Returns a
    closed interval (lo, hi) or None when empty.
    """
    if cfg.p != 3:
        raise ParameterError("the closed form is specific to p = 3")
    xb = float(anchor if np.isscalar(anchor) else np.asarray(anchor, dtype=float)[0])
    w = 1.0 + g
    lower = xb - float(np.cbrt((w + cfg.beta * abs(w)) / cfg.h))
    upper = xb - float(np.cbrt((w - cfg.beta * abs(w)) / cfg.h))
    if g == 0.0:
        if upper < 0.0:
            return None
        return (max(lower, 0.0), upper)
    if g < 0.0:
        return (0.0, 0.0) if lower <= 0.0 <= upper else None
    return None  # g > 0 is a subgradient nowhere on the orthant
