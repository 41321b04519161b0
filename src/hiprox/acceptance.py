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

A certificate costs one residual pass of f at T (f and grad f together).
Inside the inner loop it also reads |T - xb| and grad d(T - xb) from the
scaling function's pass at T, and the membership distance of g from the
step that produced the pair, so d and its norm are formed once per
candidate; the certificate still runs its own membership test on that
distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CertificateError, ParameterError
from .metric import PowerProx, norm

ACCEPT_SLACK = 1e-12
INEQ_SLACK = 1e-10
MEMBERSHIP_TOL = 1e-8


@dataclass
class ProxConfig:
    """Parameters (p, H, beta) of one proximal acceptance problem; d is ``PowerProx(p)``."""

    p: int
    h: float
    beta: float

    def __post_init__(self):
        if int(self.p) != self.p or self.p < 1:
            raise ParameterError("p must be an integer >= 1")
        self.p = int(self.p)
        if not 0.0 < self.h < math.inf:
            raise ParameterError("H must be finite and positive")
        if not 0.0 <= self.beta < 1.0:
            raise ParameterError("beta must lie in [0, 1)")

    @property
    def beta_le_inv_p(self):
        """Whether beta <= 1/p: ``aihopp_run`` and the ``progress_dual`` inequality need it."""
        return self.beta <= 1.0 / self.p + 1e-15

    def scaled(self, scale):
        """This config at H = scale * h."""
        return replace(self, h=scale * self.h)


@dataclass
class AcceptanceCertificate:
    anchor: np.ndarray
    point: np.ndarray
    subgradient: np.ndarray
    lhs: float
    rhs: float
    accepted: bool
    radius: float = 0.0  # |T - xb|
    inner_product: float = 0.0  # <grad f(T)+g, xb-T>
    gradient: np.ndarray = field(default=None, repr=False)  # grad f(T), as computed
    f_value: float = None  # f(T)


def check_acceptable(oracle, term, cfg, anchor, point, g, gap=None, power=None):
    """Build the acceptance certificate for a candidate pair (point, g).

    Raises CertificateError when the pair is malformed (point outside the
    domain of psi, or g provably not a subgradient there); a well-formed pair
    that merely violates the beta inequality comes back with accepted=False.
    The certificate keeps f(T) and grad f(T), evaluated here from one residual
    pass (``oracle.evaluate``), for the callers that need them next (the
    inner loop's next step and trace row, the outer loops' objective value
    and estimating update).

    A caller that already has them passes ``gap``, the distance
    ``term.subgradient_distance(point, g)``, and ``power``, the pair
    (|d|, grad d(d)) at d = point - anchor (else d is ``PowerProx(cfg.p)``);
    neither is computed again. The inner loop reads both off its step: the
    membership check of ``StepSolver.step`` and the scaling function's pass
    at the point (``ScalingFunction.evaluate``), which shares this anchor.
    """
    anchor = np.asarray(anchor, dtype=float)
    point = np.asarray(point, dtype=float)
    g = np.asarray(g, dtype=float)
    if not term.contains(point):
        raise CertificateError("candidate point lies outside dom psi")
    if gap is None:
        gap = term.subgradient_distance(point, g)
    if gap > MEMBERSHIP_TOL * (1.0 + norm(g)):
        raise CertificateError(
            "g is not a subgradient of psi at the candidate (distance %.3e)" % gap
        )
    if power is None:
        _, d_grad, _, radius = PowerProx(cfg.p)._terms(point - anchor)
    else:
        radius, d_grad = power
    f_value, grad, _ = oracle.evaluate(point)
    residual = grad + g
    reg_residual = residual + cfg.h * d_grad
    lhs = norm(reg_residual)
    rhs = norm(residual)
    return AcceptanceCertificate(
        anchor=anchor,
        point=point,
        subgradient=g,
        lhs=lhs,
        rhs=rhs,
        accepted=lhs <= cfg.beta * rhs + ACCEPT_SLACK,
        radius=radius,
        inner_product=float(np.dot(residual, anchor - point)),
        gradient=grad,
        f_value=f_value,
    )


def certificate_inequalities(cert, cfg):
    """Evaluate the three accepted-pair inequalities with additive slack ``INEQ_SLACK``.

    Returns a dict name -> (satisfied, margin) where margin >= -INEQ_SLACK means
    satisfied: "radius" is the two-sided residual sandwich, "progress" the
    anchor-progress inner product, and "progress_dual" (present only when
    beta <= 1/p) the dual-norm progress bound.
    """
    p, h, beta = cfg.p, cfg.h, cfg.beta
    r, rhs, inner = cert.radius, cert.rhs, cert.inner_product
    out = {}
    reg_power = h * r ** p
    m1 = min(reg_power - (1 - beta) * rhs, (1 + beta) * rhs - reg_power)
    out["radius"] = (m1 >= -INEQ_SLACK, m1)
    m2 = inner - h / (1 + beta) * r ** (p + 1)
    out["progress"] = (m2 >= -INEQ_SLACK, m2)
    if cfg.beta_le_inv_p:
        m3 = inner - ((1 - beta) / h) ** (1.0 / p) * rhs ** ((p + 1.0) / p)
        out["progress_dual"] = (m3 >= -INEQ_SLACK, m3)
    return out


def acceptable_interval_1d(cfg, anchor):
    """Closed-form acceptance interval for the instance f(x) = x with the
    nonnegative-orthant term (p = 3).

    g = 0 is a subgradient of the term at every T >= 0, and the only one at
    T > 0; the pair (T, 0) is acceptable where |1 + H (T-xb)^3| <= beta.
    Returns that closed interval (lo, hi) of T >= 0, or None when it is
    empty.
    """
    if cfg.p != 3:
        raise ParameterError("the closed form is specific to p = 3")
    xb = float(anchor if np.isscalar(anchor) else np.asarray(anchor, dtype=float)[0])
    lower = xb - float(np.cbrt((1.0 + cfg.beta) / cfg.h))
    upper = xb - float(np.cbrt((1.0 - cfg.beta) / cfg.h))
    if upper < 0.0:
        return None
    return (max(lower, 0.0), upper)
