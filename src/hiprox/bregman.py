"""High-order scaling functions and relative smoothness machinery.

With q = floor(p/2), the scaling function anchored at y is

    rho(x) = sum_{k=1}^q D^{2k} f(y)[x-y]^{2k} / (2k)!  +  H d(x-y),

with d(h) = |h|^{p+1}/(p+1). Its Bregman distance

    breg(x, z) = rho(z) - rho(x) - <grad rho(x), z - x>

satisfies the three-point identity and, for H = xi (1+xi) M_{p+1} / (p-1)!,
the regularized objective f(x) + H d(x - y) is mu-strongly convex and
L-smooth relative to rho with

    mu = 1 - 1/xi,   L = 1 + 1/xi,   kappa = mu/L = (xi-1)/(xi+1).

The concrete parameterization xi = 2, H = 6 M_{p+1}/(p-1)! gives mu = 1/2,
L = 3/2, kappa = 1/3. The inner loop uses L only as its first step constant
and as the cap of its backtracking, and mu as the floor (see ``inner``): each
step runs at its own L_i in [mu, L], kept where the relative descent
inequality holds at L_i.

rho, f_reg and the augmented Taylor model (``tensor.TaylorModel``) are each
a smooth part plus h d(x - anchor); ``AnchoredModel`` is the one home of
that sum. Each point costs one pass, ``evaluate``: it forms d = x - anchor
once, adds the power term, from one |d|, to the subclass's part at d, and
gives the sum's value, gradient and, when asked, Hessian matrix, with |d|,
d(d) and grad d(d): the inner loop reads f_reg, grad f_reg and the acceptance
certificate at the point off rho's pass. The part of ``RegularizedObjective``
is one residual pass of the oracle. The even Taylor terms of rho are anchored
at the fixed y, so ``ScalingFunction`` evaluates the anchor's residuals
(one pass) and the weights f^(2k)(t_i(y)), k <= q, once at construction
(an ``AnchorStack`` of the even orders 2, ..., 2q), and its part projects d
once for all orders (``AnchorStack.series``); D^2 f(y) is formed once. The oracle's
``calls_by_order`` still names every order consumed, but counts the anchor's
orders once per scaling function rather than once per call.

For p = 3 these constants follow from the bracket
|D^3 f(y)[h][u,u]| <= D^2 f(y)[u,u]/xi + xi M_4 |h|^2 |u|^2/2 (convexity of f
on y +- xi h) together with D^2 d(h) >= |h|^{p-1}. For p >= 4 the bracket
obtained the same way weights the odd and even Taylor terms by unequal powers
of xi and does not imply them; they are checked by sampling only (`verify
sandwich`). They can fail at p >= 4: (x-1)^4 with a declared M_5 of 1e-3
(a valid bound, the true one is 0) violates mu = 1/2 at y = 2, x = 0, where
D^2 f(x) = 0. The inner loop does not trust them for correctness: a step at
L_i < L is kept only where its descent test holds, a step at L is kept
untested, and every returned point passes the acceptance certificate.

The bi-level loop also runs steps at an M_k below the declared M_{p+1}
(``outer.adapt_m``), so possibly below the true bound on D^{p+1} f. The
constants of ``relative_constants(p, H_k, M_k)`` are still mu = 1/2 and
L = 3/2 there, but they are nominal even at p = 3: the bracket above needs
M_k >= sup |D^{p+1} f|. Only the descent test and the certificate keep those
steps correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .metric import PowerProx, norm
from .oracles import AnchorStack


class AnchoredModel:
    """A smooth part plus h d(x - anchor), d = ``PowerProx(p)``, from one pass per point.

    A subclass gives only its part at x, from ``oracle``: ``_part(x, d, hessian)``
    with d = x - anchor, as (value, gradient, Hessian matrix or None).
    """

    def __init__(self, oracle, anchor, p, h):
        if h < 0:
            raise ParameterError("H must be >= 0")
        self.oracle = oracle
        self.anchor = np.asarray(anchor, dtype=float)
        self.p = int(p)
        self.h = float(h)
        self.pp = PowerProx(self.p)

    def _part(self, x, d, hessian):
        raise NotImplementedError

    def with_part(self, x, hessian=False):
        """``evaluate``'s tuple at x and the part it summed, as the subclass gave it."""
        x = np.asarray(x, dtype=float)
        d = x - self.anchor
        part = self._part(x, d, hessian)
        p_value, p_grad, p_hess, radius = self.pp._terms(d, hessian)
        h = self.h
        hess = None
        if hessian:
            p_hess *= h
            if part[2] is not None:
                p_hess += part[2]
            hess = p_hess
        return (part[0] + h * p_value, part[1] + h * p_grad, hess, radius, p_value, p_grad), part

    def evaluate(self, x, hessian=False):
        """One pass at x: (value, gradient, Hessian matrix or None, |d|, d(d), grad d(d)).

        The last three items are the power term's own (with rho's anchor they
        give f_reg, grad f_reg and the certificate at x). Every array is new,
        so the caller may overwrite it: the Hessian sum goes into the power
        term's own.
        """
        return self.with_part(x, hessian)[0]

    # -- reads of one pass ------------------------------------------------
    def value(self, x):
        return self.evaluate(x)[0]

    def gradient(self, x):
        return self.evaluate(x)[1]

    def hessian_matrix(self, x):
        return self.evaluate(x, hessian=True)[2]


class ScalingFunction(AnchoredModel):
    """rho: the even-order Taylor part of f at the anchor plus H d(x - anchor)."""

    def __init__(self, oracle, anchor, p, h):
        if p < 2:
            raise ParameterError("scaling functions need p >= 2")
        super().__init__(oracle, anchor, p, h)
        self.q = self.p // 2
        # the anchor's residuals and even-order weights, once per scaling function
        self.stack = AnchorStack(oracle, self.anchor, range(2, 2 * self.q + 1, 2))

    def _part(self, x, d, hessian):
        return self.stack.series(d, hessian)


def bregman_distance(sf, x, z):
    """breg(x, z) = rho(z) - rho(x) - <grad rho(x), z - x> (anchored at x)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    rho_x, grad_x = sf.evaluate(x)[:2]
    return sf.value(z) - rho_x - float(np.dot(grad_x, z - x))


class RegularizedObjective(AnchoredModel):
    """f_reg(x) = f(x) + H d(x - anchor), minimized by ``exact_prox``.

    The inner loop forms f_reg from the scaling function's pass instead,
    which carries the same H d(x - anchor).
    """

    def _part(self, x, d, hessian):
        return self.oracle.evaluate(x, hessian)


def candidates(model, term, points):
    """The candidate pairs (T, g) of a scan over ``points``, from one model pass each.

    Yields (T, g, at) per point T: ``at = model.with_part(T)``, and g the
    subgradient of psi at T nearest -grad model(T). With f_reg
    (``RegularizedObjective``) ``at[0]``'s |d| and grad d are the acceptance
    certificate's ``power``; with a ``tensor.TaylorModel`` ``at`` holds both
    gradients that ``tensor_criterion`` compares.
    """
    for point in points:
        point = np.asarray(point, dtype=float)
        at = model.with_part(point)
        yield point, term.subgradient_select(point, -at[0][1]), at


@dataclass
class RelativeConstants:
    xi: float
    mu: float
    lsmooth: float
    kappa: float


def relative_constants(p, h, m_next):
    """Solve xi (1 + xi) = (p-1)! H / M_{p+1} and derive (mu, L, kappa).

    The inner loop's step constant L_i starts at L and stays in [mu, L]: L is
    its first value and its cap, mu its floor. These constants are a theorem
    at p = 3 only, and only where m_next bounds D^{p+1} f; at p >= 4, or at
    an adaptive M_k below the true bound, they are nominal (see the module
    docstring), so L bounds the backtracking without guaranteeing descent.
    """
    if not 0.0 < m_next < math.inf:
        raise ParameterError("need a finite positive M_{p+1} bound")
    if h <= 0:
        raise ParameterError("H must be positive")
    c = math.factorial(p - 1) * h / m_next
    xi = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * c))
    return RelativeConstants(
        xi=xi, mu=1.0 - 1.0 / xi, lsmooth=1.0 + 1.0 / xi, kappa=(xi - 1.0) / (xi + 1.0)
    )


def bilevel_h(p, m_next):
    """The xi = 2 coefficient H = 6 M_{p+1} / (p-1)!."""
    if m_next <= 0 or not np.isfinite(m_next):
        raise ParameterError("need a finite positive M_{p+1} bound")
    return 6.0 * m_next / math.factorial(p - 1)


def relative_sandwich_check(sf, reg, rc, pairs):
    """Worst signed violation of the relative-smoothness sandwich.

    For each pair (y, x) checks

        mu breg(y, x) <= f_reg(x) - f_reg(y) - <grad f_reg(y), x-y> <= L breg(y, x).

    Positive return values mean a violation of that size; <= 0 means all hold.
    f_reg(y) and grad f_reg(y) come from one pass, so a pair costs two.
    """
    worst = -np.inf
    for y, x in pairs:
        b = bregman_distance(sf, y, x)
        reg_y, grad_y = reg.evaluate(y)[:2]
        df = reg.value(x) - reg_y - float(np.dot(grad_y, x - y))
        worst = max(worst, rc.mu * b - df, df - rc.lsmooth * b)
    return worst


# ---------------------------------------------------------------------------
# norm domination of the Bregman distance


def hat_l_sampled(sf, radius, rng):
    """Sampled gradient-Lipschitz constant of the polynomial part on a ball.

    The largest |eigenvalue| of its Hessian at 200 uniform points of the
    ball, with a margin of 20%.
    """
    n = len(sf.anchor)
    best = 0.0
    for _ in range(200):
        u = rng.standard_normal(n)
        u /= norm(u)
        x = sf.anchor + radius * rng.uniform(0.0, 1.0) ** (1.0 / n) * u
        hess = sf.with_part(x, hessian=True)[1][2]
        best = max(best, float(np.abs(np.linalg.eigvalsh(hess)).max()))
    return 1.2 * best


def theta_constants(p, r):
    """Power-part domination constants (a, b, c, d), alpha, beta, exponent.

    alpha sits at its upper admissible limit and beta at its lower one.
    """
    if r <= 0:
        raise ParameterError("R must be positive")
    q = p // 2
    if p % 2 == 1:
        a = 2.0 ** (2 * q) / (p + 1)
        b = 2.0 ** (3 * q + 1) * r ** (q + 1) / (p + 1)
        c = float(r) ** p
        d = 2.0 ** q * r ** (2 * q + 2) / (p + 1)
        alpha = 1.0 + (b + 1.0) / (2.0 * a) * c ** (-(q + 1.0) / q)
        beta = 1.0 + (b + 1.0) / (2.0 * d) * c ** ((q + 1.0) / q)
        exponent = 2 * q + 2
    else:
        a = 2.0 ** (2 * q - 1)
        b = 2.0 ** ((6 * q - 1) / 2.0) * r ** ((2 * q + 1) / 2.0) / (p + 1)
        c = float(r) ** p
        d = 2.0 ** ((2 * q - 1) / 2.0) * r ** (2 * q + 1) / (p + 1)
        expo = (2 * q + 1.0) / (2.0 * (2 * q - 1.0))
        alpha = 1.0 + (b + 1.0) / (2.0 * a) * c ** (-expo)
        beta = 1.0 + (b + 1.0) / (2.0 * d) * c ** expo
        exponent = 2 * q + 1
    return {"a": a, "b": b, "c": c, "d": d, "alpha": alpha, "beta": beta, "exponent": exponent}


def theta_bound(p, r, hat_l, h=1.0):
    """Domination gauge theta(tau) = (hat_l/2) tau^2 + h (alpha a tau^e + beta d).

    Returns (theta, constants). ``h`` scales the power-regularizer part; the
    quadratic part carries the polynomial smoothness constant ``hat_l``.
    """
    consts = theta_constants(p, r)
    alpha_a = consts["alpha"] * consts["a"]
    beta_d = consts["beta"] * consts["d"]
    e = consts["exponent"]

    def theta(tau):
        return 0.5 * hat_l * tau ** 2 + h * (alpha_a * tau ** e + beta_d)

    return theta, consts
