"""Plain and accelerated inexact proximal-point outer loops.

The plain loop anchors each certified prox step at the current iterate; the
accelerated loop drives an estimating sequence

    Psi_{k+1}(x) = Psi_k(x) + a_{k+1} [f(T_k) + <grad f(T_k), x - T_k> + psi(x)],
    Psi_0(x) = d_{p+1}(x - x_0),

whose minimizer v_k enters the anchor combination
y_k = (A_k/A_{k+1}) x_k + (a_{k+1}/A_{k+1}) v_k. x_{k+1} keeps the previous
iterate whenever the prox output would increase F; the update rule only
requires F(x_{k+1}) <= F(T_k), which both choices satisfy. Both loops share
their start and their per-step record.

Both loops call their provider as ``provider(anchor, start, scale)``. The
start is a ``WarmStart``: x_0, with the f(x_0) that F(x_0) took, at the first
step, and afterwards the previous prox point T_{k-1} by its certificate, with
the last step constant its inner solve kept; in the plain loop that point is
the anchor itself. The inner loop starts there, reuses f (and grad f) and
takes its first step at that constant; the exact and tensor providers ignore
the start. ``scale`` is the step's M_k/M in (0, 1]: the provider certifies its
point at H_k = scale * H. The plain loop and a fixed-H accelerated run pass 1.
A provider returns an ``InnerResult`` (certificate, inner iterations, inner
trace or None) and keeps no state between calls; the loops raise
``NumericalError`` on a certificate that is not accepted.

The bi-level method (BiOPT) is the accelerated loop at beta = 1/p with the
certified Bregman inner loop as its acceptable-solution provider, and step k
at H_k = 6 M_k/(p-1)! for an M_k <= M_{p+1} that ``adapt_m`` halves after a
cheap inner solve and doubles after a dear one (after the adaptive
regularization of Grapiglia and Nesterov 2020). The schedule runs on a clock
that ticks faster at smaller M_k (``coefficients``), so the estimating-sequence
argument holds at each step's H_k and A_k never falls below its value at the
declared M: the O(k^{-(p+1)}) bound at M_{p+1} still holds. Every step is
certified at its own H_k, so no step is redone.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from .acceptance import ProxConfig, check_acceptable
from .bregman import bilevel_h, relative_constants
from .errors import NumericalError, ParameterError
from .inner import InnerResult, WarmStart, csv_text, exact_prox, inner_solve
from .metric import PowerProx, norm
from .oracles import psi_prox_euclid
from .tensor import TaylorModel, tensor_acceptance_map, tensor_step
from .univariate import decreasing_root

# adapt_m halves M_k after an inner solve that kept at most _CHEAP steps and
# doubles it after one that kept more than _DEAR. Bench cells, seed 0, outer
# steps and prox-Newton iterations on catalog-p3 / catalog-p45: (1, 3) took
# 171 / 57 and 1,276 / 558, (2, 3) 142 / 46 and 1,197 / 527, (2, 4) and (2, 5)
# 135 / 46 and about 1,225 / 526; at a fixed M 449 / 78 and 2,029 / 599.
# Solve times of (1, 3), (1, 5), (2, 3) and (2, 5) were within noise of each
# other (nine interleaved passes). M_k never goes below _SCALE_FLOOR M:
# converging bench solves reach M/2^20 at most (logistic-l1-10), but past
# convergence (eps = -1, 1,500 steps) M_k keeps halving, and at M/2^30 a
# quartic-sep-10d/p3 step needs a certificate below the rounding of its
# residual, so the inner loop raises; at M/2^24 it does not.
_CHEAP = 2
_DEAR = 3
_SCALE_FLOOR = 2.0 ** -24
# the range of k that ``OuterTrace.fitted_slope`` fits
_SLOPE_KS = (10, 100)


def coefficients(p, tau, beta, h, tick=1.0):
    """(A(tau), A(tau + tick) - A(tau)) of the schedule A(tau) = (c_p/2)^p (tau/(p+1))^{p+1}.

    c_p = ((1 - beta)/H)^{1/p}. At the bi-level pair beta = 1/p,
    H = 6 M_{p+1}/(p-1)! the lead (c_p/2)^p is (p-1)(p-1)!/(3p 2^{p+1} M_{p+1}).

    The accelerated loop runs the schedule on a clock tau_k: step k at
    H_k = s_k H (0 < s_k <= 1) ticks by s_k^{-1/(p+1)}, so A^{1/(p+1)} grows
    by (c_p(H_k)/2)^{p/(p+1)}/(p+1), and the mean-value theorem gives
    a_{k+1}^{(p+1)/p} <= (c_p(H_k)/2) A_{k+1}, the growth inequality of the
    estimating-sequence argument at H_k. A fixed H ticks by exactly 1, so
    tau_k = k and A_k = (c_p/2)^p (k/(p+1))^{p+1}.
    """
    if tau < 0:
        raise ParameterError("the clock tau must be nonnegative")
    if tick <= 0:
        raise ParameterError("the clock tick must be positive")
    if beta is None or h is None:
        raise ParameterError("the accelerated schedule needs beta and H")
    c_p = ((1.0 - beta) / h) ** (1.0 / p)
    lead = (c_p / 2.0) ** p

    def a_of(j):
        return lead * (j / (p + 1.0)) ** (p + 1)

    return a_of(tau), a_of(tau + tick) - a_of(tau)


def clock_tick(p, scale):
    """The schedule clock's tick at M_k/M = scale: scale^{-1/(p+1)}, 1 at scale 1."""
    return scale ** (-1.0 / (p + 1))


@dataclass
class EstimatingState:
    """Aggregated form of Psi_k: c + <s, x> + A_k psi(x) + d_{p+1}(x - x0)."""

    power: PowerProx
    x0: np.ndarray
    a_total: float = 0.0
    s: np.ndarray = None
    c: float = 0.0

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.s is None:
            self.s = np.zeros_like(self.x0)

    def value(self, x, term):
        x = np.asarray(x, dtype=float)
        return self.linear(x) + self.a_total * term.value(x) + self.power.value(x - self.x0)

    def linear(self, x):
        """c + <s, x>: the folded a_i [f(T_i) + <grad f(T_i), x - T_i>]."""
        return self.c + float(np.dot(self.s, x))


def estimating_update(state, point, grad_at_point, f_at_point, a_next):
    """Fold a_{k+1} [f(T) + <grad f(T), x - T> + psi(x)] into the state."""
    if a_next <= 0:
        raise ParameterError("coefficient increment must be positive")
    point = np.asarray(point, dtype=float)
    state.s = state.s + a_next * np.asarray(grad_at_point, dtype=float)
    state.c += a_next * (float(f_at_point) - float(np.dot(grad_at_point, point)))
    state.a_total += a_next
    return state


def psi_argmin(state, term):
    """argmin over x of <s, x> + A_k psi(x) + d_{p+1}(x - x0), d being ``state.power``.

    Without psi the minimizer is x0 - |s|^{(1-p)/p} s. Otherwise it is
    scalarized on the step radius: for trial r the candidate solves the
    prox with weight tau = r^{p-1} (rescaled by the psi-weight), and the
    radius equation |x(r) - x0| = r is closed by bracketing.
    """
    s, w, x0, p = state.s, state.a_total, state.x0, state.power.p
    sn = norm(s)
    if w == 0.0 or term.kind == "zero":
        if sn == 0.0:
            return x0.copy()
        return x0 - sn ** ((1.0 - p) / p) * s

    def candidate(r):
        tau = r ** (p - 1)
        return psi_prox_euclid(term, s / w, x0, tau / w)

    def radius_gap(r):
        d = candidate(r) - x0
        return norm(d) - r

    r_lo = 1e-12
    if radius_gap(r_lo) <= 0.0:
        return candidate(r_lo)
    return candidate(decreasing_root(radius_gap, r_lo, 2.0 * sn ** (1.0 / p) + 1.0))


def bound_evaluator(mode, cfg, radius, gap0, k):
    """Right-hand side of the plain or accelerated rate guarantee at step k."""
    if mode not in ("plain", "accelerated"):
        raise ParameterError("unknown mode %r" % mode)
    if k <= 0:
        return np.inf
    p, h, beta = cfg.p, cfg.h, cfg.beta
    if mode == "plain":
        lead = 0.5 * (h * radius ** (p + 1) / (1.0 - beta) + gap0)
        return lead * ((2.0 * p + 2.0) / k) ** p
    lead = h / (2.0 * (1.0 - beta)) * radius ** (p + 1) / (p + 1.0)
    return lead * ((2.0 * p + 2.0) / k) ** (p + 1)


@dataclass
class OuterRow:
    k: int
    f_value: float
    gap: float
    bound_rhs: float
    inner_iters: int
    cert_lhs: float
    cert_rhs: float


@dataclass
class OuterTrace:
    mode: str
    rows: list = field(default_factory=list)
    points: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    inner_traces: list = field(default_factory=list)
    aux: dict = field(default_factory=dict)
    status: str = "running"

    COLUMNS = ("k", "F", "gap", "bound_rhs", "inner_iters", "cert_lhs", "cert_rhs")

    def column(self, name):
        attr = {"F": "f_value"}.get(name, name)
        return np.array([getattr(r, attr) for r in self.rows], dtype=float)

    def to_csv(self):
        return csv_text(self.COLUMNS, map(astuple, self.rows))

    @property
    def inner_total(self):
        return int(sum(r.inner_iters for r in self.rows))

    def worst_cert_ratio(self):
        """max over the steps of cert_lhs / (beta cert_rhs), at most 1 up to the slack."""
        beta = self.aux["config"]["beta"]
        ratios = [r.cert_lhs / (beta * r.cert_rhs) if beta * r.cert_rhs > 0
                  else (0.0 if r.cert_lhs == 0 else np.inf) for r in self.rows[1:]]
        return max(ratios, default=float("nan"))

    def bound_margin(self):
        """Worst gap - bound_rhs over the steps k >= 1 with a finite bound (nan if none).

        A nan gap counts as +inf: it never meets its bound.
        """
        rows = [r for r in self.rows if r.k >= 1 and np.isfinite(r.bound_rhs)]
        return max((np.inf if np.isnan(r.gap) else r.gap - r.bound_rhs for r in rows),
                   default=float("nan"))

    def fitted_slope(self):
        """Slope of log gap on log k over the positive gaps at k in _SLOPE_KS (nan below 2)."""
        ks = self.column("k")
        gaps = self.column("gap")
        mask = (ks >= _SLOPE_KS[0]) & (ks <= _SLOPE_KS[1]) & np.isfinite(gaps) & (gaps > 0)
        if mask.sum() < 2:
            return float("nan")
        return float(np.polyfit(np.log(ks[mask]), np.log(gaps[mask]), 1)[0])

    def summary(self):
        last = self.rows[-1]
        itraces = [t for t in self.inner_traces if t is not None]
        lsmooth = [float(v) for t in itraces for v in t.lsmooth]
        m_k = self.aux.get("m_k")
        scales = self.aux.get("m_scale", [])
        out = {
            "mode": self.mode,
            "status": self.status,
            "iterations": last.k,
            "inner_total": self.inner_total,
            # prox-Newton iterations over every inner solve (0 for other providers)
            "newton_iters": int(sum(t.newton_iters for t in itraces)),
            # [min, max] of the kept inner step constants L_i (None without an inner loop)
            "lsmooth_range": [min(lsmooth), max(lsmooth)] if lsmooth else None,
            # inner step candidates rejected by the relative descent test
            "backtracks": int(sum(t.backtracks for t in itraces)),
            # [min, max] of the bi-level M_k (None for the other modes), and
            # how often M_k halved and doubled between steps
            "m_range": [min(m_k), max(m_k)] if m_k else None,
            "m_halvings": sum(b < a for a, b in zip(scales, scales[1:])),
            "m_doublings": sum(b > a for a, b in zip(scales, scales[1:])),
            "worst_cert_ratio": self.worst_cert_ratio(),
            "final_f": last.f_value,
            "final_gap": last.gap,
            "fitted_slope": self.fitted_slope(),
        }
        out.update(self.aux.get("config", {}))
        return out


def exact_prox_provider(oracle, term, cfg):
    """Acceptable-solution provider backed by the exact prox (``exact_prox``)."""

    def provider(anchor, start, scale):
        step_cfg = cfg.scaled(scale)
        t, g = exact_prox(oracle, term, step_cfg, anchor)
        return InnerResult(check_acceptable(oracle, term, step_cfg, anchor, t, g), 0)

    return provider


def inner_prox_provider(oracle, term, cfg, m_next):
    """Acceptable-solution provider backed by the Bregman inner loop.

    m_next bounds D^{p+1} f. A solve at ``scale`` s runs at H = s cfg.h with
    the relative constants of (s cfg.h, s m_next), which are those of
    (cfg.h, m_next) (``relative_constants``, formed once): to the bit, as
    ``adapt_m``'s scales are powers of two. Each solve starts at the
    ``start`` its caller passes.
    """
    rc = relative_constants(cfg.p, cfg.h, m_next)

    def provider(anchor, start, scale):
        return inner_solve(oracle, term, cfg.scaled(scale), rc, anchor, start)

    return provider


def tensor_prox_provider(oracle, term, p, beta, gamma, m_next):
    """Provider that takes one augmented-model tensor step per anchor (``tensor_step``).

    Returns (provider, cfg) where cfg carries the (M, H) pair under which a
    criterion-passing tensor step is acceptable at level beta. That pair
    holds for the declared M_{p+1} only, so the provider runs at scale 1.
    """
    m, h = tensor_acceptance_map(p, beta, gamma, m_next)
    cfg = ProxConfig(p, h, beta)

    def provider(anchor, start, scale):
        if scale != 1.0:
            raise ParameterError("a tensor step is acceptable at the declared M only")
        tm = TaylorModel(oracle, anchor, p, m)
        t, g, ok, _, _ = tensor_step(tm, term, gamma)
        if not ok:
            raise NumericalError("tensor step failed its inexactness criterion")
        return InnerResult(check_acceptable(oracle, term, cfg, anchor, t, g), 1)

    return provider, cfg


def _objective(problem, x, f_value):
    """F(x) = f_value + psi(x), where f_value is f(x) (a certificate's)."""
    return f_value + problem.term.value(x)


def _gap(problem, f_value):
    if problem.f_star is None:
        return float("nan")
    return f_value - problem.f_star


def _start(problem, cfg, mode):
    """A trace holding row 0 at x_0, plus the first provider start, F(x_0) and its gap."""
    x = np.asarray(problem.x0, dtype=float).copy()
    f0 = problem.oracle.value(x)
    f_x = _objective(problem, x, f0)
    gap0 = _gap(problem, f_x)
    trace = OuterTrace(mode=mode)
    trace.aux["config"] = {"p": cfg.p, "h": cfg.h, "beta": cfg.beta}
    trace.rows.append(OuterRow(0, f_x, gap0, np.inf, 0, np.nan, np.nan))
    trace.points.append(x.copy())
    return trace, WarmStart(x, f0), f_x, gap0


def _prox_step(provider, anchor, start, scale=1.0):
    """The provider's ``InnerResult`` at anchor, and the next step's start.

    ``scale`` is the step's M_k/M. The start is the certified point T by its
    certificate, with the last step constant its inner solve kept (none from
    the other providers).
    """
    result = provider(anchor, start, scale)
    cert, itrace = result.certificate, result.trace
    if not cert.accepted:
        raise NumericalError("provider returned a non-accepted certificate")
    restart = WarmStart.at(cert, itrace.lsmooth[-1] if itrace is not None else None)
    return result, restart


def _record(trace, problem, x, f_x, bound, result, eps, rhs_tol=None):
    """Append one outer step; True (status converged) once gap <= eps or rhs <= rhs_tol."""
    cert = result.certificate
    gap = _gap(problem, f_x)
    k = len(trace.rows)
    trace.rows.append(OuterRow(k, f_x, gap, bound, result.iterations, cert.lhs, cert.rhs))
    trace.points.append(x.copy())
    trace.certificates.append(cert)
    trace.inner_traces.append(result.trace)
    if (np.isfinite(gap) and gap <= eps) or (rhs_tol is not None and cert.rhs <= rhs_tol):
        trace.status = "converged"
        return True
    return False


def ihopp_run(problem, cfg, provider, eps=0.0, max_k=50):
    """Plain loop: anchor at x_k, accept the certified prox point.

    The rate bound reads its distance from ``problem.d0`` (nan without one).
    """
    trace, start, f_x, gap0 = _start(problem, cfg, "plain")
    x = start.point
    d0 = problem.d0
    for k in range(1, max_k + 1):
        result, start = _prox_step(provider, x, start)
        x = result.certificate.point
        f_x = _objective(problem, x, result.certificate.f_value)
        bound = bound_evaluator("plain", cfg, d0, gap0, k) if d0 is not None else np.nan
        if _record(trace, problem, x, f_x, bound, result, eps):
            return trace
    trace.status = "max_iter"
    return trace


def aihopp_run(problem, cfg, provider, eps=0.0, max_k=50, rhs_tol=None, rule=None):
    """Accelerated loop with estimating-sequence bookkeeping.

    Step k runs its provider at s_k = M_k/M in (0, 1], that is at
    H_k = s_k cfg.h, and advances the schedule's clock tau by
    s_k^{-1/(p+1)} (``coefficients``). s_0 = 1; ``rule(s_k, inner_iters)``
    gives s_{k+1}, capped at 1. Without a rule every step runs at cfg.h and
    tau_k = k. Since tau_k >= k, A_k is at least its fixed-H value, so the
    rate bound at cfg.h holds whatever the rule does. The bound reads its
    distance |x_0 - x*| from ``problem.x_star`` (nan without one).

    ``aux`` records ``config`` (p, H, beta) and, per step, ``fallback``
    (whether x kept its value) and ``m_scale`` (s_k). The loop checks no
    estimating-sequence invariant itself: ``verify estseq`` folds Psi_k again
    from the certificates and checks them (``verify._estseq_margins``).
    """
    if not cfg.beta_le_inv_p:
        raise ParameterError("the accelerated analysis requires beta <= 1/p")
    trace, start, f_x, gap0 = _start(problem, cfg, "accelerated")
    x = start.point
    dist0 = None if problem.x_star is None else norm(x - problem.x_star)
    state = EstimatingState(power=PowerProx(cfg.p), x0=x.copy())
    v = x.copy()
    trace.aux["fallback"] = []
    trace.aux["m_scale"] = []
    tau, scale = 0.0, 1.0
    for k in range(max_k):
        tick = clock_tick(cfg.p, scale)
        a_k, a_next = coefficients(cfg.p, tau, cfg.beta, cfg.h, tick)
        a_total_next = a_k + a_next
        y = (a_k / a_total_next) * x + (a_next / a_total_next) * v
        # the next start is T_k, also when x keeps its value
        result, start = _prox_step(provider, y, start, scale)
        cert = result.certificate
        t = cert.point
        f_t = _objective(problem, t, cert.f_value)
        estimating_update(state, t, cert.gradient, cert.f_value, a_next)
        fallback = f_t > f_x
        if not fallback:
            x, f_x = t, f_t
        v = psi_argmin(state, problem.term)
        bound = (bound_evaluator("accelerated", cfg, dist0, gap0, k + 1)
                 if dist0 is not None else np.nan)
        trace.aux["fallback"].append(bool(fallback))
        trace.aux["m_scale"].append(scale)
        if _record(trace, problem, x, f_x, bound, result, eps, rhs_tol):
            return trace
        tau += tick
        if rule is not None:
            scale = min(1.0, rule(scale, result.iterations))
    trace.status = "max_iter"
    return trace


def adapt_m(scale, inner_iters):
    """Next M_k/M of the bi-level loop: halve after a cheap inner solve, double after a dear one."""
    if inner_iters <= _CHEAP:
        return max(0.5 * scale, _SCALE_FLOOR)
    if inner_iters > _DEAR:
        return 2.0 * scale
    return scale


def biopt_run(problem, p, eps=0.0, max_k=50, rhs_tol=None):
    """Bi-level run: the accelerated loop at beta = 1/p and H_k = 6 M_k/(p-1)!.

    The Bregman inner loop is the provider, and M_k <= M_{p+1} adapts by
    ``adapt_m``. ``aux`` holds ``aihopp_run``'s keys and ``m_k``, M_k per
    step; ``verify estseq`` checks the estimating-sequence invariants of
    such a run.
    """
    m = problem.m_next(p)
    cfg = ProxConfig(p, bilevel_h(p, m), 1.0 / p)
    provider = inner_prox_provider(problem.oracle, problem.term, cfg, m)
    trace = aihopp_run(problem, cfg, provider, eps=eps, max_k=max_k, rhs_tol=rhs_tol,
                       rule=adapt_m)
    trace.mode = "bilevel"
    trace.aux["m_k"] = [scale * m for scale in trace.aux["m_scale"]]
    return trace
