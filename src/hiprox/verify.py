"""Seeded property suites behind the command-line `verify` subcommand.

Each suite samples with a fixed seed, evaluates one family of inequalities
from the certified machinery, and reports the worst signed violation against
its tolerance: negative when every sample holds with room. Suites: lemma1,
estseq, bregman, sandwich, theta, tensor, all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .acceptance import ACCEPT_SLACK, ProxConfig, certificate_inequalities, check_acceptable
from .bregman import (
    RegularizedObjective,
    ScalingFunction,
    bilevel_h,
    bregman_distance,
    candidates,
    hat_l_sampled,
    relative_constants,
    relative_sandwich_check,
    theta_bound,
)
from .inner import StepSolver, exact_prox, inner_solve
from .outer import (
    EstimatingState,
    aihopp_run,
    clock_tick,
    coefficients,
    estimating_update,
    exact_prox_provider,
    inner_prox_provider,
    psi_argmin,
    tensor_prox_provider,
)
from .metric import PowerProx, norm
from .oracles import AnchorStack
from .problems import get_problem
from .tensor import (
    TaylorModel,
    convexity_threshold,
    lemma2_bound_check,
    tensor_acceptance_map,
    tensor_criterion,
    tensor_step,
)


@dataclass
class CheckResult:
    suite: str
    name: str
    violation: float
    tolerance: float

    @property
    def passed(self):
        return bool(self.violation <= self.tolerance)

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        return "%-9s %-40s max violation %10.3e (tol %.1e): %s" % (
            self.suite,
            self.name,
            self.violation,
            self.tolerance,
            flag,
        )


def certificate_violation(cert, cfg):
    """Worst signed violation across acceptance and the accepted-pair triple."""
    worst = cert.lhs - (cfg.beta * cert.rhs + ACCEPT_SLACK)
    for _ok, margin in certificate_inequalities(cert, cfg).values():
        worst = max(worst, -margin)
    return worst


# ---------------------------------------------------------------------------
# lemma1: exact and inner-solver certificates pass the accepted-pair triple


def suite_lemma1(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for name in ("quartic-1d", "quartic-abs-1d", "linear-nonneg-1d"):
        prob = get_problem(name)
        worst = -np.inf
        for _ in range(50):
            anchor = prob.term.project(rng.uniform(prob.sample_lo, prob.sample_hi))
            for beta in (0.0, 0.1, 1.0 / 3.0):
                cfg = ProxConfig(3, 2.0, beta)
                t, g = exact_prox(prob.oracle, prob.term, cfg, anchor)
                cert = check_acceptable(prob.oracle, prob.term, cfg, anchor, t, g)
                worst = max(worst, certificate_violation(cert, cfg))
        results.append(CheckResult("lemma1", name + " exact prox", worst, 1e-10))
    prob = get_problem("quartic-sep-10d")
    m = prob.m_next(3)
    h = bilevel_h(3, m)
    rc = relative_constants(3, h, m)
    worst = -np.inf
    for _ in range(5):
        anchor = rng.uniform(prob.sample_lo, prob.sample_hi)
        for beta in (0.1, 1.0 / 3.0):
            cfg = ProxConfig(3, h, beta)
            res = inner_solve(prob.oracle, prob.term, cfg, rc, anchor, anchor)
            worst = max(worst, certificate_violation(res.certificate, cfg))
    results.append(CheckResult("lemma1", "quartic-sep-10d inner solve", worst, 1e-10))
    return results


# ---------------------------------------------------------------------------
# estseq: estimating-sequence invariants along an accelerated run


def _estseq_margins(prob, trace, cfg, rng):
    """Worst key-inequality, sandwich and dual-point margins along an accelerated trace.

    Psi_k is folded again from the trace's certificates, with a_{k+1} from
    the schedule at each step's clock (``aux["m_scale"]``), and compared with
    100 samples from ``prob``'s box per step. The dual-point margin is
    d(v_k - x*) - 2^{p-1} d(x_0 - x*) over v_0 = x_0 and the minimizers v_k.
    """
    p, beta, h = cfg.p, cfg.beta, cfg.h
    pp = PowerProx(p)
    x0 = np.asarray(prob.x0, dtype=float)
    state = EstimatingState(power=pp, x0=x0)
    sigma_p = pp.uniform_convexity_modulus()
    d_star = pp.value(x0 - prob.x_star)
    key_worst = upper_worst = lower_worst = -np.inf
    dual_worst = d_star - 2.0 ** (p - 1) * d_star
    tau = 0.0
    for k, (cert, scale) in enumerate(zip(trace.certificates, trace.aux["m_scale"])):
        t = np.asarray(cert.point, dtype=float)
        tick = clock_tick(p, scale)
        _, a_next = coefficients(p, tau, beta, h, tick)
        tau += tick
        estimating_update(state, t, cert.gradient, cert.f_value, a_next)
        v = psi_argmin(state, prob.term)
        psi_v = state.value(v, prob.term)
        key_worst = max(key_worst, state.a_total * trace.rows[k + 1].f_value - psi_v)
        dual_worst = max(dual_worst, pp.value(v - prob.x_star) - 2.0 ** (p - 1) * d_star)
        for x in prob.sample(rng, 100):
            # upper: Psi_k(x) <= A_k F(x) + d(x - x0) with A_k psi(x) and
            # d(x - x0) taken off both sides, so that their rounding does not
            # swamp the gap sum a_i (f(x) - f(T_i) - <grad f(T_i), x - T_i>)
            # at a sample near a prox point T_i: the folded linear models lie
            # below A_k f
            upper_worst = max(upper_worst,
                              state.linear(x) - state.a_total * prob.oracle.value(x))
            lower = psi_v + sigma_p * norm(x - v) ** (p + 1)
            lower_worst = max(lower_worst, lower - state.value(x, prob.term))
    return key_worst, upper_worst, lower_worst, dual_worst


def _seeded_start(rng, prob):
    """The 1-D prob from a seeded start on either side of x*, |x_0 - x*| in [0.5, 2]."""
    d0 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
    return replace(prob, x0=prob.x_star + d0, d0=abs(d0))


def suite_estseq(seed=0):
    rng = np.random.default_rng(seed)
    # a seeded start on either side of x* = 0 and a seeded H
    prob = _seeded_start(rng, get_problem("quartic-abs-1d"))
    p, beta, h = 3, 1.0 / 3.0, rng.uniform(1.0, 6.0)
    cfg = ProxConfig(p, h, beta)
    provider = exact_prox_provider(prob.oracle, prob.term, cfg)
    trace = aihopp_run(prob, cfg, provider, eps=-1.0, max_k=50)
    key_worst, upper_worst, lower_worst, dual_worst = _estseq_margins(prob, trace, cfg, rng)
    coeff_worst = -np.inf
    c_p = ((1.0 - beta) / h) ** (1.0 / p)
    for k in rng.integers(0, 10001, 100):
        a_k, a_next = coefficients(p, int(k), beta, h)
        coeff_worst = max(coeff_worst, a_next ** ((p + 1.0) / p) - c_p / 2.0 * (a_k + a_next))
    # growth at H_k = s_k H on seeded clocks, s_k = 2^{-j}: relative margin
    # of a_{k+1}^{(p+1)/p} <= (c_p(H_k)/2) A_{k+1}
    tick_worst = -np.inf
    for _ in range(5):
        tau = 0.0
        for scale in 2.0 ** -rng.integers(0, 31, 200):
            tick = clock_tick(p, scale)
            a_k, a_next = coefficients(p, tau, beta, h, tick)
            tau += tick
            c_k = ((1.0 - beta) / (scale * h)) ** (1.0 / p)
            tick_worst = max(tick_worst,
                             a_next ** ((p + 1.0) / p) / (c_k / 2.0 * (a_k + a_next)) - 1.0)
    # replay of one adaptive bi-level run: a seeded start, and M_k halved,
    # kept or doubled by seeded draws instead of by the inner solve's cost.
    # It stops at gap 0: after x_k lands on the kink x* = 0 exactly, the next
    # anchors and prox points are x* too, where the certificate reads 0 <= 0
    replay = _seeded_start(rng, prob)
    m = replay.m_next(p)
    cfg_b = ProxConfig(p, bilevel_h(p, m), beta)

    def seeded_rule(scale, inner_iters):
        return scale * rng.choice((0.5, 0.5, 1.0, 2.0))

    provider = inner_prox_provider(replay.oracle, replay.term, cfg_b, m)
    run = aihopp_run(replay, cfg_b, provider, eps=0.0, max_k=50, rule=seeded_rule)
    replay_rows = _estseq_margins(replay, run, cfg_b, rng)
    cert_worst = -np.inf
    for cert, scale in zip(run.certificates, run.aux["m_scale"]):
        cfg_k = ProxConfig(p, bilevel_h(p, scale * m), beta)
        again = check_acceptable(replay.oracle, replay.term, cfg_k, cert.anchor, cert.point,
                                 cert.subgradient)
        cert_worst = max(cert_worst, certificate_violation(again, cfg_k))
    return [
        CheckResult("estseq", "key inequality A_k F(x_k) <= Psi_k*", key_worst, 1e-8),
        CheckResult("estseq", "estimating sandwich upper", upper_worst, 1e-8),
        CheckResult("estseq", "estimating sandwich lower", lower_worst, 1e-8),
        CheckResult("estseq", "coefficient growth", coeff_worst, 1e-12),
        CheckResult("estseq", "minimizer distance bound", dual_worst, 1e-10),
        CheckResult("estseq", "coefficient growth at H_k (relative)", tick_worst, 1e-12),
        CheckResult("estseq", "adaptive key inequality at H_k", replay_rows[0], 1e-8),
        CheckResult("estseq", "adaptive sandwich upper", replay_rows[1], 1e-8),
        CheckResult("estseq", "adaptive sandwich lower", replay_rows[2], 1e-8),
        CheckResult("estseq", "adaptive certificates at H_k", cert_worst, 1e-10),
    ]


# ---------------------------------------------------------------------------
# bregman: inner-loop descent, contraction against the exact prox point
# (from the anchor and from a seeded warm start), residual decay with
# trace-measured constants, iteration log fit


def suite_bregman(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    prob = get_problem("quartic-sep-10d")
    p = 3
    m = prob.m_next(p)
    h = bilevel_h(p, m)
    anchor = np.asarray(prob.x0, dtype=float)
    sf = ScalingFunction(prob.oracle, anchor, p, h)
    worst = -np.inf
    nonneg_worst = -np.inf
    for _ in range(200):
        x = rng.uniform(prob.sample_lo, prob.sample_hi)
        y = rng.uniform(prob.sample_lo, prob.sample_hi)
        z = rng.uniform(prob.sample_lo, prob.sample_hi)
        lhs = bregman_distance(sf, x, z) - bregman_distance(sf, y, z) + bregman_distance(sf, y, x)
        rhs = float(np.dot(sf.gradient(y) - sf.gradient(x), z - x))
        worst = max(worst, abs(lhs - rhs))
        nonneg_worst = max(nonneg_worst, -bregman_distance(sf, x, y))
    results.append(CheckResult("bregman", "three-point identity", worst, 1e-10))
    results.append(CheckResult("bregman", "Bregman nonnegativity", nonneg_worst, 1e-10))

    descent_worst = -np.inf
    contraction_worst = -np.inf
    residual_worst = -np.inf
    seeded_descent_worst = -np.inf
    seeded_contraction_worst = -np.inf
    for name, p_run in (("quartic-sep-10d", 3), ("neglog-sep", 4)):
        pr = get_problem(name)
        m = pr.m_next(p_run)
        h_run = bilevel_h(p_run, m)
        cfg = ProxConfig(p_run, h_run, 1.0 / p_run)
        rc = relative_constants(p_run, h_run, m)
        u = rng.uniform(0.05, 0.5)
        anchor = pr.term.project(
            np.asarray(pr.x0, dtype=float) + u * (pr.sample_hi - np.asarray(pr.x0))
        )
        # a warm start: any z0 in dom psi, here drawn from the sample box
        seeded = pr.term.project(rng.uniform(pr.sample_lo, pr.sample_hi))
        sf = ScalingFunction(pr.oracle, anchor, p_run, h_run)
        reg = RegularizedObjective(pr.oracle, anchor, p_run, h_run)
        res = inner_solve(pr.oracle, pr.term, cfg, rc, anchor, anchor)
        rows, pts, ls = res.trace.rows, res.trace.points, res.trace.lsmooth
        z_star = exact_prox(pr.oracle, pr.term, cfg, anchor)[0]
        phi_star = reg.value(z_star) + pr.term.value(z_star)
        descent, contraction = _descent_contraction(sf, rc.mu, res.trace, z_star, phi_star)
        descent_worst = max(descent_worst, descent)
        contraction_worst = max(contraction_worst, contraction)
        warm = inner_solve(pr.oracle, pr.term, cfg, rc, anchor, seeded)
        descent, contraction = _descent_contraction(sf, rc.mu, warm.trace, z_star, phi_star)
        seeded_descent_worst = max(seeded_descent_worst, descent)
        seeded_contraction_worst = max(seeded_contraction_worst, contraction)
        # residual decay with a trace-measured gradient-Lipschitz surrogate,
        # at each step's own constant L_i
        lip_loc = 0.0
        for i in range(1, len(pts)):
            dz = norm(pts[i] - pts[i - 1])
            if dz > 0:
                dgrad = norm(sf.gradient(pts[i]) - sf.gradient(pts[i - 1]))
                lip_loc = max(lip_loc, dgrad / dz)
        sigma = h_run * sf.pp.uniform_convexity_modulus()
        if lip_loc > 0:
            for i in range(1, len(pts)):
                l_i = ls[i - 1]
                c_inst = l_i * sigma / (2.0 * l_i * lip_loc) ** (p_run + 1)
                gmap = 2.0 * l_i * (sf.gradient(pts[i - 1]) - sf.gradient(pts[i]))
                drop = rows[i - 1].phi - rows[i].phi
                residual_worst = max(
                    residual_worst,
                    c_inst * norm(gmap) ** (p_run + 1) - drop,
                )
    results.append(CheckResult("bregman", "inner descent inequality", descent_worst, 1e-10))
    results.append(CheckResult("bregman", "inner contraction", contraction_worst, 1e-8))
    results.append(CheckResult("bregman", "inner descent from a seeded z0",
                               seeded_descent_worst, 1e-10))
    results.append(CheckResult("bregman", "inner contraction from a seeded z0",
                               seeded_contraction_worst, 1e-8))
    results.append(CheckResult("bregman", "residual decay (measured C)", residual_worst, 1e-10))
    results.append(_iteration_log_fit())
    return results


def _descent_contraction(sf, mu, trace, z_star, phi_star):
    """Worst signed margins of one inner run's descent and contraction bounds.

    Each step i is checked at the constant L_i it kept (``trace.lsmooth``).
    Descent: phi(z_{i-1}) - phi(z_i) >= L_i breg(z_{i-1}, z_i). Contraction:
    breg(z_i, z*) <= prod_{j<=i} (1 - mu/(2 L_j)) breg(z_0, z*) + (phi* - phi(z_i)) / (2 L_i),
    which counts from the run's own start z_0, whether or not it is the anchor.
    """
    rows, pts, ls = trace.rows, trace.points, trace.lsmooth
    descent = contraction = -np.inf
    for i in range(1, len(rows)):
        drop = rows[i - 1].phi - rows[i].phi
        descent = max(descent, ls[i - 1] * rows[i].bregman_step - drop)
    rate = bregman_distance(sf, pts[0], z_star)
    for i in range(1, len(pts)):
        rate *= 1.0 - mu / (2.0 * ls[i - 1])
        bound = rate + (phi_star - rows[i].phi) / (2.0 * ls[i - 1])
        contraction = max(contraction, bregman_distance(sf, pts[i], z_star) - bound)
    return descent, contraction


def _iteration_log_fit():
    """Steps to reach residual eps over decades fit i* <= A + B log(1/eps)."""
    prob = get_problem("quartic-sep-10d")
    m = prob.m_next(3)
    h = bilevel_h(3, m)
    rc = relative_constants(3, h, m)
    anchor = np.asarray(prob.x0, dtype=float) + 0.3
    sf = ScalingFunction(prob.oracle, anchor, 3, h)
    reg = RegularizedObjective(prob.oracle, anchor, 3, h)
    solver = StepSolver(sf, prob.term)
    residuals = []
    z = anchor.copy()
    for _ in range(5000):
        z, g = solver.step(z, rc.lsmooth)[:2]
        residuals.append(norm(reg.gradient(z) + g))
        if residuals[-1] <= 1e-9:
            break
    residuals = np.asarray(residuals)
    levels = [10.0 ** (-j) for j in range(2, 9)]
    counts = []
    for eps in levels:
        idx = np.where(residuals <= eps)[0]
        if len(idx) == 0:
            return CheckResult("bregman", "iteration log fit", np.inf, 0.0)
        counts.append(float(idx[0] + 1))
    xs = np.log(1.0 / np.asarray(levels))
    counts = np.asarray(counts)
    slope, intercept = np.polyfit(xs, counts, 1)
    intercept = max(1.0, intercept + float(np.max(counts - (intercept + slope * xs))))
    violation = 0.0 if (slope > 0 and intercept > 0) else np.inf
    return CheckResult("bregman", "iteration log fit", violation, 0.0)


# ---------------------------------------------------------------------------
# sandwich: relative smoothness/strong convexity at xi = 2 (p = 3, and
# p in {4, 5} wherever bilevel_h accepts the declared bound), plus scaling
# Hessian positivity and the odd-derivative bracket for p in {3, 4, 5}.
#
# The bracket comes from convexity along a segment. If f is convex on the
# segment y +- xi h and M bounds D^{p+1} f there, expanding
# D^2 f(y +- xi h)[u, u] >= 0 around y to order p-2 in the step (remainder
# at most M xi^{p-1} |h|^{p-1} |u|^2 / (p-1)!) and dividing by xi^{p-2} gives
#
#   |sum_{k=1}^{floor((p-1)/2)} xi^{2k+1-p} D^{2k+1}f(y)[h]^{2k-1}[u,u] / (2k-1)!|
#     <= sum_{k=1}^{floor(p/2)} D^{2k}f(y)[h]^{2k-2}[u,u] / ((2k-2)! xi^{p-2k})
#        + xi M |h|^{p-1} |u|^2 / (p-1)!.
#
# At p = 3 this is the bracket behind mu = 1 - 1/xi, L = 1 + 1/xi. For
# p >= 4 the odd terms carry unequal powers of xi and the even terms are not
# all scaled by 1/xi, so the bracket does not imply those constants; the
# value and Hessian rows at p in {4, 5} check them directly.


def _odd_bracket_violation(stack, y, x, u, p, m, xi=2.0):
    """Signed excess of the odd-derivative bracket at (y, h = x - y, u).

    ``stack`` is an ``AnchorStack`` of orders 2..p at y.

    Returns |sum_{k=1}^{floor((p-1)/2)} xi^{2k+1-p} D^{2k+1}f(y)[h]^{2k-1}[u,u]/(2k-1)!|
    minus sum_{k=1}^{floor(p/2)} D^{2k}f(y)[h]^{2k-2}[u,u]/((2k-2)! xi^{p-2k})
    + xi m |h|^{p-1}|u|^2/(p-1)!. The bracket holds (the excess is <= 0)
    whenever f is convex on the segment y +- xi h and m bounds D^{p+1} f
    there: it is D^2 f(y +- xi h)[u, u] >= 0 expanded to order p-2.
    """
    h = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    odd = 0.0
    for k in range(1, (p - 1) // 2 + 1):
        weight = xi ** (2 * k + 1 - p) / math.factorial(2 * k - 1)
        odd += weight * stack.form(h, 2 * k + 1, u)
    bound = (
        xi * m / math.factorial(p - 1)
        * norm(h) ** (p - 1)
        * norm(u) ** 2
    )
    for k in range(1, p // 2 + 1):
        bound += stack.form(h, 2 * k, u) / (
            math.factorial(2 * k - 2) * xi ** (p - 2 * k)
        )
    return abs(odd) - bound


def _segment_points(prob, y, xs):
    """Sample points xs moved so that y +- 2 (x - y) stays where prob's M bounds hold.

    The bracket assumes its bound on the whole segment y +- xi h, xi = 2. When
    the bounds are declared on a box (``prob.m_box``), xs are mapped affinely
    from the sampling box onto the box of half-widths min(hi - y, y - lo) / 2
    around y; otherwise they are returned as drawn. The draws are the same
    either way, so later samples of the same generator do not move.
    """
    if prob.m_box is None:
        return xs
    lo, hi = prob.m_box
    reach = np.minimum(hi - y, y - lo) / 2.0
    unit = (2.0 * xs - (prob.sample_lo + prob.sample_hi)) / (prob.sample_hi - prob.sample_lo)
    return y + reach * unit


def _unit_directions(rng, count, n):
    us = rng.standard_normal((count, n))
    return us / np.linalg.norm(us, axis=1)[:, None]


def _sandwich_rows(prob, p, m, rng, pairs):
    """Value and Hessian sandwich rows at xi = 2 (mu = 1/2, L = 3/2)."""
    h = bilevel_h(p, m)
    rc = relative_constants(p, h, m)
    anchor = prob.sample(rng, 1)[0]
    sf = ScalingFunction(prob.oracle, anchor, p, h)
    reg = RegularizedObjective(prob.oracle, anchor, p, h)
    value_worst = relative_sandwich_check(
        sf, reg, rc, list(zip(prob.sample(rng, pairs), prob.sample(rng, pairs)))
    )
    hess_worst = -np.inf
    xs = prob.sample(rng, pairs)
    for x, u in zip(xs, _unit_directions(rng, pairs, prob.dimension)):
        hr = u @ sf.hessian_matrix(x) @ u
        hf = u @ reg.hessian_matrix(x) @ u
        hess_worst = max(hess_worst, rc.mu * hr - hf, hf - rc.lsmooth * hr)
    return [
        CheckResult("sandwich", "%s values (p=%d)" % (prob.name, p), value_worst, 1e-8),
        CheckResult("sandwich", "%s hessians (p=%d)" % (prob.name, p), hess_worst, 1e-8),
    ]


def suite_sandwich(seed=0, pairs=1000):
    rng = np.random.default_rng(seed)
    results = []
    for name in (
        "quartic-1d",
        "quartic-abs-1d",
        "linear-nonneg-1d",
        "quartic-sep-10d",
        "ball-quadratic",
        "neglog-sep",
        "logistic-sep-3d",
    ):
        prob = get_problem(name)
        m3 = prob.m_next(3)
        if not np.isfinite(m3) or m3 <= 0.0:
            m3 = 1.0  # degenerate true sup (0); any positive bound is valid
        results.extend(_sandwich_rows(prob, 3, m3, rng, pairs))
        psd_worst = -np.inf
        bracket_worst = -np.inf
        for p in (3, 4, 5):
            m = prob.m_next(p)  # declared sup, possibly 0 for polynomials
            hp = 6.0 * m / math.factorial(p - 1)
            anchor = prob.sample(rng, 1)[0]
            sfp = ScalingFunction(prob.oracle, anchor, p, hp)
            stack = AnchorStack(prob.oracle, anchor, range(2, p + 1))
            xs = prob.sample(rng, pairs)
            segment_xs = _segment_points(prob, anchor, xs)
            us = _unit_directions(rng, pairs, prob.dimension)
            for x, xb, u in zip(xs, segment_xs, us):
                psd_worst = max(psd_worst, -(u @ sfp.hessian_matrix(x) @ u))
                bracket_worst = max(
                    bracket_worst,
                    _odd_bracket_violation(stack, anchor, xb, u, p, m),
                )
        results.append(CheckResult("sandwich", name + " rho hessian psd", psd_worst, 1e-10))
        results.append(
            CheckResult("sandwich", name + " odd bracket (p=3,4,5)", bracket_worst, 1e-10)
        )
        for p in (4, 5):
            m = prob.m_next(p)
            if np.isfinite(m) and m > 0.0:  # bilevel_h refuses zero bounds
                results.extend(_sandwich_rows(prob, p, m, rng, pairs))
    return results


# ---------------------------------------------------------------------------
# theta: norm domination of the Bregman distance on a radius-R ball


def suite_theta(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    for name, plist in (("neglog-sep", (3, 4, 5)), ("quartic-sep-10d", (3,))):
        prob = get_problem(name)
        for p in plist:
            m = prob.m_next(p)
            h = bilevel_h(p, m)
            anchor = np.asarray(prob.x0, dtype=float)
            sf = ScalingFunction(prob.oracle, anchor, p, h)
            radius = 0.5
            hat_l = hat_l_sampled(sf, radius, rng)
            theta, _ = theta_bound(p, radius, hat_l, h=h)
            worst = -np.inf
            for _ in range(1000):
                dx = rng.standard_normal(prob.dimension)
                dx *= rng.uniform(0.0, radius) / norm(dx)
                dy = rng.standard_normal(prob.dimension)
                dy *= rng.uniform(0.0, radius) / norm(dy)
                x, y = anchor + dx, anchor + dy
                tau = norm(x - y)
                worst = max(worst, bregman_distance(sf, x, y) - theta(tau))
            results.append(CheckResult("theta", "%s p=%d R=0.5" % (name, p), worst, 1e-12))
    return results


# ---------------------------------------------------------------------------
# tensor: model convexity and gradient bounds, criterion/acceptance chain


def suite_tensor(seed=0):
    rng = np.random.default_rng(seed)
    results = []
    prob = get_problem("quartic-abs-1d")
    oracle, term = prob.oracle, prob.term
    m4 = prob.m_next(3)

    # composite model subdifferential is monotone on a seeded grid, kink
    # included, at a seeded anchor when M >= p M4
    tm = TaylorModel(oracle, rng.uniform(-1.5, 1.5, 1), 3, convexity_threshold(3, m4))
    worst = -np.inf
    prev_hi = -np.inf
    for t in np.sort(np.append(rng.uniform(-2.0, 2.0, 1000), 0.0)):
        point = np.array([t])
        gval = float(tm.gradient(point)[0])
        sub_lo, sub_hi = term.subdifferential(point)
        lo, hi = gval + float(sub_lo[0]), gval + float(sub_hi[0])
        worst = max(worst, prev_hi - lo)
        prev_hi = hi
    results.append(CheckResult("tensor", "model subdifferential monotone", worst, 1e-12))

    worst = -np.inf
    for _ in range(200):
        x = rng.uniform(-1.5, 1.5, 1)
        y = rng.uniform(-1.5, 1.5, 1)
        tmx = TaylorModel(oracle, x, 3, m4)
        diff = abs(float(oracle.gradient(y)[0]) - float(tmx.evaluate(y).part[1][0]))
        worst = max(worst, diff - m4 / 6.0 * abs(float(y[0] - x[0])) ** 3)
    results.append(CheckResult("tensor", "model gradient bound", worst, 1e-10))

    # criterion region at M = 1.9 M4 is nonempty; the mapped acceptance level
    # beta = (M4 + gamma M)/((1-gamma) M - M4) holds at every passing point
    # (Lemma 2's bound, ``lemma2_bound_check``).
    # The anchor and the grid around it and x* = 0 (kink included) are seeded;
    # for |anchor| < 0.6 the region shrinks to the kink. Each row reads inf
    # when no grid point passes the criterion
    gamma = 8.0 / 19.0
    anchor = np.array([rng.choice((-1.0, 1.0)) * rng.uniform(0.7, 1.5)])
    a0 = float(anchor[0])
    grid = np.append(rng.uniform(min(a0, 0.0) - 0.5, max(a0, 0.0) + 0.5, 2000), 0.0)
    tm_lvl = TaylorModel(oracle, anchor, 3, 1.9 * m4)
    margins = []
    for point, g, at in candidates(tm_lvl, term, grid[:, None]):
        if tensor_criterion(at, g, gamma)[0]:
            lhs, bound, _ = lemma2_bound_check(tm_lvl, point, g, at, gamma, m4)
            margins.append(lhs - bound - ACCEPT_SLACK)
    results.append(CheckResult("tensor", "criterion region maps to acceptance",
                               max(margins, default=np.inf), 1e-12))

    # with (M, H) chosen for a target beta, criterion passing implies accepted
    beta = 0.9
    m_map, h_map = tensor_acceptance_map(3, beta, gamma, m4)
    cfg = ProxConfig(3, h_map, beta)
    tm_map = TaylorModel(oracle, anchor, 3, m_map)
    margins = []
    for point, g, at in candidates(tm_map, term, grid[:, None]):
        if tensor_criterion(at, g, gamma)[0]:
            cert = check_acceptable(oracle, term, cfg, anchor, point, g, at=at)
            margins.append(cert.lhs - cfg.beta * cert.rhs)
    results.append(CheckResult("tensor", "target-beta map acceptance",
                               max(margins, default=np.inf), 1e-12))

    t_step, g_step, ok, _, _ = tensor_step(tm_map, term, gamma)
    cert = check_acceptable(oracle, term, cfg, anchor, t_step, g_step)
    worst = cert.lhs - cfg.beta * cert.rhs if ok else np.inf
    results.append(CheckResult("tensor", "exact step criterion + acceptance", worst, 1e-12))

    # a seeded accelerated tensor-step run in dimension 3: every step passes
    # the criterion (rechecked on a fresh model) and its certificate
    prob = get_problem("logistic-sep-3d")
    prob = replace(prob, x0=prob.sample(rng, 1)[0])
    beta = 1.0 / 3.0
    gamma = beta / (2.0 * (1.0 + beta))
    m_next = prob.m_next(3)
    provider, cfg = tensor_prox_provider(prob.oracle, prob.term, 3, beta, gamma, m_next)
    run = aihopp_run(prob, cfg, provider, eps=1e-6, max_k=200)
    m_map, _ = tensor_acceptance_map(3, beta, gamma, m_next)
    worst = -np.inf if run.status == "converged" else np.inf
    for cert in run.certificates:
        tm_run = TaylorModel(prob.oracle, cert.anchor, 3, m_map)
        _, lhs, rhs = tensor_criterion(tm_run.evaluate(cert.point), cert.subgradient, gamma)
        worst = max(worst, lhs - gamma / (1.0 + gamma) * rhs, certificate_violation(cert, cfg))
    results.append(CheckResult("tensor", "logistic-sep-3d accelerated tensor steps", worst, 1e-10))
    return results


SUITES = {
    "lemma1": suite_lemma1,
    "estseq": suite_estseq,
    "bregman": suite_bregman,
    "sandwich": suite_sandwich,
    "theta": suite_theta,
    "tensor": suite_tensor,
}


def run_suite(name, seed=0):
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(seed))
        return out
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError("unknown suite %r" % (name,)) from None
    return fn(seed)
