"""Outer loops: coefficient schedules, estimating sequences, rate bounds."""

import math

import numpy as np
import pytest

from hiprox import (
    EstimatingState,
    InnerResult,
    NumericalError,
    ParameterError,
    PowerProx,
    ProxConfig,
    aihopp_run,
    bilevel_h,
    biopt_run,
    bound_evaluator,
    check_acceptable,
    coefficients,
    estimating_update,
    exact_prox_provider,
    get_problem,
    ihopp_run,
    inner_prox_provider,
    make_term,
    psi_argmin,
    relative_constants,
    tensor_prox_provider,
)
from hiprox import outer as outer_module
from hiprox.acceptance import MEMBERSHIP_TOL
from hiprox.metric import norm
from hiprox.verify import _estseq_margins, certificate_violation



def test_coefficients_accelerated_frozen():
    # p = 3, beta = 1/3, H = 3 gives c_p^p/8 = 1/36, so A_4 = 1/36
    a4, a5 = coefficients(3, 4, 1.0 / 3.0, 3.0)
    np.testing.assert_allclose(a4, 1.0 / 36.0, rtol=1e-14)
    np.testing.assert_allclose(a5, (1.0 / 36.0) * ((5.0 / 4.0) ** 4 - 1.0), rtol=1e-13)
    a0, a1 = coefficients(3, 0, 1.0 / 3.0, 3.0)
    assert a0 == 0.0
    np.testing.assert_allclose(a1, (1.0 / 36.0) / 4.0 ** 4, rtol=1e-14)


def test_coefficients_bilevel_lead():
    # at beta = 1/p and H = 6 M / (p-1)! the lead (c_p/2)^p has a closed form
    p, m = 3, 24.0
    lead = (p - 1) * math.factorial(p - 1) / (3.0 * p * 2 ** (p + 1) * m)
    for k in (0, 1, 7):
        a_k, a_next = coefficients(p, k, 1.0 / p, bilevel_h(p, m))
        np.testing.assert_allclose(a_k, lead * (k / 4.0) ** 4, rtol=1e-14)
        np.testing.assert_allclose(
            a_next, lead * (((k + 1) / 4.0) ** 4 - (k / 4.0) ** 4), rtol=1e-13
        )


def test_coefficients_validation():
    with pytest.raises(ParameterError):
        coefficients(3, -1, 0.3, 1.0)
    with pytest.raises(ParameterError):
        coefficients(3, 2, None, 1.0)
    with pytest.raises(ParameterError):
        coefficients(3, 2, 0.3, None)
    with pytest.raises(ParameterError, match="the clock tick must be positive"):
        coefficients(3, 2, 0.3, 1.0, tick=0.0)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_coefficient_growth_inequality(p):
    # a_{k+1}^{(p+1)/p} <= (c_p/2) A_{k+1} keeps the estimating argument valid
    beta, h = 1.0 / p, 5.0
    c_p = ((1.0 - beta) / h) ** (1.0 / p)
    for k in list(range(0, 50)) + [10 ** 2, 10 ** 3, 10 ** 4]:
        a_k, a_next = coefficients(p, k, beta, h)
        lhs = a_next ** ((p + 1.0) / p)
        rhs = (c_p / 2.0) * (a_k + a_next)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_estimating_state_value_and_update():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(4)
    pp = PowerProx(3)
    state = EstimatingState(power=pp, x0=x0)
    term = make_term("l1", lam=0.4)
    x = rng.standard_normal(4)
    np.testing.assert_allclose(state.value(x, term), pp.value(x - x0), rtol=1e-14)

    t1, t2 = rng.standard_normal(4), rng.standard_normal(4)
    g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
    estimating_update(state, t1, g1, 2.0, 0.5)
    estimating_update(state, t2, g2, -1.0, 1.25)
    assert state.a_total == 1.75
    direct = (
        0.5 * (2.0 + g1 @ (x - t1))
        + 1.25 * (-1.0 + g2 @ (x - t2))
        + 1.75 * term.value(x)
        + pp.value(x - x0)
    )
    np.testing.assert_allclose(state.value(x, term), direct, rtol=1e-12)
    linear = 0.5 * (2.0 + g1 @ (x - t1)) + 1.25 * (-1.0 + g2 @ (x - t2))
    np.testing.assert_allclose(state.linear(x), linear, rtol=1e-12)
    with pytest.raises(ParameterError):
        estimating_update(state, t1, g1, 0.0, 0.0)


def test_psi_argmin_zero_term_closed_form():
    rng = np.random.default_rng(11)
    pp = PowerProx(3)
    x0 = rng.standard_normal(3)
    state = EstimatingState(power=pp, x0=x0)
    estimating_update(state, x0, rng.standard_normal(3), 0.0, 1.0)
    v = psi_argmin(state, make_term("zero"))
    s = state.s
    sn = norm(s)
    np.testing.assert_allclose(v, x0 - sn ** (-2.0 / 3.0) * s, rtol=1e-12)
    # stationarity: s + |v-x0|^{p-1} (v-x0) = 0
    r = norm(v - x0)
    np.testing.assert_allclose(s + r ** 2 * (v - x0), 0.0, atol=1e-12 * sn)


def test_psi_argmin_zero_gradient_returns_anchor():
    pp = PowerProx(3)
    state = EstimatingState(power=pp, x0=np.array([1.0, -2.0]))
    term = make_term("zero")
    np.testing.assert_allclose(psi_argmin(state, term), state.x0)


@pytest.mark.parametrize("kind,kwargs", [("l1", {"lam": 0.6}), ("nonneg", {})])
def test_psi_argmin_composite_optimality(kind, kwargs):
    rng = np.random.default_rng(17)
    pp = PowerProx(3)
    term = make_term(kind, **kwargs)
    for _ in range(20):
        x0 = np.abs(rng.standard_normal(5))
        state = EstimatingState(power=pp, x0=x0)
        a1, a2 = rng.uniform(0.2, 1.5, size=2)
        estimating_update(state, x0, rng.standard_normal(5), 1.0, a1)
        estimating_update(state, x0, rng.standard_normal(5), 1.0, a2)
        v = psi_argmin(state, term)
        assert term.contains(v)
        r = np.linalg.norm(v - x0)
        g = -(state.s + r ** 2 * (v - x0)) / state.a_total
        assert term.subgradient_distance(v, g) <= 1e-7
        # argmin property against random competitors
        base = state.value(v, term)
        for _ in range(40):
            w = term.project(v + 0.3 * rng.standard_normal(5))
            assert state.value(w, term) >= base - 1e-9


def test_bound_evaluator_values():
    cfg = ProxConfig(p=3, h=72.0, beta=1.0 / 3.0)
    assert bound_evaluator("plain", cfg, 2.0, 16.0, 0) == np.inf
    np.testing.assert_allclose(bound_evaluator("plain", cfg, 2.0, 16.0, 8), 872.0)
    np.testing.assert_allclose(bound_evaluator("accelerated", cfg, 2.0, 16.0, 8), 216.0)
    # decay orders: k^-p and k^-(p+1)
    np.testing.assert_allclose(
        bound_evaluator("plain", cfg, 2.0, 16.0, 16), 872.0 / 8.0, rtol=1e-14
    )
    np.testing.assert_allclose(
        bound_evaluator("accelerated", cfg, 2.0, 16.0, 16), 216.0 / 16.0, rtol=1e-14
    )
    with pytest.raises(ParameterError):
        bound_evaluator("steepest", cfg, 2.0, 16.0, 8)


def _provider(prob, cfg, m):
    """Exact prox on the 1-D problems, the certified inner loop otherwise."""
    if prob.dimension == 1:
        return exact_prox_provider(prob.oracle, prob.term, cfg)
    return inner_prox_provider(prob.oracle, prob.term, cfg, m_next=m)


@pytest.mark.parametrize("name", ["quartic-abs-1d", "quartic-sep-10d"])
def test_ihopp_run_descent_and_bound(name):
    # gap(k) <= (H D0^{p+1}/(1-beta) + gap0)/2 ((2p+2)/k)^p for k >= 1, and
    # every certificate meets acceptance and the accepted-pair triple
    prob = get_problem(name)
    m = prob.m_next(3)
    cfg = ProxConfig(p=3, h=bilevel_h(3, m), beta=1.0 / 3.0)
    provider = _provider(prob, cfg, m)
    trace = ihopp_run(prob, cfg, provider, eps=-1.0, max_k=50)
    assert trace.status == "max_iter"
    f = trace.column("F")
    assert np.all(np.diff(f) <= 1e-12)
    assert trace.bound_margin() <= 1e-8
    assert len(trace.points) == len(trace.rows) == 51
    assert len(trace.certificates) == 50
    assert max(certificate_violation(cert, cfg) for cert in trace.certificates) <= 1e-10

    quick = ihopp_run(prob, cfg, provider, eps=1e-6, max_k=200)
    assert quick.status == "converged"
    assert quick.rows[-1].gap <= 1e-6


@pytest.mark.parametrize("name", ["quartic-abs-1d", "quartic-sep-10d"])
def test_aihopp_invariant_and_distance_control(name):
    prob = get_problem(name)
    m = prob.m_next(3)
    cfg = ProxConfig(p=3, h=bilevel_h(3, m), beta=1.0 / 3.0)
    trace = aihopp_run(prob, cfg, _provider(prob, cfg, m), eps=-1.0, max_k=50)
    # the key invariant A_k F(x_k) <= min Psi_k, and the dual points v_k stay
    # inside the 2^{p-1}-enlarged initial ball, on verify's replay of Psi_k
    key, _, _, dual = _estseq_margins(prob, trace, cfg, np.random.default_rng(0))
    assert key <= 1e-8 and dual <= 1e-10
    # gap(k) <= H D0^{p+1}/(2(1-beta)(p+1)) ((2p+2)/k)^{p+1} for k >= 1
    assert trace.bound_margin() <= 1e-8
    assert max(certificate_violation(cert, cfg) for cert in trace.certificates) <= 1e-10


def test_fitted_slopes():
    # log-log slopes of the gap over k in [10, 100] beat the guaranteed
    # exponents -p (plain) and -(p+1) (accelerated) up to 0.3
    prob = get_problem("quartic-1d")
    for p in (2, 3):
        cfg = ProxConfig(p, 2.0, 1.0 / 3.0)
        provider = exact_prox_provider(prob.oracle, prob.term, cfg)
        plain = ihopp_run(prob, cfg, provider, eps=-1.0, max_k=100)
        accel = aihopp_run(prob, cfg, provider, eps=-1.0, max_k=100)
        assert plain.fitted_slope() <= -p + 0.3
        assert accel.fitted_slope() <= -(p + 1) + 0.3
        for trace in (plain, accel):
            assert max(certificate_violation(c, cfg) for c in trace.certificates) <= 1e-10


def test_aihopp_rejects_large_beta():
    prob = get_problem("quartic-sep-10d")
    cfg = ProxConfig(p=3, h=72.0, beta=0.5)
    provider = inner_prox_provider(prob.oracle, prob.term, cfg, m_next=24.0)
    with pytest.raises(ParameterError):
        aihopp_run(prob, cfg, provider)


def test_biopt_run_converges():
    prob = get_problem("neglog-sep")
    trace = biopt_run(prob, 3, eps=1e-6, max_k=100)
    assert trace.status == "converged"
    assert trace.rows[-1].gap <= 1e-6
    assert trace.mode == "bilevel"
    cfg = ProxConfig(**trace.aux["config"])
    assert max(_estseq_margins(prob, trace, cfg, np.random.default_rng(0))) <= 1e-8


@pytest.mark.parametrize("name, p", [("neglog-sep", 3), ("ball-quadratic", 4)])
def test_fixed_h_accelerated_loop_keeps_the_integer_schedule(name, p):
    # without a rule every step runs at H and ticks by 1, so tau_k = k and
    # A_{k+1} = A_k + a_{k+1} is (c_p/2)^p ((k+1)/(p+1))^{p+1} to the last digit
    prob = get_problem(name)
    m = prob.m_next(p)
    cfg = ProxConfig(p, bilevel_h(p, m), 1.0 / p)
    provider = inner_prox_provider(prob.oracle, prob.term, cfg, m_next=m)
    trace = aihopp_run(prob, cfg, provider, eps=1e-6, max_k=60)
    assert trace.status == "converged"
    steps = len(trace.rows) - 1
    assert trace.aux["m_scale"] == [1.0] * steps and outer_module.clock_tick(p, 1.0) == 1.0
    lead = (((1.0 - cfg.beta) / cfg.h) ** (1.0 / p) / 2.0) ** p
    for k in range(steps):
        a_k, a_next = coefficients(p, float(k), cfg.beta, cfg.h)
        assert (a_k, a_next) == coefficients(p, k, cfg.beta, cfg.h)
        assert a_k + a_next == lead * ((k + 1) / (p + 1.0)) ** (p + 1)


@pytest.mark.parametrize("name, p", [("neglog-sep", 3), ("neglog-sep", 4), ("neglog-sep", 5),
                                     ("quartic-sep-10d", 3), ("logistic-sep-3d", 4),
                                     ("ball-quadratic", 5)])
def test_biopt_run_adapts_m_below_the_declared_bound(name, p):
    # M_k moves by halvings and doublings inside (0, M], each certificate
    # holds at its own H_k = 6 M_k/(p-1)!, the gap stays under the rate
    # bound at the declared M, and verify's replay of Psi_k meets the key
    # inequality, both sides of the sandwich and the dual-point bound
    prob = get_problem(name)
    m = prob.m_next(p)
    prob.oracle.reset_counters()
    trace = biopt_run(prob, p, eps=1e-6, max_k=200)
    assert trace.status == "converged"
    assert trace.rows[-1].gap <= 1e-6
    if name == "neglog-sep":
        # on neg-log the bi-level loop asks the oracle for no order above 2 at every p
        assert max(prob.oracle.calls_by_order) <= 2
    m_k = trace.aux["m_k"]
    assert len(m_k) == len(trace.rows) - 1 and m_k[0] == m
    assert all(0.0 < v <= m for v in m_k)
    assert all(b / a in (0.5, 1.0, 2.0) for a, b in zip(m_k, m_k[1:]))
    assert min(m_k) < m
    for mk, cert in zip(m_k, trace.certificates):
        cfg_k = ProxConfig(p, bilevel_h(p, mk), 1.0 / p)
        again = check_acceptable(prob.oracle, prob.term, cfg_k, cert.anchor, cert.point,
                                 cert.subgradient)
        assert certificate_violation(again, cfg_k) <= 1e-10
    assert np.all(np.isfinite(trace.column("bound_rhs")[1:]))
    assert trace.bound_margin() <= 0.0
    cfg = ProxConfig(**trace.aux["config"])
    key, upper, lower, dual = _estseq_margins(prob, trace, cfg, np.random.default_rng(0))
    assert max(key, upper, lower, dual) <= 1e-8


@pytest.mark.parametrize("workload, label", [("catalog-p3", "quartic-sep-10d/p3"),
                                             ("l1-logistic", "logistic-l1-10/p3")],
                         ids=["quartic-sep-10d", "logistic-l1-10"])
def test_biopt_run_solves_the_bench_cells_within_budget(workload, label, bench_module):
    # at the declared M, quartic-sep-10d/p3 stops at the 200-step budget
    # (gap 4.2e-6) and logistic-l1-10/p3 raises a prox-Newton residual error
    wl = bench_module("workloads")
    cell, = [c for c in wl.WORKLOADS[workload].build(np.random.default_rng(0))
             if c.label == label]
    wl.add_references([cell])
    trace = biopt_run(cell.problem, cell.p, eps=cell.eps, max_k=wl.OUTER_BUDGET,
                      rhs_tol=cell.rhs_tol)
    assert trace.status == "converged"
    assert wl.check_answer(cell, trace) is None


def _optimality_residual_np(prob, x):
    """dist(-grad f(x), dpsi(x)) from A, b and the term's data, by numpy alone."""
    a, b, term = prob.oracle.a, prob.oracle.b, prob.term
    t = a @ x - b
    if term.kind == "l1":
        grad = a.T @ (1.0 / (1.0 + np.exp(-t)))  # softplus' is the sigmoid
        r = np.where(x != 0.0, np.abs(grad + term.lam * np.sign(x)),
                     np.maximum(np.abs(grad) - term.lam, 0.0))
    else:  # the box: the projected gradient, -grad f(x) against the normal cone
        grad = -(a.T @ (1.0 / t))
        r = np.where(x <= term.lo, np.maximum(-grad, 0.0),
                     np.where(x >= term.hi, np.maximum(grad, 0.0), np.abs(grad)))
    return float(np.linalg.norm(r))


@pytest.mark.parametrize("name", ["logistic-l1-10", "neglog-box-100"])
def test_biopt_run_answer_meets_a_numpy_optimality_residual(name):
    # rhs = |grad f(T) + g| bounds dist(-grad f(T), dpsi(T)) up to g's distance
    # from dpsi(T), which the certificate holds within its membership
    # tolerance; unlike an F(x) - F_ref test against a reference that may sit
    # above the optimum, this bound fails for any T that is not near-stationary
    prob = get_problem(name)
    trace = biopt_run(prob, 3, max_k=200, rhs_tol=1e-4)
    assert trace.status == "converged"
    cert = trace.certificates[-1]
    slack = MEMBERSHIP_TOL * (1.0 + float(np.linalg.norm(cert.subgradient)))
    assert _optimality_residual_np(prob, cert.point) <= cert.rhs + slack


@pytest.mark.parametrize("name, p", [("neglog-sep", 3), ("logistic-sep-3d", 4),
                                     ("ball-quadratic", 5)])
def test_biopt_run_evaluation_budget(name, p):
    # every point costs one evaluation: f and grad f once per certified
    # candidate (in its certificate, which the next step, the descent test,
    # the estimating update and the next inner solve read) and once at x_0
    # (F(x_0), whose f the first inner solve reuses, and the first step's
    # grad f_reg). Every later solve starts at T_{k-1} and reuses its
    # certificate's f and grad f, so an anchor costs no evaluation of either
    prob = get_problem(name)
    oracle = prob.oracle
    x0 = np.asarray(prob.x0, dtype=float)
    oracle.reset_counters()
    oracle.gradient(x0)
    oracle.value(x0)
    per_gradient, per_value = oracle.calls_by_order[1], oracle.calls_by_order[0]
    oracle.reset_counters()
    trace = biopt_run(prob, p, eps=1e-6, max_k=100)
    assert trace.status == "converged"
    # a solve that ends at a fixed point reports 0 steps but certified one
    # candidate; a candidate the descent test rejects was certified too
    candidates = sum(max(r.inner_iters, 1) for r in trace.rows[1:])
    candidates += sum(t.backtracks for t in trace.inner_traces)
    assert oracle.calls_by_order[1] == per_gradient * (candidates + 1)
    assert oracle.calls_by_order[0] == per_value * (candidates + 1)


@pytest.mark.parametrize("name, p", [("neglog-sep", 3), ("logistic-sep-3d", 4),
                                     ("ball-quadratic", 5)])
def test_biopt_run_warm_starts_at_previous_prox_point(name, p):
    # solve k starts at T_{k-1}, the previous step's certified point, not at
    # its anchor y_k; the first solve starts at its anchor x_0
    prob = get_problem(name)
    trace = biopt_run(prob, p, eps=1e-6, max_k=100)
    assert trace.status == "converged"
    itraces = trace.inner_traces
    np.testing.assert_array_equal(itraces[0].points[0], prob.x0)
    np.testing.assert_array_equal(trace.certificates[0].anchor, prob.x0)
    for k in range(1, len(itraces)):
        np.testing.assert_array_equal(itraces[k].points[0], trace.certificates[k - 1].point)
    assert trace.summary()["newton_iters"] == sum(t.newton_iters for t in itraces) > 0


def test_psi_argmin_with_zero_linear_part_is_the_prox_of_psi():
    # s = 0 but A_k > 0: A_k |x| + d_4(x - x0) at x0 = 0.9, A_k = 2 is least
    # at the kink 0, where 0 lies in 2 [-1, 1] + (0 - 0.9)^3; not at x0
    pp = PowerProx(3)
    term = make_term("abs-1d")
    state = EstimatingState(power=pp, x0=np.array([0.9]), a_total=2.0)
    np.testing.assert_array_equal(psi_argmin(state, term), [0.0])
    # with a small weight it moves toward 0 by (A_k)^{1/3}
    state.a_total = 0.125
    np.testing.assert_allclose(psi_argmin(state, term), [0.4], rtol=1e-12)
    # and with no term or no weight it stays at x0
    state.a_total = 0.0
    np.testing.assert_array_equal(psi_argmin(state, term), [0.9])


def _recording_provider(prob, cfg, m, starts):
    """The Bregman inner provider, recording every start it is called with."""
    provider = inner_prox_provider(prob.oracle, prob.term, cfg, m_next=m)

    def recorded(anchor, start, scale):
        starts.append(start)
        return provider(anchor, start, scale)

    return recorded


@pytest.mark.parametrize("name, p", [("quartic-1d", 3), ("logistic-sep-3d", 5)])
def test_step_constants_travel_beside_the_certificates(name, p):
    # the first solve gets x_0 with f(x_0) and starts at L; solve k gets
    # T_{k-1} by its certificate and the last constant solve k-1 kept
    prob = get_problem(name)
    m = prob.m_next(p)
    cfg = ProxConfig(p, bilevel_h(p, m), 1.0 / p)
    rc = relative_constants(p, cfg.h, m)
    starts = []
    trace = aihopp_run(prob, cfg, _recording_provider(prob, cfg, m, starts), eps=1e-6,
                       max_k=200)
    assert trace.status == "converged"
    np.testing.assert_array_equal(starts[0].point, prob.x0)
    assert starts[0].f_value == prob.oracle.value(prob.x0)
    assert starts[0].gradient is None and starts[0].lsmooth is None
    for k in range(1, len(starts)):
        cert, itrace = trace.certificates[k - 1], trace.inner_traces[k - 1]
        assert starts[k].point is cert.point and starts[k].gradient is cert.gradient
        assert starts[k].f_value == cert.f_value
        assert starts[k].lsmooth == itrace.lsmooth[-1]
    kept = [v for t in trace.inner_traces for v in t.lsmooth]
    assert all(rc.mu <= v <= rc.lsmooth for v in kept)
    assert min(kept) < rc.lsmooth
    summary = trace.summary()
    assert summary["lsmooth_range"] == [min(kept), max(kept)]
    assert summary["backtracks"] == sum(t.backtracks for t in trace.inner_traces) > 0


def test_fallback_step_keeps_x_and_restarts_at_t(monkeypatch):
    # make F(T_j) read larger at one step: x_{j+1} keeps x_j, while the next
    # solve still starts at T_j with the last constant T_j's solve kept
    prob = get_problem("neglog-sep")
    p, m = 3, prob.m_next(3)
    cfg = ProxConfig(p, bilevel_h(p, m), 1.0 / p)
    j = 3
    objective = outer_module._objective
    calls = []

    def inflated(problem, x, f_value):
        calls.append(x)
        value = objective(problem, x, f_value)
        # call 0 is F(x_0); call k + 1 is F(T_k)
        return value + 1.0 if len(calls) == j + 2 else value

    monkeypatch.setattr(outer_module, "_objective", inflated)
    starts = []
    trace = aihopp_run(prob, cfg, _recording_provider(prob, cfg, m, starts), eps=-1.0,
                       max_k=j + 3)
    assert trace.aux["fallback"] == [k == j for k in range(j + 3)]
    np.testing.assert_array_equal(trace.points[j + 1], trace.points[j])
    assert trace.rows[j + 1].f_value == trace.rows[j].f_value
    cert, itrace = trace.certificates[j], trace.inner_traces[j]
    assert not np.array_equal(cert.point, trace.points[j + 1])
    start = starts[j + 1]
    assert start.point is cert.point and start.gradient is cert.gradient
    assert start.f_value == cert.f_value
    assert start.lsmooth == itrace.lsmooth[-1]
    np.testing.assert_array_equal(trace.inner_traces[j + 1].points[0], cert.point)


def test_plain_loop_starts_at_its_anchor():
    prob = get_problem("neglog-sep")
    m = prob.m_next(3)
    cfg = ProxConfig(p=3, h=bilevel_h(3, m), beta=1.0 / 3.0)
    provider = inner_prox_provider(prob.oracle, prob.term, cfg, m_next=m)
    trace = ihopp_run(prob, cfg, provider, eps=1e-6, max_k=100)
    assert trace.status == "converged"
    for cert, itrace in zip(trace.certificates, trace.inner_traces):
        np.testing.assert_array_equal(itrace.points[0], cert.anchor)


def test_biopt_rejects_degenerate_high_order_bound():
    # the quartic catalog entry has M_5 = 0, so p = 4 has no bi-level schedule
    prob = get_problem("quartic-1d")
    with pytest.raises(ParameterError):
        biopt_run(prob, 4)


def test_tensor_provider_drives_plain_loop():
    prob = get_problem("quartic-1d")
    provider, cfg = tensor_prox_provider(
        prob.oracle, prob.term, 3, 0.9, 8.0 / 19.0, prob.m_next(3)
    )
    np.testing.assert_allclose((cfg.h,), (76.0,))
    trace = ihopp_run(prob, cfg, provider, eps=1e-8, max_k=400)
    assert trace.status == "converged"
    assert all(r.inner_iters == 1 for r in trace.rows[1:])
    # (M, H) holds at the declared M only, so the provider refuses an adaptive scale
    with pytest.raises(ParameterError, match="acceptable at the declared M only"):
        provider(prob.x0, None, 0.5)


def test_tensor_provider_raises_when_its_step_fails_the_criterion(monkeypatch):
    # the (M, H) map makes only a criterion-passing tensor step acceptable
    prob = get_problem("quartic-1d")
    provider, cfg = tensor_prox_provider(
        prob.oracle, prob.term, 3, 0.9, 8.0 / 19.0, prob.m_next(3)
    )
    step = outer_module.tensor_step

    def failing(tm, term, gamma):
        t, g, _, lhs, rhs = step(tm, term, gamma)
        return t, g, False, lhs, rhs

    monkeypatch.setattr(outer_module, "tensor_step", failing)
    with pytest.raises(NumericalError, match="inexactness criterion"):
        ihopp_run(prob, cfg, provider, eps=1e-8, max_k=3)


@pytest.mark.parametrize("run", [ihopp_run, aihopp_run])
def test_a_non_accepted_certificate_stops_the_loop(run):
    # a provider that hands back the anchor with g = 0 certifies a pair whose
    # residual is grad f(anchor) != 0 on both sides, so lhs = rhs > beta rhs:
    # the loops take no such step
    prob = get_problem("quartic-1d")
    cfg = ProxConfig(p=3, h=72.0, beta=1.0 / 3.0)
    certificates = []

    def stub(anchor, start, scale):
        cert = check_acceptable(prob.oracle, prob.term, cfg, anchor, anchor, np.zeros(1))
        certificates.append(cert)
        return InnerResult(cert, 0)

    with pytest.raises(NumericalError, match="non-accepted certificate"):
        run(prob, cfg, stub, max_k=3)
    (cert,) = certificates
    assert not cert.accepted and cert.lhs == cert.rhs > 0.0


@pytest.mark.parametrize("name", ["logistic-sep-3d", "quartic-sep-10d"])
def test_tensor_steps_read_order_p_where_bilevel_stops_at_2q(name):
    # the paper's 2q claim at p = 3: one tensor step per accelerated outer
    # step reads D^3 f, while the bi-level loop reads no derivative above
    # order 2q = 2, and both reach the same gap
    beta = 1.0 / 3.0
    tensor_prob = get_problem(name)
    provider, cfg = tensor_prox_provider(tensor_prob.oracle, tensor_prob.term, 3, beta,
                                         beta / (2.0 * (1.0 + beta)), tensor_prob.m_next(3))
    tensor_prob.oracle.reset_counters()
    tensor = aihopp_run(tensor_prob, cfg, provider, eps=1e-6, max_k=400)
    bilevel_prob = get_problem(name)
    bilevel_prob.oracle.reset_counters()
    bilevel = biopt_run(bilevel_prob, 3, eps=1e-6, max_k=400)
    assert tensor.status == bilevel.status == "converged"
    assert all(r.inner_iters == 1 for r in tensor.rows[1:])
    assert 3 in tensor_prob.oracle.calls_by_order
    assert max(tensor_prob.oracle.calls_by_order) == 3
    assert max(bilevel_prob.oracle.calls_by_order) == 2


def test_bound_margin_is_the_signed_worst_gap_under_a_finite_bound():
    row = outer_module.OuterRow
    trace = outer_module.OuterTrace("plain", rows=[row(0, 5.0, 4.0, np.inf, 0, 0.0, 0.0)])
    assert np.isnan(trace.bound_margin())
    trace.rows += [row(1, 2.0, 1.0, 3.0, 1, 0.0, 0.0), row(2, 1.0, 0.5, np.inf, 1, 0.0, 0.0),
                   row(3, 1.0, 0.5, 0.25, 1, 0.0, 0.0)]
    assert trace.bound_margin() == 0.25
    # a nan gap never meets its bound
    trace.rows.append(row(4, np.nan, np.nan, 1.0, 1, 0.0, 0.0))
    assert trace.bound_margin() == np.inf


def test_outer_trace_csv_and_summary():
    prob = get_problem("quartic-abs-1d")
    cfg = ProxConfig(p=3, h=72.0, beta=1.0 / 3.0)
    provider = exact_prox_provider(prob.oracle, prob.term, cfg)
    t1 = ihopp_run(prob, cfg, provider, eps=-1.0, max_k=12)
    t2 = ihopp_run(prob, cfg, provider, eps=-1.0, max_k=12)
    assert t1.to_csv() == t2.to_csv()
    lines = t1.to_csv().strip().split("\n")
    assert lines[0] == "k,F,gap,bound_rhs,inner_iters,cert_lhs,cert_rhs"
    assert len(lines) == 14
    assert t1.inner_total == 0
    s = t1.summary()
    for key in ("mode", "status", "iterations", "final_gap", "fitted_slope", "p", "h", "beta"):
        assert key in s
    assert s["iterations"] == 12
    # fewer than two usable points at k in [10, 100] give nan: k = 10 alone
    short = ihopp_run(prob, cfg, provider, eps=-1.0, max_k=10)
    assert [r.k for r in short.rows if 10 <= r.k <= 100] == [10]
    assert np.isnan(short.fitted_slope())
