"""Inner Bregman loop: the prox-Newton step, per-step optimality, certificate exit."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from hiprox import (
    AcceptanceCertificate,
    NumericalError,
    ParameterError,
    ProxConfig,
    RegularizedObjective,
    RelativeConstants,
    ScalingFunction,
    SmoothOracle,
    StepSolver,
    TaylorModel,
    WarmStart,
    bilevel_h,
    biopt_run,
    check_acceptable,
    exact_prox,
    get_problem,
    inner,
    inner_solve,
    make_term,
    minimize_composite_1d,
    relative_constants,
    tensor_step,
)
from hiprox.bregman import Pass
from hiprox.simple_terms import ZeroTerm
from references import in_metric, within


def _setup(problem_name, p, h=None, beta=None):
    prob = get_problem(problem_name)
    m = prob.m_next(p)
    if h is None:
        h = bilevel_h(p, m)
    if beta is None:
        beta = 1.0 / p
    cfg = ProxConfig(p=p, h=h, beta=beta)
    rc = relative_constants(p, h, m)
    return prob, cfg, rc


def _solver(prob, cfg, rc, anchor=None):
    anchor = np.asarray(prob.x0 if anchor is None else anchor, dtype=float)
    term = prob.term
    sf = ScalingFunction(prob.oracle, anchor, cfg.p, cfg.h)
    reg = RegularizedObjective(prob.oracle, anchor, cfg.p, cfg.h)
    return StepSolver(sf, term), sf, reg, term


@pytest.mark.parametrize(
    "problem_name,p,h,m",
    [
        ("quartic-1d", 3, None, None),
        ("quartic-1d", 4, None, 1.0),  # M_5 = 0 is declared; any M > 0 defines a model
        ("quartic-1d", 5, None, 1.0),
        ("quartic-abs-1d", 3, None, None),
        ("quartic-abs-1d", 4, None, 1.0),
        ("quartic-abs-1d", 5, None, 1.0),
        ("linear-nonneg-1d", 3, 2.0, 1.0),
        ("linear-nonneg-1d", 4, 2.0, 1.0),
        ("linear-nonneg-1d", 5, 2.0, 1.0),
    ],
)
def test_1d_step_matches_bracketing_reference(problem_name, p, h, m):
    # in dimension 1 prox-Newton must land where exact bracketing of the same
    # problem does: the Bregman step, s'(x) = 2L rho'(x) + c - 2L rho'(z); the
    # exact prox, s'(x) = f'(x) + H |x - xb|^{p-1} (x - xb); and the tensor
    # step at M = p! H, s' = the augmented model's derivative
    prob = get_problem(problem_name)
    m = prob.m_next(p) if m is None else m
    h = bilevel_h(p, m) if h is None else h
    cfg = ProxConfig(p=p, h=h, beta=1.0 / p)
    rc = relative_constants(p, h, m)
    solver, sf, reg, term = _solver(prob, cfg, rc)
    two_l = 2.0 * rc.lsmooth

    def lands(x, ref):
        assert abs(float(x[0]) - ref) <= 1e-12 * max(1.0, abs(ref)), (x, ref)

    z = np.asarray(prob.x0, dtype=float)
    for _ in range(4):
        ctil = float(reg.gradient(z)[0] - two_l * sf.gradient(z)[0])

        def deriv(x):
            return two_l * float(sf.gradient(np.array([x]))[0]) + ctil

        ref = minimize_composite_1d(deriv, term, float(z[0]))
        z_new = solver.step(z, rc.lsmooth)[0]
        lands(z_new, ref)
        z = z_new
    rng = np.random.default_rng(p)
    for anchor in term.project(rng.uniform(prob.sample_lo, prob.sample_hi, (5, 1))):
        xb = float(anchor[0])

        def prox_deriv(x):
            fx = float(prob.oracle.gradient(np.array([x]))[0])
            return fx + h * abs(x - xb) ** (p - 1) * (x - xb)

        lands(exact_prox(prob.oracle, term, cfg, anchor)[0],
              minimize_composite_1d(prox_deriv, term, xb))
        tm = TaylorModel(prob.oracle, anchor, p, math.factorial(p) * h)

        def model_deriv(x):
            return float(tm.gradient(np.array([x]))[0])

        lands(tensor_step(tm, term, 0.0)[0], minimize_composite_1d(model_deriv, term, xb))


@pytest.mark.parametrize(
    "problem_name,p",
    [
        ("quartic-1d", 3),
        ("quartic-abs-1d", 3),
        ("quartic-sep-10d", 3),
        ("ball-quadratic", 3),
        ("ball-quadratic", 4),
        ("ball-quadratic", 5),
        ("neglog-sep", 4),
        ("logistic-sep-3d", 3),
    ],
)
def test_step_subgradient_formula_and_optimality(problem_name, p):
    # g = 2L (grad rho(z) - grad rho(z+)) - grad f_reg(z) must land in dpsi(z+)
    prob, cfg, rc = _setup(problem_name, p)
    solver, sf, reg, term = _solver(prob, cfg, rc)
    rng = np.random.default_rng(3)
    z = np.asarray(prob.x0, dtype=float)
    for _ in range(4):
        z_new, g = solver.step(z, rc.lsmooth)[:2]
        expected = 2.0 * rc.lsmooth * (sf.gradient(z) - sf.gradient(z_new)) - reg.gradient(z)
        np.testing.assert_allclose(g, expected, rtol=1e-10, atol=1e-12)
        assert term.contains(z_new)
        assert term.subgradient_distance(z_new, g) <= 1e-8
        z = z_new


def test_step_decreases_regularized_objective():
    prob, cfg, rc = _setup("neglog-sep", 4)
    solver, sf, reg, term = _solver(prob, cfg, rc)

    def phi(x):
        return reg.value(x) + term.value(x)

    z = np.asarray(prob.x0, dtype=float)
    for _ in range(6):
        z_new = solver.step(z, rc.lsmooth)[0]
        assert phi(z_new) <= phi(z) + 1e-12 * max(1.0, abs(phi(z)))
        z = z_new


def test_ball_step_on_boundary():
    # a weak regularizer pushes the prox of the catalog ball problem onto
    # the boundary: steps must stay feasible, and there g = alpha (z+ - c)
    # with alpha >= 0 lies in the normal cone
    prob = get_problem("ball-quadratic")
    cfg = ProxConfig(p=3, h=0.5, beta=1.0 / 3.0)
    rc = RelativeConstants(xi=2.0, mu=0.5, lsmooth=1.5, kappa=1.0 / 3.0)
    solver, sf, reg, term = _solver(prob, cfg, rc)
    z = np.asarray(prob.x0, dtype=float)
    hit_boundary = False
    for _ in range(10):
        z_new, g = solver.step(z, rc.lsmooth)[:2]
        assert term.contains(z_new)
        d = z_new - term.center
        alpha = float(np.dot(g, d)) / term.radius ** 2
        if alpha > 1e-10:
            assert abs(float(np.linalg.norm(d)) - term.radius) <= 1e-12
            assert float(np.linalg.norm(g - alpha * d)) <= 1e-8
            hit_boundary = True
        else:
            assert float(np.linalg.norm(g)) <= 1e-8
        z = z_new
    assert hit_boundary


@pytest.mark.parametrize(
    "problem_name,p",
    [
        ("quartic-1d", 3),
        ("quartic-abs-1d", 3),
        ("quartic-sep-10d", 3),
        ("ball-quadratic", 3),
        ("ball-quadratic", 4),
        ("ball-quadratic", 5),
        ("neglog-sep", 4),
        ("neglog-sep", 5),
        ("logistic-sep-3d", 3),
    ],
)
def test_inner_solve_returns_accepted_certificate(problem_name, p):
    prob, cfg, rc = _setup(problem_name, p)
    res = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, prob.x0)
    cert = res.certificate
    assert cert.accepted
    assert cert.lhs <= cfg.beta * cert.rhs + 1e-12
    assert res.iterations >= 1
    assert res.trace.rows[0].i == 0
    assert len(res.trace.rows) == res.iterations + 1
    phi = np.array([r.phi for r in res.trace.rows])
    assert np.all(np.diff(phi) <= 1e-12 * np.maximum(1.0, np.abs(phi[:-1])))


def test_a_start_at_the_prox_point_is_certified_in_one_step():
    # anchoring at the unconstrained minimizer makes the anchor its own prox:
    # the first step stays there to rounding, and its certificate accepts
    # it as a kept step with its own row
    prob, cfg, rc = _setup("quartic-sep-10d", 3)
    res = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x_star, prob.x_star)
    assert res.iterations == 1
    assert len(res.trace.rows) == 2 and res.trace.rows[1].i == 1
    # a step that stays put to rounding: its Bregman distance is at most 1e-20
    assert abs(res.trace.rows[1].bregman_step) <= 1e-20
    np.testing.assert_allclose(res.certificate.point, prob.x_star, atol=1e-12)
    np.testing.assert_allclose(res.certificate.subgradient, 0.0, atol=1e-10)
    assert res.certificate.accepted


def test_inner_solve_keep_points():
    # the trace keeps one point per row: z0 and each kept step, also when
    # the one kept step stays at z0
    prob, cfg, rc = _setup("quartic-sep-10d", 3)
    res = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, prob.x0)
    assert res.iterations == len(res.trace.rows) - 1 > 0
    assert len(res.trace.points) == len(res.trace.rows)
    np.testing.assert_array_equal(res.trace.points[0], prob.x0)
    np.testing.assert_array_equal(res.trace.points[-1], res.certificate.point)
    fixed = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x_star, prob.x_star)
    assert fixed.iterations == 1
    assert len(fixed.trace.points) == len(fixed.trace.rows) == 2
    np.testing.assert_array_equal(fixed.trace.points[0], prob.x_star)
    np.testing.assert_array_equal(fixed.trace.points[1], fixed.certificate.point)


def test_inner_solve_validation():
    prob, cfg, rc = _setup("quartic-sep-10d", 3)
    bad_rc = RelativeConstants(xi=1.0, mu=0.0, lsmooth=2.0, kappa=0.0)
    with pytest.raises(ParameterError):
        inner_solve(prob.oracle, prob.term, cfg, bad_rc, prob.x0, prob.x0)
    # a first step constant outside [mu, L]
    for bad in (0.5 * rc.mu, 2.0 * rc.lsmooth):
        with pytest.raises(ParameterError):
            inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, WarmStart(prob.x0, lsmooth=bad))

    nn = get_problem("linear-nonneg-1d")
    cfg1 = ProxConfig(p=3, h=2.0, beta=1.0 / 3.0)
    rc1 = relative_constants(3, 2.0, 1.0)
    with pytest.raises(ParameterError):
        inner_solve(nn.oracle, nn.term, cfg1, rc1, np.array([-1.0]), np.array([-1.0]))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "problem_name,p",
    [("quartic-sep-10d", 3), ("neglog-sep", 4), ("ball-quadratic", 5), ("logistic-sep-3d", 3)],
)
def test_inner_solve_from_seeded_start(problem_name, p, seed):
    # a warm start may be any point of dom psi: the run still ends on an
    # accepted certificate, with phi nonincreasing from phi(z0)
    prob, cfg, rc = _setup(problem_name, p)
    rng = np.random.default_rng(seed)
    anchor = prob.term.project(rng.uniform(prob.sample_lo, prob.sample_hi))
    start = prob.term.project(rng.uniform(prob.sample_lo, prob.sample_hi))
    res = inner_solve(prob.oracle, prob.term, cfg, rc, anchor, start)
    cert = res.certificate
    assert cert.accepted
    assert cert.lhs <= cfg.beta * cert.rhs + 1e-12
    np.testing.assert_array_equal(res.trace.points[0], start)
    phi = np.array([r.phi for r in res.trace.rows])
    reg = RegularizedObjective(prob.oracle, anchor, cfg.p, cfg.h)
    assert phi[0] == reg.value(start) + prob.term.value(start)
    assert np.all(np.diff(phi) <= 1e-12 * np.maximum(1.0, np.abs(phi[:-1])))
    assert res.trace.newton_iters >= res.iterations >= 1


def test_inner_solve_start_by_certificate_reuses_its_evaluations():
    # a start given by its certificate brings f and grad f along: the solve
    # evaluates grad f only at its own candidates, and f only there too
    prob, cfg, rc = _setup("neglog-sep", 3)
    first = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, prob.x0)
    anchor = prob.term.project(np.asarray(prob.x0) + 0.05)
    oracle = prob.oracle
    oracle.reset_counters()
    res = inner_solve(oracle, prob.term, cfg, rc, anchor, WarmStart.at(first.certificate))
    np.testing.assert_array_equal(res.trace.points[0], first.certificate.point)
    # rejected step candidates are certified too
    candidates = max(res.iterations, 1) + res.trace.backtracks
    rows = oracle.a.shape[0]
    assert oracle.calls_by_order[1] == rows * candidates
    assert oracle.calls_by_order[0] == rows * candidates
    # the same start as a bare point costs one more of each
    oracle.reset_counters()
    bare = inner_solve(oracle, prob.term, cfg, rc, anchor, first.certificate.point)
    assert bare.trace.to_csv() == res.trace.to_csv()
    assert oracle.calls_by_order[1] == rows * (candidates + 1)
    assert oracle.calls_by_order[0] == rows * (candidates + 1)


def test_a_bare_start_takes_f_and_grad_f_from_one_residual_pass(residual_passes):
    # the same solve from a point costs one pass more than from its certificate
    prob, cfg, rc = _setup("neglog-sep", 3)
    cert = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, prob.x0).certificate
    anchor = prob.term.project(np.asarray(prob.x0) + 0.05)
    del residual_passes[:]
    warm = inner_solve(prob.oracle, prob.term, cfg, rc, anchor, WarmStart.at(cert))
    at_cert = len(residual_passes)
    del residual_passes[:]
    bare = inner_solve(prob.oracle, prob.term, cfg, rc, anchor, cert.point)
    assert bare.trace.to_csv() == warm.trace.to_csv()
    assert len(residual_passes) == at_cert + 1


@pytest.mark.parametrize("problem_name,p", [("quartic-1d", 3), ("logistic-sep-3d", 5),
                                            ("quartic-sep-10d", 3)])
def test_kept_steps_meet_the_descent_test_at_their_constant(problem_name, p):
    # from a start at L_1 = mu: every kept step below L that the certificate
    # rejected passed f_reg(z+) <= f_reg(z) + <grad f_reg(z), z+ - z> + L_i breg(z, z+),
    # L_i halves (to mu at least) after it, and every constant lies in [mu, L]
    prob, cfg, rc = _setup(problem_name, p)
    rng = np.random.default_rng(1)
    anchor = prob.term.project(rng.uniform(prob.sample_lo, prob.sample_hi))
    start = WarmStart(prob.term.project(rng.uniform(prob.sample_lo, prob.sample_hi)),
                      lsmooth=rc.mu)
    res = inner_solve(prob.oracle, prob.term, cfg, rc, anchor, start)
    assert res.certificate.accepted
    sf = ScalingFunction(prob.oracle, anchor, cfg.p, cfg.h)
    reg = RegularizedObjective(prob.oracle, anchor, cfg.p, cfg.h)
    pts, ls = res.trace.points, res.trace.lsmooth
    assert len(ls) == res.iterations == len(pts) - 1 > 1
    assert all(rc.mu <= v <= rc.lsmooth for v in ls)
    for i in range(1, len(pts) - 1):
        z, z_new = pts[i - 1], pts[i]
        assert ls[i] >= max(0.5 * ls[i - 1], rc.mu)
        if ls[i - 1] < rc.lsmooth:
            breg = res.trace.rows[i].bregman_step
            np.testing.assert_allclose(breg, sf.value(z_new) - sf.value(z)
                                       - float(np.dot(sf.gradient(z), z_new - z)),
                                       rtol=1e-9, atol=1e-15)
            model = reg.value(z) + float(np.dot(reg.gradient(z), z_new - z)) + ls[i - 1] * breg
            assert reg.value(z_new) <= model


def test_inner_solve_rejects_start_outside_domain():
    prob, cfg, rc = _setup("neglog-sep", 3)
    outside = np.asarray(prob.term.hi, dtype=float) + 0.1
    with pytest.raises(ParameterError):
        inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, outside)
    nn = get_problem("linear-nonneg-1d")
    cfg1 = ProxConfig(p=3, h=2.0, beta=1.0 / 3.0)
    rc1 = relative_constants(3, 2.0, 1.0)
    with pytest.raises(ParameterError):
        inner_solve(nn.oracle, nn.term, cfg1, rc1, np.array([1.0]), np.array([-1.0]))


def test_inner_solve_iteration_cap(monkeypatch):
    # beta = 0 demands an exact prox; one Bregman step cannot deliver it
    prob, _, rc = _setup("quartic-sep-10d", 3)
    cfg = ProxConfig(p=3, h=bilevel_h(3, prob.m_next(3)), beta=0.0)
    monkeypatch.setattr(inner, "_STEP_CAP", 1)
    with pytest.raises(NumericalError, match="exceeded 1 iterations"):
        inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, prob.x0)


def test_step_raises_a_typed_error_when_its_residual_is_too_large(monkeypatch):
    # a prox-Newton that returns its start z = x0 = anchor gives g = -grad f(x0),
    # whose distance to dpsi = {0} is |grad f(x0)|: the step raises with it
    prob, cfg, rc = _setup("quartic-sep-10d", 3)
    solver = _solver(prob, cfg, rc)[0]
    monkeypatch.setattr(inner, "prox_newton", lambda evaluate, term, w, at_w, tol: (w, at_w, 0))
    with pytest.raises(NumericalError, match="prox-Newton step residual") as info:
        solver.step(prob.x0, rc.lsmooth)
    assert info.type is NumericalError
    grad = prob.oracle.gradient(prob.x0)
    assert info.value.residual == pytest.approx(np.linalg.norm(grad), rel=1e-12)
    assert info.value.residual > 100.0 * inner._RES_TOL * np.linalg.norm(grad)


def test_trace_csv_deterministic():
    prob, cfg, rc = _setup("neglog-sep", 4)
    res1 = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, prob.x0)
    res2 = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, prob.x0)
    csv = res1.trace.to_csv()
    assert csv == res2.trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "i,phi,bregman_step,lhs,rhs,ratio"
    assert len(lines) == len(res1.trace.rows) + 1
    # row 0 carries the starting value and NaN step diagnostics
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "nan"
    assert res1.trace.rows[-1].ratio <= cfg.beta + 1e-12


def _model_min(term, w, g, hm):
    return inner._model_min(term, np.asarray(w, float), np.asarray(g, float),
                            np.asarray(hm, float))


def _kkt_scale(w, g, hm, z):
    # the rounding scale of r = g + hm (z - w)
    return float(np.abs(g).max() + np.abs(hm).max() * (np.abs(z).max() + np.abs(w).max()))


@pytest.mark.parametrize("seed", range(8))
def test_model_min_reaches_model_optimality(seed):
    # the model solver for <g, z - w> + (z - w)'hm(z - w)/2 + psi(z)
    # (the active-set method, the eigenbasis solve for the ball, one linear
    # solve for psi = 0) ends at a point where -(g + hm (z - w)) lies in
    # dpsi(z), for random PSD models, some with eigenvalues 1e-4 to 1e2
    n = get_problem("quartic-sep-10d").dimension
    rng = np.random.default_rng(seed)
    terms = (
        make_term("box", lo=-rng.uniform(0.1, 1.0, n), hi=rng.uniform(0.1, 1.0, n)),
        make_term("l1", lam=float(rng.uniform(0.1, 2.0))),
        make_term("nonneg"),
        make_term("ball", center=np.full(n, 0.1), radius=0.5),
        make_term("zero"),
    )
    for term in terms:
        for ill in (False, False, False, True, True):
            if ill:
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                hm = (q * np.logspace(-4.0, 2.0, n)) @ q.T
                hm = 0.5 * (hm + hm.T)
            else:
                b = rng.standard_normal((n, n))
                hm = b @ b.T / n + 0.05 * np.eye(n)
            w = term.project(rng.uniform(-1.0, 1.0, n))
            g = 2.0 * rng.standard_normal(n)
            z = _model_min(term, w, g, hm)
            # the active-set method clips exactly; |z - c| on the ball is rounded
            assert within(term, z, 0.0 if term.is_separable else 1e-14 * term.radius)
            res = term.subgradient_distance(z, -(g + hm @ (z - w)))
            assert res <= 1e-12 * _kkt_scale(w, g, hm, z), (term.kind, res)


def test_model_min_box_cycle_example():
    # plain block pivoting (primal-dual active sets) cycles on this box QP;
    # H is not an M-matrix
    hm = [[15.0, -14.0, -8.0], [-14.0, 15.0, 8.0], [-8.0, 8.0, 6.0]]
    term = make_term("box", lo=-np.ones(3), hi=np.ones(3))
    z = _model_min(term, [0.0, 0.0, -1.0], [-9.0, 4.0, -7.0], hm)
    np.testing.assert_allclose(z, [1.0, -0.4, 1.0], rtol=0, atol=1e-14)
    assert z[0] == 1.0 and z[2] == 1.0


def test_model_min_degenerate_l1_example():
    # the answer (0, -16/3) has multiplier -r_0 = -1 = -lam, on the edge of
    # dpsi_0(0) = [-1, 1]: the kink must be hit exactly
    z = _model_min(make_term("l1", lam=1.0), [1.0, -2.0], [-6.0, 9.0],
                   [[33.0, -12.0], [-12.0, 6.0]])
    assert z[0] == 0.0
    assert abs(z[1] + 16.0 / 3.0) <= 1e-15 * 16.0 / 3.0


def test_model_min_random_sample():
    # 300 draws with n <= 30, condition up to 1e6 and kinks in w: exactly in
    # the domain, KKT residual within 1e-12 of the rounding scale
    rng = np.random.default_rng(11)
    for draw in range(300):
        n = int(rng.integers(1, 31))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        hm = (q * 10.0 ** rng.uniform(-3.0, 3.0, n)) @ q.T
        hm = 0.5 * (hm + hm.T)
        kind = draw % 3
        if kind == 0:
            lo, hi = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
            degenerate = rng.random(n) < 0.1
            hi[degenerate] = lo[degenerate]
            term = make_term("box", lo=lo, hi=hi)
        elif kind == 1:
            term = make_term("l1", lam=float(10.0 ** rng.uniform(-2.0, 1.0)))
        else:
            term = make_term("nonneg")
        w = term.project(rng.uniform(-2.0, 2.0, n))
        at_kink = rng.random(n) < 0.2
        w[at_kink] = term.lo[at_kink] if kind == 0 else 0.0
        g = 10.0 ** rng.uniform(-1.0, 2.0) * rng.standard_normal(n)
        z = _model_min(term, w, g, hm)
        assert within(term, z, 0.0), draw
        res = term.subgradient_distance(z, -(g + hm @ (z - w)))
        assert res <= 1e-12 * _kkt_scale(w, g, hm, z), (draw, res)


@pytest.mark.parametrize("p", [4, 5])
def test_biopt_run_ball_quadratic_high_order(p):
    # every ball step at q = 2 goes through prox-Newton's exact ball solve
    trace = biopt_run(get_problem("ball-quadratic"), p, eps=1e-6)
    assert trace.status == "converged"
    assert trace.rows[-1].gap <= 1e-6


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("name", ["neglog-sep", "logistic-sep-3d", "quartic-sep-10d",
                                  "ball-quadratic"])
def test_certificate_from_the_rho_pass_equals_one_from_scratch(name, p, weighted):
    # the inner loop hands the certificate |d| and grad d(d) from the rho pass
    # at z+ and the step's membership distance, and forms f_reg(z+) and
    # grad f_reg(z+) from the same pass: all bit for bit what check_acceptable,
    # reg.value and reg.gradient compute on their own, also with the smooth
    # part read in the coordinates of a diagonal metric
    prob = get_problem(name)
    n = prob.dimension
    rng = np.random.default_rng(10 * p + n + weighted)
    oracle = in_metric(prob.oracle, "diagonal" if weighted else "identity", rng)
    cfg = ProxConfig(p=p, h=2.5, beta=1.0 / p)
    anchor = prob.sample(rng, 1)[0]
    sf = ScalingFunction(oracle, anchor, p, cfg.h)
    reg = RegularizedObjective(oracle, anchor, p, cfg.h)
    solver = StepSolver(sf, prob.term)
    z = prob.term.project(anchor + 0.05 * rng.standard_normal(n))
    for _ in range(3):
        z_new, g, rho, gap = solver.step(z, rng.uniform(0.5, 1.5))
        assert gap == prob.term.subgradient_distance(z_new, g)
        reused = check_acceptable(oracle, prob.term, cfg, anchor, z_new, g, gap, rho)
        scratch = check_acceptable(oracle, prob.term, cfg, anchor, z_new, g)
        for f in dataclasses.fields(AcceptanceCertificate):
            assert _same(getattr(reused, f.name), getattr(scratch, f.name)), f.name
        assert reused.f_value + sf.h * rho.d_value == reg.value(z_new)
        assert np.array_equal(reused.gradient + sf.h * rho.d_grad, reg.gradient(z_new))
        z = z_new


@pytest.mark.parametrize("name", ["neglog-sep", "logistic-sep-3d", "ball-quadratic"])
def test_value_and_gradient_is_one_pass_of_the_two_calls(name):
    # oracle.evaluate gives f, grad f and (when asked) the Hessian matrix bit
    # for bit as value, gradient and hessian_matrix do, with the same counts
    prob = get_problem(name)
    oracle = prob.oracle
    x = prob.sample(np.random.default_rng(5), 1)[0]
    for hessian in (False, True):
        oracle.reset_counters()
        f_value, grad, hess = oracle.evaluate(x, hessian)
        one_pass = dict(oracle.calls_by_order)
        oracle.reset_counters()
        assert f_value == oracle.value(x)
        assert np.array_equal(grad, oracle.gradient(x))
        if hessian:
            assert np.array_equal(hess, oracle.hessian_matrix(x))
        else:
            assert hess is None
        assert one_pass == oracle.calls_by_order


@pytest.mark.parametrize("name", ["logistic-sep-3d", "neglog-sep"])
def test_exact_prox_forms_the_residuals_once_per_point(name, monkeypatch):
    # each prox-Newton point of the exact prox, its start included, costs one
    # residual pass (f, grad f and the Hessian together); the result and the
    # counts are those of the separate calls
    prob = get_problem(name)
    oracle = prob.oracle
    cfg = ProxConfig(p=3, h=bilevel_h(3, prob.m_next(3)), beta=1.0 / 3.0)
    anchor = prob.sample(np.random.default_rng(2), 1)[0]
    residuals, evaluate = oracle.residuals, RegularizedObjective.evaluate
    passes, points = [], []
    monkeypatch.setattr(oracle, "residuals", lambda x: passes.append(1) or residuals(x))
    monkeypatch.setattr(RegularizedObjective, "evaluate",
                        lambda reg, x, hessian=False: points.append(x) or evaluate(reg, x, hessian))
    oracle.reset_counters()
    t, g = exact_prox(oracle, prob.term, cfg, anchor)
    one_pass = dict(oracle.calls_by_order)
    assert len(points) > 2
    assert len(passes) == len(points)
    assert len({x.tobytes() for x in points}) == len(points)
    # the same solve from separate value, gradient and Hessian calls
    monkeypatch.setattr(oracle, "evaluate", functools.partial(SmoothOracle.evaluate, oracle))
    oracle.reset_counters()
    t_apart, g_apart = exact_prox(oracle, prob.term, cfg, anchor)
    assert np.array_equal(t, t_apart) and np.array_equal(g, g_apart)
    assert one_pass == oracle.calls_by_order


@pytest.mark.parametrize("name,p", [("neglog-sep", 3), ("logistic-sep-3d", 4),
                                    ("ball-quadratic", 5)])
def test_step_forms_grad_f_reg_from_the_rho_pass(name, p):
    # without grad_reg, a step takes grad f + H grad d off the rho pass at z:
    # the same digits as one given grad f_reg from RegularizedObjective
    prob, cfg, rc = _setup(name, p)
    solver, sf, reg, term = _solver(prob, cfg, rc)
    z = term.project(np.asarray(prob.x0, dtype=float) + 0.05)
    own = solver.step(z, rc.lsmooth)
    given = solver.step(z, rc.lsmooth, reg.gradient(z))
    assert np.array_equal(own[0], given[0]) and np.array_equal(own[1], given[1])


@pytest.mark.parametrize("name,p", [("neglog-sep", 3), ("logistic-sep-3d", 4), ("neglog-sep", 5)])
def test_inner_rows_read_f_reg_off_the_rho_pass(name, p):
    # each row's phi is f_reg + psi at its point, bit for bit as reg.value gives it
    prob, cfg, rc = _setup(name, p)
    anchor = np.asarray(prob.x0, dtype=float)
    res = inner_solve(prob.oracle, prob.term, cfg, rc, anchor, anchor)
    reg = RegularizedObjective(prob.oracle, anchor, p, cfg.h)
    assert len(res.trace.rows) > 1
    for row, z in zip(res.trace.rows, res.trace.points):
        assert row.phi == reg.value(z) + prob.term.value(z)


class _CountingZero(ZeroTerm):
    """psi = 0 that counts its value calls."""

    def __init__(self):
        self.values = 0

    def value(self, x):
        self.values += 1
        return 0.0


def _pseudo_huber(w):
    root = math.sqrt(1.0 + float(w[0]) ** 2)
    return root, w / root, np.array([[1.0 / root ** 3]])


def _pass(value, grad, hess):
    """prox-Newton's pass of a plain smooth s: no power term and no part."""
    return Pass(value, grad, hess, None, None, None, None)


def test_prox_newton_halves_a_rising_full_step_to_the_armijo_decrease():
    # s(w) = sqrt(1 + w^2) from w = 2: the full Newton step d = -w (1 + w^2)
    # lands at -8, where s rises; halving accepts the first t that makes the
    # Armijo decrease 1e-4 t (model decrease), here t = 1/4
    points = []
    term = _CountingZero()
    w0 = np.array([2.0])

    def evaluate(w):
        points.append(w)
        return _pass(*_pseudo_huber(w))

    w, at_w, steps = inner.prox_newton(evaluate, term, w0, evaluate(w0), 1e-12)
    d = points[1] - w0
    assert points[2].tobytes() == (w0 + 0.5 * d).tobytes()
    assert points[3].tobytes() == (w0 + 0.25 * d).tobytes()
    s0, g0, h0 = _pseudo_huber(w0)
    hm = h0[0, 0] + 1e-11 * (1.0 + h0[0, 0])
    model_drop = -(float(g0[0] * d[0]) + 0.5 * hm * d[0] ** 2)
    assert model_drop > 0.0
    values = [_pseudo_huber(p)[0] for p in points[1:4]]
    assert values[0] > s0  # the full step rises
    assert values[1] > s0 - 1e-4 * 0.5 * model_drop
    assert values[2] <= s0 - 1e-4 * 0.25 * model_drop
    # the next Newton step starts at the accepted point and is whole
    assert abs(points[4][0]) < abs(points[3][0])
    assert abs(w[0]) <= 1e-12 and at_w.grad[0] == w[0] / math.sqrt(1.0 + w[0] ** 2)
    assert steps == len(points) - 3
    # psi is read at every point, and once more at the candidate of the one
    # step that halved: the model decrease is formed only there
    assert term.values == len(points) + 1


def test_prox_newton_takes_a_full_step_without_the_model_decrease():
    # a strictly convex quadratic: every step is whole, so psi is read once per
    # point and never at a model candidate
    points = []

    def evaluate(w):
        points.append(w)
        return _pass(0.5 * float(w @ w) + float(w.sum()), w + 1.0, np.eye(2))

    term = _CountingZero()
    w0 = np.array([3.0, -2.0])
    w, _, steps = inner.prox_newton(evaluate, term, w0, evaluate(w0), 1e-12)
    np.testing.assert_allclose(w, [-1.0, -1.0], rtol=0, atol=1e-12)
    assert steps >= 1 and len(points) == steps + 1
    assert term.values == len(points)


def test_prox_newton_line_search_raises_after_fifty_halvings():
    # s rises off w0 in every direction while its gradient points away: the
    # step is halved 50 times, t = 1, 1/2, ..., 2^-49, and then raises
    w0 = np.array([0.0])
    points = []

    def evaluate(w):
        points.append(w)
        return _pass(float(w[0] != 0.0), np.array([1.0]), np.array([[1.0]]))

    with pytest.raises(NumericalError, match="50 halvings"):
        inner.prox_newton(evaluate, make_term("zero"), w0, evaluate(w0), 1e-12)
    assert len(points) == 1 + 50
    d = points[1] - w0
    assert d[0] < 0.0
    assert [p.tobytes() for p in points[2:]] == [(w0 + 0.5 ** k * d).tobytes()
                                                 for k in range(1, 50)]


def _recorded_solve(name, p, oracle_kind, monkeypatch):
    """One inner solve from the anchor x0 of a catalog problem, and its scaling function.

    The oracle is read in the coordinates of ``references.in_metric``'s
    ``oracle_kind``, with the catalog problem's H and constants.
    """
    prob = get_problem(name)
    h = bilevel_h(p, prob.m_next(p))
    cfg = ProxConfig(p=p, h=h, beta=1.0 / p)
    rc = relative_constants(p, h, prob.m_next(p))
    oracle = in_metric(prob.oracle, oracle_kind, np.random.default_rng(p))
    prob = dataclasses.replace(prob, oracle=oracle)
    built = []

    class Recording(ScalingFunction):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(inner, "ScalingFunction", Recording)
    anchor = np.asarray(prob.x0, dtype=float)
    rows = prob.oracle.a.copy()
    res = inner_solve(prob.oracle, prob.term, cfg, rc, anchor, anchor)
    assert res.trace.newton_iters > 0
    assert prob.oracle.a.tobytes() == rows.tobytes()
    (sf,) = built
    return prob, sf


def _assert_stack_hessian_untouched(prob, sf):
    stack_hessian = sf.stack.hessian
    assert not stack_hessian.flags.writeable
    fresh = prob.oracle._matrix(sf.stack.weights[2], None, 2)
    assert stack_hessian.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("p", [3, 4, 5])
@pytest.mark.parametrize("name", ["neglog-sep", "logistic-sep-3d"])
def test_in_place_work_leaves_the_solve_constants_alone(name, p, weighted, monkeypatch):
    # prox-Newton shifts each pass's Hessian in place, and the rho pass sums
    # into its own arrays: D^2 f(y) of the anchor stack, shared by every pass
    # of the solve, stays bit for bit and read-only, and so do the oracle's
    # rows, also when read in the coordinates of a diagonal metric
    prob, sf = _recorded_solve(name, p, "diagonal" if weighted else "identity", monkeypatch)
    _assert_stack_hessian_untouched(prob, sf)


def _singular_case(kind):
    # (term, w, grad): at w every l1 coordinate is free on slope +lam, so the
    # l1 model step solves the whole Newton matrix as its free block
    term = make_term("zero") if kind == "zero" else make_term("l1", lam=0.1)
    return term, np.array([1.0, 2.0]), np.array([1.0, -1.0])


@pytest.mark.parametrize("kind", ["zero", "l1"])
def test_model_min_raises_on_an_exactly_singular_newton_matrix(kind):
    # the psi = 0 solve and the free-block solve are one LAPACK LU call each,
    # which raises LinAlgError as np.linalg.solve does
    term, w, grad = _singular_case(kind)
    hm = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        inner._model_min(term, w, grad, hm)


def test_solve_raises_on_an_illegal_lapack_argument(monkeypatch):
    # dgesv reports an illegal argument i by info = -i; _solve raises rather
    # than return the untouched right-hand side as the answer
    monkeypatch.setattr(inner, "dgesv", lambda a, b: (None, None, b, -2))
    with pytest.raises(ValueError, match="illegal value in argument 2"):
        inner._solve(np.eye(2), np.ones(2))


def test_model_min_raises_at_its_pass_cap(monkeypatch):
    # the box cycle example takes 4 active-set passes; at 1 pass per
    # coordinate (3) the model step raises instead of returning mid-way
    hm = [[15.0, -14.0, -8.0], [-14.0, 15.0, 8.0], [-8.0, 8.0, 6.0]]
    term = make_term("box", lo=-np.ones(3), hi=np.ones(3))
    monkeypatch.setattr(inner, "_PASS_CAP", 1)
    with pytest.raises(NumericalError, match="reached 3 passes"):
        _model_min(term, [0.0, 0.0, -1.0], [-9.0, 4.0, -7.0], hm)


def test_model_min_frees_only_the_furthest_after_a_zero_length_step(monkeypatch):
    # at w = (1, 0, 0) the free coordinate 0 is already optimal on its piece,
    # so the first pass does not move; of the two kinks it violates, by 3 and
    # 2, only coordinate 1 is freed, then coordinate 2: free blocks of 1, 2, 3
    sizes = []
    solve = inner._solve

    def recording(a, b):
        sizes.append(len(b))
        return solve(a, b)

    monkeypatch.setattr(inner, "_solve", recording)
    z = _model_min(make_term("l1", lam=1.0), [1.0, 0.0, 0.0], [-1.0, -4.0, -3.0], np.eye(3))
    assert sizes == [1, 2, 3]
    assert z.tolist() == [1.0, 3.0, 2.0]


@pytest.mark.parametrize("kind", ["zero", "l1"])
def test_model_min_solves_leave_the_newton_matrix_alone(kind):
    # the clip test and the Armijo decrease read hm after the solve
    term, w, grad = _singular_case(kind)
    hm = np.array([[2.0, 0.5], [0.5, 1.0]])
    kept_hm, kept_grad = hm.copy(), grad.copy()
    z = inner._model_min(term, w, grad, hm)
    assert hm.tobytes() == kept_hm.tobytes() and grad.tobytes() == kept_grad.tobytes()
    slope = 0.0 if kind == "zero" else 0.1
    np.testing.assert_allclose(z, w - np.linalg.solve(hm, grad + slope), rtol=1e-14, atol=0)


def test_prox_newton_shifts_a_hessian_in_any_layout(monkeypatch):
    # the shift goes through a strided view of a C-contiguous H; a Fortran-
    # ordered or strided H is copied and the copy shifted, never left unshifted
    hess = np.array([[2.0, 0.5], [0.5, 1.0]])
    shifted = hess + 1e-11 * (1.0 + 2.0) * np.eye(2)
    layouts = {"C": np.ascontiguousarray, "F": np.asfortranarray,
               "strided": lambda a: np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)[::2, ::2]}
    seen = []
    model_min = inner._model_min

    def spy(term, w, grad, hm):
        seen.append(hm.copy())
        return model_min(term, w, grad, hm)

    monkeypatch.setattr(inner, "_model_min", spy)
    runs = {}
    for name, layout in layouts.items():
        seen.clear()

        def evaluate(w):
            return _pass(0.5 * float(w @ hess @ w) + float(w.sum()), hess @ w + 1.0,
                         layout(hess.copy()))

        w0 = np.array([3.0, -2.0])
        w, _, steps = inner.prox_newton(evaluate, make_term("zero"), w0, evaluate(w0), 1e-12)
        assert steps >= 1 and len(seen) == steps
        assert all(hm.tobytes() == shifted.tobytes() for hm in seen)
        runs[name] = (w.tobytes(), steps)
    assert runs["F"] == runs["C"] and runs["strided"] == runs["C"]
