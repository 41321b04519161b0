"""Inner Bregman loop: the prox-Newton step, per-step optimality, certificate exit."""

import numpy as np
import pytest

from hiprox import (
    NumericalError,
    ParameterError,
    ProxConfig,
    RegularizedObjective,
    RelativeConstants,
    ScalingFunction,
    StepSolver,
    bilevel_h,
    biopt_run,
    get_problem,
    inner_solve,
    make_term,
    minimize_composite_1d,
    relative_constants,
)


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


def _solver(prob, cfg, rc, anchor=None, term=None):
    anchor = np.asarray(prob.x0 if anchor is None else anchor, dtype=float)
    term = prob.term if term is None else term
    sf = ScalingFunction(prob.oracle, anchor, cfg.p, cfg.h, cfg.metric)
    reg = RegularizedObjective(prob.oracle, anchor, cfg.p, cfg.h, cfg.metric)
    return StepSolver(sf, reg, term, rc.lsmooth), sf, reg, term


@pytest.mark.parametrize(
    "problem_name,p,h,m",
    [
        ("quartic-1d", 3, None, None),
        ("quartic-1d", 4, None, 1.0),  # M_5 = 0 is declared; any M > 0 defines a model
        ("quartic-abs-1d", 3, None, None),
        ("quartic-abs-1d", 5, None, 1.0),
        ("linear-nonneg-1d", 3, 2.0, 1.0),
    ],
)
def test_1d_step_matches_bracketing_reference(problem_name, p, h, m):
    # in dimension 1 the prox-Newton step must land where exact bracketing
    # of the same Bregman model does: s'(x) = 2L rho'(x) + c - 2L rho'(z)
    prob = get_problem(problem_name)
    m = prob.m_next(p) if m is None else m
    h = bilevel_h(p, m) if h is None else h
    cfg = ProxConfig(p=p, h=h, beta=1.0 / p)
    rc = relative_constants(p, h, m)
    solver, sf, reg, term = _solver(prob, cfg, rc)
    two_l = 2.0 * rc.lsmooth
    z = np.asarray(prob.x0, dtype=float)
    for _ in range(4):
        ctil = float(reg.gradient(z)[0] - two_l * sf.gradient(z)[0])

        def deriv(x):
            return two_l * float(sf.gradient(np.array([x]))[0]) + ctil

        ref = minimize_composite_1d(deriv, term, float(z[0]))
        z_new, _ = solver.step(z)
        assert abs(float(z_new[0]) - ref) <= 1e-12 * max(1.0, abs(ref))
        z = z_new


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
        z_new, g = solver.step(z)
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
        z_new, _ = solver.step(z)
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
        z_new, g = solver.step(z)
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
    res = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0)
    cert = res.certificate
    assert cert.accepted
    assert cert.lhs <= cfg.beta * cert.rhs + 1e-12
    assert res.iterations >= 1
    assert res.trace.rows[0].i == 0
    assert len(res.trace.rows) == res.iterations + 1
    phi = res.trace.column("phi")
    assert np.all(np.diff(phi) <= 1e-12 * np.maximum(1.0, np.abs(phi[:-1])))


def test_inner_solve_fixed_point_zero_iterations():
    # anchoring at the unconstrained minimizer makes the anchor its own prox
    prob, cfg, rc = _setup("quartic-sep-10d", 3)
    res = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x_star)
    assert res.iterations == 0
    assert len(res.trace.rows) == 1
    np.testing.assert_allclose(res.point, prob.x_star, atol=1e-12)
    np.testing.assert_allclose(res.subgradient, 0.0, atol=1e-10)
    assert res.certificate.accepted


def test_inner_solve_keep_points():
    prob, cfg, rc = _setup("quartic-sep-10d", 3)
    res = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, keep_points=True)
    assert len(res.trace.points) == len(res.trace.rows)
    np.testing.assert_allclose(res.trace.points[0], prob.x0)
    np.testing.assert_allclose(res.trace.points[-1], res.point)


def test_inner_solve_validation():
    prob, cfg, rc = _setup("quartic-sep-10d", 3)
    bad_rc = RelativeConstants(xi=1.0, mu=0.0, lsmooth=2.0, kappa=0.0)
    with pytest.raises(ParameterError):
        inner_solve(prob.oracle, prob.term, cfg, bad_rc, prob.x0)

    nn = get_problem("linear-nonneg-1d")
    cfg1 = ProxConfig(p=3, h=2.0, beta=1.0 / 3.0)
    rc1 = relative_constants(3, 2.0, 1.0)
    with pytest.raises(ParameterError):
        inner_solve(nn.oracle, nn.term, cfg1, rc1, np.array([-1.0]))


def test_inner_solve_iteration_cap():
    # beta = 0 demands an exact prox; one Bregman step cannot deliver it
    prob, _, rc = _setup("quartic-sep-10d", 3)
    cfg = ProxConfig(p=3, h=bilevel_h(3, prob.m_next(3)), beta=0.0)
    with pytest.raises(NumericalError):
        inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, max_iter=1)


def test_trace_csv_deterministic():
    prob, cfg, rc = _setup("neglog-sep", 4)
    res1 = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0)
    res2 = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0)
    csv = res1.trace.to_csv()
    assert csv == res2.trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "i,phi,bregman_step,lhs,rhs,ratio"
    assert len(lines) == len(res1.trace.rows) + 1
    # row 0 carries the starting value and NaN step diagnostics
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[2] == "nan"
    ratio = res1.trace.column("ratio")
    assert ratio[-1] <= cfg.beta + 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_cd_quadratic_reaches_model_optimality(seed):
    # the model solver for <g, z - w> + (z - w)'hm(z - w)/2 + psi(z)
    # (coordinate descent, the eigenbasis solve for the ball, one linear
    # solve for psi = 0) ends at a point where -(g + hm (z - w)) lies in
    # dpsi(z), for random PSD models
    prob, cfg, rc = _setup("quartic-sep-10d", 3)
    n = prob.dimension
    rng = np.random.default_rng(seed)
    terms = (
        make_term("box", lo=-rng.uniform(0.1, 1.0, n), hi=rng.uniform(0.1, 1.0, n)),
        make_term("l1", lam=float(rng.uniform(0.1, 2.0))),
        make_term("ball", center=np.full(n, 0.1), radius=0.5),
        make_term("zero"),
    )
    for term in terms:
        solver, _, _, _ = _solver(prob, cfg, rc, term=term)
        for _ in range(3):
            b = rng.standard_normal((n, n))
            hm = b @ b.T / n + 0.05 * np.eye(n)
            w = term.project(rng.uniform(-1.0, 1.0, n))
            g = 2.0 * rng.standard_normal(n)
            z = solver._model_min(w, g, hm)
            # coordinate descent clips exactly; |z - c| on the ball is rounded
            assert term.contains(z, tol=0.0 if term.is_separable else 1e-14 * term.radius)
            assert term.subgradient_distance(z, -(g + hm @ (z - w))) <= 1e-10


@pytest.mark.parametrize("p", [4, 5])
def test_biopt_run_ball_quadratic_high_order(p):
    # every ball step at q = 2 goes through prox-Newton's exact ball solve
    trace = biopt_run(get_problem("ball-quadratic"), p, eps=1e-6)
    assert trace.status == "converged"
    assert trace.rows[-1].gap <= 1e-6
