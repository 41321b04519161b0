"""Scaling functions, Bregman calculus, relative constants, norm domination."""

import math

import numpy as np
import pytest

from hiprox import (
    AnchorStack,
    ParameterError,
    RegularizedObjective,
    RelativeConstants,
    ScalingFunction,
    TaylorModel,
    bilevel_h,
    get_problem,
    hat_l_sampled,
    list_problems,
    relative_constants,
    relative_sandwich_check,
    theta_bound,
    theta_constants,
)
from hiprox.bregman import AnchoredModel
from references import directional, in_metric, matrix


def test_scaling_function_p3_closed_form():
    # q = 1: rho(x) = <D^2 f(y)(x-y), x-y>/2 + H |x-y|^4/4
    prob = get_problem("quartic-sep-10d")
    anchor = np.asarray(prob.x0, dtype=float)
    sf = ScalingFunction(prob.oracle, anchor, 3, 5.0)
    rng = np.random.default_rng(0)
    hm = prob.oracle.hessian_matrix(anchor)
    for _ in range(10):
        x = anchor + rng.standard_normal(10)
        d = x - anchor
        np.testing.assert_allclose(
            sf.value(x),
            0.5 * d @ hm @ d + 5.0 * np.linalg.norm(d) ** 4 / 4.0,
            rtol=1e-11,
        )
        np.testing.assert_allclose(
            sf.gradient(x),
            hm @ d + 5.0 * np.linalg.norm(d) ** 2 * d,
            rtol=1e-11,
        )


def test_scaling_function_gradient_fd():
    prob = get_problem("neglog-sep")
    anchor = np.asarray(prob.x0, dtype=float)
    rng = np.random.default_rng(1)
    for p in (3, 4, 5):
        sf = ScalingFunction(prob.oracle, anchor, p, 2.5)
        for _ in range(5):
            x = anchor + 0.1 * rng.standard_normal(5)
            u = rng.standard_normal(5)
            fv = lambda z: sf.value(z)
            fd = (fv(x + 1e-6 * u) - fv(x - 1e-6 * u)) / 2e-6
            np.testing.assert_allclose(np.dot(sf.gradient(x), u), fd, rtol=5e-6, atol=1e-9)
            fdh = (np.dot(sf.gradient(x + 1e-6 * u), u) - np.dot(sf.gradient(x - 1e-6 * u), u)) / 2e-6
            np.testing.assert_allclose(u @ sf.hessian_matrix(x) @ u, fdh, rtol=5e-5, atol=1e-7)


def test_scaling_function_poly_part_even_orders_only():
    # at p in {4, 5} the polynomial part adds the fourth-order term
    prob = get_problem("neglog-sep")
    anchor = np.asarray(prob.x0, dtype=float)
    # at H = 0, rho is the polynomial part alone
    sf4 = ScalingFunction(prob.oracle, anchor, 4, 0.0)
    x = anchor + 0.05
    d = x - anchor
    oracle = prob.oracle
    t = oracle.a @ anchor - oracle.b
    d2 = d @ oracle.hessian_matrix(anchor) @ d / 2.0
    d4 = sum(oracle.family.derivative(t, 4) * (oracle.a @ d) ** 4) / 24.0
    np.testing.assert_allclose(sf4.evaluate(x)[0], d2 + d4, rtol=1e-11)
    sf3 = ScalingFunction(prob.oracle, anchor, 3, 0.0)
    np.testing.assert_allclose(sf3.evaluate(x)[0], d2, rtol=1e-11)


def test_scaling_function_validation():
    prob = get_problem("quartic-1d")
    with pytest.raises(ParameterError):
        ScalingFunction(prob.oracle, prob.x0, 1, 1.0)
    with pytest.raises(ParameterError):
        ScalingFunction(prob.oracle, prob.x0, 3, -1.0)
    ScalingFunction(prob.oracle, prob.x0, 3, 0.0)  # h = 0 is legal


def test_relative_constants_frozen():
    assert bilevel_h(3, 24.0) == pytest.approx(72.0)
    assert bilevel_h(4, 10.0) == pytest.approx(10.0)
    rc = relative_constants(3, 72.0, 24.0)
    assert rc.xi == pytest.approx(2.0, rel=1e-12)
    assert rc.mu == pytest.approx(0.5, rel=1e-12)
    assert rc.lsmooth == pytest.approx(1.5, rel=1e-12)
    assert rc.kappa == pytest.approx(1.0 / 3.0, rel=1e-12)
    # at H = 6 M/2! they hold at any M, here each catalog problem's M_4
    for name, _desc in list_problems():
        m3 = get_problem(name).m_next(3)
        m3 = m3 if 0.0 < m3 < np.inf else 1.0  # a degenerate sup; any bound is valid
        rc = relative_constants(3, bilevel_h(3, m3), m3)
        np.testing.assert_allclose((rc.xi, rc.mu, rc.lsmooth), (2.0, 0.5, 1.5), rtol=1e-12)
    # xi solves xi (1 + xi) = (p-1)! H / M for any admissible input
    rc2 = relative_constants(4, 11.0, 3.0)
    assert rc2.xi * (1.0 + rc2.xi) == pytest.approx(math.factorial(3) * 11.0 / 3.0)
    with pytest.raises(ParameterError):
        relative_constants(3, 72.0, 0.0)
    with pytest.raises(ParameterError):
        relative_constants(3, 0.0, 24.0)
    with pytest.raises(ParameterError):
        bilevel_h(3, 0.0)
    with pytest.raises(ParameterError):
        bilevel_h(3, np.inf)
    for m_next in (np.inf, np.nan):
        with pytest.raises(ParameterError, match="finite positive"):
            relative_constants(3, 1.0, m_next)


def test_relative_sandwich_detects_violations():
    # inflating mu past L makes the checker report a positive violation
    prob = get_problem("quartic-sep-10d")
    m = prob.m_next(3)
    h = bilevel_h(3, m)
    anchor = np.asarray(prob.x0, dtype=float)
    sf = ScalingFunction(prob.oracle, anchor, 3, h)
    reg = RegularizedObjective(prob.oracle, anchor, 3, h)
    bad = RelativeConstants(xi=2.0, mu=1.6, lsmooth=1.5, kappa=1.0)
    rng = np.random.default_rng(5)
    pairs = list(zip(prob.sample(rng, 50), prob.sample(rng, 50)))
    assert relative_sandwich_check(sf, reg, bad, pairs) > 0.0


def test_relative_sandwich_makes_two_regularized_passes_per_pair(monkeypatch):
    # f_reg(x), then f_reg(y) and grad f_reg(y) from one pass: 2 per pair, not 3
    prob = get_problem("quartic-sep-10d")
    m = prob.m_next(3)
    h = bilevel_h(3, m)
    anchor = np.asarray(prob.x0, dtype=float)
    sf = ScalingFunction(prob.oracle, anchor, 3, h)
    reg = RegularizedObjective(prob.oracle, anchor, 3, h)
    passes = []
    with_part = AnchoredModel.with_part

    def counted(self, x, hessian=False):
        if type(self) is RegularizedObjective:
            passes.append(1)
        return with_part(self, x, hessian)

    monkeypatch.setattr(AnchoredModel, "with_part", counted)
    rng = np.random.default_rng(6)
    pairs = list(zip(prob.sample(rng, 10), prob.sample(rng, 10)))
    relative_sandwich_check(sf, reg, relative_constants(3, h, m), pairs)
    assert len(passes) == 20


def test_regularized_objective():
    prob = get_problem("quartic-sep-10d")
    anchor = np.asarray(prob.x0, dtype=float)
    reg = RegularizedObjective(prob.oracle, anchor, 3, 4.0)
    rng = np.random.default_rng(6)
    x = anchor + rng.standard_normal(10)
    d = x - anchor
    np.testing.assert_allclose(
        reg.value(x), prob.oracle.value(x) + np.linalg.norm(d) ** 4, rtol=1e-12
    )
    np.testing.assert_allclose(
        reg.gradient(x),
        prob.oracle.gradient(x) + 4.0 * np.linalg.norm(d) ** 2 * d,
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        reg.hessian_matrix(x),
        prob.oracle.hessian_matrix(x) + 4.0 * (d @ d * np.eye(10) + 2.0 * np.outer(d, d)),
        rtol=1e-12,
    )


def test_theta_constants_frozen_p3():
    c = theta_constants(3, 1.0)
    assert c["a"] == pytest.approx(1.0)
    assert c["b"] == pytest.approx(4.0)
    assert c["c"] == pytest.approx(1.0)
    assert c["d"] == pytest.approx(0.5)
    assert c["alpha"] == pytest.approx(3.5)
    assert c["beta"] == pytest.approx(6.0)
    assert c["exponent"] == 4
    with pytest.raises(ParameterError):
        theta_constants(3, 0.0)


def test_theta_constants_even_p():
    c = theta_constants(4, 2.0)
    assert c["a"] == pytest.approx(8.0)
    assert c["c"] == pytest.approx(16.0)
    assert c["exponent"] == 5
    assert c["alpha"] > 1.0 and c["beta"] > 1.0


def test_theta_dominates_bregman_on_ball():
    prob = get_problem("neglog-sep")
    m = prob.m_next(4)
    h = bilevel_h(4, m)
    anchor = np.asarray(prob.x0, dtype=float)
    sf = ScalingFunction(prob.oracle, anchor, 4, h)
    rng = np.random.default_rng(7)
    radius = 0.4
    hat_l = hat_l_sampled(sf, radius, rng)
    theta, _ = theta_bound(4, radius, hat_l, h=h)
    # the domination beta_rho(x, y) <= theta(|x - y|) itself is the theta
    # suite's row; here theta is nondecreasing in the step length
    taus = np.linspace(0.0, 2.0 * radius, 100)
    vals = np.array([theta(t) for t in taus])
    assert np.all(np.diff(vals) >= 0.0)


def test_hat_l_sampled_bounds_local_hessian():
    prob = get_problem("quartic-sep-10d")
    anchor = np.asarray(prob.x0, dtype=float)
    sf = ScalingFunction(prob.oracle, anchor, 3, 1.0)
    rng = np.random.default_rng(8)
    hat_l = hat_l_sampled(sf, 0.5, rng)
    anchor_eig = float(np.abs(np.linalg.eigvalsh(sf.with_part(anchor, hessian=True)[1][2])).max())
    assert hat_l >= anchor_eig


def _direct_scaling(oracle, anchor, sf, x):
    """rho, grad rho and its Hessian from a fresh stack per contraction.

    Each contraction projects d on its own, and the power term is written
    out: d(h) = r^(p+1)/(p+1), grad r^(p-1) h and
    Hessian r^(p-1) I + (p-1) r^(p-3) h h' with r = <h, h>^(1/2).
    """
    d = x - anchor
    q, p, h = sf.q, sf.p, sf.h

    def fresh(k):
        return AnchorStack(oracle, anchor, (k,))

    value = sum(directional(fresh(2 * k), d, 2 * k) / math.factorial(2 * k)
                for k in range(1, q + 1))
    grad = np.zeros_like(d)
    for k in range(1, q + 1):
        grad = grad + fresh(2 * k).apply(d, 2 * k, d) / math.factorial(2 * k - 1)
    hess = fresh(2).hessian
    for k in range(2, q + 1):
        hess = hess + matrix(fresh(2 * k), d, 2 * k) / math.factorial(2 * k - 2)
    r = float(np.sqrt(float(np.dot(d, d))))
    n = len(d)
    if r == 0.0:
        p_grad, p_hess = np.zeros(n), np.zeros((n, n))
    else:
        p_grad = r ** (p - 1) * d
        p_hess = r ** (p - 1) * np.eye(n) + (p - 1) * r ** (p - 3) * np.outer(d, d)
    return (value + h * (r ** (p + 1) / (p + 1)), grad + h * p_grad, hess + h * p_hess)


@pytest.mark.parametrize("p", (3, 4, 5))
@pytest.mark.parametrize("name", ("neglog-sep", "logistic-sep-3d", "quartic-sep-10d"))
def test_anchor_stack_equals_direct_oracle_calls_exactly(name, p):
    # the stack evaluated once at the anchor gives bit-for-bit the numbers of
    # evaluating the anchor's derivatives on every call
    prob = get_problem(name)
    rng = np.random.default_rng(10 * p + len(name))
    n = prob.dimension
    for anchor in prob.sample(rng, 2):
        sf = ScalingFunction(prob.oracle, anchor, p, 2.5)
        for _ in range(3):
            x = anchor + 0.1 * rng.standard_normal(n)
            value, grad, hess = _direct_scaling(prob.oracle, anchor, sf, x)
            assert sf.value(x) == value
            assert np.array_equal(sf.gradient(x), grad)
            assert np.array_equal(sf.hessian_matrix(x), hess)
        # D^2 f(y) is formed once and shared, read-only, by every Hessian call
        assert sf.stack.hessian is sf.stack.hessian
        assert not sf.stack.hessian.flags.writeable


@pytest.mark.parametrize("p", (3, 4, 5))
@pytest.mark.parametrize("name", ("neglog-sep", "logistic-sep-3d", "quartic-sep-10d"))
def test_anchor_stack_evaluates_each_order_once_per_row(name, p):
    prob = get_problem(name)
    oracle = prob.oracle
    rows = oracle.a.shape[0]
    anchor = np.asarray(prob.x0, dtype=float)
    rng = np.random.default_rng(p)
    oracle.reset_counters()
    sf = ScalingFunction(oracle, anchor, p, 2.5)
    for _ in range(100):
        x = anchor + 0.1 * rng.standard_normal(prob.dimension)
        sf.value(x)
        sf.gradient(x)
        sf.hessian_matrix(x)
    q = p // 2
    if oracle.family.even_from_second:
        # neg-log evaluates every even order from f'': one order-2 call per row and order
        assert oracle.calls_by_order == {2: q * rows}
    else:
        assert oracle.calls_by_order == {2 * k: rows for k in range(1, q + 1)}


@pytest.mark.parametrize("metric_kind", ("identity", "diagonal", "dense"))
@pytest.mark.parametrize("p", (3, 4, 5))
@pytest.mark.parametrize("name", ("neglog-sep", "logistic-sep-3d", "quartic-sep-10d",
                                  "ball-quadratic"))
def test_one_pass_equals_separate_contractions_exactly(name, p, metric_kind):
    # one projection of d for every order and one |d| give bit for bit the
    # numbers of contracting each order and each power term on its own, for
    # separable and quadratic oracles, also read in the coordinates of a
    # diagonal or dense metric, and at d = 0
    prob = get_problem(name)
    rng = np.random.default_rng(100 * p + len(name))
    n = prob.dimension
    oracle = in_metric(prob.oracle, metric_kind, rng)
    anchor = prob.sample(rng, 1)[0]
    sf = ScalingFunction(oracle, anchor, p, 2.5)
    for x in [anchor.copy()] + [anchor + 0.1 * rng.standard_normal(n) for _ in range(3)]:
        value, grad, hess = _direct_scaling(oracle, anchor, sf, x)
        one_pass = sf.evaluate(x, hessian=True)
        assert one_pass[0] == value
        assert np.array_equal(one_pass[1], grad)
        assert np.array_equal(one_pass[2], hess)
        no_hessian = sf.evaluate(x)
        assert no_hessian[0] == value and np.array_equal(no_hessian[1], grad)
        assert no_hessian[2] is None
        assert sf.value(x) == value
        assert np.array_equal(sf.gradient(x), grad)
        assert np.array_equal(sf.hessian_matrix(x), hess)
    assert sf.evaluate(anchor)[0] == 0.0
    assert not np.any(sf.evaluate(anchor)[1])


def _anchored_models(name):
    """rho, f_reg and the augmented Taylor model at one seeded anchor, each p they take."""
    prob = get_problem(name)
    anchor = prob.sample(np.random.default_rng(len(name)), 1)[0]
    models = [TaylorModel(prob.oracle, anchor, 1, 2.0)]
    for p in (2, 3, 4):
        models += [ScalingFunction(prob.oracle, anchor, p, 2.5),
                   RegularizedObjective(prob.oracle, anchor, p, 2.5),
                   TaylorModel(prob.oracle, anchor, p, 2.0)]
    return prob, anchor, models


@pytest.mark.parametrize("name", ("logistic-sep-3d", "ball-quadratic"))
def test_anchored_model_reads_are_items_of_its_pass(name):
    # value, gradient and hessian_matrix are the items of one pass, bit for
    # bit, and a pass without the Hessian has the same other items
    prob, anchor, models = _anchored_models(name)
    rng = np.random.default_rng(1)
    for model in models:
        for x in (anchor, anchor + 0.1 * rng.standard_normal(prob.dimension)):
            full = model.evaluate(x, hessian=True)
            assert model.value(x) == full[0]
            assert np.array_equal(model.gradient(x), full[1])
            assert np.array_equal(model.hessian_matrix(x), full[2])
            light = model.evaluate(x)
            assert light[2] is None
            assert light[0] == full[0] and light[3] == full[3] and light[4] == full[4]
            assert np.array_equal(light[1], full[1]) and np.array_equal(light[5], full[5])
            # the part it summed is what the pass adds h d(x - anchor) to
            total, part = model.with_part(x)
            assert total[0] == part[0] + model.h * total[4]
            assert np.array_equal(total[1], part[1] + model.h * total[5])


@pytest.mark.parametrize("name", ("logistic-sep-3d", "ball-quadratic"))
def test_anchored_model_pass_returns_new_arrays(name):
    # a caller may overwrite every array of a pass (prox-Newton shifts the
    # Hessian in place): the next pass at the same point is unchanged
    prob, anchor, models = _anchored_models(name)
    x = anchor + 0.1 * np.random.default_rng(2).standard_normal(prob.dimension)
    for model in models:
        first = model.evaluate(x, hessian=True)
        kept = [a.tobytes() for a in (first[1], first[2], first[5])]
        for a in (first[1], first[2], first[5]):
            a.fill(np.nan)
        second = model.evaluate(x, hessian=True)
        assert [a.tobytes() for a in (second[1], second[2], second[5])] == kept
