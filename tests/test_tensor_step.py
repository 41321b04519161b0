"""Taylor models, tensor steps, and the criterion-to-acceptance parameter map."""

import math

import numpy as np
import pytest

from hiprox import (
    ParameterError,
    SeparableObjective,
    TaylorModel,
    candidates,
    convexity_threshold,
    get_problem,
    inner,
    lemma2_bound_check,
    make_family,
    make_term,
    tensor_acceptance_map,
    tensor_criterion,
    tensor_step,
)


def _quartic_abs():
    prob = get_problem("quartic-abs-1d")
    return prob.oracle, prob.term


def test_taylor_model_reproduces_polynomials_exactly():
    # degree-3 model of x^4 has a known closed form; check against sympy-free
    # direct expansion around x
    oracle, _ = _quartic_abs()
    tm = TaylorModel(oracle, np.array([0.8]), 3, 0.0)
    for y in (-1.0, 0.0, 0.5, 1.3):
        h = y - 0.8
        expected = 0.8 ** 4 + 4 * 0.8 ** 3 * h + 6 * 0.8 ** 2 * h ** 2 + 4 * 0.8 * h ** 3
        model = tm.evaluate(np.array([y])).part
        np.testing.assert_allclose(model[0], expected, rtol=1e-12)
        grad = 4 * 0.8 ** 3 + 12 * 0.8 ** 2 * h + 12 * 0.8 * h ** 2
        np.testing.assert_allclose(model[1][0], grad, rtol=1e-12)


def test_taylor_remainder_order():
    # f(y) - model(y) = (y - x)^4 exactly for the cubic model of x^4
    oracle, _ = _quartic_abs()
    tm = TaylorModel(oracle, np.array([0.8]), 3, 0.0)
    rng = np.random.default_rng(0)
    for y in rng.uniform(-1.5, 1.5, 20):
        yv = np.array([y])
        np.testing.assert_allclose(
            oracle.value(yv) - tm.evaluate(yv).part[0], (y - 0.8) ** 4, atol=1e-12
        )


def test_augmented_value_and_gradient():
    oracle, _ = _quartic_abs()
    m = 45.6
    tm = TaylorModel(oracle, np.array([0.8]), 3, m)
    assert tm.h == pytest.approx(m / 6.0)
    y = np.array([1.2])
    d = 0.4
    augmented = tm.evaluate(y)
    model = augmented.part
    np.testing.assert_allclose(augmented.value, model[0] + m / 24.0 * d ** 4, rtol=1e-12)
    np.testing.assert_allclose(augmented.grad[0], model[1][0] + m / 6.0 * d ** 3, rtol=1e-12)
    fd = (tm.value(np.array([1.2 + 1e-6])) - tm.value(np.array([1.2 - 1e-6]))) / 2e-6
    np.testing.assert_allclose(tm.gradient(y)[0], fd, rtol=1e-8)


@pytest.mark.parametrize("p", (1, 3, 4, 5))
def test_taylor_model_evaluates_each_order_once(p):
    # f, grad f and the stack of orders 2..p are evaluated at x once, however
    # often the model is evaluated; its gradient is the derivative of its value
    rng = np.random.default_rng(p)
    rows = 4
    oracle = SeparableObjective(rng.standard_normal((rows, 3)), rng.standard_normal(rows),
                                make_family("logistic"))
    x = rng.standard_normal(3)
    oracle.reset_counters()
    tm = TaylorModel(oracle, x, p, 2.0)
    for _ in range(10):
        y = x + 0.3 * rng.standard_normal(3)
        u = rng.standard_normal(3)
        fd = (tm.value(y + 1e-6 * u) - tm.value(y - 1e-6 * u)) / 2e-6
        np.testing.assert_allclose(np.dot(tm.gradient(y), u), fd, rtol=1e-6, atol=1e-8)
        tm.evaluate(y, hessian=True)
        tm.evaluate(y)
    assert oracle.calls_by_order == {k: rows for k in range(p + 1)}


def test_taylor_model_validation():
    oracle, term = _quartic_abs()
    with pytest.raises(ParameterError):
        TaylorModel(oracle, np.array([0.0]), 0, 1.0)
    with pytest.raises(ParameterError):
        TaylorModel(oracle, np.array([0.0]), 3, -1.0)
    with pytest.raises(ParameterError, match="gamma must be >= 0"):
        tensor_step(TaylorModel(oracle, np.array([0.0]), 3, 1.0), term, -0.1)


def test_convexity_threshold():
    assert convexity_threshold(3, 24.0) == 72.0
    # at the threshold the augmented model's second derivative is nonnegative
    oracle, _ = _quartic_abs()
    tm = TaylorModel(oracle, np.array([0.8]), 3, 72.0)
    ts = np.linspace(-2.0, 2.0, 2001)
    grads = np.array([float(tm.gradient(np.array([t]))[0]) for t in ts])
    assert np.all(np.diff(grads) >= -1e-9)


def test_linear_objective_step_closed_form():
    # f(t) = t: the augmented model minimizer is x - (p! / M)^{1/p}
    oracle = SeparableObjective(np.array([[1.0]]), np.array([0.0]), make_family("linear"))
    term = make_term("zero")
    for p, m, x in ((3, 6.0, 2.0), (3, 48.0, 0.5), (2, 4.0, 1.0)):
        tm = TaylorModel(oracle, np.array([x]), p, m)
        t, g, ok, lhs, rhs = tensor_step(tm, term, 0.25)
        expected = x - (math.factorial(p) / m) ** (1.0 / p)
        np.testing.assert_allclose(t, [expected], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(g, [0.0], atol=1e-14)
        assert ok
        assert lhs <= 1e-10  # exact minimizer: zero augmented residual


def test_tensor_criterion_return_order_and_slack():
    oracle, term = _quartic_abs()
    tm = TaylorModel(oracle, np.array([0.8]), 3, 45.6)
    [(point, g, at)] = candidates(tm, term, [[0.4]])
    ok, lhs, rhs = tensor_criterion(at, g, 8.0 / 19.0)
    assert isinstance(ok, (bool, np.bool_))
    np.testing.assert_allclose(
        lhs, abs(float(tm.gradient(point)[0] + g[0])), rtol=1e-12
    )
    np.testing.assert_allclose(
        rhs, abs(float(tm.evaluate(point).part[1][0] + g[0])), rtol=1e-12
    )
    assert ok == (lhs <= (8.0 / 19.0) / (1.0 + 8.0 / 19.0) * rhs + 1e-12)


def test_exact_step_always_passes_criterion():
    oracle, term = _quartic_abs()
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5)
        tm = TaylorModel(oracle, np.array([x]), 3, 45.6)
        t, g, ok, lhs, _ = tensor_step(tm, term, 0.0)
        assert ok
        assert lhs <= 1e-9


def test_acceptance_map_frozen_values():
    m, h = tensor_acceptance_map(3, 0.9, 8.0 / 19.0, 24.0)
    np.testing.assert_allclose(m, 456.0, rtol=1e-12)
    np.testing.assert_allclose(h, 76.0, rtol=1e-12)
    gamma = 8.0 / 19.0

    # the map inverts the acceptance-level formula exactly
    def level(m):
        return (24.0 + gamma * m) / ((1.0 - gamma) * m - 24.0)

    np.testing.assert_allclose(level(m), 0.9, rtol=1e-12)
    # the worked example's criterion region at M = 1.9 M4 has level beta = 18
    # and H = M/3! = 7.6; `verify tensor` checks that region's points
    np.testing.assert_allclose((level(1.9 * 24.0), 1.9 * 24.0 / 6.0), (18.0, 7.6), rtol=1e-12)


def test_acceptance_map_validation():
    with pytest.raises(ParameterError):
        tensor_acceptance_map(3, 1.0, 0.1, 24.0)
    with pytest.raises(ParameterError):
        tensor_acceptance_map(3, 0.5, 0.4, 24.0)  # gamma >= beta/(1+beta)
    with pytest.raises(ParameterError):
        tensor_acceptance_map(3, 0.9, -0.1, 24.0)
    for m_next in (0.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="finite positive"):
            tensor_acceptance_map(3, 0.9, 0.1, m_next)


def test_lemma2_bound_check():
    oracle, term = _quartic_abs()
    gamma = 8.0 / 19.0
    m, _ = tensor_acceptance_map(3, 0.9, gamma, 24.0)
    tm = TaylorModel(oracle, np.array([0.8]), 3, m)
    t, g, ok, _, _ = tensor_step(tm, term, gamma)
    assert ok
    lhs, bound, bound_ok = lemma2_bound_check(tm, t, g, tm.evaluate(t), gamma, 24.0)
    assert bound_ok
    assert lhs <= bound + 1e-10
    weak = TaylorModel(oracle, np.array([0.8]), 3, 10.0)
    with pytest.raises(ParameterError):
        lemma2_bound_check(weak, t, g, weak.evaluate(t), gamma, 24.0)


def test_lemma2_bound_check_reads_the_scans_pass(monkeypatch):
    # grad d comes from the candidate scan's Taylor model pass: one pass per
    # grid point, none more for the points that pass the criterion
    oracle, term = _quartic_abs()
    gamma = 8.0 / 19.0
    tm = TaylorModel(oracle, np.array([0.8]), 3, 1.9 * 24.0)
    passes = []
    evaluate = TaylorModel.evaluate
    monkeypatch.setattr(TaylorModel, "evaluate",
                        lambda model, *args: passes.append(1) or evaluate(model, *args))
    checked = 0
    for point, g, at in candidates(tm, term, np.linspace(-1.0, 1.5, 501)[:, None]):
        if tensor_criterion(at, g, gamma)[0]:
            assert lemma2_bound_check(tm, point, g, at, gamma, 24.0)[2]
            checked += 1
    assert checked > 0
    assert len(passes) == 501


def test_tensor_module_is_not_shadowed_by_the_function():
    # the module is hiprox.tensor; hiprox.tensor_step stays the function
    import hiprox
    import hiprox.tensor as tensor
    from hiprox.tensor import TaylorModel as imported

    assert imported is TaylorModel is tensor.TaylorModel
    assert hiprox.tensor_step is tensor.tensor_step and callable(hiprox.tensor_step)


@pytest.mark.parametrize("name,p", (("quartic-abs-1d", 3), ("logistic-sep-3d", 3),
                                    ("logistic-sep-3d", 4)))
def test_tensor_step_evaluates_each_point_once(name, p, monkeypatch):
    # every prox-Newton point of the step, its start included, costs one pass
    # of the model, and the criterion reads both models at T off one more
    prob = get_problem(name)
    passes, points = [], []
    evaluate, prox_newton = TaylorModel.evaluate, inner.prox_newton
    monkeypatch.setattr(TaylorModel, "evaluate",
                        lambda tm, y, hessian=False: passes.append(y) or evaluate(tm, y, hessian))

    def spy(fn, term, w, at_w, tol):
        points.append(w)
        return prox_newton(lambda v: points.append(v) or fn(v), term, w, at_w, tol)

    monkeypatch.setattr(inner, "prox_newton", spy)
    anchor = prob.sample(np.random.default_rng(p), 1)[0]
    tm = TaylorModel(prob.oracle, anchor, p, convexity_threshold(p, prob.m_next(p)) + 1.0)
    t, _, ok, _, _ = tensor_step(tm, prob.term, 0.25)
    assert ok and len(points) > 2
    assert len(passes) == len(points) + 1 and passes[-1] is t
    assert all(y is w for y, w in zip(passes, points))
    # and no point twice: the start is not evaluated again
    assert len({w.tobytes() for w in points}) == len(points)
