"""Oracles and their derivative stacks against direct sums and finite differences."""

import math

import numpy as np
import pytest

from hiprox import (
    AnchorStack,
    DimensionError,
    DomainError,
    ParameterError,
    QuadraticObjective,
    SeparableObjective,
    make_family,
)
from references import directional, fd_check, matrix


def _sep_instance(seed=0, rows=4, n=3, family="quartic"):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, n))
    b = rng.uniform(-0.5, 0.5, rows)
    return SeparableObjective(a, b, make_family(family))


def _direct_tensor(oracle, x, hs):
    """D^k f(x)[h_1, ..., h_k] summed row by row from scalar derivatives."""
    t = oracle.a @ x - oracle.b
    k = len(hs)
    out = 0.0
    derivs = oracle.family.derivative(t, k)
    for i in range(oracle.a.shape[0]):
        prod = float(derivs[i])
        for h in hs:
            prod *= float(np.dot(oracle.a[i], h))
        out += prod
    return out


def test_separable_value_gradient_hessian():
    oracle = _sep_instance()
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(3)
        t = oracle.a @ x - oracle.b
        np.testing.assert_allclose(oracle.value(x), np.sum(t ** 4), rtol=1e-12)
        np.testing.assert_allclose(
            oracle.gradient(x), oracle.a.T @ (4 * t ** 3), rtol=1e-12
        )
        hm = oracle.hessian_matrix(x)
        np.testing.assert_allclose(hm, (oracle.a * (12 * t ** 2)[:, None]).T @ oracle.a)
        u = rng.standard_normal(3)
        stack = AnchorStack(oracle, x, (2,))
        np.testing.assert_array_equal(stack.hessian, hm)
        np.testing.assert_allclose(stack.apply(None, 2, u), hm @ u, rtol=1e-12)
        np.testing.assert_allclose(stack.form(None, 2, u), u @ hm @ u, rtol=1e-12)


def test_directional_and_tensor_apply_agree():
    # every order, odd ones included, against the row-by-row tensor sum
    oracle = _sep_instance(seed=2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(3)
        h = rng.standard_normal(3)
        u = rng.standard_normal(3)
        np.testing.assert_allclose(
            float(np.dot(oracle.gradient(x), h)),
            _direct_tensor(oracle, x, [h]),
            rtol=1e-11,
        )
        stack = AnchorStack(oracle, x, range(2, 6))
        for k in range(2, 6):
            direct = _direct_tensor(oracle, x, [h] * k)
            np.testing.assert_allclose(directional(stack, h, k), direct, rtol=1e-11)
            # apply(h, k, h) is the covector D^k f[h]^{k-1}
            np.testing.assert_allclose(
                float(np.dot(stack.apply(h, k, h), h)), direct, rtol=1e-11
            )
            np.testing.assert_allclose(
                stack.form(h, k, u),
                _direct_tensor(oracle, x, [h] * (k - 2) + [u, u]),
                rtol=1e-11,
                atol=1e-13,
            )
            mat = matrix(stack, h, k)
            np.testing.assert_allclose(mat, mat.T)
            np.testing.assert_allclose(stack.apply(h, k, u), mat @ u, rtol=1e-12)


def test_even_tensor_contractions():
    oracle = _sep_instance(seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(3)
    h = rng.standard_normal(3)
    u = rng.standard_normal(3)
    stack = AnchorStack(oracle, x, (2, 4))
    for two_k in (2, 4):
        mat = matrix(stack, h, two_k)
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_allclose(stack.apply(h, two_k, u), mat @ u, rtol=1e-12)
        np.testing.assert_allclose(
            stack.form(h, two_k, u),
            _direct_tensor(oracle, x, [h] * (two_k - 2) + [u, u]),
            rtol=1e-11,
        )
    for bad in (1, 0, -2):
        with pytest.raises(ParameterError):
            AnchorStack(oracle, x, (bad,))


def test_fd_checks_all_orders():
    rng = np.random.default_rng(6)
    for family in ("quartic", "logistic"):
        oracle = _sep_instance(seed=7, family=family)
        for _ in range(5):
            x = rng.standard_normal(3)
            h = rng.standard_normal(3)
            assert fd_check(oracle, x, h, 1) <= 1e-6
            assert fd_check(oracle, x, h, 2) <= 1e-5


def test_neglog_domain_error_reports_row():
    oracle = SeparableObjective(
        np.eye(2), np.array([0.0, 0.0]), make_family("neg-log")
    )
    with pytest.raises(DomainError) as excinfo:
        oracle.value(np.array([1.0, -1.0]))
    assert excinfo.value.index == 1
    try:
        oracle.gradient(np.array([1.0, -1.0]))
    except DomainError as exc:
        assert "row 1" in str(exc)
        assert exc.index == 1
    else:
        pytest.fail("expected a DomainError")


def test_neglog_even_orders_recorded_as_second_order_calls():
    # the f'' identity means even tensor orders > 2 cost only order-2 evals
    oracle = SeparableObjective(
        np.eye(2), -np.ones(2), make_family("neg-log")
    )
    x = np.array([0.3, -0.2])
    h = np.array([1.0, 2.0])
    oracle.reset_counters()
    stack = AnchorStack(oracle, x, (4, 6))
    matrix(stack, h, 4)
    stack.apply(h, 6, h)
    assert oracle.calls_by_order == {2: 4}
    # odd orders still consume their own order
    oracle.reset_counters()
    directional(AnchorStack(oracle, x, (3,)), h, 3)
    assert oracle.calls_by_order == {3: 2}


def test_call_counters():
    oracle = _sep_instance(seed=8, rows=5)
    oracle.reset_counters()
    x = np.zeros(3)
    oracle.value(x)
    oracle.gradient(x)
    oracle.hessian_matrix(x)
    assert oracle.calls_by_order == {0: 5, 1: 5, 2: 5}
    oracle.reset_counters()
    assert oracle.calls_by_order == {}


def test_m_bound_defaults_to_inf():
    oracle = _sep_instance(seed=9)
    assert oracle.m_bound(4) == np.inf
    oracle.m_bounds[4] = 24.0
    assert oracle.m_bound(4) == 24.0


def test_dimension_errors():
    oracle = _sep_instance(seed=10)
    with pytest.raises(DimensionError):
        oracle.value(np.zeros(4))
    stack = AnchorStack(oracle, np.zeros(3), (3,))
    with pytest.raises(DimensionError):
        stack.apply(np.zeros(2), 3, np.zeros(3))
    with pytest.raises(DimensionError):
        directional(stack, np.zeros(2), 3)
    with pytest.raises(DimensionError):
        SeparableObjective(np.ones((2, 2)), np.ones(3), make_family("quartic"))
    with pytest.raises(DimensionError):
        SeparableObjective(np.ones(4), np.ones(2), make_family("quartic"))


def test_quadratic_objective():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4))
    q = a.T @ a + np.eye(4)
    c = rng.standard_normal(4)
    oracle = QuadraticObjective(q, c, const=1.5)
    x = rng.standard_normal(4)
    u = rng.standard_normal(4)
    np.testing.assert_allclose(oracle.value(x), 0.5 * x @ q @ x + c @ x + 1.5)
    np.testing.assert_allclose(oracle.gradient(x), q @ x + c)
    np.testing.assert_allclose(oracle.hessian_matrix(x), q)
    stack = AnchorStack(oracle, x, (2, 3, 4))
    np.testing.assert_allclose(directional(stack, u, 2), u @ q @ u)
    assert directional(stack, u, 3) == 0.0
    np.testing.assert_allclose(stack.apply(u, 2, u), q @ u)
    np.testing.assert_allclose(stack.form(u, 2, u), u @ q @ u)
    assert stack.form(u, 4, u) == 0.0
    np.testing.assert_array_equal(matrix(stack, u, 3), np.zeros((4, 4)))
    assert oracle.m_bound(2) == pytest.approx(np.linalg.eigvalsh(q).max())
    assert oracle.m_bound(3) == 0.0


def test_quadratic_objective_validation():
    with pytest.raises(ParameterError):
        QuadraticObjective(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ParameterError):
        QuadraticObjective(-np.eye(2), np.zeros(2))
    with pytest.raises(DimensionError):
        QuadraticObjective(np.eye(2), np.zeros(3))
    with pytest.raises(DimensionError):
        QuadraticObjective(np.ones((2, 3)), np.zeros(2))
