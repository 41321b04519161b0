"""The Euclidean norm and power-regularizer calculus against closed forms and FD."""

import numpy as np
import pytest

from hiprox import ParameterError, PowerProx
from hiprox.metric import norm


def test_euclidean_identity():
    assert norm(np.array([1.0, -2.0, 2.0])) == 3.0


def test_dual_norm_is_the_support_function():
    # the Euclidean norm is its own dual: sup <g, x> over norm(x) <= 1 is norm(g)
    rng = np.random.default_rng(2)
    g = rng.standard_normal(4)
    xstar = g / norm(g)
    best = float(np.dot(g, xstar))
    for _ in range(200):
        x = rng.standard_normal(4)
        x /= norm(x)
        assert np.dot(g, x) <= best + 1e-12
    np.testing.assert_allclose(best, norm(g), rtol=1e-12)


def test_norm_is_numpys_bit_for_bit():
    # the one spelling of |v| gives np.linalg.norm's digits for a vector
    rng = np.random.default_rng(7)
    for n in (1, 3, 10, 100):
        for scale in (1e-200, 1e-3, 1.0, 1e150):
            v = scale * rng.standard_normal(n)
            assert norm(v) == float(np.linalg.norm(v))


def test_power_prox_values():
    pp = PowerProx(3)
    h = np.array([3.0, 4.0])
    assert pp.value(h) == pytest.approx(5.0 ** 4 / 4.0)
    np.testing.assert_allclose(pp.gradient(h), 25.0 * h)
    assert pp.value(np.zeros(2)) == 0.0
    np.testing.assert_allclose(pp.gradient(np.zeros(2)), np.zeros(2))


def test_power_prox_requires_integer_p():
    with pytest.raises(ParameterError):
        PowerProx(0)
    with pytest.raises(ParameterError):
        PowerProx(2.5)


def _fd_gradient(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * eps)
    return g


def test_power_prox_gradient_fd():
    rng = np.random.default_rng(3)
    for p in (1, 2, 3, 4):
        pp = PowerProx(p)
        for _ in range(10):
            h = rng.standard_normal(3)
            np.testing.assert_allclose(
                pp.gradient(h), _fd_gradient(pp.value, h), rtol=2e-5, atol=1e-7
            )


def test_power_prox_hessian_consistency():
    rng = np.random.default_rng(4)
    for p in (2, 3, 4):
        pp = PowerProx(p)
        for _ in range(10):
            h = rng.standard_normal(3)
            u = rng.standard_normal(3)
            hm = pp.hessian_matrix(h)
            np.testing.assert_allclose(hm, hm.T, rtol=1e-12)
            fd = (pp.gradient(h + 1e-6 * u) - pp.gradient(h - 1e-6 * u)) / 2e-6
            np.testing.assert_allclose(hm @ u, fd, rtol=5e-5, atol=1e-6)


def test_power_prox_hessian_lower_bound():
    # <D^2 d(h) u, u> >= |h|^{p-1} <u, u>
    rng = np.random.default_rng(5)
    pp = PowerProx(4)
    for _ in range(100):
        h = rng.standard_normal(3)
        u = rng.standard_normal(3)
        r = np.linalg.norm(h)
        assert u @ pp.hessian_matrix(h) @ u >= r ** 3 * np.dot(u, u) - 1e-12


def test_uniform_convexity_modulus():
    # d(y) >= d(x) + <grad d(x), y-x> + sigma |y-x|^{p+1} with
    # sigma = (1/(p+1)) (1/2)^{p-1}
    rng = np.random.default_rng(6)
    for p in (1, 2, 3, 4, 5):
        pp = PowerProx(p)
        sigma = pp.uniform_convexity_modulus()
        assert sigma == pytest.approx((1.0 / (p + 1)) * 0.5 ** (p - 1))
        for _ in range(500):
            x = 3.0 * rng.standard_normal(2)
            y = 3.0 * rng.standard_normal(2)
            excess = (
                pp.value(y)
                - pp.value(x)
                - np.dot(pp.gradient(x), y - x)
                - sigma * np.linalg.norm(y - x) ** (p + 1)
            )
            assert excess >= -1e-10


def test_uniform_convexity_modulus_tight_on_the_ray():
    # equality direction y = -x attains the modulus for p = 1
    pp = PowerProx(1)
    x = np.array([1.0])
    y = -x
    lhs = pp.value(y) - pp.value(x) - float(np.dot(pp.gradient(x), y - x))
    assert lhs == pytest.approx(
        pp.uniform_convexity_modulus() * np.linalg.norm(y - x) ** 2
    )


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_power_prox_hessian_is_the_textbook_formula_bit_for_bit(p):
    # the Hessian builds its rank-one part in place; the digits are those of
    # r^(p-1) I + (p-1) r^(p-3) h h^T, and at r = 0 of I (p = 1) or 0
    rng = np.random.default_rng(10 * p + 8)
    n = 4
    pp = PowerProx(p)
    for h in (np.zeros(n), rng.standard_normal(n), 1e-3 * rng.standard_normal(n)):
        r = float(np.sqrt(float(np.dot(h, h))))
        if r == 0.0:
            textbook = np.eye(n) if p == 1 else np.zeros((n, n))
        else:
            textbook = r ** (p - 1) * np.eye(n) + (p - 1) * r ** (p - 3) * np.outer(h, h)
        assert np.array_equal(pp.hessian_matrix(h), textbook)
