"""Norm pair and power-regularizer calculus against closed forms and FD."""

import numpy as np
import pytest

from hiprox import DimensionError, MetricSpace, ParameterError, PowerProx


def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a.T @ a + n * np.eye(n)


def test_euclidean_identity():
    m = MetricSpace.euclidean(3)
    assert m.is_identity
    x = np.array([1.0, -2.0, 2.0])
    np.testing.assert_allclose(m.apply(x), x)
    np.testing.assert_allclose(m.apply_inv(x), x)
    np.testing.assert_allclose(m.matrix(), np.eye(3))
    assert m.primal_norm(x) == pytest.approx(3.0)
    assert m.dual_norm(x) == pytest.approx(3.0)


def test_weighted_norms_match_direct_formula():
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 2.0, 4)
    m = MetricSpace(4, weights=w)
    for _ in range(20):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(m.primal_norm(x), np.sqrt(np.sum(w * x * x)))
        np.testing.assert_allclose(m.dual_norm(x), np.sqrt(np.sum(x * x / w)))
        np.testing.assert_allclose(m.apply_inv(m.apply(x)), x, atol=1e-14)


def test_dense_metric_round_trip():
    rng = np.random.default_rng(1)
    b = _random_spd(rng, 5)
    m = MetricSpace(5, matrix=b)
    assert not m.is_identity
    np.testing.assert_allclose(m.matrix(), b)
    for _ in range(20):
        x = rng.standard_normal(5)
        np.testing.assert_allclose(m.apply(x), b @ x, rtol=1e-13)
        np.testing.assert_allclose(m.apply_inv(x), np.linalg.solve(b, x), rtol=1e-10)
        np.testing.assert_allclose(m.primal_norm(x), np.sqrt(x @ b @ x), rtol=1e-13)
        np.testing.assert_allclose(
            m.dual_norm(x), np.sqrt(x @ np.linalg.solve(b, x)), rtol=1e-10
        )


def test_dual_norm_is_the_support_function():
    # sup <g, x> over primal_norm(x) <= 1 equals dual_norm(g)
    rng = np.random.default_rng(2)
    b = _random_spd(rng, 4)
    m = MetricSpace(4, matrix=b)
    g = rng.standard_normal(4)
    xstar = m.apply_inv(g)
    xstar /= m.primal_norm(xstar)
    best = float(np.dot(g, xstar))
    for _ in range(200):
        x = rng.standard_normal(4)
        x /= m.primal_norm(x)
        assert np.dot(g, x) <= best + 1e-12
    np.testing.assert_allclose(best, m.dual_norm(g), rtol=1e-12)


def test_metric_validation_errors():
    with pytest.raises(ParameterError):
        MetricSpace(0)
    with pytest.raises(ParameterError):
        MetricSpace(2, weights=[1.0, 1.0], matrix=np.eye(2))
    with pytest.raises(ParameterError):
        MetricSpace(2, weights=[1.0, 0.0])
    with pytest.raises(DimensionError):
        MetricSpace(2, weights=[1.0, 1.0, 1.0])
    with pytest.raises(DimensionError):
        MetricSpace(2, matrix=np.eye(3))
    with pytest.raises(ParameterError):
        MetricSpace(2, matrix=np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(ParameterError):
        MetricSpace(2, matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(DimensionError):
        MetricSpace.euclidean(2).apply(np.ones(3))


def test_power_prox_values():
    pp = PowerProx(3, MetricSpace.euclidean(2))
    h = np.array([3.0, 4.0])
    assert pp.value(h) == pytest.approx(5.0 ** 4 / 4.0)
    np.testing.assert_allclose(pp.gradient(h), 25.0 * h)
    assert pp.value(np.zeros(2)) == 0.0
    np.testing.assert_allclose(pp.gradient(np.zeros(2)), np.zeros(2))


def test_power_prox_requires_integer_p():
    m = MetricSpace.euclidean(1)
    with pytest.raises(ParameterError):
        PowerProx(0, m)
    with pytest.raises(ParameterError):
        PowerProx(2.5, m)


def _fd_gradient(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * eps)
    return g


def test_power_prox_gradient_fd():
    rng = np.random.default_rng(3)
    b = _random_spd(rng, 3)
    for p in (1, 2, 3, 4):
        pp = PowerProx(p, MetricSpace(3, matrix=b))
        for _ in range(10):
            h = rng.standard_normal(3)
            np.testing.assert_allclose(
                pp.gradient(h), _fd_gradient(pp.value, h), rtol=2e-5, atol=1e-7
            )


def test_power_prox_hessian_consistency():
    rng = np.random.default_rng(4)
    b = _random_spd(rng, 3)
    for p in (2, 3, 4):
        pp = PowerProx(p, MetricSpace(3, matrix=b))
        for _ in range(10):
            h = rng.standard_normal(3)
            u = rng.standard_normal(3)
            hm = pp.hessian_matrix(h)
            np.testing.assert_allclose(hm, hm.T, rtol=1e-12)
            fd = (pp.gradient(h + 1e-6 * u) - pp.gradient(h - 1e-6 * u)) / 2e-6
            np.testing.assert_allclose(hm @ u, fd, rtol=5e-5, atol=1e-6)


def test_power_prox_hessian_lower_bound():
    # <D^2 d(h) u, u> >= |h|^{p-1} <Bu, u>
    rng = np.random.default_rng(5)
    pp = PowerProx(4, MetricSpace.euclidean(3))
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
        pp = PowerProx(p, MetricSpace.euclidean(2))
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
    pp = PowerProx(1, MetricSpace.euclidean(1))
    x = np.array([1.0])
    y = -x
    lhs = pp.value(y) - pp.value(x) - float(np.dot(pp.gradient(x), y - x))
    assert lhs == pytest.approx(
        pp.uniform_convexity_modulus() * np.linalg.norm(y - x) ** 2
    )


@pytest.mark.parametrize("kind", ["identity", "weighted", "dense"])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_power_prox_hessian_is_the_textbook_formula_bit_for_bit(p, kind):
    # the Hessian builds its rank-one part in place; the digits are those of
    # r^(p-1) B + (p-1) r^(p-3) (Bh)(Bh)^T, and at r = 0 of B (p = 1) or 0
    rng = np.random.default_rng(10 * p + len(kind))
    n = 4
    metric = {"identity": MetricSpace(n),
              "weighted": MetricSpace(n, weights=rng.uniform(0.5, 2.0, n)),
              "dense": MetricSpace(n, matrix=_random_spd(rng, n))}[kind]
    b = metric.matrix()
    pp = PowerProx(p, metric)
    for h in (np.zeros(n), rng.standard_normal(n), 1e-3 * rng.standard_normal(n)):
        bh = metric.apply(h)
        r = float(np.sqrt(max(0.0, float(np.dot(bh, h)))))
        if r == 0.0:
            textbook = b if p == 1 else np.zeros((n, n))
        else:
            textbook = r ** (p - 1) * b + (p - 1) * r ** (p - 3) * np.outer(bh, bh)
        assert np.array_equal(pp.hessian_matrix(h), textbook)
    # B itself is shared by every Hessian, unchanged and read-only
    assert pp._b.tobytes() == b.tobytes() and not pp._b.flags.writeable


@pytest.mark.parametrize("kind", ["identity", "weighted", "dense"])
def test_apply_and_apply_inv_return_new_arrays(kind):
    # apply and apply_inv hand back a new array, also for the identity
    rng = np.random.default_rng(7)
    n = 3
    metric = {"identity": MetricSpace(n),
              "weighted": MetricSpace(n, weights=rng.uniform(0.5, 2.0, n)),
              "dense": MetricSpace(n, matrix=_random_spd(rng, n))}[kind]
    x = rng.standard_normal(n)
    kept = x.copy()
    for out in (metric.apply(x), metric.apply_inv(x)):
        assert not np.shares_memory(out, x)
        out[:] = 0.0
    assert np.array_equal(x, kept)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 59, 100])
def test_min_eigenvalue_is_the_eigvalsh_of_b(n):
    # lambda_min(B) formed once per metric: the digits eigvalsh gives B
    rng = np.random.default_rng(n)
    for metric in (MetricSpace(n), MetricSpace(n, weights=rng.uniform(0.1, 10.0, n)),
                   MetricSpace(n, matrix=_random_spd(rng, n))):
        assert metric.min_eigenvalue == float(np.linalg.eigvalsh(metric.matrix())[0])
