"""Scalar building blocks: derivatives vs finite differences, closed forms and libm digits.

Each family maps a residual vector to an array. ``test_array_form_keeps_per_scalar_digits``
holds every family and order to the digits of a per-scalar evaluation by
``math`` and Python ``**``, under exact array equality.
"""

import math

import numpy as np
import pytest

from hiprox import DomainError, ParameterError, get_problem, make_family
from hiprox import scalar_families


def _order(fam, t, k):
    return fam.value(t) if k == 0 else fam.derivative(t, k)


def _fd_derivative(fam, t, k, eps=1e-5):
    return (_order(fam, t + eps, k - 1) - _order(fam, t - eps, k - 1)) / (2.0 * eps)


def _assert_fd_chain(fam, points, max_order, rtol=2e-5, atol=1e-6):
    for k in range(1, max_order + 1):
        np.testing.assert_allclose(
            fam.derivative(points, k), _fd_derivative(fam, points, k), rtol=rtol, atol=atol
        )


# -- per-scalar references: math.* and Python ** on floats -------------------


def _logistic_coeffs(k):
    """Ascending coefficients of f^(k) in s = sigmoid(t), from f' = s and ds/dt = s - s^2."""
    c = [0.0, 1.0]
    for _ in range(k - 1):
        dc = [j * c[j] for j in range(1, len(c))]
        nxt = [0.0] * (len(dc) + 2)
        for j, v in enumerate(dc):
            nxt[j + 1] += v
            nxt[j + 2] -= v
        c = nxt
    return c


def _logistic_ref(t, k):
    if k == 0:
        return max(t, 0.0) + math.log1p(math.exp(-abs(t)))
    if t >= 0:
        s = 1.0 / (1.0 + math.exp(-t))
    else:
        e = math.exp(t)
        s = e / (1.0 + e)
    y = 0.0
    for coeff in reversed(_logistic_coeffs(k)):
        y = y * s + coeff
    return y


def _neglog_ref(t, k):
    if k == 0:
        return -math.log(t)
    if k % 2 == 0 and k > 2:
        return math.factorial(k - 1) * (1.0 / (t * t)) ** (k // 2)
    return (-1.0) ** k * math.factorial(k - 1) / t ** k


def _quartic_ref(t, k):
    return [t ** 4, 4.0 * t ** 3, 12.0 * t ** 2, 24.0 * t, 24.0][k] if k <= 4 else 0.0


def _power_ref(m):
    def ref(t, k):
        if k > m:
            return 0.0
        return math.factorial(m) / math.factorial(m - k) * t ** (m - k)

    return ref


def _linear_ref(t, k):
    return t if k == 0 else (1.0 if k == 1 else 0.0)


def _arguments(kind, rng):
    if kind == "neg-log":  # tiny to large positives
        return 10.0 ** rng.uniform(-6.0, 6.0, 4000)
    if kind == "logistic":
        return rng.uniform(-40.0, 40.0, 4000)
    # both signs over eight decades, and exact zeros
    t = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-4.0, 4.0, 4000)
    t[:3] = 0.0
    return t


@pytest.mark.parametrize("name, kwargs, ref", [
    ("linear", {}, _linear_ref),
    ("quartic", {}, _quartic_ref),
    ("neg-log", {}, _neglog_ref),
    ("logistic", {}, _logistic_ref),
    ("power", {"exponent": 4}, _power_ref(4)),
    ("power", {"exponent": 6}, _power_ref(6)),
])
@pytest.mark.parametrize("seed", [0, 1])
def test_array_form_keeps_per_scalar_digits(name, kwargs, ref, seed):
    fam = make_family(name, **kwargs)
    t = _arguments(name, np.random.default_rng(seed))
    for k in range(9):
        got = _order(fam, t, k)
        assert isinstance(got, np.ndarray) and got.shape == t.shape and got.dtype == float
        expected = np.array([ref(v, k) for v in t.tolist()])
        assert np.array_equal(got, expected), (name, k)


def test_neglog_array_names_a_nonpositive_entry():
    fam = make_family("neg-log")
    t = np.array([1.0, 0.5, -2.0, 0.0])
    for call in (fam.value, lambda v: fam.derivative(v, 2), lambda v: fam.derivative(v, 4)):
        with pytest.raises(DomainError) as excinfo:
            call(t)
        assert excinfo.value.index == 2
        assert "-2.0" in str(excinfo.value)


# -- closed forms, finite differences and sups, on arrays ----------------------


def test_linear():
    fam = make_family("linear")
    t = np.array([2.5, -0.3])
    assert np.array_equal(fam.value(t), t)
    assert np.array_equal(fam.derivative(t, 1), [1.0, 1.0])
    for k in range(2, 7):
        assert np.array_equal(fam.derivative(t, k), [0.0, 0.0])
        assert fam.derivative_sup(k, -5.0, 5.0) == 0.0
    assert fam.derivative_sup(1, -5.0, 5.0) == 1.0


def test_quartic_closed_forms():
    fam = make_family("quartic")
    t = np.array([1.5, -0.5])
    assert fam.value(t) == pytest.approx(t ** 4)
    assert fam.derivative(t, 1) == pytest.approx(4 * t ** 3)
    assert fam.derivative(t, 2) == pytest.approx(12 * t ** 2)
    assert fam.derivative(t, 3) == pytest.approx(24 * t)
    assert np.array_equal(fam.derivative(t, 4), [24.0, 24.0])
    assert np.array_equal(fam.derivative(t, 5), [0.0, 0.0])
    assert fam.derivative_sup(4, -3.0, 2.0) == 24.0
    assert fam.derivative_sup(3, -3.0, 2.0) == pytest.approx(72.0)
    assert fam.derivative_sup(5, -3.0, 2.0) == 0.0


def test_quartic_fd():
    rng = np.random.default_rng(0)
    _assert_fd_chain(make_family("quartic"), rng.uniform(-2.0, 2.0, 10), 4)


def test_neglog_closed_forms():
    fam = make_family("neg-log")
    t = np.array([0.7, 2.0])
    assert fam.value(t) == pytest.approx([-math.log(v) for v in t])
    for k in range(1, 7):
        expected = (-1.0) ** k * math.factorial(k - 1) / t ** k
        assert fam.derivative(t, k) == pytest.approx(expected, rel=1e-12)


def test_neglog_even_orders_from_second():
    # f^{(2k)}(t) = (2k-1)! (f''(t))^k: even derivatives need only f''
    fam = make_family("neg-log")
    assert fam.even_from_second
    rng = np.random.default_rng(1)
    t = rng.uniform(0.2, 3.0, 20)
    d2 = fam.derivative(t, 2)
    for k in (2, 3):
        np.testing.assert_allclose(
            fam.derivative(t, 2 * k),
            math.factorial(2 * k - 1) * d2 ** k,
            rtol=1e-12,
        )


def test_neglog_domain_and_sup():
    fam = make_family("neg-log")
    with pytest.raises(DomainError):
        fam.value(np.array([0.0]))
    with pytest.raises(DomainError):
        fam.derivative(np.array([-1.0]), 2)
    assert fam.derivative_sup(3, 0.5, 2.0) == pytest.approx(2.0 / 0.125)
    assert fam.derivative_sup(2, 0.0, 1.0) == np.inf


def test_neglog_fd():
    rng = np.random.default_rng(2)
    _assert_fd_chain(make_family("neg-log"), rng.uniform(0.4, 3.0, 10), 6, rtol=5e-5)


def test_logistic_value_and_first_derivatives():
    fam = make_family("logistic")
    t = np.array([-30.0, -1.0, 0.0, 2.0, 40.0])
    assert fam.value(t) == pytest.approx(np.logaddexp(0.0, t), rel=1e-12)
    s = [1.0 / (1.0 + math.exp(-v)) if abs(v) < 30 else (v > 0) * 1.0 for v in t]
    assert fam.derivative(t, 1) == pytest.approx(s, abs=1e-9)
    # f'' = s(1-s) peaks at 1/4
    assert fam.derivative(np.array([0.0]), 2) == pytest.approx([0.25])
    with pytest.raises(ParameterError, match="derivative order must be >= 1"):
        fam.derivative(t, 0)


def test_logistic_fd():
    rng = np.random.default_rng(3)
    _assert_fd_chain(make_family("logistic"), rng.uniform(-3.0, 3.0, 10), 6, rtol=5e-5, atol=1e-7)


def test_logistic_derivative_sup_dominates_samples():
    fam = make_family("logistic")
    ts = np.linspace(-8.0, 8.0, 4001)
    for k in range(2, 7):
        sup = fam.derivative_sup(k, -50.0, 50.0)
        sampled = float(np.abs(fam.derivative(ts, k)).max())
        assert sup >= sampled
        assert sup <= 10.0 * max(sampled, 1e-6)  # not wildly loose


def test_logistic_derivative_sup_is_the_grid_max_bit_for_bit():
    fam = make_family("logistic")
    s = np.linspace(1e-9, 1.0 - 1e-9, 20001)
    for k in range(1, 9):
        y = np.zeros_like(s)
        for coeff in reversed(_logistic_coeffs(k)):
            y = y * s + coeff
        assert fam.derivative_sup(k, -50.0, 50.0) == 1.05 * float(np.abs(y).max())


def test_logistic_constants_are_formed_once_per_process(monkeypatch):
    # an empty store, then two families and two catalog builds: each order's grid once
    monkeypatch.setattr(scalar_families, "_LOGISTIC_SUP", {})
    grids = []
    grid_sup = scalar_families._logistic_grid_sup
    monkeypatch.setattr(scalar_families, "_logistic_grid_sup",
                        lambda k: grids.append(k) or grid_sup(k))
    first, second = make_family("logistic"), make_family("logistic")
    assert vars(first) == vars(second) == {}
    for k in range(2, 9):
        assert first.derivative_sup(k, -50.0, 50.0) == second.derivative_sup(k, -1.0, 1.0)
    builds = [get_problem("logistic-sep-3d") for _ in range(2)]
    assert builds[0].oracle.m_bounds == builds[1].oracle.m_bounds
    assert sorted(grids) == list(range(2, 9))


def test_logistic_coefficients_are_read_only():
    for k in range(1, 9):
        coeffs = scalar_families._logistic_coeffs(k)
        assert not coeffs.flags.writeable
        with pytest.raises(ValueError):
            coeffs[0] = 1.0


def test_power_family():
    fam = make_family("power", exponent=6)
    t = np.array([1.2, -0.7])
    assert fam.value(t) == pytest.approx(t ** 6)
    assert fam.derivative(t, 3) == pytest.approx(6 * 5 * 4 * t ** 3)
    assert fam.derivative(t, 6) == pytest.approx([720.0, 720.0])
    assert np.array_equal(fam.derivative(t, 7), [0.0, 0.0])
    with pytest.raises(ParameterError):
        make_family("power", exponent=3)
    with pytest.raises(ParameterError):
        make_family("power", exponent=0)


def test_power_fd():
    rng = np.random.default_rng(4)
    _assert_fd_chain(make_family("power", exponent=6), rng.uniform(-1.5, 1.5, 8), 6)


def test_make_family_unknown():
    with pytest.raises(ParameterError):
        make_family("cubic")
