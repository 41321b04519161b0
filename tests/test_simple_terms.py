"""Composite terms: prox optimality, subdifferential selection, projections."""

import numpy as np
import pytest

from hiprox import DomainError, ParameterError, make_term

ALL_KINDS = (
    ("zero", {}),
    ("l1", {"lam": 0.7}),
    ("nonneg", {}),
    ("box", {"lo": [-1.0, -0.5, 0.0], "hi": [0.5, 1.0, 2.0]}),
    ("ball", {"center": np.zeros(3), "radius": 1.3}),
    ("abs-1d", {}),
)


def _dim(kind):
    return 1 if kind == "abs-1d" else 3


def test_prox_first_order_optimality():
    # z = prox(s, c, tau) iff -(s + tau (z - c)) is a subgradient at z
    rng = np.random.default_rng(0)
    for kind, kwargs in ALL_KINDS:
        term = make_term(kind, **kwargs)
        n = _dim(kind)
        for _ in range(50):
            s = rng.standard_normal(n)
            c = 2.0 * rng.standard_normal(n)
            tau = rng.uniform(0.2, 3.0)
            z = term.prox(s, c, tau)
            assert term.contains(z, tol=1e-12)
            target = -(s + tau * (z - c))
            assert term.subgradient_distance(z, target) <= 1e-9, kind


def test_prox_beats_random_feasible_points():
    rng = np.random.default_rng(1)
    for kind, kwargs in ALL_KINDS:
        term = make_term(kind, **kwargs)
        n = _dim(kind)
        s = rng.standard_normal(n)
        c = rng.standard_normal(n)
        tau = 1.7

        def obj(x):
            return float(np.dot(s, x)) + term.value(x) + 0.5 * tau * np.sum((x - c) ** 2)

        z = term.prox(s, c, tau)
        best = obj(z)
        for _ in range(200):
            x = term.project(3.0 * rng.standard_normal(n))
            assert best <= obj(x) + 1e-10, kind


def test_l1_prox_is_soft_thresholding():
    term = make_term("l1", lam=0.5)
    c = np.array([1.0, -0.2, 0.6])
    z = term.prox(np.zeros(3), c, 1.0)
    np.testing.assert_allclose(z, [0.5, 0.0, 0.1], atol=1e-15)
    with pytest.raises(ParameterError):
        term.prox(np.zeros(3), c, 0.0)
    with pytest.raises(ParameterError):
        make_term("l1", lam=-1.0)


def test_subgradient_select_is_nearest_element():
    rng = np.random.default_rng(2)
    term = make_term("l1", lam=0.8)
    x = np.array([1.0, -2.0, 0.0])
    target = np.array([0.1, 5.0, 0.3])
    sel = term.subgradient_select(x, target)
    np.testing.assert_allclose(sel, [0.8, -0.8, 0.3])
    # any other subdifferential element is no closer to the target
    for _ in range(100):
        g = np.array([0.8, -0.8, rng.uniform(-0.8, 0.8)])
        assert np.linalg.norm(target - sel) <= np.linalg.norm(target - g) + 1e-12


def test_nonneg_normal_cone():
    term = make_term("nonneg")
    x = np.array([0.0, 2.0])
    np.testing.assert_allclose(
        term.subgradient_select(x, np.array([-3.0, 1.5])), [-3.0, 0.0]
    )
    np.testing.assert_allclose(
        term.subgradient_select(x, np.array([3.0, -1.5])), [0.0, 0.0]
    )
    with pytest.raises(DomainError):
        term.subgradient_select(np.array([-1.0, 0.0]), np.zeros(2))
    assert term.value(np.array([1.0, 0.0])) == 0.0
    assert term.value(np.array([-1.0, 0.0])) == np.inf


def test_box_term():
    term = make_term("box", lo=[-1.0, 0.0], hi=[1.0, 2.0])
    np.testing.assert_allclose(term.project([3.0, -1.0]), [1.0, 0.0])
    assert term.contains([0.5, 1.0])
    assert not term.contains([1.5, 1.0])
    sel = term.subgradient_select(np.array([1.0, 0.0]), np.array([2.0, -3.0]))
    np.testing.assert_allclose(sel, [2.0, -3.0])
    sel = term.subgradient_select(np.array([0.5, 1.0]), np.array([2.0, -3.0]))
    np.testing.assert_allclose(sel, [0.0, 0.0])
    lo, hi = term.piece(np.array([-np.inf, np.inf]))
    np.testing.assert_array_equal(lo, [-1.0, 0.0])
    np.testing.assert_array_equal(hi, [1.0, 2.0])
    with pytest.raises(ParameterError):
        make_term("box", lo=[1.0], hi=[0.0])


def test_ball_term():
    term = make_term("ball", center=np.zeros(2), radius=2.0)
    np.testing.assert_allclose(term.project([6.0, 8.0]), [1.2, 1.6])
    x = np.array([1.2, 1.6])  # boundary point
    d = term.subgradient_select(x, np.array([3.0, 4.0]))
    # normal cone is the outward ray through x
    np.testing.assert_allclose(d, (np.dot([3.0, 4.0], x) / 4.0) * x, rtol=1e-12)
    np.testing.assert_allclose(
        term.subgradient_select(np.array([0.1, 0.0]), np.array([3.0, 4.0])), [0.0, 0.0]
    )
    with pytest.raises(DomainError):
        term.subgradient_select(np.array([3.0, 0.0]), np.zeros(2))
    with pytest.raises(ParameterError):
        make_term("ball", center=np.zeros(2), radius=0.0)
    assert not term.is_separable


def test_abs_1d_derivatives():
    term = make_term("abs-1d")
    lo, hi = term.subdifferential(np.array([0.0, -0.5, 2.0]))
    np.testing.assert_array_equal(lo, [-1.0, -1.0, 1.0])
    np.testing.assert_array_equal(hi, [1.0, -1.0, 1.0])
    # the pieces of slope -inf and +inf meet at the kink
    lo, hi = term.piece(np.array([-np.inf, np.inf]))
    np.testing.assert_array_equal(lo, [-np.inf, 0.0])
    np.testing.assert_array_equal(hi, [0.0, np.inf])
    assert term.value(np.array([-2.0])) == 2.0


def test_make_term_unknown():
    with pytest.raises(ParameterError):
        make_term("huber")


SEPARABLE_KINDS = (
    ("zero", {}),
    ("l1", {"lam": 0.7}),
    ("nonneg", {}),
    # the last coordinate is degenerate: lo = hi
    ("box", {"lo": [-1.0, -0.5, 0.25], "hi": [0.5, 1.0, 0.25]}),
    ("abs-1d", {}),
)


@pytest.mark.parametrize("kind, kwargs", SEPARABLE_KINDS)
def test_prox_residual_in_subdifferential_and_piece(kind, kwargs):
    # p = prox(s, c, tau) iff tau (c - p) - s lies in dpsi(p) = [lo, hi]; a
    # coordinate off every kink (lo = hi) lies on the piece of that slope
    term = make_term(kind, **kwargs)
    n = _dim(kind)
    rng = np.random.default_rng(7)
    kinks = 0
    for _ in range(200):
        s = rng.standard_normal(n)
        c = 2.0 * rng.standard_normal(n)
        tau = rng.uniform(0.2, 3.0)
        p = term.prox(s, c, tau)
        v = tau * (c - p) - s
        lo, hi = term.subdifferential(p)
        tol = 1e-12 * (1.0 + np.abs(v))
        assert np.all(lo - tol <= v) and np.all(v <= hi + tol), (kind, p, v)
        free = lo == hi
        plo, phi = term.piece(lo)
        assert np.all(plo[free] <= p[free]) and np.all(p[free] <= phi[free]), (kind, p)
        kinks += int(np.sum(~free))
    assert kinks > 0 or kind == "zero"
