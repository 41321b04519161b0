"""Univariate composite minimizer against closed forms and grid scans."""

import numpy as np
import pytest

from hiprox import CapabilityError, NumericalError, make_term, minimize_composite_1d, univariate


def test_quadratic_plus_l1_soft_threshold():
    # min (x - c)^2/2 + lam |x| has the soft-threshold solution
    term = make_term("l1", lam=0.6)
    for c in (-2.0, -0.3, 0.0, 0.4, 1.7):
        x = minimize_composite_1d(lambda t: t - c, term, 0.0)
        expected = np.sign(c) * max(abs(c) - 0.6, 0.0)
        np.testing.assert_allclose(x, expected, atol=1e-12)


def test_kink_is_found_exactly():
    term = make_term("abs-1d")
    x = minimize_composite_1d(lambda t: 0.5 * t, term, 3.0)
    assert x == 0.0


def test_boundary_solutions():
    nonneg = make_term("nonneg")
    assert minimize_composite_1d(lambda t: 1.0, nonneg, 1.4) == 0.0
    box = make_term("box", lo=[-1.0], hi=[2.0])
    assert minimize_composite_1d(lambda t: -1.0, box, 0.0) == 2.0
    assert minimize_composite_1d(lambda t: 1.0, box, 0.0) == -1.0


def test_degenerate_box_returns_its_point():
    box = make_term("box", lo=[0.5], hi=[0.5])
    for slope in (-3.0, 0.0, 3.0):
        assert minimize_composite_1d(lambda t: t + slope, box, 0.0) == 0.5


def test_ball_is_refused():
    ball = make_term("ball", center=np.zeros(1), radius=1.0)
    with pytest.raises(CapabilityError):
        minimize_composite_1d(lambda t: t, ball, 0.0)


def test_interior_solution_in_box():
    box = make_term("box", lo=[-1.0], hi=[2.0])
    x = minimize_composite_1d(lambda t: t - 0.7, box, 0.0)
    np.testing.assert_allclose(x, 0.7, atol=1e-12)


def test_quartic_plus_abs_matches_grid():
    # F(x) = x^4 + |x| shifted by a linear tilt; compare with a dense scan
    term = make_term("abs-1d")
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.uniform(-3.0, 3.0)
        x = minimize_composite_1d(lambda t: 4.0 * t ** 3 + c, term, 0.5)
        zs = np.linspace(-2.5, 2.5, 200001)
        vals = zs ** 4 + c * zs + np.abs(zs)
        zg = zs[np.argmin(vals)]
        assert abs(x - zg) <= 5e-5
        # optimality via the one-sided derivatives
        s = 4.0 * x ** 3 + c
        left, right = term.subdifferential(np.array([x]))
        assert s + left[0] <= 1e-9
        assert s + right[0] >= -1e-9


def test_bracket_width():
    term = make_term("zero")
    x = minimize_composite_1d(lambda t: t ** 3 - 2.0, term, 10.0)
    np.testing.assert_allclose(x, 2.0 ** (1.0 / 3.0), rtol=1e-12)


def test_unbounded_below_raises():
    term = make_term("zero")
    with pytest.raises(NumericalError):
        minimize_composite_1d(lambda t: -1.0, term, 0.0)
    with pytest.raises(NumericalError):
        minimize_composite_1d(lambda t: 1.0, term, 0.0)


def test_decreasing_root_stops_at_the_doubling_cap():
    # a phi that stays positive has no root to bracket: hi doubles
    # _DOUBLING_CAP times, each doubling tested once, and then it raises
    calls = []

    def phi(r):
        calls.append(r)
        return 1.0 / (1.0 + r)

    with pytest.raises(NumericalError, match="%d doublings" % univariate._DOUBLING_CAP):
        univariate.decreasing_root(phi, 0.0, 1.0)
    assert calls == [2.0 ** k for k in range(univariate._DOUBLING_CAP)]
