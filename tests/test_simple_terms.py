"""Composite terms: prox optimality, subdifferential selection, projections."""

import math

import numpy as np
import pytest

from hiprox import CapabilityError, DomainError, ParameterError, make_term
from hiprox.simple_terms import _soft, _soft_float

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
    assert term.interval_1d() == (-1.0, 0.0) or term.lo.shape == (2,)
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
    assert term.interval_1d() == (-2.0, 2.0)
    assert not term.is_separable


def test_coordinate_min():
    # argmin_z (quad/2) z^2 + lin z + psi_i(z) coordinatewise
    rng = np.random.default_rng(3)
    cases = (
        ("l1", {"lam": 0.4}),
        ("nonneg", {}),
        ("box", {"lo": [-0.3], "hi": [0.6]}),
    )
    for kind, kwargs in cases:
        term = make_term(kind, **kwargs)
        for _ in range(15):
            lin = rng.standard_normal()
            quad = rng.uniform(0.5, 3.0)
            z = term.coordinate_min(0, lin, quad)
            zs = np.linspace(-2.0, 2.0, 8001)
            vals = 0.5 * quad * zs ** 2 + lin * zs + np.array(
                [term.value(np.array([t])) for t in zs]
            )
            assert 0.5 * quad * z ** 2 + lin * z + term.value(np.array([z])) <= (
                vals.min() + 1e-6
            )
    # psi = 0 and the ball have no coordinatewise form: prox-Newton solves
    # their model steps as a whole
    with pytest.raises(CapabilityError):
        make_term("zero").coordinate_min(0, 1.0, 1.0)
    with pytest.raises(CapabilityError):
        make_term("ball", center=np.zeros(1), radius=1.0).coordinate_min(0, 1.0, 1.0)


def test_abs_1d_derivatives():
    term = make_term("abs-1d")
    assert term.deriv_right_1d(0.0) == 1.0
    assert term.deriv_left_1d(0.0) == -1.0
    assert term.deriv_right_1d(-0.5) == -1.0
    assert term.value(np.array([-2.0])) == 2.0


def test_make_term_unknown():
    with pytest.raises(ParameterError):
        make_term("huber")


COORDINATE_KINDS = (
    ("l1", {"lam": 0.7}),
    ("nonneg", {}),
    ("box", {"lo": [-1.0, -0.5, 0.0], "hi": [0.5, 1.0, 2.0]}),
    ("abs-1d", {}),
)


def _coordinate_cases(term, n, rng):
    """(lin, quad) pairs: random, +-0, l1 threshold and box bounds exactly."""
    cases = [(s * lin, quad) for lin in (0.0, 1e-300, 0.3, 5.0) for s in (1.0, -1.0)
             for quad in (0.25, 1.0, 3.0)]
    cases += [(float(v), float(q)) for v, q in zip(rng.standard_normal(40), rng.uniform(0.1, 4, 40))]
    lam = getattr(term, "lam", None)
    if lam is not None:
        # |v| = |lin| / quad is exactly the threshold lam / quad
        cases += [(s * lam, quad) for s in (1.0, -1.0) for quad in (0.5, 1.0, 3.0)]
    if term.kind == "box":
        # v = -lin / quad exactly on a bound (quad a power of two)
        cases += [(-bound * quad, quad) for bound in np.concatenate([term.lo, term.hi]).tolist()
                  for quad in (0.5, 1.0, 4.0)]
    return cases


@pytest.mark.parametrize("kind, kwargs", COORDINATE_KINDS)
def test_coordinate_min_equals_vector_prox(kind, kwargs):
    # coordinate_min(i, lin, quad) is coordinate i of prox(lin 1, 0, quad)
    term = make_term(kind, **kwargs)
    n = _dim(kind)
    rng = np.random.default_rng(7)
    for lin, quad in _coordinate_cases(term, n, rng):
        vec = term.prox(np.full(n, lin), np.zeros(n), quad)
        for i in range(n):
            z = term.coordinate_min(i, lin, quad)
            assert type(z) is float
            assert z == vec[i], (kind, i, lin, quad)


def _same_float(a, b):
    return (a == b and math.copysign(1.0, a) == math.copysign(1.0, b)) or (a != a and b != b)


def test_float_soft_threshold_equals_numpy_with_signed_zeros():
    values = (0.0, -0.0, 0.5, -0.5, 0.7, -0.7, 2.0, -2.0, 1e-300, -1e-300, math.inf, -math.inf,
              math.nan)
    for v in values:
        for thr in (0.0, 0.5, 0.7, 3.0):
            assert _same_float(_soft_float(v, thr), float(_soft(np.asarray(v), thr))), (v, thr)


def test_box_coordinate_min_equals_numpy_clip_with_signed_zeros():
    term = make_term("box", lo=[0.0, -1.0, -0.0, -2.0], hi=[1.0, -0.0, 0.0, math.inf])
    for i in range(4):
        for v in (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0, math.nan):
            expected = float(np.clip(np.float64(v), term.lo[i], term.hi[i]))
            assert _same_float(term.coordinate_min(i, -v, 1.0), expected), (i, v)
