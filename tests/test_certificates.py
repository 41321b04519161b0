"""Acceptance certificates: exact prox solutions, interval closed forms,
accepted-pair inequalities.
"""

import numpy as np
import pytest

from hiprox import (
    CertificateError,
    ParameterError,
    ProxConfig,
    RegularizedObjective,
    acceptable_interval_1d,
    candidates,
    certificate_inequalities,
    check_acceptable,
    exact_prox,
    get_problem,
    make_term,
)


def test_prox_config_validation():
    cfg = ProxConfig(3, 2.0, 1.0 / 3.0)
    assert cfg.beta_le_inv_p
    assert not ProxConfig(3, 2.0, 0.5).beta_le_inv_p
    assert ProxConfig(2, 2.0, 0.5).beta_le_inv_p
    with pytest.raises(ParameterError):
        ProxConfig(2.5, 1.0, 0.1)
    with pytest.raises(ParameterError):
        ProxConfig(0, 1.0, 0.1)
    with pytest.raises(ParameterError):
        ProxConfig(3, 0.0, 0.1)
    for h in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite and positive"):
            ProxConfig(3, h, 0.1)
    with pytest.raises(ParameterError):
        ProxConfig(3, 1.0, 1.0)
    with pytest.raises(ParameterError):
        ProxConfig(3, 1.0, -0.1)


def test_regularized_gradient_formula():
    prob = get_problem("quartic-1d")
    cfg = ProxConfig(3, 2.0, 0.1)
    anchor = np.array([0.3])
    x = np.array([1.1])
    expected = prob.oracle.gradient(x) + 2.0 * abs(1.1 - 0.3) ** 2 * (x - anchor)
    reg = RegularizedObjective(prob.oracle, anchor, cfg.p, cfg.h)
    np.testing.assert_allclose(reg.gradient(x), expected, rtol=1e-12)


def test_exact_prox_linear_nonneg_interior():
    # f(x) = x on x >= 0, H = 1, p = 3: stationarity (T - xb)^3 = -1
    prob = get_problem("linear-nonneg-1d")
    cfg = ProxConfig(3, 1.0, 0.85)
    t, g = exact_prox(prob.oracle, prob.term, cfg, np.array([1.4]))
    np.testing.assert_allclose(t, [0.4], atol=1e-12)
    np.testing.assert_allclose(g, [0.0], atol=1e-12)
    cert = check_acceptable(prob.oracle, prob.term, cfg, np.array([1.4]), t, g)
    assert cert.accepted
    assert cert.lhs <= 1e-10  # exact prox has zero regularized residual


def test_exact_prox_linear_nonneg_boundary():
    # anchor 0.6: unconstrained root lands at -0.4, so T = 0 with g < 0
    prob = get_problem("linear-nonneg-1d")
    cfg = ProxConfig(3, 1.0, 0.85)
    t, g = exact_prox(prob.oracle, prob.term, cfg, np.array([0.6]))
    np.testing.assert_allclose(t, [0.0], atol=1e-12)
    np.testing.assert_allclose(g, [0.6 ** 3 - 1.0], atol=1e-12)
    cert = check_acceptable(prob.oracle, prob.term, cfg, np.array([0.6]), t, g)
    assert cert.accepted


def test_exact_prox_degenerate_box():
    # f(x) = x on the box [0.5, 0.5]: the normal cone at 0.5 is the whole
    # line, so g = -1 cancels f' and the exact prox certifies
    prob = get_problem("linear-nonneg-1d")
    term = make_term("box", lo=[0.5], hi=[0.5])
    assert term.subgradient_select(np.array([0.5]), np.array([-3.0]))[0] == -3.0
    cfg = ProxConfig(3, 1.0, 0.85)
    anchor = np.array([0.5])
    t, g = exact_prox(prob.oracle, term, cfg, anchor)
    assert t[0] == 0.5 and g[0] == -1.0
    assert check_acceptable(prob.oracle, term, cfg, anchor, t, g).accepted


def test_exact_prox_accepted_at_beta_zero():
    # the exact solution certifies at every beta, including beta = 0
    prob = get_problem("quartic-abs-1d")
    rng = np.random.default_rng(0)
    for _ in range(20):
        anchor = np.array([rng.uniform(-2.0, 2.0)])
        for beta in (0.0, 0.1, 1.0 / 3.0, 0.85):
            cfg = ProxConfig(3, 2.0, beta)
            t, g = exact_prox(prob.oracle, prob.term, cfg, anchor)
            cert = check_acceptable(prob.oracle, prob.term, cfg, anchor, t, g)
            assert cert.accepted


def test_acceptable_interval_closed_form():
    cfg = ProxConfig(3, 1.0, 0.85)
    lo, hi = acceptable_interval_1d(cfg, 1.4)
    np.testing.assert_allclose(lo, 1.4 - 1.85 ** (1.0 / 3.0), rtol=1e-12)
    np.testing.assert_allclose(hi, 1.4 - 0.15 ** (1.0 / 3.0), rtol=1e-12)
    # frozen decimals
    np.testing.assert_allclose([lo, hi], [0.172398, 0.868671], atol=1e-6)
    # nearer anchor: the interval clips at the domain boundary
    lo2, hi2 = acceptable_interval_1d(cfg, 0.6)
    assert lo2 == 0.0
    np.testing.assert_allclose(hi2, 0.6 - 0.15 ** (1.0 / 3.0), rtol=1e-12)
    # far-left anchor: no acceptable point on the ray
    assert acceptable_interval_1d(cfg, -2.0) is None
    with pytest.raises(ParameterError):
        acceptable_interval_1d(ProxConfig(2, 1.0, 0.5), 1.4)


def test_acceptable_interval_matches_grid_scan():
    prob = get_problem("linear-nonneg-1d")
    cfg = ProxConfig(3, 1.0, 0.85)
    for anchor in (0.6, 1.4):
        av = np.array([anchor])
        interval = acceptable_interval_1d(cfg, anchor)
        grid = np.arange(0.0, 2.5, 1e-3)
        reg = RegularizedObjective(prob.oracle, av, 3, cfg.h)
        accepted = np.array([check_acceptable(prob.oracle, prob.term, cfg, av, point, g).accepted
                             for point, g, _ in candidates(reg, prob.term, grid[:, None])])
        assert interval is not None
        hits = grid[accepted]
        np.testing.assert_allclose(hits[0], max(interval[0], 0.0), atol=2e-3)
        np.testing.assert_allclose(hits[-1], interval[1], atol=2e-3)
        # the accepted set is one contiguous block
        assert np.all(np.diff(np.where(accepted)[0]) == 1)


def test_accepted_pair_inequalities():
    prob = get_problem("quartic-abs-1d")
    rng = np.random.default_rng(1)
    for _ in range(30):
        anchor = np.array([rng.uniform(-2.0, 2.0)])
        beta = rng.uniform(0.0, 1.0 / 3.0)
        cfg = ProxConfig(3, 2.0, beta)
        t, g = exact_prox(prob.oracle, prob.term, cfg, anchor)
        cert = check_acceptable(prob.oracle, prob.term, cfg, anchor, t, g)
        checks = certificate_inequalities(cert, cfg)
        assert set(checks) == {"radius", "progress", "progress_dual"}
        for name, (ok, margin) in checks.items():
            assert ok, (name, margin)
            assert margin >= -1e-10


def test_progress_dual_requires_small_beta():
    prob = get_problem("quartic-abs-1d")
    cfg = ProxConfig(3, 2.0, 0.5)  # beta > 1/p
    anchor = np.array([1.5])
    t, g = exact_prox(prob.oracle, prob.term, cfg, anchor)
    cert = check_acceptable(prob.oracle, prob.term, cfg, anchor, t, g)
    checks = certificate_inequalities(cert, cfg)
    assert set(checks) == {"radius", "progress"}


def test_check_acceptable_rejects_bad_subgradient():
    prob = get_problem("quartic-abs-1d")
    cfg = ProxConfig(3, 2.0, 0.1)
    point = np.array([0.5])
    with pytest.raises(CertificateError):
        check_acceptable(
            prob.oracle, prob.term, cfg, np.array([1.0]), point, np.array([0.3])
        )  # at x > 0 the subdifferential of |x| is {1}


def test_check_acceptable_rejects_outside_domain():
    prob = get_problem("linear-nonneg-1d")
    cfg = ProxConfig(3, 1.0, 0.5)
    with pytest.raises(CertificateError):
        check_acceptable(
            prob.oracle, prob.term, cfg, np.array([1.0]), np.array([-0.5]), np.array([0.0])
        )
