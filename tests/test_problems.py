"""Problem catalog: frozen values, optimality residuals, reference solvers, sized families."""

import hashlib

import numpy as np
import pytest
from scipy.optimize import minimize

from hiprox import AnchorStack, ParameterError, get_problem, list_problems, problems
from hiprox.problems import box_newton_reference, list_families, newton_reference, trs_reference
from references import composite_min_1d, directional, fd_check, level_radius_1d

FROZEN = {
    "ball-quadratic": (0.0, -1.2541125568956133),
    "linear-nonneg-1d": (1.4, 0.0),
    "logistic-sep-3d": (4.995975797573703, 4.063885878833597),
    "neglog-sep": (-3.1532991619581248, -3.6152113111033044),
    "quartic-1d": (16.0, 0.0),
    "quartic-abs-1d": (18.0, 0.0),
    "quartic-sep-10d": (10.0, 0.0),
}

ALL_NAMES = sorted(FROZEN)


def test_catalog_listing():
    names = [name for name, _ in list_problems()]
    assert names == ALL_NAMES
    for _, desc in list_problems() + list_families():
        assert isinstance(desc, str) and desc
    assert [name for name, _ in list_families()] == ["neglog-box-<n>", "logistic-l1-<n>"]
    # a size is a positive integer without leading zeros, after a family's name
    for name in ("rosenbrock", "neglog-box-0", "neglog-box-010", "logistic-l1-x",
                 "logistic-l1--3", "neglog-box-", "neglog-sep-5"):
        with pytest.raises(ParameterError):
            get_problem(name)


@pytest.mark.parametrize("n", [10, 100])
@pytest.mark.parametrize("family", ["neglog-box", "logistic-l1"])
def test_sized_families_equal_the_bench_generators(family, n, bench_module):
    # A, b, x0 and the term bit for bit; the logistic M bounds too, while the
    # neg-log ones sum row by row here and by np.sum in the bench
    wl = bench_module("workloads")
    prob = get_problem("%s-%d" % (family, n))
    bench = {"neglog-box": wl.neglog_box, "logistic-l1": wl.logistic_l1}[family](n, 0)
    assert prob.name == bench.name and prob.dimension == n
    assert prob.f_star is None and prob.x_star is None
    for ours, theirs in ((prob.oracle.a, bench.oracle.a), (prob.oracle.b, bench.oracle.b),
                         (prob.x0, bench.x0)):
        assert ours.tobytes() == theirs.tobytes()
    assert prob.term.kind == bench.term.kind
    if family == "neglog-box":
        assert prob.term.lo.tobytes() == bench.term.lo.tobytes()
        assert prob.term.hi.tobytes() == bench.term.hi.tobytes()
        assert sorted(prob.oracle.m_bounds) == sorted(bench.oracle.m_bounds)
        for order, m in prob.oracle.m_bounds.items():
            assert abs(m / bench.oracle.m_bounds[order] - 1.0) <= 1e-14
    else:
        assert prob.term.lam == bench.term.lam == 0.1
        assert prob.oracle.m_bounds == bench.oracle.m_bounds


@pytest.mark.parametrize("name", ALL_NAMES)
def test_frozen_values(name):
    prob = get_problem(name)
    f0, f_star = FROZEN[name]
    np.testing.assert_allclose(prob.objective(prob.x0), f0, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(prob.f_star, f_star, rtol=1e-12, atol=1e-13)
    if prob.x_star is not None:
        np.testing.assert_allclose(
            prob.objective(prob.x_star), f_star, rtol=1e-10, atol=1e-12
        )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_x_star_composite_stationarity(name):
    # -grad f(x*) must lie in the subdifferential of psi at x*
    prob = get_problem(name)
    if prob.x_star is None:
        pytest.skip("no recorded solution")
    x = np.asarray(prob.x_star, dtype=float)
    assert prob.term.contains(x)
    g = prob.oracle.gradient(x)
    assert prob.term.subgradient_distance(x, -g) <= 1e-7


@pytest.mark.parametrize("name", ALL_NAMES)
def test_oracle_derivatives_fd(name):
    # gradient and Hessian against finite differences at five points of the
    # sample box, projected onto the term's domain
    prob = get_problem(name)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = prob.term.project(prob.sample(rng, 1)[0])
        u = rng.standard_normal(prob.dimension)
        u /= np.linalg.norm(u)
        assert fd_check(prob.oracle, x, u, 1) <= 1e-5
        assert fd_check(prob.oracle, x, u, 2) <= 1e-5


@pytest.mark.parametrize("name", ALL_NAMES)
def test_m_bounds_dominate_sampled_tensors(name):
    prob = get_problem(name)
    if prob.sample_lo is None:
        pytest.skip("no sampling box")
    rng = np.random.default_rng(9)
    pts = prob.sample(rng, 40)
    assert pts.shape == (40, prob.dimension)
    for order in (3, 4, 5):
        m = prob.m_next(order - 1)
        if not np.isfinite(m):
            continue
        worst = 0.0
        for x in pts:
            u = rng.standard_normal(prob.dimension)
            u /= np.linalg.norm(u)
            stack = AnchorStack(prob.oracle, x, (order,))
            worst = max(worst, abs(directional(stack, u, order)))
        assert worst <= m + 1e-9


@pytest.mark.parametrize("name,passes", [("neglog-sep", 12), ("logistic-sep-3d", 8)])
def test_reference_solvers_form_one_residual_pass_per_iterate(name, passes, cold_catalog,
                                                              residual_passes):
    # a process's first build: f, grad f and the Hessian of each Newton
    # iterate from one pass, one more per line-search trial and one for f* at x*
    get_problem(name)
    assert len(residual_passes) == passes


@pytest.mark.parametrize("name", ["neglog-sep", "logistic-sep-3d", "ball-quadratic",
                                  "neglog-box-30"])
def test_a_warm_build_forms_no_residual_pass(name, residual_passes, monkeypatch):
    # a problem's builder, reference solve and QuadraticObjective's
    # eigendecomposition included, runs once per process; a later build
    # copies the template: a sized name is not parsed again either
    get_problem(name)
    del residual_passes[:]
    monkeypatch.setattr(problems, "_build", lambda name: pytest.fail("the builder ran again"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args: pytest.fail("eigvalsh ran"))
    get_problem(name)
    assert residual_passes == []


def _reference_digest(prob):
    # x* and f* as ``test_digits.CATALOG_SHA256`` hashes them
    data = (repr([float(v).hex() for v in prob.x_star]), float(prob.f_star).hex())
    return hashlib.sha256("\n".join(data).encode()).hexdigest()


@pytest.mark.parametrize("name", ["ball-quadratic", "neglog-sep", "logistic-sep-3d"])
def test_builds_share_no_reference_data(name):
    first = get_problem(name)
    digest, m_next = _reference_digest(first), first.m_next(3)
    x0, m_bounds = first.x0.copy(), dict(first.oracle.m_bounds)
    # what a caller may write into its build: x* and x0 in place, --m's
    # override, the oracle's bounds, and its counts by a solve
    first.x_star[:] = 7.0
    first.x0[:] = 7.0
    first.m_override[4] = 123.0
    first.oracle.m_bounds[4] = 456.0
    first.oracle.value(first.x0 * 0.0)
    second = get_problem(name)
    assert _reference_digest(second) == digest
    assert second.m_next(3) == m_next
    np.testing.assert_array_equal(second.x0, x0)
    assert second.oracle.m_bounds == m_bounds
    assert second.oracle.calls_by_order == {}


@pytest.mark.parametrize("name,shared", [("neglog-sep", "oracle.a"),
                                         ("ball-quadratic", "oracle.q"),
                                         ("neglog-sep", "term.lo"),
                                         ("logistic-l1-10", "oracle.b")])
def test_shared_catalog_arrays_are_read_only(name, shared):
    owner, attr = shared.split(".")
    arr = getattr(getattr(get_problem(name), owner), attr)
    with pytest.raises(ValueError):
        arr[0] = 0.0


def test_sample_requires_box():
    prob = get_problem("neglog-sep")
    if prob.sample_lo is not None:
        pts = prob.sample(np.random.default_rng(0), 5)
        assert pts.shape == (5, prob.dimension)
    prob.sample_lo = None
    with pytest.raises(ParameterError):
        prob.sample(np.random.default_rng(0), 5)


def test_m_override_wins():
    prob = get_problem("ball-quadratic")
    assert prob.m_next(3) == 1.0
    assert prob.m_next(4) == 1.0
    # the quadratic itself has zero high-order derivatives
    assert prob.oracle.m_bound(4) == 0.0


def test_level_radius_quartic():
    np.testing.assert_allclose(level_radius_1d(get_problem("quartic-1d")), 2.0, rtol=1e-9)
    with pytest.raises(ParameterError):
        level_radius_1d(get_problem("quartic-sep-10d"))


def test_composite_min_1d_matches_catalog():
    prob = get_problem("quartic-abs-1d")
    x, val = composite_min_1d(prob, -1.0, 1.0)
    assert abs(x - 0.0) <= 1e-7
    np.testing.assert_allclose(val, 0.0, atol=1e-14)


def test_trs_reference_kkt():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        q = a @ a.T + 0.1 * np.eye(4)
        c = rng.standard_normal(4)
        radius = 0.5
        x, mu = trs_reference(q, c, radius)
        assert np.linalg.norm(x) <= radius + 1e-10
        assert mu >= 0.0
        np.testing.assert_allclose(q @ x + mu * x + c, 0.0, atol=1e-8)
        if mu > 1e-12:
            np.testing.assert_allclose(np.linalg.norm(x), radius, rtol=1e-10)


def test_trs_reference_interior_case():
    q = np.eye(3)
    c = np.array([0.1, 0.0, 0.0])
    x, mu = trs_reference(q, c, 5.0)
    assert mu == 0.0
    np.testing.assert_allclose(x, -c, atol=1e-14)


def test_newton_reference_vs_scipy():
    prob = get_problem("logistic-sep-3d")
    x = newton_reference(prob.oracle, prob.x0)
    res = minimize(
        prob.oracle.value,
        np.asarray(prob.x0, dtype=float),
        jac=prob.oracle.gradient,
        method="BFGS",
        options={"gtol": 1e-12},
    )
    np.testing.assert_allclose(x, res.x, atol=1e-7)
    np.testing.assert_allclose(prob.oracle.gradient(x), 0.0, atol=1e-10)


def test_box_newton_reference_vs_scipy():
    prob = get_problem("neglog-sep")
    lo = np.asarray(prob.term.lo, dtype=float)
    hi = np.asarray(prob.term.hi, dtype=float)
    x = box_newton_reference(prob.oracle, lo, hi, prob.x0)
    res = minimize(
        prob.oracle.value,
        np.asarray(prob.x0, dtype=float),
        jac=prob.oracle.gradient,
        method="L-BFGS-B",
        bounds=list(zip(lo, hi)),
        options={"ftol": 1e-15, "gtol": 1e-12},
    )
    np.testing.assert_allclose(x, res.x, atol=1e-6)
    assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)


def test_d0_values():
    # recorded initial distances: |x0 - x*| for the solved 1-D instances
    for name in ("quartic-1d", "quartic-abs-1d"):
        prob = get_problem(name)
        np.testing.assert_allclose(
            prob.d0, np.linalg.norm(np.asarray(prob.x0) - np.asarray(prob.x_star))
        )
    prob = get_problem("quartic-sep-10d")
    np.testing.assert_allclose(prob.d0, 10.0 ** 0.5, rtol=1e-12)
