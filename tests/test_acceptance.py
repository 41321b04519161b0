"""End-to-end acceptance checks: rate bounds, certificates, geometry, examples.

Each test prints one PASS/FAIL line; run with -s (or read captured output)
to see the full scoreboard including measured margins and runtimes.
"""

import json
import math
import time

import numpy as np
import pytest

from hiprox import (
    ProxConfig,
    aihopp_run,
    biopt_run,
    bilevel_h,
    check_acceptable,
    exact_prox,
    exact_prox_provider,
    get_problem,
    ihopp_run,
    inner_prox_provider,
    relative_constants,
)
from hiprox.acceptance import certificate_inequalities
from hiprox.verify import _estseq_margins
from references import fd_check

# (certificate, config) pairs accumulated across the runs in this module
CERT_STORE = []


def _scoreboard(num, ok, detail):
    line = "[%2d/11] %s: %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def _store(trace, cfg):
    for cert in trace.certificates:
        CERT_STORE.append((cert, cfg))


def test_01_plain_outer_bound():
    # gap(k) <= (H D0^{p+1}/(1-beta) + gap0)/2 * ((2p+2)/k)^p for k >= 1
    t0 = time.perf_counter()
    worst = -np.inf
    for name in ("quartic-abs-1d", "quartic-sep-10d"):
        prob = get_problem(name)
        m = prob.m_next(3)
        cfg = ProxConfig(3, bilevel_h(3, m), 1.0 / 3.0)
        if prob.dimension == 1:
            provider = exact_prox_provider(prob.oracle, prob.term, cfg)
        else:
            provider = inner_prox_provider(prob.oracle, prob.term, cfg, m_next=m)
        trace = ihopp_run(prob, cfg, provider, eps=0.0, max_k=50)
        _store(trace, cfg)
        gaps, bounds = trace.column("gap"), trace.column("bound_rhs")
        worst = max(worst, float(np.max(gaps[1:] - bounds[1:])))
    elapsed = time.perf_counter() - t0
    _scoreboard(
        1,
        worst <= 1e-8 and elapsed < 5.0,
        "plain rate bound, worst gap-bound %.3e, %.2fs" % (worst, elapsed),
    )


def test_02_accelerated_outer_bound_and_dual_points():
    t0 = time.perf_counter()
    worst = -np.inf
    dual_worst = -np.inf
    for name in ("quartic-abs-1d", "quartic-sep-10d"):
        prob = get_problem(name)
        m = prob.m_next(3)
        cfg = ProxConfig(3, bilevel_h(3, m), 1.0 / 3.0)
        if prob.dimension == 1:
            provider = exact_prox_provider(prob.oracle, prob.term, cfg)
        else:
            provider = inner_prox_provider(prob.oracle, prob.term, cfg, m_next=m)
        trace = aihopp_run(prob, cfg, provider, eps=0.0, max_k=50)
        _store(trace, cfg)
        gaps, bounds = trace.column("gap"), trace.column("bound_rhs")
        worst = max(worst, float(np.max(gaps[1:] - bounds[1:])))
        # dual points stay inside the 2^{p-1}-enlarged initial ball, on
        # verify's replay of the estimating sequence
        replay = _estseq_margins(prob, trace, cfg, np.random.default_rng(0))
        dual_worst = max(dual_worst, replay[3])
    elapsed = time.perf_counter() - t0
    _scoreboard(
        2,
        worst <= 1e-8 and dual_worst <= 1e-10 and elapsed < 10.0,
        "accelerated rate bound, worst gap-bound %.3e, dual margin %.3e, %.2fs"
        % (worst, dual_worst, elapsed),
    )


def test_03_fitted_slopes():
    prob = get_problem("quartic-1d")
    details = []
    ok = True
    for p in (2, 3):
        cfg = ProxConfig(p, 2.0, 1.0 / 3.0)
        provider = exact_prox_provider(prob.oracle, prob.term, cfg)
        plain = ihopp_run(prob, cfg, provider, eps=-1.0, max_k=100)
        accel = aihopp_run(prob, cfg, provider, eps=-1.0, max_k=100)
        _store(plain, cfg)
        _store(accel, cfg)
        s_plain = plain.fitted_slope()
        s_accel = accel.fitted_slope()
        ok = ok and s_plain <= -p + 0.3 and s_accel <= -(p + 1) + 0.3
        details.append("p=%d plain %.2f accel %.2f" % (p, s_plain, s_accel))
    _scoreboard(3, ok, "log-log slopes " + "; ".join(details))


def test_04_certificate_inequalities_everywhere():
    # fresh exact-prox sweeps on the 1-D problems join the stored run output
    rng = np.random.default_rng(0)
    pairs = list(CERT_STORE)
    for name in ("quartic-1d", "quartic-abs-1d", "linear-nonneg-1d"):
        prob = get_problem(name)
        for _ in range(30):
            anchor = prob.term.project(rng.uniform(prob.sample_lo, prob.sample_hi))
            for beta in (0.0, 0.1, 1.0 / 3.0):
                cfg = ProxConfig(3, 2.0, beta)
                t, g = exact_prox(prob.oracle, prob.term, cfg, anchor)
                cert = check_acceptable(prob.oracle, prob.term, cfg, anchor, t, g)
                if cert.accepted:
                    pairs.append((cert, cfg))
    worst = -np.inf
    for cert, cfg in pairs:
        for _name, (_ok, margin) in certificate_inequalities(cert, cfg).items():
            worst = max(worst, -margin)
    _scoreboard(
        4,
        worst <= 1e-10 and len(pairs) > 300,
        "%d accepted certificates, worst inequality violation %.3e"
        % (len(pairs), worst),
    )


def test_05_relative_sandwich(suite_rows):
    names = [name for name, _desc in __import__("hiprox").list_problems()]
    for name in names:
        m3 = get_problem(name).m_next(3)
        if not np.isfinite(m3) or m3 <= 0.0:
            m3 = 1.0  # degenerate declared sup; any positive bound is valid
        rc = relative_constants(3, bilevel_h(3, m3), m3)
        np.testing.assert_allclose((rc.xi, rc.mu, rc.lsmooth), (2.0, 0.5, 1.5))
    results = [r for r in suite_rows("sandwich") if " values (p=" in r.name]
    assert {"%s values (p=3)" % name for name in names} <= {r.name for r in results}
    worst = max(r.violation for r in results)
    _scoreboard(
        5,
        all(r.passed for r in results),
        "mu=1/2, L=3/2 Bregman sandwich, worst violation %.3e" % worst,
    )


def test_06_inner_loop_descent_contraction_logfit(suite_rows):
    wanted = ("inner descent inequality", "inner contraction", "iteration log fit")
    results = [r for r in suite_rows("bregman") if r.name in wanted]
    assert len(results) == len(wanted)
    ok = all(r.passed for r in results)
    detail = "; ".join("%s %.2e" % (r.name, r.violation) for r in results)
    _scoreboard(6, ok, detail)


def test_07_acceptance_region_scan(example_run):
    # the closed-form window against the accepted points of `hiprox run --mode example1`
    prob = get_problem("linear-nonneg-1d")
    h, beta = 1.0, 0.85
    out = example_run("example1")
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["h"], summary["beta"]) == (h, beta)
    scan = np.loadtxt(out / "scan.csv", delimiter=",", skiprows=1)
    endpoint_err = 0.0
    for anchor in (0.6, 1.4):
        lo = max(0.0, anchor - (1.0 + beta) ** (1.0 / 3.0))
        hi = anchor - (1.0 - beta) ** (1.0 / 3.0)
        accepted = scan[(scan[:, 0] == anchor) & (scan[:, 5] == 1), 1]
        endpoint_err = max(
            endpoint_err, abs(accepted[0] - lo), abs(accepted[-1] - hi)
        )
        # the acceptance region is a single interval at grid resolution
        assert len(accepted) == int(round((accepted[-1] - accepted[0]) / 1e-4)) + 1
    prox_ok = True
    for beta_t in np.linspace(0.0, 0.95, 20):
        for anchor in (0.6, 1.4):
            cfg_t = ProxConfig(3, h, beta_t)
            t, g = exact_prox(prob.oracle, prob.term, cfg_t, np.array([anchor]))
            cert = check_acceptable(
                prob.oracle, prob.term, cfg_t, np.array([anchor]), t, g
            )
            prox_ok = prox_ok and cert.accepted
    _scoreboard(
        7,
        endpoint_err <= 1.01e-4 and prox_ok,
        "scan endpoints within %.2e of closed form; exact prox accepted at all beta"
        % endpoint_err,
    )


def test_08_tensor_criterion_region(suite_rows):
    m4, gamma = 24.0, 8.0 / 19.0
    m_scaled = 1.9 * m4
    beta_level = (m4 + gamma * m_scaled) / ((1.0 - gamma) * m_scaled - m4)
    h_level = m_scaled / math.factorial(3)
    np.testing.assert_allclose((beta_level, h_level), (18.0, 7.6), rtol=1e-12)
    # the row reports inf when no grid point passes the criterion
    [row] = [r for r in suite_rows("tensor") if r.name == "criterion region maps to acceptance"]
    _scoreboard(
        8,
        row.violation <= 0.0,
        "criterion region nonempty, all accepted at level beta=18 (worst excess %.3e)"
        % row.violation,
    )


def test_09_scaling_hessian_and_odd_bracket(suite_rows):
    # The odd-derivative bracket is checked against each problem's declared
    # derivative bound with no extra cushion (see verify.suite_sandwich for
    # its derivation from convexity on y +- xi h), at p = 3, 4, 5, including
    # the pure quartics with M = 0 (where it is tight).
    rows = {r.name: r for r in suite_rows("sandwich")}
    names = [name for name, _desc in __import__("hiprox").list_problems()]
    print("    %-18s %-12s %-12s" % ("problem", "-min d2rho", "bracket"))
    worst_overall = -np.inf
    ok = True
    for name in names:
        psd = rows[name + " rho hessian psd"]
        bracket = rows[name + " odd bracket (p=3,4,5)"]
        ok = ok and psd.passed and bracket.passed
        worst_overall = max(worst_overall, psd.violation, bracket.violation)
        flag = "" if psd.passed and bracket.passed else "  <-- violated"
        print("    %-18s %-12.3e %-12.3e%s" % (name, psd.violation, bracket.violation, flag))
    _scoreboard(
        9,
        ok,
        "scaling Hessian psd + odd bracket, worst violation %.3e" % worst_overall,
    )


def test_10_oracle_finite_differences():
    rng = np.random.default_rng(3)
    worst = 0.0
    for name, _desc in __import__("hiprox").list_problems():
        prob = get_problem(name)
        for _ in range(5):
            x = prob.term.project(prob.sample(rng, 1)[0])
            u = rng.standard_normal(prob.dimension)
            u /= np.linalg.norm(u)
            worst = max(worst, fd_check(prob.oracle, x, u, 1))
            worst = max(worst, fd_check(prob.oracle, x, u, 2))
    _scoreboard(
        10, worst <= 1e-5, "gradient/Hessian FD relative error %.3e" % worst
    )


def test_11_bilevel_end_to_end():
    t0 = time.perf_counter()
    ok = True
    details = []
    for p in (4, 5):
        prob = get_problem("neglog-sep")
        prob.oracle.reset_counters()
        trace = biopt_run(prob, p, eps=1e-6, max_k=200)
        # each step is certified at its own H_k = 6 M_k/(p-1)!
        cfgs = [ProxConfig(p, bilevel_h(p, m_k), trace.aux["config"]["beta"])
                for m_k in trace.aux["m_k"]]
        CERT_STORE.extend(zip(trace.certificates, cfgs))
        gap = trace.rows[-1].gap
        orders = sorted(prob.oracle.calls_by_order)
        only_low = all(k <= 2 for k in orders)
        cert_worst = -np.inf
        for cert, cfg in zip(trace.certificates, cfgs):
            for _n, (_okk, margin) in certificate_inequalities(cert, cfg).items():
                cert_worst = max(cert_worst, -margin)
        ok = ok and trace.status == "converged" and gap <= 1e-6
        ok = ok and only_low and cert_worst <= 1e-10
        details.append(
            "p=%d gap %.2e in %d outer steps, oracle orders %s"
            % (p, gap, trace.rows[-1].k, orders)
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _scoreboard(11, ok, "; ".join(details) + ", %.2fs" % elapsed)
