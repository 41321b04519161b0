"""The bench tracer's hooks into the package: bench/spans.py must still install.

``bench/spans.py`` wraps package functions where they are bound and names
every inner step by ``StepSolver.route``; a cleanup that drops one of those
names breaks ``python3 bench/run.py --trace 1``, so this test runs it once.
Its ``inner.solves`` row counts ``inner_solve`` calls through the binding in
``outer``, whatever arguments the provider passes.
"""

import pytest

from hiprox import ProxConfig, bilevel_h, get_problem, inner_solve, outer, relative_constants

def test_tracer_counts_prox_newton_steps(bench_module):
    prob = get_problem("quartic-1d")
    m = prob.m_next(3)
    h = bilevel_h(3, m)
    cfg = ProxConfig(p=3, h=h, beta=1.0 / 3.0)
    rc = relative_constants(3, h, m)
    tracer = bench_module("spans").Tracer()
    tracer.install()
    try:
        res = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0, prob.x0)
    finally:
        tracer.uninstall()
    calls = tracer.take_pass()["calls"]
    # every step candidate is one traced step, the rejected ones too
    assert calls.get("inner.step.prox_newton", 0) == res.iterations + res.trace.backtracks
    assert res.iterations > 0
    assert calls.get("inner.step.univariate", 0) == 0


@pytest.mark.parametrize("provider_kind", ["exact", "tensor"])
def test_exact_prox_and_tensor_steps_feed_no_bregman_step_rows(provider_kind, bench_module):
    # the exact prox and the tensor step share prox-Newton with the Bregman
    # step, but only StepSolver.step counts as an inner step, and nothing
    # reaches the bisection any more
    prob = get_problem("quartic-abs-1d")
    if provider_kind == "exact":
        cfg = ProxConfig(p=3, h=bilevel_h(3, prob.m_next(3)), beta=1.0 / 3.0)
        provider = outer.exact_prox_provider(prob.oracle, prob.term, cfg)
    else:
        provider, cfg = outer.tensor_prox_provider(prob.oracle, prob.term, 3, 0.9, 8.0 / 19.0,
                                                   prob.m_next(3))
    tracer = bench_module("spans").Tracer()
    tracer.install()
    try:
        trace = outer.ihopp_run(prob, cfg, provider, eps=1e-8, max_k=100)
    finally:
        tracer.uninstall()
    calls = tracer.take_pass()["calls"]
    assert trace.status == "converged"
    assert calls.get("acceptance.check_acceptable", 0) == len(trace.rows) - 1 > 0
    assert calls.get("inner.step.prox_newton", 0) == 0
    assert not [name for name in calls if name.startswith("univariate.")]


def test_tracer_counts_one_coefficient_pair_per_bilevel_step(bench_module):
    # the bench's outer.steps row counts outer.coefficients calls
    prob = get_problem("neglog-sep")
    tracer = bench_module("spans").Tracer()
    tracer.install()
    try:
        trace = outer.biopt_run(prob, 3, eps=1e-6, max_k=100)
    finally:
        tracer.uninstall()
    calls = tracer.take_pass()["calls"]
    assert trace.status == "converged"
    assert calls.get("outer.coefficients", 0) == len(trace.rows) - 1 > 0
    assert calls.get("outer.aihopp_run", 0) == 1
    assert calls.get("outer.inner_prox_provider", 0) == 1


def test_tracer_counts_one_inner_solve_per_bilevel_step(bench_module):
    # the provider passes the start T_{k-1} to inner_solve; the wrapper in
    # outer must still see every solve once, and every step under it
    prob = get_problem("neglog-sep")
    tracer = bench_module("spans").Tracer()
    tracer.install()
    try:
        trace = outer.biopt_run(prob, 3, eps=1e-6, max_k=100)
    finally:
        tracer.uninstall()
    calls = tracer.take_pass()["calls"]
    assert trace.status == "converged"
    steps = len(trace.rows) - 1
    assert calls.get("inner.inner_solve", 0) == steps > 0
    backtracks = sum(t.backtracks for t in trace.inner_traces)
    assert calls.get("inner.step.prox_newton", 0) == sum(max(r.inner_iters, 1)
                                                         for r in trace.rows[1:]) + backtracks


def test_tracer_sees_the_array_family_methods(bench_module):
    # the tracer wraps the family methods named value and derivative; on
    # arrays each call covers one residual vector, so the rows stay non-zero
    prob = get_problem("neglog-sep")
    tracer = bench_module("spans").Tracer()
    tracer.install()
    try:
        trace = outer.biopt_run(prob, 3, eps=1e-6, max_k=100)
    finally:
        tracer.uninstall()
    calls = tracer.take_pass()["calls"]
    assert trace.status == "converged"
    assert calls.get("scalar_families.NegLog.derivative", 0) > 0
    assert calls.get("scalar_families.NegLog.value", 0) > 0
