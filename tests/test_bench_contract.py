"""The bench tracer's hooks into the package: bench/spans.py must still install.

``bench/spans.py`` wraps package functions where they are bound and names
every inner step by ``StepSolver.route``; a cleanup that drops one of those
names breaks ``python3 bench/run.py --trace 1``, so this test runs it once.
"""

import importlib.util
from pathlib import Path

from hiprox import ProxConfig, bilevel_h, get_problem, inner_solve, relative_constants

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_prox_newton_steps():
    prob = get_problem("quartic-1d")
    m = prob.m_next(3)
    h = bilevel_h(3, m)
    cfg = ProxConfig(p=3, h=h, beta=1.0 / 3.0)
    rc = relative_constants(3, h, m)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        res = inner_solve(prob.oracle, prob.term, cfg, rc, prob.x0)
    finally:
        tracer.uninstall()
    calls = tracer.take_pass()["calls"]
    assert calls.get("inner.step.prox_newton", 0) == res.iterations > 0
    assert calls.get("inner.step.univariate", 0) == 0
