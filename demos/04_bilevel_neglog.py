"""The full bi-level solver on a box-constrained log-barrier objective.

The outer level is the accelerated inexact proximal loop of order p; the
inner level is the Bregman composite gradient scheme. The schedule ties all
parameters to one constant, the derivative bound M_{p+1} over the working
set: H = 6 M_{p+1} / (p-1)! and beta = 1/p, which makes the inner geometry
(1/3)-conditioned regardless of dimension or p. Step k runs at its own
M_k <= M_{p+1}, halved after a cheap inner solve and doubled after a dear
one, and is certified at H_k = 6 M_k / (p-1)!; the printout shows the range
M_k took.

The objective sum_i -log(b_i - <a_i, x>) has a special structure: every even
derivative of -log(t) is a power of the second, f^(2k) = (2k-1)! (f'')^k, so
the degree-2q scaling polynomial needs only f'' evaluations. Watch the
oracle's call counter: no derivative order above 2 is ever requested even
for p = 4, 5 (which use fourth-order Taylor information in rho).
"""
import time

from hiprox import biopt_run, get_problem

for p in (3, 4, 5):
    prob = get_problem("neglog-sep")
    prob.oracle.reset_counters()
    t0 = time.perf_counter()
    trace = biopt_run(prob, p, eps=1e-6, max_k=200)
    elapsed = time.perf_counter() - t0
    last = trace.rows[-1]
    print("p = %d: %s after %d outer steps, %d inner steps total, %.2fs"
          % (p, trace.status, last.k, trace.inner_total, elapsed))
    print("  F = %.12f  gap = %.3e" % (last.f_value, last.gap))
    summary = trace.summary()
    lo, hi = summary["m_range"]
    print("  M_k in [%.3g, %.3g] (declared M_%d = %.3g): %d halvings, %d doublings"
          % (lo, hi, p + 1, prob.m_next(p), summary["m_halvings"], summary["m_doublings"]))
    print("  oracle calls by derivative order: %s"
          % dict(sorted(prob.oracle.calls_by_order.items())))
    print()

print("gap trajectory for p = 5 (outer k, gap, certified inner steps, M_k of step k):")
prob = get_problem("neglog-sep")
trace = biopt_run(prob, 5, eps=1e-6, max_k=200)
print("  k=0   gap=%.3e" % trace.rows[0].gap)
for r, m_k in zip(trace.rows[1:], trace.aux["m_k"]):
    print("  k=%-3d gap=%.3e  inner=%d  M_k=%.4g" % (r.k, r.gap, r.inner_iters, m_k))
