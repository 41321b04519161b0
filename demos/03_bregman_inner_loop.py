"""Inside one proximal subproblem: the Bregman composite gradient loop.

A single outer iteration needs an acceptable point of

    f_reg(z) = f(z) + H d_{p+1}(z - anchor).

The inner solver does not use the Euclidean geometry. It measures distances
with the Bregman divergence of a scaling function rho built from the even
Taylor terms of f at the anchor plus the same H d_{p+1} term, because f_reg
is relatively smooth AND relatively strongly convex with respect to rho with
constants L = 3/2, mu = 1/2 (condition number 1/3, dimension-free). Each
step solves a prox subproblem in that geometry with its own constant L_i,
which starts at L, halves after a kept step (never below mu) and doubles
when the relative descent test rejects a candidate. Each step emits a
constructive subgradient, and the loop stops the moment the pair passes the
acceptance certificate.
"""
import numpy as np

from hiprox import (
    ProxConfig,
    ScalingFunction,
    bilevel_h,
    bregman_distance,
    get_problem,
    inner_solve,
    relative_constants,
)

prob = get_problem("quartic-sep-10d")
p = 3
m = prob.m_next(p)
h = bilevel_h(p, m)
rc = relative_constants(p, h, m)
cfg = ProxConfig(p=p, h=h, beta=1.0 / p)

print("H = 6 M_{p+1} / (p-1)! = %.0f gives xi = %.0f, mu = %.2f, L = %.2f, kappa = %.3f"
      % (h, rc.xi, rc.mu, rc.lsmooth, rc.kappa))
print()

anchor = np.asarray(prob.x0, dtype=float)
res = inner_solve(prob.oracle, prob.term, cfg, rc, anchor, anchor)
rows = res.trace.rows

print("inner run from the catalog starting point (accepted after %d steps; candidates"
      " rejected by the descent test: %d):" % (res.iterations, res.trace.backtracks))
print("  i   L_i    phi(z_i)        step Bregman dist   cert lhs/rhs")
for r in rows:
    ratio = "" if np.isnan(r.ratio) else "%.4f" % r.ratio
    step = "" if np.isnan(r.bregman_step) else "%.3e" % r.bregman_step
    l_i = "" if r.i == 0 else "%.3f" % res.trace.lsmooth[r.i - 1]
    print("  %-3d %-6s %.10f  %-18s %s" % (r.i, l_i, r.phi, step, ratio))
print()
print("phi decreases at every step, and the certificate ratio falls under")
print("beta = 1/p = %.4f, at which point the pair (z, g) is returned." % cfg.beta)

# geometric contraction toward the subproblem minimizer (rerun the loop with
# a nearly-exact acceptance level to get a reference solution)
sf = ScalingFunction(prob.oracle, anchor, p, h)
ref = inner_solve(
    prob.oracle, prob.term, ProxConfig(p, h, 1e-8), rc, anchor, anchor, max_iter=200
)
z_star = ref.certificate.point
print()
print("reference solve at beta = 1e-8: %d steps, L_i in [%.2f, %.2f]"
      % (ref.iterations, min(ref.trace.lsmooth), max(ref.trace.lsmooth)))
b = [bregman_distance(sf, z, z_star) for z in res.trace.points[:-1]]
print()
print("Bregman distance to the subproblem solution contracts like (1 - mu/(2 L_i)):")
for i in range(1, len(b)):
    print("  i=%d  beta_rho(z_i, z*) = %.3e   ratio to previous = %.3f   1 - mu/(2 L_i) = %.3f"
          % (i, b[i], b[i] / b[i - 1] if b[i - 1] > 0 else float("nan"),
             1.0 - rc.mu / (2.0 * res.trace.lsmooth[i - 1])))
