"""Walk through the acceptance certificate on a tiny 1-D problem.

The model problem is f(x) = x restricted to the nonnegative ray. Its
high-order proximal point from an anchor xb minimizes

    x + H |x - xb|^(p+1) / (p+1)   over x >= 0,

and a candidate pair (T, g) with g in the normal cone is "acceptable at
level beta" when the regularized residual is at most beta times the plain
composite residual. For this problem and p = 3, H = 1 the acceptable set is
a closed interval with known endpoints

    [xb - (1 + beta)^(1/3), xb - (1 - beta)^(1/3)]  intersected with [0, inf),

so we can see the certificate carve out exactly that window.
"""
import numpy as np

from hiprox import (ProxConfig, RegularizedObjective, acceptable_interval_1d, candidates,
                    check_acceptable, exact_prox, get_problem)

prob = get_problem("linear-nonneg-1d")
beta = 0.85
cfg = ProxConfig(p=3, h=1.0, beta=beta)

for anchor in (0.6, 1.4):
    av = np.array([anchor])
    t, g = exact_prox(prob.oracle, prob.term, cfg, av)
    cert = check_acceptable(prob.oracle, prob.term, cfg, av, t, g)
    interval = acceptable_interval_1d(cfg, anchor)
    print("anchor xb = %.1f" % anchor)
    print("  exact prox point T = %.6f, subgradient g = %.6f" % (t[0], g[0]))
    print("  certificate lhs = %.3e <= beta * rhs = %.3e -> accepted = %s"
          % (cert.lhs, beta * cert.rhs, cert.accepted))
    print("  closed-form acceptable window: [%.6f, %.6f]" % interval)

    # scan a grid, g at each point nearest -grad f_reg, and confirm the
    # accepted points fill exactly that window
    reg = RegularizedObjective(prob.oracle, av, 3, cfg.h)
    grid = np.arange(0.0, 2.5, 1e-3)[:, None]
    accepted = [point[0] for point, gx, _ in candidates(reg, prob.term, grid)
                if check_acceptable(prob.oracle, prob.term, cfg, av, point, gx).accepted]
    print("  grid scan: first accepted %.4f, last accepted %.4f (%d points)"
          % (accepted[0], accepted[-1], len(accepted)))
    print()

print("smaller beta shrinks the window toward the exact prox point:")
for b in (0.6, 0.3, 0.1, 0.01):
    lo, hi = acceptable_interval_1d(ProxConfig(3, 1.0, b), 1.4)
    print("  beta = %-5g window = [%.6f, %.6f], width %.6f" % (b, lo, hi, hi - lo))
