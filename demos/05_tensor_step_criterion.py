"""One tensor step can serve as the certified inexact prox.

Instead of running an iterative inner loop, minimize the pth-order Taylor
model of f augmented with (M/p!) |x - xb|^(p+1) plus the composite term, and
accept any point whose augmented-model residual is at most gamma/(1+gamma)
times its composite residual. A parameter map converts a criterion-passing
point into an acceptance certificate: choosing M = (1+beta)/(beta(1-gamma)-gamma) M_{p+1}
makes every criterion-passing point acceptable at level beta for
H = M/p!.

Model problem: f(x) = x^4 + |x| at anchor 0.8, p = 3, M_4 = 24.
"""
import numpy as np

from hiprox import (
    ProxConfig,
    TaylorModel,
    candidates,
    check_acceptable,
    get_problem,
    tensor_acceptance_map,
    tensor_criterion,
    tensor_step,
)

prob = get_problem("quartic-abs-1d")
gamma = 8.0 / 19.0
anchor = np.array([0.8])

# forward map: pick the target certificate level first
beta = 0.9
m, h = tensor_acceptance_map(3, beta, gamma, 24.0)
print("target beta = %.1f, gamma = %s -> model constant M = %.0f, H = M/3! = %.0f"
      % (beta, "8/19", m, h))

cfg = ProxConfig(3, h, beta)
tm = TaylorModel(prob.oracle, anchor, 3, m)

t, g, ok, lhs, rhs = tensor_step(tm, prob.term, gamma)
cert = check_acceptable(prob.oracle, prob.term, cfg, anchor, t, g)
print("exact augmented-model step: T = %.6f, criterion %.2e <= %.2e (%s)"
      % (t[0], lhs, gamma / (1 + gamma) * rhs, ok))
print("certificate at beta = %.1f: lhs %.3e vs beta*rhs %.3e -> accepted = %s"
      % (beta, cert.lhs, beta * cert.rhs, cert.accepted))
print()

# scan: every criterion-passing point is acceptable, not just the minimizer
grid = np.linspace(-1.0, 1.5, 2001)[:, None]
passing = [(point, gx) for point, gx, at in candidates(tm, prob.term, grid)
           if tensor_criterion(at, gx, gamma)[0]]
n_pass = len(passing)
n_acc = sum(check_acceptable(prob.oracle, prob.term, cfg, anchor, point, gx).accepted
            for point, gx in passing)
print("grid scan over [-1, 1.5]: %d criterion-passing points in [%.4f, %.4f]"
      % (n_pass, passing[0][0][0], passing[-1][0][0]))
print("of these, %d/%d are accepted by the certificate" % (n_acc, n_pass))
